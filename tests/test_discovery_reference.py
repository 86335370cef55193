"""The ansatz search against its per-shape reference.

`discover` builds the integer rows of the divided identity once and
runs one elimination per trial order, which answers the n = 0 test of
every shape of that order.  The reference below is the search shape by
shape: the columns built as Polys, each shape's rows cleared from them
over their own common denominator, its own n = 0 test, then the block
systems of `_polynomial_kernel`.  Both must return the same pair, or
both exhaust the search."""

import re
from fractions import Fraction

import pytest

from conftest import benchmark_workloads, pencil_rows
from telescopic import (
    AnsatzExhaustedError,
    IntegrandFamily,
    ParameterPair,
    Poly,
    discover,
    make_left_family,
    make_right_family,
    solve_nullspace,
)
from telescopic.telescoping import _assemble, _polynomial_kernel

BOUNDS = [(1, 4), (2, 3), (2, 4), (3, 5)]  # (max_order, max_cert_degree)


def poly_pencil(fam, max_order, max_cert_degree):
    """The columns A + n * B as pairs of Polys, over Q^m with Q monic:
    c_k has A = (x(1-x)/l)^k Q^(m-k), m_j has A = -(p_j' Q - 2 p_j Q') Q^(m-2)
    and B = (p_j Q' - x^j (2x-1) Q) Q^(m-2), p_j = x(x-1) x^j."""
    q = fam.cofactor.den
    dq = q.derivative()
    r_num = Poly([0, 1, -1]) * (1 / fam.den.leading_coefficient())
    m = max(2, max_order)
    rec = [(r_num**k * q ** (m - k), Poly.zero()) for k in range(max_order + 1)]
    cert = []
    for j in range(max_cert_degree - 1):
        x_j = Poly((0,) * j + (1,))
        p = Poly([0, -1, 1]) * x_j
        a = (2 * p * dq - p.derivative() * q) * q ** (m - 2)
        b = (p * dq - x_j * Poly([-1, 2]) * q) * q ** (m - 2)
        cert.append((a, b))
    return rec, cert


def per_shape_search(fam, max_order, max_cert_degree):
    rec_columns, cert_columns = poly_pencil(fam, max_order, max_cert_degree)
    for rho in range(1, max_order + 1):
        for d in range(1, max_cert_degree + 1):
            a_rows, b_rows = pencil_rows(rec_columns[: rho + 1] + cert_columns[: d - 1])
            if not solve_nullspace(a_rows):
                continue  # no kernel at n = 0, so none at any n
            polys = _polynomial_kernel(a_rows, b_rows)
            if polys is not None:
                return _assemble(fam, polys, rho)
    raise AnsatzExhaustedError(max_order, max_cert_degree)


def assert_same_search(fam, max_order, max_cert_degree):
    try:
        expected = per_shape_search(fam, max_order, max_cert_degree)
    except AnsatzExhaustedError as exhausted:
        with pytest.raises(AnsatzExhaustedError, match=re.escape(str(exhausted))):
            discover(fam, max_order, max_cert_degree)
        return False
    assert discover(fam, max_order, max_cert_degree) == expected
    return True


def pencil_member(p):
    """Q_p = c_p x^2 + p x + q_p, sharing U0 = 7 and D0 = 1 with the
    families of (2, 1); c_p < 0 at p = 0 and 1/2."""
    q_p = (7 - p) / 2
    return IntegrandFamily(Poly([q_p, p, (p * p - 1) / (2 * (7 - p))]))


FAMILIES = {
    "beta": IntegrandFamily(Poly.one()),
    "x^2+x+3": IntegrandFamily(Poly([3, 1, 1])),
    **{f"Q_{p}": pencil_member(Fraction(p)) for p in ("-3", "0", "1/2", "2")},
    "(x+1)(x+2)(x+3)": IntegrandFamily(Poly([6, 11, 6, 1])),
}


@pytest.mark.parametrize("max_order, max_cert_degree", BOUNDS)
def test_discover_matches_the_per_shape_search_on_the_benchmark_pairs(
    monkeypatch, max_order, max_cert_degree
):
    found = 0
    for a, b in benchmark_workloads(monkeypatch).prove_pairs(2024):
        params = ParameterPair(a, b)
        for fam in (make_left_family(params), make_right_family(params)):
            found += assert_same_search(fam, max_order, max_cert_degree)
    # every pair has a relation of order 2 whose certificate numerator
    # x(x-1) N has degree 4
    assert found == (60 if max_order >= 2 and max_cert_degree >= 4 else 0)


@pytest.mark.parametrize("max_order, max_cert_degree", BOUNDS)
@pytest.mark.parametrize("name", FAMILIES)
def test_discover_matches_the_per_shape_search(name, max_order, max_cert_degree):
    found = assert_same_search(FAMILIES[name], max_order, max_cert_degree)
    if name == "(x+1)(x+2)(x+3)":
        assert not found
