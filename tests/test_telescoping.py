"""Telescoping verification, the closed form, the exact nullspace solver,
and ansatz discovery of recurrence/certificate pairs."""

import itertools
import math
import random
from fractions import Fraction
from functools import reduce

import pytest

from conftest import count_calls, pencil_rows, random_params
from telescopic import (
    AnsatzExhaustedError,
    Certificate,
    IntegrandFamily,
    ParameterPair,
    Poly,
    RatFunc,
    Recurrence,
    TelescopicError,
    closed_form,
    closed_form_certificates,
    closed_form_recurrence,
    discover,
    make_left_family,
    make_right_family,
    normalize_pair,
    poly_gcd,
    solve_nullspace,
    verify_telescoping,
)
from telescopic.telescoping import _ansatz_rows, _polynomial_kernel


def classical_pair(params):
    rec = closed_form_recurrence(params)
    left_cert, right_cert = closed_form_certificates(params)
    return rec, left_cert, right_cert


def _holds_at(fam, rec, cert, n):
    """Reference: the divided identity evaluated at one numeric n,
    sum_k c_k(n) r^k == R(n)' + R(n) F'/F."""
    lhs = RatFunc.zero()
    for k in range(rec.order + 1):
        lhs = lhs + rec.coeffs[k](n) * fam.ratio**k
    r = cert.at(n)
    f = fam.at(n)
    return lhs == r.derivative() + r * (f.derivative() / f)


def _holds_by_sampling(fam, rec, cert):
    """Reference verdict: the identity at n = 0..12.  Both sides have
    degree <= 12 in n for every pair built in these tests, so this
    decides the identity for all n."""
    return all(_holds_at(fam, rec, cert, n) for n in range(13))


# -- Recurrence / Certificate values ------------------------------------------


def test_recurrence_validation():
    with pytest.raises(ValueError):
        Recurrence(0, (Poly.one(),))
    with pytest.raises(ValueError):
        Recurrence(2, (Poly.one(), Poly.one()))
    with pytest.raises(ValueError):
        Recurrence(1, (Poly.one(), Poly.zero()))


def test_recurrence_queries():
    rec = Recurrence(2, (Poly([1, 1]), Poly([-21, -14]), Poly([2, 1])))
    assert rec.coeffs[1](0) == -21
    assert rec.coeffs[1](2) == -49
    assert rec.degree_in_n() == 1
    assert rec.to_str() == "[n + 1, -14*n - 21, n + 2]"


def test_normalized_is_primitive_with_positive_lead():
    rec = Recurrence(
        1, (Poly([Fraction(2, 3), Fraction(4, 3)]), Poly([Fraction(-2, 3)]))
    )
    normalized, scale = rec.normalized()
    assert scale == Fraction(-3, 2)
    assert normalized.coeffs == (Poly([-1, -2]), Poly([1]))
    again, scale2 = normalized.normalized()
    assert again == normalized and scale2 == 1


def test_certificate_at_and_degree():
    r0 = RatFunc(Poly([0, -1, 1]))
    r1 = RatFunc(Poly([0, 0, -2, 2]))
    cert = Certificate((r0, r1))
    assert cert.n_degree() == 1
    assert cert.at(0) == r0
    assert cert.at(3) == r0 + 3 * r1
    assert Certificate((r0,)).n_degree() == 0
    assert Certificate((RatFunc.zero(),)).n_degree() == 0
    with pytest.raises(ValueError):
        Certificate(())


def test_boundary_invariant():
    good = Certificate((RatFunc(Poly([0, -1, 1]), Poly([1, 1])),))
    assert good.satisfies_boundary_invariant()
    nonzero_at_one = Certificate((RatFunc(Poly([0, 1])),))
    assert not nonzero_at_one.satisfies_boundary_invariant()
    pole_at_zero = Certificate((RatFunc(Poly([0, -1, 1]), Poly([0, 1, 1])),))
    assert not pole_at_zero.satisfies_boundary_invariant()


def test_closed_forms_and_scalings_are_the_gcd_reduced_quotients():
    # all are built without a gcd; the full constructor must agree
    rng = random.Random(403)
    x_x1 = Poly([0, -1, 1])
    for bound in (50, 10**6):
        for _ in range(20):
            params = random_params(rng, bound)
            a, b = params.a, params.b
            c1, c2 = closed_form_certificates(params)
            assert c1.parts == (
                RatFunc(x_x1 * Poly([-a * b, 2 * a * b, a + b + 1]), Poly([a * b, a + b, 1])),
            )
            assert c2.parts == (
                RatFunc(
                    x_x1 * Poly([-(a + 1) * b, 2 * b * (a + 1), a - b]),
                    Poly([(a + 1) * b, a - b]),
                ),
            )
            factor = -Fraction(rng.randint(1, bound), rng.randint(1, bound))
            for cert in (c1, c2):
                part = cert.parts[0]
                assert cert.scaled(factor).parts == (RatFunc(factor * part.num, part.den),)
                assert cert.scaled(Fraction(0)).parts == (RatFunc.zero(),)


# -- verification of the closed forms ------------------------------------------


def test_closed_forms_verify_at_reference_pair():
    params = ParameterPair(2, 1)
    rec, c1, c2 = classical_pair(params)
    assert verify_telescoping(make_left_family(params), rec, c1)
    assert verify_telescoping(make_right_family(params), rec, c2)


def test_closed_forms_verify_on_random_pairs():
    rng = random.Random(401)
    for _ in range(10):
        params = random_params(rng)
        rec, c1, c2 = classical_pair(params)
        for fam, cert in ((make_left_family(params), c1), (make_right_family(params), c2)):
            assert verify_telescoping(fam, rec, cert)
            assert _holds_by_sampling(fam, rec, cert)


def _pencil_member(params, p):
    """The member Q_p = c_p x^2 + p x + q_p of the pencil of denominators
    with the invariants U0 = p + 2q and D0 = p^2 - 4cq of the pair's families."""
    a, b = params.a, params.b
    u0, d0 = 2 * a * b + a + b, (a - b) ** 2
    q_p = (u0 - p) / 2
    return IntegrandFamily(Poly([q_p, p, (p * p - d0) / (2 * (u0 - p))]))


@pytest.mark.parametrize(
    "a, b", [(2, 1), (Fraction(7, 2), Fraction(1, 3)), (5, 3), (11, 2)]
)
def test_closed_form_on_the_pencil_of_equal_invariants(a, b):
    # p = a+b is the left family, p = a-b the right one; the rest share only
    # U0 and D0 with them, and so the recurrence and the integrals
    params = ParameterPair(a, b)
    left = make_left_family(params)
    rec, _ = closed_form(left)
    expected = list(itertools.islice(left.integrals(), 5))
    u0 = 2 * params.a * params.b + params.a + params.b
    for p in (-100, -3, 0, Fraction(1, 2), a - b, a + b, u0 - Fraction(1, 10), 1, 2):
        fam = _pencil_member(params, Fraction(p))
        member_rec, cert = closed_form(fam)
        assert member_rec == rec, p
        assert verify_telescoping(fam, rec, cert), p
        assert cert.satisfies_boundary_invariant(), p
        assert list(itertools.islice(fam.integrals(), 5)) == expected, p


def test_closed_form_of_other_invariants_and_refusals():
    left = make_left_family(ParameterPair(2, 1))  # U0 = 7, D0 = 1
    other = IntegrandFamily(Poly([3, 1, 1]))  # x^2 + x + 3: U0 = 7, D0 = -11
    rec, cert = closed_form(other)
    assert verify_telescoping(other, rec, cert)
    assert rec != closed_form(left)[0]
    with pytest.raises(TelescopicError, match=r"degenerate.*\(a-b\)\^2"):
        closed_form(IntegrandFamily(Poly([1, 2, 1])))  # (x+1)^2: D0 = 0
    with pytest.raises(ValueError, match="degree <= 2"):
        closed_form(IntegrandFamily(Poly([1, 1, 1, 1])))


def test_closed_form_holds_in_sympy_for_symbolic_coefficients():
    # the divided identity with c, p, q, n and x all symbolic, and the
    # closed form of a few denominators read off the same expressions
    sympy = pytest.importorskip("sympy")
    c, p, q, n, x = sympy.symbols("c p q n x")
    den = c * x**2 + p * x + q
    u0, d0 = p + 2 * q, p**2 - 4 * c * q
    coeffs = [n + 1, -(2 * n + 3) * u0, d0 * (n + 2)]
    big_r = x * (x - 1) * ((p + c) * x**2 + 2 * q * x - q) / den
    r = x * (1 - x) / den
    log_derivative = sympy.diff(-sympy.log(den) + n * sympy.log(r), x)
    lhs = sum(ck * r**k for k, ck in enumerate(coeffs))
    assert sympy.cancel(lhs - sympy.diff(big_r, x) - big_r * log_derivative) == 0
    for values in ((1, 3, 2), (0, 5, 7), (Fraction(-2, 3), Fraction(9, 4), Fraction(1, 5))):
        fam = IntegrandFamily(Poly(values[::-1]))
        subs = {s: sympy.Rational(v.numerator, v.denominator) for s, v in zip((c, p, q), map(Fraction, values))}
        rec, cert = closed_form(fam)
        for ck, expr in zip(rec.coeffs, coeffs):
            assert sympy.expand(_sympy_expr(sympy, ck, n) - expr.subs(subs)) == 0
        part = cert.parts[0]
        as_expr = _sympy_expr(sympy, part.num, x) / _sympy_expr(sympy, part.den, x)
        assert sympy.cancel(as_expr - big_r.subs(subs)) == 0


def test_verification_depends_on_large_n_too():
    # the n-free verdict covers every n; spot-check a few larger n
    # directly against the per-n reference
    params = ParameterPair(Fraction(7, 3), Fraction(1, 2))
    rec, c1, _ = classical_pair(params)
    fam = make_left_family(params)
    assert verify_telescoping(fam, rec, c1)
    for n in (5, 11, 23):
        assert _holds_at(fam, rec, c1, n)


def test_error_only_at_the_top_power_of_n_fails():
    # R_1 = den makes (R_1 c)' = 0, so the n^1 identity still holds and the
    # error n^2 * den * r'/r shows only at e = len(parts) = 2
    params = ParameterPair(2, 1)
    rec, c1, c2 = classical_pair(params)
    for fam, cert in ((make_left_family(params), c1), (make_right_family(params), c2)):
        extended = Certificate(cert.parts + (RatFunc(fam.den),))
        assert not verify_telescoping(fam, rec, extended)
        assert not _holds_by_sampling(fam, rec, extended)


def test_zero_trailing_part_still_verifies():
    params = ParameterPair(Fraction(7, 2), Fraction(1, 3))
    rec, c1, c2 = classical_pair(params)
    for fam, cert in ((make_left_family(params), c1), (make_right_family(params), c2)):
        padded = Certificate(cert.parts + (RatFunc.zero(), RatFunc.zero()))
        assert verify_telescoping(fam, rec, padded)


def test_normalize_pair_preserves_verification():
    rng = random.Random(402)
    params = ParameterPair(Fraction(5, 2), Fraction(3, 4))
    rec, c1, c2 = classical_pair(params)
    fam = make_left_family(params)
    for _ in range(10):
        q = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
        scaled_rec = Recurrence(rec.order, tuple(q * c for c in rec.coeffs))
        scaled_cert = c1.scaled(q)
        # jointly scaled pairs still verify...
        assert verify_telescoping(fam, scaled_rec, scaled_cert)
        # ...and normalize back to one canonical pair
        norm_rec, (norm_cert,) = normalize_pair(scaled_rec, (scaled_cert,))
        base_rec, (base_cert,) = normalize_pair(rec, (c1,))
        assert norm_rec == base_rec
        assert norm_cert == base_cert


def test_mismatched_scaling_fails_verification():
    params = ParameterPair(2, 1)
    rec, c1, _ = classical_pair(params)
    fam = make_left_family(params)
    assert not verify_telescoping(fam, rec, c1.scaled(Fraction(2)))


def _mutated(rng, rec, cert):
    """One random coefficient of the recurrence (possibly raising its
    degree in n) or of a certificate part (possibly a new n^1 part) moved."""
    delta = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
    if rng.random() < 0.5:
        k = rng.randrange(rec.order + 1)
        coeffs = list(rec.coeffs)
        pc = list(coeffs[k].coeffs) + [Fraction(0)]
        pc[rng.randrange(len(pc))] += delta
        coeffs[k] = Poly(pc)
        return Recurrence(rec.order, tuple(coeffs)), cert
    parts = list(cert.parts) + [RatFunc.zero()]
    t = rng.randrange(len(parts))
    pc = list(parts[t].num.coeffs) + [Fraction(0)] * 6
    pc[rng.randrange(6)] += delta
    parts[t] = RatFunc(Poly(pc), parts[t].den)
    return rec, Certificate(tuple(parts))


def test_single_coefficient_mutations_fail():
    rng = random.Random(403)
    params = ParameterPair(2, 1)
    rec, c1, _ = classical_pair(params)
    fam = make_left_family(params)
    for _ in range(60):
        mutated_rec, mutated_cert = _mutated(rng, rec, c1)
        assert not verify_telescoping(fam, mutated_rec, mutated_cert)


def test_verdict_matches_the_per_n_reference_on_mutations():
    # every fourth case is a jointly scaled pair, which must still verify
    rng = random.Random(408)
    verdicts = []
    for case in range(160):
        params = random_params(rng, bound=12)
        rec, c1, c2 = classical_pair(params)
        fam, cert = rng.choice(
            ((make_left_family(params), c1), (make_right_family(params), c2))
        )
        if case % 4 == 0:
            q = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            rec = Recurrence(rec.order, tuple(q * c for c in rec.coeffs))
            cert = cert.scaled(q)
        else:
            rec, cert = _mutated(rng, rec, cert)
        verdict = verify_telescoping(fam, rec, cert)
        assert verdict == _holds_by_sampling(fam, rec, cert)
        verdicts.append(verdict)
    assert verdicts.count(True) == 40  # 120 mutations all fail


# -- nullspace solver ----------------------------------------------------------


def test_nullspace_known_kernel():
    # x + y + z = 0, x + 2y + 3z = 0 -> kernel spanned by (1, -2, 1)
    matrix = [[1, 1, 1], [1, 2, 3]]
    basis = solve_nullspace([[Fraction(c) for c in row] for row in matrix])
    assert basis == [(1, -2, 1)]


def test_nullspace_full_rank_is_empty():
    assert solve_nullspace([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]) == []


def test_nullspace_zero_matrix_gives_standard_basis():
    basis = solve_nullspace([[Fraction(0), Fraction(0)]])
    assert basis == [(1, 0), (0, 1)]


def test_nullspace_canonical_scaling():
    # kernel direction (-2/3, 1) must come out primitive and sign-fixed
    basis = solve_nullspace([[Fraction(3), Fraction(2)]])
    assert basis == [(2, -3)]


def test_nullspace_rejects_ragged_rows():
    with pytest.raises(ValueError):
        solve_nullspace([[Fraction(1)], [Fraction(1), Fraction(2)]])


def test_nullspace_of_integer_rows_matches_fraction_rows_and_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(405)
    for _ in range(100):
        ncols = rng.randint(1, 7)
        rows = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(ncols)]
                for _ in range(rng.randint(1, 4))]
        # sometimes a row that combines two others, so that the rank drops
        rows += [[2 * x - y for x, y in zip(rows[0], rows[-1])]] * rng.randint(0, 1)
        basis = solve_nullspace(rows)
        assert basis == solve_nullspace([[Fraction(c) for c in row] for row in rows])
        expected = []
        for vec in sympy.Matrix(rows).nullspace():
            ints = [int(v * math.lcm(*(sympy.fraction(w)[1] for w in vec))) for v in vec]
            ints = [v // math.gcd(*ints) for v in ints]
            sign = 1 if next(v for v in ints if v) > 0 else -1
            expected.append(tuple(sign * v for v in ints))
        assert basis == expected


def test_nullspace_vectors_annihilate_random_matrices():
    rng = random.Random(404)
    for _ in range(100):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 5)
        matrix = [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        basis = solve_nullspace(matrix)
        rank = len(matrix[0]) - len(basis)
        assert 0 <= rank <= min(nrows, ncols)
        for vec in basis:
            for row in matrix:
                assert sum(c * v for c, v in zip(row, vec)) == 0


# -- discovery -----------------------------------------------------------------


def test_discover_matches_closed_forms_at_reference_pair():
    params = ParameterPair(2, 1)
    expected_rec, (expected_c1, expected_c2) = normalize_pair(
        closed_form_recurrence(params), closed_form_certificates(params)
    )
    rec_l, cert_l = discover(make_left_family(params))
    rec_r, cert_r = discover(make_right_family(params))
    assert rec_l == expected_rec
    assert rec_r == expected_rec
    assert cert_l == expected_c1
    assert cert_r == expected_c2


def test_discover_random_pairs_share_recurrence_with_closed_form():
    rng = random.Random(405)
    for _ in range(5):
        params = random_params(rng, bound=15)
        expected_rec, _ = normalize_pair(
            closed_form_recurrence(params), closed_form_certificates(params)
        )
        for fam in (make_left_family(params), make_right_family(params)):
            rec, cert = discover(fam)
            assert rec == expected_rec
            assert cert.n_degree() == 0
            assert verify_telescoping(fam, rec, cert)
            assert _holds_by_sampling(fam, rec, cert)


def test_discover_beta_family_order_one():
    # int_0^1 x^n (1-x)^n dx satisfies (n+1) I(n) = 2(2n+3) I(n+1)
    beta = IntegrandFamily(Poly.one())
    rec, cert = discover(beta, max_order=1, max_cert_degree=4)
    assert rec == Recurrence(1, (Poly([-1, -1]), Poly([6, 4])))
    assert cert == Certificate((RatFunc(Poly([0, -1, 3, -2])),))
    assert verify_telescoping(beta, rec, cert)
    assert _holds_by_sampling(beta, rec, cert)


def _per_sample_columns(fam, n, max_order=2, max_cert_degree=4):
    """Reference: the ansatz columns rebuilt as rational functions at one n
    from F'/F at that n, with no sharing across samples."""
    f = fam.at(n)
    logd = f.derivative() / f
    rec = [fam.ratio**k for k in range(max_order + 1)]
    cert = []
    for j in range(max_cert_degree - 1):
        x_x_minus_1_xj = Poly((0,) * j + (0, -1, 1))
        col = RatFunc(x_x_minus_1_xj, fam.cofactor.den)
        cert.append(-(col.derivative() + col * logd))
    return rec, cert


def _per_sample_matrix(per_sample_columns, rho, d):
    """Reference: one shape's columns over their own lcm denominator."""
    rec, cert = per_sample_columns
    cols = rec[: rho + 1] + cert[: d - 1]
    common_den = reduce(
        lambda p, q: (p * q).exact_div(poly_gcd(p, q)).monic(), (c.den for c in cols)
    )
    polys = [c.num * common_den.exact_div(c.den) for c in cols]
    return [[p[e] for p in polys] for e in range(max(p.degree() for p in polys) + 1)]


def _shape_rows(fam, rho, d):
    """The A rows and B rows of shape (rho, d), cut from the rows that
    _ansatz_rows builds for (max_order, max_cert_degree) = (2, 4)."""
    columns = [*range(rho + 1), *range(3, 2 + d)]
    return tuple([tuple(row[i] for i in columns) for row in rows] for rows in _ansatz_rows(fam, 2, 4))


def _pencil(a_rows, b_rows):
    """The columns A_i + n * B_i of the rows, as pairs of Polys (A_i, B_i)."""
    return [(Poly(a), Poly(b)) for a, b in zip(zip(*a_rows), zip(*b_rows))]


def test_shared_columns_give_the_per_sample_kernels():
    rng = random.Random(407)
    families = [IntegrandFamily(Poly.one())]
    for _ in range(5):
        params = random_params(rng, bound=15)
        families += [make_left_family(params), make_right_family(params)]
    for fam in families:
        for n in range(9):
            reference = _per_sample_columns(fam, n)
            for rho in range(3):
                for d in range(1, 5):
                    a_rows, b_rows = _shape_rows(fam, rho, d)
                    rows = [[u + n * v for u, v in zip(a, b)] for a, b in zip(a_rows, b_rows)]
                    basis = solve_nullspace(rows)
                    expected = solve_nullspace(_per_sample_matrix(reference, rho, d))
                    assert basis == expected
                    if (rho, d) == (2, 4):
                        assert basis  # the classical shape always has a relation


# -- polynomial kernel of a pencil ------------------------------------------------


_X = Poly([0, 1])


def _has_kernel_of_degree(pencil, degree):
    """Reference: whether some nonzero v(n) of degree <= degree has
    sum_i (A_i + n B_i) v_i(n) = 0.  That sum has degree <= degree + 1
    in n, so it is zero once it is zero at n = 0 .. degree + 1."""
    nrows = max(max(a.degree(), b.degree()) for a, b in pencil) + 1
    rows = []
    for n in range(degree + 2):
        for e in range(nrows):
            rows.append(
                [(a[e] + n * b[e]) * n**t for t in range(degree + 1) for a, b in pencil]
            )
    return bool(solve_nullspace(rows))


def test_polynomial_kernel_of_the_l2_block():
    # columns n, nx - 1, -x: the kernel (1, n, n^2) has degree 2, which no
    # shape of a natural family reaches
    pencil = [(Poly.zero(), Poly.one()), (Poly([-1]), _X), (-_X, Poly.zero())]
    assert _polynomial_kernel(*pencil_rows(pencil)) == [Poly([1]), Poly([0, 1]), Poly([0, 0, 1])]
    assert not _has_kernel_of_degree(pencil, 1)


def test_polynomial_kernel_of_a_full_rank_pencil_is_none():
    # 1 and x are independent at n = 0 already
    assert _polynomial_kernel(*pencil_rows([(Poly.one(), Poly.zero()), (_X, Poly.one())])) is None
    # 1 and n x are dependent at n = 0 only, so every degree is tried
    pencil = [(Poly.one(), Poly.zero()), (Poly.zero(), _X)]
    assert _polynomial_kernel(*pencil_rows(pencil)) is None
    assert not _has_kernel_of_degree(pencil, 1)


def _fraction_row_kernel(pencil):
    """Reference: _polynomial_kernel with one Fraction per matrix entry, as
    the rows were built before they became the columns' integers."""
    width = len(pencil)
    nrows = max(max(a.degree(), b.degree()) for a, b in pencil) + 1
    if not solve_nullspace([[a[e] for a, _ in pencil] for e in range(nrows)]):
        return None
    for degree in range(width):
        rows = []
        for s in range(degree + 2):
            for e in range(nrows):
                row = [Fraction(0)] * (width * (degree + 1))
                for i, (a, b) in enumerate(pencil):
                    if s <= degree:
                        row[s * width + i] = a[e]
                    if s > 0:
                        row[(s - 1) * width + i] = b[e]
                rows.append(row)
        basis = solve_nullspace(rows)
        if basis:
            return [Poly(basis[0][i::width]) for i in range(width)]
    return None


def test_polynomial_kernel_matches_the_fraction_row_reference():
    rng = random.Random(408)
    families = [IntegrandFamily(Poly.one())]
    for bound in (15, 10**6):
        for _ in range(3):
            params = random_params(rng, bound)
            families += [make_left_family(params), make_right_family(params)]
    for fam in families:
        for rho in range(3):
            for d in range(1, 5):
                a_rows, b_rows = _shape_rows(fam, rho, d)
                assert _polynomial_kernel(a_rows, b_rows) == _fraction_row_kernel(_pencil(a_rows, b_rows))


def test_polynomial_kernel_is_a_least_degree_kernel_vector():
    rng = random.Random(409)
    families = [IntegrandFamily(Poly.one())]
    for _ in range(5):
        params = random_params(rng, bound=15)
        families += [make_left_family(params), make_right_family(params)]
    degrees = []
    for fam in families:
        for rho in range(3):
            for d in range(1, 5):
                a_rows, b_rows = _shape_rows(fam, rho, d)
                pencil = _pencil(a_rows, b_rows)
                polys = _polynomial_kernel(a_rows, b_rows)
                if polys is None:
                    assert not _has_kernel_of_degree(pencil, len(pencil) - 1)
                    continue
                degree = max(p.degree() for p in polys)
                assert degree >= 0
                for n in range(13):
                    total = sum(
                        ((a + n * b) * v(n) for (a, b), v in zip(pencil, polys)),
                        Poly.zero(),
                    )
                    assert total.is_zero()
                assert degree == 0 or not _has_kernel_of_degree(pencil, degree - 1)
                degrees.append(degree)
    assert degrees and max(degrees) >= 1  # some relation depends on n


def _sympy_expr(sympy, poly, var):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * var**i for i, c in enumerate(poly)),
        sympy.Integer(0),
    )


@pytest.mark.parametrize(
    "fam, max_order",
    [
        (make_left_family(ParameterPair(2, 1)), 2),
        (make_right_family(ParameterPair(Fraction(7, 2), Fraction(1, 3))), 2),
        (IntegrandFamily(Poly.one()), 1),
    ],
    ids=["left-2-1", "right-7/2-1/3", "beta"],
)
def test_discovered_pairs_hold_in_sympy(fam, max_order):
    # an independent oracle: F'/F = d/dx[log c + n log r] with a symbolic n
    sympy = pytest.importorskip("sympy")
    n, x = sympy.symbols("n x")

    def as_expr(f):
        return _sympy_expr(sympy, f.num, x) / _sympy_expr(sympy, f.den, x)

    c, r = as_expr(fam.cofactor), as_expr(fam.ratio)
    log_derivative = sympy.diff(sympy.log(c) + n * sympy.log(r), x)
    rec, cert = discover(fam, max_order=max_order)
    big_r = sum(
        (n**t * as_expr(part) for t, part in enumerate(cert.parts)), sympy.Integer(0)
    )
    lhs = sum(_sympy_expr(sympy, ck, n) * r**k for k, ck in enumerate(rec.coeffs))
    residual = lhs - sympy.diff(big_r, x) - big_r * log_derivative
    assert sympy.cancel(residual) == 0
    assert sympy.cancel(residual + r**2) != 0  # a mutated left side fails


def test_discover_builds_its_columns_once_per_family(monkeypatch):
    # rebuilding the columns per sample as rational functions made 369
    # gcd-reducing RatFunc constructions here; sharing them makes 102
    count = 0
    init = RatFunc.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal count
        count += 1
        init(self, *args, **kwargs)

    fam = make_left_family(ParameterPair(2, 1))
    monkeypatch.setattr(RatFunc, "__init__", counting_init)
    discover(fam)
    assert count <= 150


def test_discover_runs_one_elimination_per_order(monkeypatch):
    # orders 1 and 2 take one elimination each, which rules out every shape
    # but (2, 4); that shape's block systems of degree 0 and 1 take two more.
    # An n = 0 elimination per shape would make 10
    calls = count_calls(monkeypatch, "_echelon", "solve_nullspace")
    discover(make_left_family(ParameterPair(2, 1)), max_order=2, max_cert_degree=4)
    assert calls["solve_nullspace"] == 2
    assert calls["_echelon"] <= 4


def test_discover_exhausts_below_true_order():
    fam = make_left_family(ParameterPair(2, 1))
    with pytest.raises(AnsatzExhaustedError, match="order <= 1"):
        discover(fam, max_order=1, max_cert_degree=4)


def test_discover_validates_arguments():
    beta = IntegrandFamily(Poly.one())
    with pytest.raises(ValueError):
        discover(beta, max_order=0)
    with pytest.raises(ValueError):
        discover(beta, max_cert_degree=0)


def test_discovered_coefficient_ratios_match_closed_form():
    # c1/c0 = -(2n+3)(2ab+a+b)/(n+1), c2/c0 = (a-b)^2 (n+2)/(n+1),
    # compared by cross-multiplication of polynomials in n
    rng = random.Random(406)
    for _ in range(3):
        params = random_params(rng, bound=12)
        a, b = params.a, params.b
        s = 2 * a * b + a + b
        rec, _ = discover(make_left_family(params))
        c0, c1, c2 = rec.coeffs
        assert c1 * Poly([1, 1]) == c0 * Poly([-3 * s, -2 * s])
        assert c2 * Poly([1, 1]) == c0 * ((a - b) ** 2 * Poly([2, 1]))
