"""Creative telescoping: certificate verification, the closed form and discovery.

A telescoping relation for a family F(n, x) = c(x) * r(x)^n is

    sum_k  c_k(n) * F(n+k, x)  =  d/dx ( R(n, x) * F(n, x) )

with polynomial coefficients c_k(n) and a rational certificate R.
Dividing by F(n, x) turns it into an identity between rational
functions of x whose dependence on n is polynomial:

    sum_k  c_k(n) * r(x)^k  =  R'(n, x) + R(n, x) * (c'/c + n * r'/r)

Both sides are polynomials in n, so verification compares them power
by power.  With F = w^n / Q^(n+1), w = x(1-x), Q = fam.den, order rho
and R = sum_t n^t P_t / D_t, the coefficient of n^e is an identity in
x alone, sum_k [n^e]c_k r^k = R_e' - R_e Q'/Q + R_{e-1} (w'Q - wQ')/(wQ).
It is checked cleared: times w Q^rho D_e^2 D_{e-1} it reads, in Q[x],

    D_e^2 D_{e-1} sum_k [n^e]c_k w^(k+1) Q^(rho-k)
      =  Q^(rho-1) (w D_{e-1} (Q (P_e' D_e - P_e D_e') - Q' P_e D_e)
                    + D_e^2 P_{e-1} (w'Q - wQ')).

The multiplier is nonzero, as w, Q and every D_e are, so the cleared
identity holds exactly when the rational one does.  Together these
identities prove the relation for every n, with no n sampled and no gcd.

closed_form writes the relation of any denominator of degree <= 2 from
two invariants of it, U0 and D0.  The identity's two families share
U0 = 2ab + a + b and D0 = (a-b)^2, and so their recurrence.

Discovery follows the differentiating-under-the-integral-sign ansatz:
R(x) = x(x-1) * M(x) / Q(x) with Q the denominator of c.  Each unknown
multiplies a column A + n * B, and the integer rows of A and B are built
once per family from the integers of fam.den.  A shape (order, numerator
degree) is a prefix of its order's columns, so one elimination per order
at n = 0 rules out every shape without a kernel there.  Each remaining
shape asks for the polynomial kernel of its pencil: one block system per
degree in n of the solution, tried in increasing degree, with no n
sampled and no interpolation.  The block system holds the divided
identity coefficient by coefficient, so a discovered pair satisfies it
by construction and is not verified again here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import AnsatzExhaustedError, TelescopicError
from .families import IntegrandFamily, ParameterPair, make_left_family, make_right_family
from .polynomials import Poly, _convolve, _int_primitive
from .ratfuncs import RatFunc

_X_TIMES_X_MINUS_1 = Poly([0, -1, 1])  # x(x-1), the forced certificate factor
_W = Poly([0, 1, -1])  # w = x(1-x), so F = w^n / Q^(n+1)


@dataclass(frozen=True)
class Recurrence:
    """sum_k coeffs[k](n) * F(n+k, x); coeffs are Poly in the variable n."""

    order: int
    coeffs: tuple[Poly, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if self.order < 1:
            raise ValueError("recurrence order must be >= 1")
        if len(self.coeffs) != self.order + 1:
            raise ValueError("need exactly order + 1 coefficient polynomials")
        if self.coeffs[-1].is_zero():
            raise ValueError("leading recurrence coefficient must be nonzero")

    def degree_in_n(self) -> int:
        return max(c.degree() for c in self.coeffs)

    def _normalization_scale(self) -> Fraction:
        scale = 1 / Poly(c for poly in self.coeffs for c in poly.coeffs).content()
        return -scale if self.coeffs[-1].leading_coefficient() < 0 else scale

    def normalized(self) -> tuple["Recurrence", Fraction]:
        """Primitive integer-content form with positive leading coefficient
        of the top coefficient polynomial, plus the scale that achieves it.

        Scaling a recurrence scales the telescoping identity, so any
        paired certificate must be scaled by the same factor to keep
        verifying; see normalize_pair.
        """
        scale = self._normalization_scale()
        rec = Recurrence(self.order, tuple(scale * c for c in self.coeffs))
        return rec, scale

    def to_str(self) -> str:
        return "[" + ", ".join(c.to_str("n") for c in self.coeffs) + "]"


@dataclass(frozen=True)
class Certificate:
    """R(n, x) = parts[0](x) + n * parts[1](x) + ...; the classical
    certificates here are n-free (a single part)."""

    parts: tuple[RatFunc, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("certificate needs at least one part")

    def at(self, n: int) -> RatFunc:
        acc = RatFunc.zero()
        for part in reversed(self.parts):
            acc = acc * n + part
        return acc

    def n_degree(self) -> int:
        deg = -1
        for i, part in enumerate(self.parts):
            if not part.is_zero():
                deg = i
        return max(deg, 0)

    def scaled(self, factor: Fraction) -> "Certificate":
        # a nonzero constant keeps a canonical num/den canonical; 0 gives 0/1
        parts = [RatFunc._reduced(p.num * factor, p.den if factor else Poly.one()) for p in self.parts]
        return Certificate(tuple(parts))

    def satisfies_boundary_invariant(self) -> bool:
        """Each part finite and zero at x=0 and x=1, which makes
        R(n, x) * F(n, x) vanish at both endpoints for every n."""
        for part in self.parts:
            if part.den(0) == 0 or part.den(1) == 0:
                return False
            if part.num(0) != 0 or part.num(1) != 0:
                return False
        return True


def normalize_pair(
    rec: Recurrence, certs: Sequence[Certificate]
) -> tuple[Recurrence, tuple[Certificate, ...]]:
    """Normalize the recurrence and scale the certificates jointly so the
    telescoping identities keep holding."""
    normalized, scale = rec.normalized()
    return normalized, tuple(c.scaled(scale) for c in certs)


# -- verification -----------------------------------------------------------


def verify_telescoping(fam: IntegrandFamily, rec: Recurrence, cert: Certificate) -> bool:
    """Exact check of the divided telescoping identity for every n: one
    cleared identity in x per power n^e, e = 0 .. max(deg_n rec,
    len(parts)) (module docstring).  Returns False on any mismatch;
    never raises for well-formed inputs.
    """
    q = fam.den
    dq = q.derivative()
    rho = rec.order
    terms = [_W ** (k + 1) * q ** (rho - k) for k in range(rho + 1)]  # w r^k Q^rho
    q_rest = q ** (rho - 1)
    w_logd = _W.derivative() * q - _W * dq  # w Q r'/r
    parts = [(part.num, part.den) for part in cert.parts]
    p_prev, d_prev = Poly.zero(), Poly.one()  # R_{e-1} = P_{e-1} / D_{e-1}
    for e in range(max(rec.degree_in_n(), len(parts)) + 1):
        p, d = parts[e] if e < len(parts) else (Poly.zero(), Poly.one())
        d2 = d * d
        lhs = d2 * d_prev * sum((c[e] * t for c, t in zip(rec.coeffs, terms)), Poly.zero())
        rhs = _W * d_prev * (q * (p.derivative() * d - p * d.derivative()) - dq * p * d)
        rhs += d2 * p_prev * w_logd
        if lhs != q_rest * rhs:
            return False
        p_prev, d_prev = p, d
    return True


# -- closed form --------------------------------------------------------------


def closed_form(fam: IntegrandFamily) -> tuple[Recurrence, Certificate]:
    """The telescoping relation of a family whose denominator
    Q = cx^2 + px + q has degree <= 2, in closed form:

        (n+1) F(n) - (2n+3) U0 F(n+1) + D0 (n+2) F(n+2)  =  d/dx (R F(n)),
        R = x(x-1) N / Q,   N = (p+c)x^2 + 2qx - q,

    with U0 = p + 2q and D0 = p^2 - 4cq; TelescopicError if D0 = 0,
    where the leading coefficient vanishes.
    """
    if fam.den.degree() > 2:
        raise ValueError(f"closed form needs a denominator of degree <= 2, not {fam.den}")
    q, p, c = fam.den[0], fam.den[1], fam.den[2]
    u0, d0 = p + 2 * q, p * p - 4 * c * q
    if d0 == 0:
        raise TelescopicError("degenerate: leading recurrence coefficient (a-b)^2 = p^2 - 4cq vanishes")
    rec = Recurrence(2, (Poly([1, 1]), Poly([-3 * u0, -2 * u0]), d0 * Poly([2, 1])))
    # Lowest terms, no gcd: Q(0) Q(1) != 0 as the family converges, and N - Q =
    # (px + 2q)(x - 1), so only -2q/p could be a common root; there Q = -q D0 / p^2
    num = _X_TIMES_X_MINUS_1 * Poly([-q, 2 * q, p + c]) * (1 / fam.den.leading_coefficient())
    return rec, Certificate((RatFunc._reduced(num, fam.cofactor.den),))


def closed_form_recurrence(params: ParameterPair) -> Recurrence:
    """(n+1) F(n) - (2n+3)(2ab+a+b) F(n+1) + (a-b)^2 (n+2) F(n+2)."""
    return closed_form(make_left_family(params))[0]


def closed_form_certificates(params: ParameterPair) -> tuple[Certificate, Certificate]:
    """The closed-form certificates of the left and right families."""
    return closed_form(make_left_family(params))[1], closed_form(make_right_family(params))[1]


# -- exact nullspace ----------------------------------------------------------


def _int_coeffs(row: Sequence[Fraction | int]) -> list[int]:
    """The primitive integer vector proportional to row, signs kept."""
    if {*map(type, row)} != {int}:
        scale = math.lcm(*(c.denominator for c in row))
        row = [c.numerator * (scale // c.denominator) for c in row]
    return _int_primitive(list(row))


def _echelon(work: list[Sequence[int]], ncols: int) -> list[int]:
    """Fraction-free elimination of integer rows in place, column by column:
    the least nonzero entry in absolute value pivots, and the rows below
    are cross-multiplied and made primitive.  Returns the pivot columns,
    the i-th that of work[i]; those below k count the rank of the first k."""
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        candidates = [i for i in range(rank, len(work)) if work[i][col] != 0]
        if not candidates:
            continue
        best = min(candidates, key=lambda i: abs(work[i][col]))
        work[rank], work[best] = work[best], work[rank]
        row = work[rank]
        for i in range(rank + 1, len(work)):
            if factor := work[i][col]:
                work[i] = _int_primitive([row[col] * a - factor * b for a, b in zip(work[i], row)])
        pivots.append(col)
    return pivots


def solve_nullspace(matrix: Sequence[Sequence[Fraction]]) -> list[tuple[Fraction, ...]]:
    """Exact basis of the right nullspace via fraction-free elimination.

    Rows of Fractions or ints are cleared to primitive integer vectors,
    brought to echelon form by _echelon and back-substituted in integers,
    so all intermediate arithmetic stays in Z.  Basis vectors are
    canonical: primitive integer entries with positive first nonzero
    coordinate, one per free column.
    """
    if not matrix:
        return []
    ncols = len(matrix[0])
    if any(len(row) != ncols for row in matrix):
        raise ValueError("matrix rows must have equal length")
    work = [_int_coeffs(row) for row in matrix if any(row)]
    pivots = _echelon(work, ncols)
    basis = []
    for free_col in range(ncols):
        if free_col in pivots:
            continue
        vec = [0] * ncols
        vec[free_col] = 1
        for row, col in zip(reversed(work[: len(pivots)]), reversed(pivots)):
            # pivot * v[col] + acc = 0: scale by pivot / g, g = gcd(acc, pivot) signed
            acc, pivot = sum(map(mul, row[col + 1 :], vec[col + 1 :])), row[col]
            g = math.gcd(acc, pivot) if pivot > 0 else -math.gcd(acc, pivot)
            if pivot != g:
                vec = [v * (pivot // g) for v in vec]
            vec[col] = -acc // g
        ints = _int_primitive(vec)
        first = next(v for v in ints if v != 0)
        if first < 0:
            ints = [-v for v in ints]
        basis.append(tuple(Fraction(v) for v in ints))
    return basis


# -- discovery ----------------------------------------------------------------


def _ansatz_rows(fam: IntegrandFamily, max_order: int, max_cert_degree: int) -> tuple[list, list]:
    """The integer rows of A and B, row e the x^e coefficients, where each
    unknown of the divided identity multiplies a column A + n * B.

    Unknowns are (c_0 .. c_rho, m_0 .. m_{d-2}) where the certificate is
    R = (m_0 p_0 + m_1 p_1 + ...) / Q with p_j = x(x-1) x^j and Q = den(c),
    monic.  With fam.den = E / e, E integer, F'/F is c'/c + n * r'/r for
    c = e/E and r = e w/E.  Cleared by E^m, m = max(2, max_order), c_k has
    A = (e w)^k E^(m-k) and B = 0, and m_j has B = x^j (g - (2x-1) h) and
    A = x^j (2g - ((j+2)x - (j+1)) h), h = lc(E) E^(m-1), g = lc(E) (x^2-x) E' E^(m-2).
    A common factor leaves the kernel unchanged; a per-column one would
    rescale the unknown, hence the e^k.  The columns are c_0 .. c_max_order,
    m_0 .. m_{max_cert_degree-2}.
    """
    e_ints, e = list(fam.den._ints), fam.den._den
    m = max(2, max_order)
    powers = [[1]]  # E^0 .. E^m
    for _ in range(m):
        powers.append(_convolve(powers[-1], e_ints))
    columns, w_k = [], [1]
    for k in range(max_order + 1):
        columns.append((_convolve(w_k, powers[m - k]), []))
        w_k = _convolve(w_k, [0, e, -e])
    h = [e_ints[-1] * c for c in powers[m - 1]]
    de = [i * c for i, c in enumerate(e_ints)][1:] or [0]
    g = [e_ints[-1] * c for c in _convolve(_convolve([0, -1, 1], de), powers[m - 2])]
    size = max(len(g), len(h) + 1)
    g, h, x_h = (v + [0] * (size - len(v)) for v in (g, h, [0] + h))
    b_col = [u + v - 2 * t for u, v, t in zip(g, h, x_h)]
    for j in range(max_cert_degree - 1):
        a_col = [2 * u + (j + 1) * v - (j + 2) * t for u, v, t in zip(g, h, x_h)]
        columns.append(([0] * j + a_col, [0] * j + b_col))
    nrows = max(len(a) for a, _ in columns)
    return tuple(list(zip(*(c + [0] * (nrows - len(c)) for c in cols))) for cols in zip(*columns))


def _polynomial_kernel(a_rows: list[tuple], b_rows: list[tuple]) -> list[Poly] | None:
    """A least-degree polynomial vector v(n) != 0 with
    sum_i (A_i + n * B_i) * v_i(n) = 0, as Polys in n; None if there is none.
    Row e of a_rows (b_rows) holds the x^e coefficients of the A_i (B_i).

    A kernel vector of degree D, v(n) = sum_t n^t * v_t, is a kernel
    vector of one block system over Q with one row per coefficient of
    n^s x^e:  sum_i A_i[e] * v_{s,i} + B_i[e] * v_{s-1,i} = 0.  Trying
    D = 0, 1, ... in turn, the first hit has least degree.  By
    Kronecker's theory of singular pencils the least degree is at most
    the generic rank, below the number of columns, so the loop is exhaustive.
    """
    width = len(a_rows[0])
    pad = (0,) * width
    for degree in range(width):
        # unknown v_{t,i} is column t * width + i: the row of n^s x^e holds B[e]
        # in block s - 1 and A[e] in block s, cut from one block wider each side
        rows = [
            (pad * s + b + a + pad * (degree + 1 - s))[width:-width]
            for s in range(degree + 2)
            for a, b in zip(a_rows, b_rows)
        ]
        basis = solve_nullspace(rows)
        if basis:
            return [Poly(basis[0][i::width]) for i in range(width)]
    return None


def _assemble(
    fam: IntegrandFamily, polys: list[Poly], rho: int
) -> tuple[Recurrence, Certificate]:
    rec_polys = polys[: rho + 1]
    m_polys = polys[rho + 1 :]
    # c_rho != 0: a kernel vector with c_rho = 0 is a relation of a smaller
    # order, found first, and none has order 0 (c_0(n) * int F = 0 forces
    # c_0 = 0, then (R F)' = 0 and F(n, 0) = 0 force R = 0)
    rec = Recurrence(rho, tuple(rec_polys))
    n_degree = max((p.degree() for p in m_polys), default=-1)
    q = fam.cofactor.den
    parts = []
    for t in range(max(n_degree, 0) + 1):
        # coefficient of x^j in M_t comes from the n^t coefficient of m_polys[j]
        m_t = Poly([p[t] for p in m_polys])
        parts.append(RatFunc(_X_TIMES_X_MINUS_1 * m_t, q))
    cert = Certificate(tuple(parts))
    rec, (cert,) = normalize_pair(rec, (cert,))
    return rec, cert


def discover(
    fam: IntegrandFamily, max_order: int = 2, max_cert_degree: int = 4
) -> tuple[Recurrence, Certificate]:
    """Find a telescoping relation for the family by the ansatz search.

    Trial orders and certificate-numerator degrees increase from 1, so
    the first hit has minimal order; one elimination per order picks the
    shapes worth a polynomial kernel.  The returned recurrence is
    normalized (primitive, positive leading coefficient) with the
    certificate scaled to match.  The pair is a kernel vector of the
    divided identity's coefficients in n and x, so it holds for every n
    by construction; callers that record it as proof check it with
    verify_telescoping.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if max_cert_degree < 1:
        raise ValueError("max_cert_degree must be >= 1")
    a_rows, b_rows = _ansatz_rows(fam, max_order, max_cert_degree)
    top = max_order + 1  # the first certificate column
    for rho in range(1, max_order + 1):
        a_order, b_order = ([r[: rho + 1] + r[top:] for r in rows] for rows in (a_rows, b_rows))
        # shape (rho, d) takes the first rho + d columns, with a kernel at n = 0 iff one
        # is not a pivot; none there means none at any n (rank at n <= generic rank)
        pivots = _echelon(list(a_order), len(a_order[0]))
        first_free = next((i for i, col in enumerate(pivots) if i != col), len(pivots))
        for width in range(max(rho + 1, first_free + 1), rho + max_cert_degree + 1):
            polys = _polynomial_kernel([r[:width] for r in a_order], [r[:width] for r in b_order])
            if polys is not None:
                return _assemble(fam, polys, rho)
    raise AnsatzExhaustedError(max_order, max_cert_degree)
