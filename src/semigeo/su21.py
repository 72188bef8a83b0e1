"""Exact engine for the su(2,1) homogeneous-space example.

Works in the fixed basis e1..e4, f1..f4 of su(2,1) = {X : X^* I_{2,1} + I_{2,1} X = 0},
where e1 spans the isotropy line h0, (e2, e3, e4) span h1 (the rest of the
maximal compact part) and (f1..f4) span h2.  Elements are stored as 8
coordinates; brackets, the invariant form B(X, Y) = -Re tr(XY), projections,
and the degree-4 curvature form are evaluated exactly in rational arithmetic
whenever the inputs are rational (floats are accepted and simply degrade to
float arithmetic).  One sparse list of the 54 nonzero structure constants,
all integers, drives the exact bracket, the exact pair kernel and the float
margin forms.  The exact paths work on integer numerators over a common
denominator: the pair kernel makes one pass for [X, Y], [X1, Y1] and
[X2, Y2]_1, and both quartic forms and the determinant identity, homogeneous
of degree (2, 2), are each one integer polynomial (det_residuals,
quartic_numerators).  The coordinates may be 8 numbers (one pair; the
scalar functions divide once into a Fraction) or 8 rows of Python ints (a
batch of pairs in one array pass, as the CLI's seeded pair checks use).
feasible() is four integer sign tests, which scan_region applies to integers
reduced once per t and once per k.  The Jacobi, Ad-invariance and
containment checks read one integer table of the 64 basis brackets.

The one-parameter family of metrics is (X, Y) = (1+t) B(X1, Y1) + B(X2, Y2)
on h1 + h2, t > -1.  The curvature quadratic form, the Gram determinant in
the invariants (x, y, z), the four feasibility inequalities in (t, k), and
the reduced geodesic-flow equations

    (1+t) G1' = 0,          G2' = t [G1, G2]

are all provided, together with vectorized float samplers used by the
region scans and certification runs.  Brackets are linear in X ^ Y, so the
sampled margin quartic - k * gram is a quadratic form on the 21 Plücker
coordinates of the pair, evaluated by ``charts.plane_values``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .charts import plane_margins, plane_values, wedge
from .errors import (
    BasisDecompositionError,
    DomainError,
    NonTangentError,
    SemigeoError,
)

BASIS_NAMES = ("e1", "e2", "e3", "e4", "f1", "f2", "f3", "f4")
H0 = (0,)
H1 = (1, 2, 3)
H2 = (4, 5, 6, 7)
_BLOCK_OF = (0, 1, 1, 1, 2, 2, 2, 2)


def block_of(index: int) -> int:
    """Which h_j block a basis index belongs to (0, 1 or 2)."""
    return _BLOCK_OF[index]

_F0, _F1 = Fraction(0), Fraction(1)


def _fmat(rows) -> np.ndarray:
    return np.array([[Fraction(v) for v in row] for row in rows], dtype=object)


# Matrix realization: each basis element as (real part, imaginary part).
_BASIS_RE_IM: tuple[tuple[np.ndarray, np.ndarray], ...] = (
    (_fmat([[0, 0, 0], [0, 0, 0], [0, 0, 0]]), _fmat([[1, 0, 0], [0, 1, 0], [0, 0, -2]])),  # e1
    (_fmat([[0, 0, 0], [0, 0, 0], [0, 0, 0]]), _fmat([[1, 0, 0], [0, -1, 0], [0, 0, 0]])),  # e2
    (_fmat([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]), _fmat([[0, 0, 0], [0, 0, 0], [0, 0, 0]])),  # e3
    (_fmat([[0, 0, 0], [0, 0, 0], [0, 0, 0]]), _fmat([[0, 1, 0], [1, 0, 0], [0, 0, 0]])),  # e4
    (_fmat([[0, 0, 1], [0, 0, 0], [1, 0, 0]]), _fmat([[0, 0, 0], [0, 0, 0], [0, 0, 0]])),  # f1
    (_fmat([[0, 0, 0], [0, 0, 1], [0, 1, 0]]), _fmat([[0, 0, 0], [0, 0, 0], [0, 0, 0]])),  # f2
    (_fmat([[0, 0, 0], [0, 0, 0], [0, 0, 0]]), _fmat([[0, 0, 1], [0, 0, 0], [-1, 0, 0]])),  # f3
    (_fmat([[0, 0, 0], [0, 0, 0], [0, 0, 0]]), _fmat([[0, 0, 0], [0, 0, 1], [0, -1, 0]])),  # f4
)


@dataclass(frozen=True)
class AlgebraElement:
    """An element of su(2,1) as coordinates over (e1..e4, f1..f4).

    Coordinates are arbitrary real numbers; use Fractions for the exact
    paths.  Instances are immutable values.
    """

    coords: tuple

    def __post_init__(self):
        if len(self.coords) != 8:
            raise ValueError("AlgebraElement needs exactly 8 coordinates")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(tuple(-a for a in self.coords))

    def scale(self, c) -> "AlgebraElement":
        return AlgebraElement(tuple(c * a for a in self.coords))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def to_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """The 3x3 matrix realization as (real part, imaginary part)."""
        re = np.zeros((3, 3), dtype=object)
        im = np.zeros((3, 3), dtype=object)
        for c, (bre, bim) in zip(self.coords, _BASIS_RE_IM):
            if c != 0:
                re = re + c * bre
                im = im + c * bim
        return re, im


def zero_element() -> AlgebraElement:
    return AlgebraElement((_F0,) * 8)


def basis_element(which) -> AlgebraElement:
    """Basis element by index 0..7 or by name "e1".."f4"."""
    idx = BASIS_NAMES.index(which) if isinstance(which, str) else int(which)
    coords = [_F0] * 8
    coords[idx] = _F1
    return AlgebraElement(tuple(coords))


def from_coords(values: Sequence) -> AlgebraElement:
    return AlgebraElement(tuple(values))


def from_matrix(re: np.ndarray, im: np.ndarray) -> AlgebraElement:
    """Exact decomposition of a su(2,1) matrix over the basis.

    Reads the coordinates off the matrix entries and verifies the
    reconstruction reproduces the input exactly; anything else raises
    BasisDecompositionError.
    """
    a1 = -im[2][2] / 2
    a2 = im[0][0] - a1
    a3 = re[0][1]
    a4 = im[0][1]
    b1, b3 = re[0][2], im[0][2]
    b2, b4 = re[1][2], im[1][2]
    elem = AlgebraElement((a1, a2, a3, a4, b1, b2, b3, b4))
    back_re, back_im = elem.to_matrix()
    if not (np.array_equal(back_re, re) and np.array_equal(back_im, im)):
        raise BasisDecompositionError("matrix is not in the span of the fixed basis")
    return elem


def matrix_commutator(x: AlgebraElement, y: AlgebraElement) -> tuple[np.ndarray, np.ndarray]:
    """[X, Y] = XY - YX on the matrix realization; exact for rational coords."""
    xr, xi = x.to_matrix()
    yr, yi = y.to_matrix()
    re = (xr.dot(yr) - xi.dot(yi)) - (yr.dot(xr) - yi.dot(xi))
    im = (xr.dot(yi) + xi.dot(yr)) - (yr.dot(xi) + yi.dot(xr))
    return re, im


@lru_cache(maxsize=1)
def _bracket_table() -> tuple:
    """Structure constants: table[i][j] = coordinates of [basis_i, basis_j].

    Built once from exact matrix commutators and exact decomposition.
    """
    table = []
    for i in range(8):
        row = []
        for j in range(8):
            re, im = matrix_commutator(basis_element(i), basis_element(j))
            row.append(from_matrix(re, im).coords)
        table.append(tuple(row))
    return tuple(table)


@lru_cache(maxsize=1)
def _bracket_terms() -> tuple:
    """The 54 nonzero structure constants as (i, j, k, c): [basis_i, basis_j]
    has coordinate c on basis_k.  Every c is an integer (in +-{1, 2, 3}), so
    brackets of integer numerators stay integers.
    """
    terms = []
    for i, row in enumerate(_bracket_table()):
        for j, cell in enumerate(row):
            for k, c in enumerate(cell):
                if c.denominator != 1:
                    raise SemigeoError("structure constant is not an integer")
                if c:
                    terms.append((i, j, k, c.numerator))
    return tuple(terms)


@lru_cache(maxsize=1)
def _b_diagonal() -> tuple:
    """Diagonal of the Gram matrix of B over the basis as ints, via exact
    matrix traces; the matrix must be diagonal with integer entries."""
    diag = []
    for i in range(8):
        for j in range(8):
            xr, xi = basis_element(i).to_matrix()
            yr, yi = basis_element(j).to_matrix()
            prod_re = xr.dot(yr) - xi.dot(yi)
            entry = -sum(prod_re[d][d] for d in range(3))
            if (i != j and entry != 0) or entry.denominator != 1:
                raise SemigeoError("B Gram matrix is not diagonal and integral")
            if i == j:
                diag.append(entry.numerator)
    return tuple(diag)


def _numerators(x: AlgebraElement) -> tuple:
    """Coordinates as (numerators, denominator): ints over the lcm of the
    denominators when all are rational, else floats over 1.0."""
    coords = x.coords
    if all(isinstance(c, (int, Fraction)) for c in coords):
        den = math.lcm(*(c.denominator for c in coords))
        return [c.numerator * (den // c.denominator) for c in coords], den
    return [float(c) for c in coords], 1.0


def _over(num, den):
    """num / den: an exact Fraction for an int denominator, else a float."""
    return Fraction(num, den) if isinstance(den, int) else num / den


def _bracket_parts(xs, ys, full, b11, b22_1) -> None:
    """Adds [X, Y], [X1, Y1] and [X2, Y2]_1 into the three accumulators.

    One pass over the sparse structure constants adds each product
    x_i y_j c into [X, Y], into [X1, Y1] when i and j lie in h1, and into
    [X2, Y2]_1 when i, j lie in h2 and k in h1.  The coordinate rows may be
    Python numbers (exact numerators) or numpy arrays (batches).
    """
    for i, j, k, c in _bracket_terms():
        p = xs[i] * ys[j] * c
        full[k] += p
        if _BLOCK_OF[i] == _BLOCK_OF[j] == 1:
            b11[k] += p
        elif _BLOCK_OF[i] == _BLOCK_OF[j] == 2 and _BLOCK_OF[k] == 1:
            b22_1[k] += p


def bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Lie bracket, bilinear over the sparse structure-constant terms.

    Exact, and so exactly antisymmetric, when both inputs have rational
    coordinates; float inputs give float coordinates.
    """
    (xn, dx), (yn, dy) = _numerators(x), _numerators(y)
    out = [0] * 8
    for i, j, k, c in _bracket_terms():
        out[k] += xn[i] * yn[j] * c
    den = dx * dy
    return AlgebraElement(tuple(_over(s, den) for s in out))


def _b_num(u, v, keep=range(8)):
    """B(U, V) restricted to the coordinates in ``keep``, on numerators."""
    w = _b_diagonal()
    return sum(u[k] * v[k] * w[k] for k in keep)


def form_B(x: AlgebraElement, y: AlgebraElement):
    """The Ad-invariant form B(X, Y) = -Re tr(XY).

    Contracted through the diagonal of the exact basis Gram matrix (which the
    matrix-trace definition produces); exact for rational coordinates.
    """
    (xn, dx), (yn, dy) = _numerators(x), _numerators(y)
    return _over(_b_num(xn, yn), dx * dy)


_ALLOWED_BRACKET_BLOCKS = {
    (0, 0): (),
    (0, 1): (1,),
    (0, 2): (2,),
    (1, 1): (1,),
    (1, 2): (2,),
    (2, 2): (0, 1),
}


def basis_identity_witnesses() -> dict:
    """First failure of each structural identity over the basis, or None.

    Keys, in report order: "bracket_containments" (first basis pair i <= j
    whose bracket leaves the allowed blocks, [h0, h_j] in h_j, [h1, h1] in
    h1, [h1, h2] in h2, [h2, h2] in h0 + h1), "jacobi_identity" and
    "ad_invariance" (first basis triple (i, j, k), lexicographically, with
    [e_i,[e_j,e_k]] + cyclic != 0, resp. B([e_i,e_j],e_k) + B(e_j,[e_i,e_k])
    != 0).  All three read one integer table C[i, j, :] = [e_i, e_j], summed
    from the structure-constant terms as ``bracket`` sums them; both
    identities are trilinear, so the tensor forms below are the same 512
    checks per identity.
    """
    table = np.zeros((8, 8, 8), dtype=np.int64)
    for i, j, k, c in _bracket_terms():
        table[i, j, k] += c
    jacobi = (
        np.einsum("jkm,iml->ijkl", table, table)
        + np.einsum("kim,jml->ijkl", table, table)
        + np.einsum("ijm,kml->ijkl", table, table)
    ).any(axis=3)
    lowered = table * np.array(_b_diagonal(), dtype=np.int64)
    return {
        "bracket_containments": _first_containment_failure(table),
        "jacobi_identity": _first_true(jacobi),
        "ad_invariance": _first_true(lowered + lowered.transpose(0, 2, 1) != 0),
    }


def _first_containment_failure(table: np.ndarray):
    """First basis pair (i, j), i <= j, whose bracket leaves its allowed blocks."""
    for i in range(8):
        for j in range(i, 8):
            allowed = _ALLOWED_BRACKET_BLOCKS[tuple(sorted((_BLOCK_OF[i], _BLOCK_OF[j])))]
            if any(table[i, j, m] and _BLOCK_OF[m] not in allowed for m in range(8)):
                return i, j
    return None


def _first_true(mask: np.ndarray):
    """Index tuple of the first True entry in C order, or None."""
    hits = np.argwhere(mask)
    return tuple(int(v) for v in hits[0]) if len(hits) else None


def project(x: AlgebraElement, j: int) -> AlgebraElement:
    """Projection onto h0 (j=0), h1 (j=1) or h2 (j=2); the three sum to x."""
    keep = {0: H0, 1: H1, 2: H2}[j]
    return AlgebraElement(tuple(c if i in keep else 0 * c for i, c in enumerate(x.coords)))


def _require_tangent(x: AlgebraElement) -> None:
    if x.coords[0] != 0:
        raise NonTangentError("element has a nonzero e1 (isotropy) coordinate")


@dataclass(frozen=True)
class ModelParams:
    """Metric deformation t > -1 and curvature level k > 0."""

    t: object
    k: object

    def __post_init__(self):
        if not self.t > -1:
            raise DomainError(f"t must exceed -1, got {self.t}")
        if not self.k > 0:
            raise DomainError(f"k must be positive, got {self.k}")


def metric_t(x: AlgebraElement, y: AlgebraElement, params: ModelParams):
    """(X, Y) = (1+t) B(X1, Y1) + B(X2, Y2); the e1 coordinate is ignored."""
    t = params.t
    return (1 + t) * form_B(project(x, 1), project(y, 1)) + form_B(project(x, 2), project(y, 2))


def _pair_numerators(x: AlgebraElement, y: AlgebraElement):
    """Numerators of tangent x and y, and the denominator dx * dy of their
    brackets: ints over an int for rational coordinates, else floats over 1.0."""
    _require_tangent(x)
    _require_tangent(y)
    (xn, dx), (yn, dy) = _numerators(x), _numerators(y)
    return xn, yn, dx * dy


def _pair_brackets(xs, ys) -> tuple:
    """Numerators of [X, Y], [X1, Y1] and [X2, Y2]_1 from coordinate
    numerators: 8 numbers, or 8 rows of a batch of pairs."""
    full, b11, b22_1 = [0] * 8, [0] * 8, [0] * 8
    _bracket_parts(xs, ys, full, b11, b22_1)
    return full, b11, b22_1


def _t_ratio(t) -> tuple:
    """t as (p, q): ints for a rational t, else float(t) over 1.0."""
    if isinstance(t, (int, Fraction)):
        return t.numerator, t.denominator
    return float(t), 1.0


def quartic_numerators(xs, ys, params: ModelParams) -> tuple:
    """4 q^2 den^2 times curvature_quartic and curvature_quartic_first_form,
    t = p/q, from coordinate numerators xs and ys over denominators whose
    product is den: 8 numbers for one pair, or (8, N) rows for a batch
    (Python-int rows keep the batch exact)."""
    p, q = _t_ratio(params.t)
    full, b11, b22_1 = _pair_brackets(xs, ys)
    quartic = (
        q * (q + p) * _b_num(b11, b11)
        + q * (q - 3 * p) * _b_num(b22_1, b22_1)
        + 2 * (q * q - p * q - 2 * p * p) * _b_num(b11, b22_1)
        + (q + p) * (q + p) * _b_num(full, full, H2)
        + 4 * q * q * _b_num(full, full, H0)
    )
    first_form = (
        q * (q - 3 * p) * _b_num(full, full, H1)
        + 4 * p * (q - p) * _b_num(b11, full)
        + 4 * p * p * _b_num(b11, b11)
        + (q + p) * (q + p) * _b_num(full, full, H2)
        + 4 * q * q * _b_num(full, full, H0)
    )
    return quartic, first_form


def _quartic_value(x: AlgebraElement, y: AlgebraElement, params: ModelParams, form: int):
    """One of the quartic_numerators of the pair, divided once."""
    xn, yn, den = _pair_numerators(x, y)
    q = _t_ratio(params.t)[1]
    return _over(quartic_numerators(xn, yn, params)[form], 4 * q * q * den * den)


def curvature_quartic(x: AlgebraElement, y: AlgebraElement, params: ModelParams):
    """The curvature quadratic form (R(X,Y)Y, X) of the deformed metric.

    Evaluates

        (1+t)/4 B([X1,Y1],[X1,Y1]) + (1-3t)/4 B([X2,Y2]_1,[X2,Y2]_1)
        + (1-t-2t^2)/2 B([X1,Y1],[X2,Y2]_1)
        + (1+t)^2/4 B([X,Y]_2,[X,Y]_2) + B([X,Y]_0,[X,Y]_0)

    on the bracket numerators: with t = p/q and brackets over den, the form
    is homogeneous of degree (2, 2), so 4 q^2 den^2 times it is a polynomial
    in ints (quartic_numerators), and one division gives the exact value for
    rational t and coordinates.
    """
    return _quartic_value(x, y, params, 0)


def curvature_quartic_first_form(x: AlgebraElement, y: AlgebraElement, params: ModelParams):
    """Alternative expansion of (R(X,Y)Y, X); must agree with curvature_quartic.

    (1-3t)/4 B([X,Y]_1,[X,Y]_1) + (t-t^2) B([X1,Y1],[X,Y])
    + t^2 B([X1,Y1],[X1,Y1]) + (1+t)^2/4 B([X,Y]_2,[X,Y]_2)
    + B([X,Y]_0,[X,Y]_0), cleared of denominators as in curvature_quartic.
    """
    return _quartic_value(x, y, params, 1)


@dataclass(frozen=True)
class XYZ:
    """The nonnegative invariants x, y, z (square roots of determinant sums).

    The squares are also carried; they stay exact for rational inputs.
    """

    x: float
    y: float
    z: float
    x_sq: object
    y_sq: object
    z_sq: object


def xyz_and_gram(x: AlgebraElement, y: AlgebraElement, params: ModelParams):
    """The (x, y, z) invariants and the Gram value of the pair.

    gram = 4 (1+t)^2 x^2 + 4 y^2 - 4 (1+t) z^2, which equals
    (X,X)(Y,Y) - (X,Y)^2 identically (exactly so in rational arithmetic).
    """
    _require_tangent(x)
    _require_tangent(y)
    t = params.t
    a, bf = x.coords[1:4], x.coords[4:8]
    c, df = y.coords[1:4], y.coords[4:8]
    x_sq = sum((a[i] * c[j] - a[j] * c[i]) ** 2 for i in range(3) for j in range(i + 1, 3))
    y_sq = sum((bf[i] * df[j] - bf[j] * df[i]) ** 2 for i in range(4) for j in range(i + 1, 4))
    z_sq = sum((a[i] * df[j] - c[i] * bf[j]) ** 2 for i in range(3) for j in range(4))
    gram = 4 * (1 + t) * (1 + t) * x_sq + 4 * y_sq - 4 * (1 + t) * z_sq
    vals = XYZ(
        x=math.sqrt(float(x_sq)),
        y=math.sqrt(float(y_sq)),
        z=math.sqrt(float(z_sq)),
        x_sq=x_sq,
        y_sq=y_sq,
        z_sq=z_sq,
    )
    return vals, gram


def det_identity_check(x: AlgebraElement, y: AlgebraElement):
    """Residual of B([X,Y]_2,[X,Y]_2) = -2 z^2 + B([X1,Y1],[X2,Y2]_1).

    Every term is homogeneous of degree (2, 2), so the residual is one
    polynomial in the numerators over den^2 (det_residuals); exactly zero in
    rational arithmetic.
    """
    xn, yn, den = _pair_numerators(x, y)
    return _over(det_residuals(xn, yn), den * den)


def det_residuals(xs, ys):
    """den^2 times det_identity_check, from coordinate numerators xs and ys
    over denominators whose product is den: 8 numbers for one pair, or (8, N)
    rows for a batch (Python-int rows keep the batch exact)."""
    full, b11, b22_1 = _pair_brackets(xs, ys)
    z_sq = sum((xs[i] * ys[j] - ys[i] * xs[j]) ** 2 for i in H1 for j in H2)
    return _b_num(full, full, H2) + 2 * z_sq - _b_num(b11, b22_1)


def eta(t) -> float:
    """The smaller root in k of the product inequality's boundary:

        eta(t) = (-3 t^2 - 2 t + 5 - sqrt(45 t^4 + 12 t^3 - 50 t^2 + 12 t + 45))
                 / (16 (t + 1)).
    """
    t = float(t)
    if t <= -1.0:
        raise DomainError(f"eta needs t > -1, got {t}")
    disc = 45 * t**4 + 12 * t**3 - 50 * t**2 + 12 * t + 45
    if disc < 0:
        raise DomainError(f"eta discriminant negative at t = {t}")
    return (-3 * t * t - 2 * t + 5 - math.sqrt(disc)) / (16 * (t + 1))


def ineq4_lhs(t, k):
    """Left side of the product inequality; exact for rational t, k.

    {2(1+t) - 4k(1+t)^2} {(1-3t)/2 - 4k} - (9/4)(1-t^2)^2
    """
    if isinstance(t, int):
        t = Fraction(t)
    if isinstance(k, int):
        k = Fraction(k)
    return (2 * (1 + t) - 4 * k * (1 + t) ** 2) * ((1 - 3 * t) / 2 - 4 * k) - Fraction(9, 4) * (
        1 - t * t
    ) ** 2


@dataclass(frozen=True)
class FeasibilityResult:
    ineq1: bool
    ineq2: bool
    ineq3: bool
    ineq4: bool

    @property
    def overall(self) -> bool:
        return self.ineq1 and self.ineq2 and self.ineq3 and self.ineq4


def _ratio(v) -> tuple:
    """v as exact ints (numerator, denominator > 0); floats convert exactly."""
    if isinstance(v, (int, Fraction)):
        return v.numerator, v.denominator
    if not math.isfinite(v):
        raise DomainError(f"feasibility needs finite t and k, got {v}")
    return Fraction(v).as_integer_ratio()


def _t_terms(t) -> tuple:
    """The k-free integers b, (1+t) b, (1-3t) b, 9 (b^2 - a^2)^2 at t = a/b, b > 0."""
    a, b = _ratio(t)
    return b, a + b, b - 3 * a, 9 * (b * b - a * a) ** 2


def _cell_flags(terms: tuple, k: tuple) -> tuple:
    """The four inequalities as integer sign tests, from _t_terms(t) and
    k = c/d (d > 0): the first three times 8bd or bd, the fourth times 4 b^4 d^2."""
    b, s, u, w = terms
    c, d = k
    return (
        8 * c * b > s * d,
        2 * c * s < b * d,
        8 * c * b < u * d,
        4 * b * s * (b * d - 2 * c * s) * (u * d - 8 * c * b) > w * d * d,
    )


def feasible(params: ModelParams) -> FeasibilityResult:
    """The four strict inequalities at (t, k); exact for rational inputs.

        k > (1+t)/8,   k < 1/(2(1+t)),   k < (1-3t)/8,   ineq4_lhs(t, k) > 0.

    Each is an integer sign test (_cell_flags on _t_terms(t) and the ratio
    of k).  Boundary cases are infeasible (strict comparisons).
    """
    return FeasibilityResult(*_cell_flags(_t_terms(params.t), _ratio(params.k)))


def feasible_k_interval(t) -> tuple[float, float] | None:
    """The open k-interval where all four inequalities hold, or None.

    Lower endpoint (1+t)/8; upper endpoint min((1-3t)/8, 1/(2(1+t)), eta(t)).
    Nonempty exactly for -1 < t < -3/5, where the minimum is eta(t).
    """
    t = float(t)
    if t <= -1.0:
        raise DomainError(f"t must exceed -1, got {t}")
    lo = (1 + t) / 8
    hi = min((1 - 3 * t) / 8, 1 / (2 * (1 + t)), eta(t))
    if hi <= lo:
        return None
    return lo, hi


def lower_bound_coefficients(t, k) -> tuple:
    """Coefficients (c_xx, c_xy, c_yy, c_zz) of the certified lower bound

        quartic - k*gram >= c_xx x^2 + c_xy x y + c_yy y^2 + c_zz z^2.
    """
    return (
        2 * (1 + t) - 4 * k * (1 + t) ** 2,
        -3 * abs(1 - t * t),
        (1 - 3 * t) / 2 - 4 * k,
        4 * k * (1 + t) - (1 + t) ** 2 / 2,
    )


# ---------------------------------------------------------------------------
# Vectorized float paths (sampling, scans, the reduced geodesic flow)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def b_weights_float() -> np.ndarray:
    """Diagonal of the B Gram matrix as floats (the matrix is diagonal)."""
    return np.array(_b_diagonal(), dtype=float)


def sample_tangent_pairs(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n pseudorandom coordinate pairs in h1 + h2 (e1 coordinate zero)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 8))
    y = rng.standard_normal((n, 8))
    x[:, 0] = 0.0
    y[:, 0] = 0.0
    return x, y


@lru_cache(maxsize=64)
def _margin_forms(t: float) -> tuple[np.ndarray, np.ndarray]:
    """Q(t) and G(t): read-only 21 x 21 matrices of the quartic and the Gram
    value on the Plücker coordinates ``wedge(x[:, 1:], y[:, 1:])``.

    A bracket pass over the unit bivectors e_i ^ e_j (1 <= i < j) gives the
    maps X ^ Y -> [X, Y], [X1, Y1], [X2, Y2]_1 that curvature_quartic's five
    terms combine; G is diagonal, 4 (1+t)^2 / 4 / -4 (1+t) on h1^h1 / h2^h2 / h1^h2.
    """
    i, j = np.triu_indices(7, 1)
    full, b11, b22_1 = np.zeros((3, 8, len(i)))
    _bracket_parts(np.eye(8)[:, i + 1], np.eye(8)[:, j + 1], full, b11, b22_1)
    f0, f2 = (np.equal(_BLOCK_OF, b)[:, None] * full for b in (0, 2))

    def form(a, b):  # symmetric matrix of w -> B(a w, b w)
        m = a.T @ (b_weights_float()[:, None] * b)
        return (m + m.T) / 2

    quartic = (
        (1 + t) / 4 * form(b11, b11)
        + (1 - 3 * t) / 4 * form(b22_1, b22_1)
        + (1 - t - 2 * t * t) / 2 * form(b11, b22_1)
        + (1 + t) ** 2 / 4 * form(f2, f2)
        + form(f0, f0)
    )
    bi, bj = np.take(_BLOCK_OF, i + 1), np.take(_BLOCK_OF, j + 1)
    gram = np.diag(np.where(bi != bj, -4 * (1 + t), np.where(bi == 1, 4 * (1 + t) ** 2, 4.0)))
    quartic.flags.writeable = gram.flags.writeable = False
    return quartic, gram


def sample_margins(t: float, k: float, n: int, seed: int):
    """Margins quartic - k*gram and per-sample scales for n random pairs."""
    x, y = sample_tangent_pairs(n, seed)
    quartic, gram = _margin_forms(float(t))
    return plane_margins(wedge(x[:, 1:], y[:, 1:]), quartic, gram, float(k))


# ---------------------------------------------------------------------------
# Feasibility grid scan
# ---------------------------------------------------------------------------


class GridCell(NamedTuple):
    t: float
    k: float
    ineq1: bool
    ineq2: bool
    ineq3: bool
    ineq4: bool
    feasible: bool
    min_margin: float | None


@dataclass(frozen=True)
class FeasibilityGrid:
    """Per-cell feasibility over a (t, k) grid, cells in t-major order."""

    t_values: tuple
    k_values: tuple
    cells: tuple

    def feasible_t_values(self) -> tuple:
        return tuple(sorted({c.t for c in self.cells if c.feasible}))

    def to_csv(self) -> str:
        lines = ["t,k,ineq1,ineq2,ineq3,ineq4,feasible,min_margin"]
        k_texts = [f",{k!r}," for k in self.k_values]
        cells = iter(self.cells)
        for t in self.t_values:
            t_text = repr(t)
            for k_text, c in zip(k_texts, cells):
                margin = "" if c.min_margin is None else repr(c.min_margin)
                lines.append(
                    f"{t_text}{k_text}{int(c.ineq1)},{int(c.ineq2)},{int(c.ineq3)},"
                    f"{int(c.ineq4)},{int(c.feasible)},{margin}"
                )
        return "\n".join(lines) + "\n"


def scan_region(
    t_values: Sequence,
    k_values: Sequence,
    sample_count: int = 0,
    seed: int = 0,
) -> FeasibilityGrid:
    """Evaluate the four inequalities (exactly for rational grid values) on a
    grid, optionally adding a sampled minimum curvature margin per cell.

    Each t and each k is checked and reduced to integers once, in the order
    a cell-by-cell loop reaches them (so a bad value raises the same
    DomainError); each cell is then four integer sign tests.

    All cells share one pair set (common random numbers), so a cell's
    min_margin is sample_margins(t, k, sample_count, seed)[0].min().  A t-row
    evaluates its forms once (``plane_values``), then lhs - k * area per block
    of at most 21 = C(7, 2) k-values, so no margin array outgrows the array w.
    """
    t_values, k_values = tuple(t_values), tuple(k_values)
    margins = [None] * (len(t_values) * len(k_values))
    if sample_count > 0:
        x, y = sample_tangent_pairs(sample_count, seed)
        w = wedge(x[:, 1:], y[:, 1:])
        ks = np.array(k_values, dtype=float)[:, None]
        margins = []
        for t in t_values:
            lhs, area = plane_values(w, *_margin_forms(float(t)))
            for lo in range(0, len(ks), w.shape[1]):
                margins += (lhs - ks[lo : lo + w.shape[1]] * area).min(axis=1).tolist()
    cells, n_k, columns = [], len(k_values), None
    for i, t in enumerate(t_values if k_values else ()):
        ModelParams(t, k_values[0])  # checks t (and, in the first row, k_values[0] next)
        terms = _t_terms(t)
        if columns is None:
            columns = [(_ratio(ModelParams(t, k).k), float(k)) for k in k_values]
        t_float = float(t)
        for (k_ratio, k_float), margin in zip(columns, margins[i * n_k : (i + 1) * n_k]):
            flags = _cell_flags(terms, k_ratio)
            cells.append(GridCell(t_float, k_float, *flags, all(flags), margin))
    return FeasibilityGrid(
        t_values=tuple(float(t) for t in t_values),
        k_values=tuple(float(k) for k in k_values),
        cells=tuple(cells),
    )


# ---------------------------------------------------------------------------
# Reduced geodesic flow on the algebra
# ---------------------------------------------------------------------------


def euler_arnold_rhs(gamma: AlgebraElement, params: ModelParams, cross_check: bool = True) -> AlgebraElement:
    """Right side of the reduced flow: G1' = 0 and G2' = t [G1, G2].

    When ``cross_check`` is set, also evaluates phi(G') and [phi(G), G] with
    phi scaling h1 by (1+t), and verifies the two agree (exactly for rational
    inputs, to 1e-9 relative for floats).
    """
    _require_tangent(gamma)
    t = params.t
    g1 = project(gamma, 1)
    g2 = project(gamma, 2)
    rhs = bracket(g1, g2).scale(t)
    if any(rhs.coords[i] != 0 for i in (0, 1, 2, 3)):
        raise SemigeoError("bracket [h1, h2] left h2; structure table corrupt")
    if cross_check:
        phi_gamma = g1.scale(1 + t) + g2
        alt = bracket(phi_gamma, gamma)
        # phi fixes h2, so phi(G') = G' and agreement means alt == rhs.
        exact = all(isinstance(c, (int, Fraction)) for c in gamma.coords) and isinstance(
            t, (int, Fraction)
        )
        if exact:
            if alt.coords != rhs.coords:
                raise SemigeoError("reduced-flow forms disagree in exact arithmetic")
        else:
            scale = 1.0 + max(abs(float(c)) for c in rhs.coords)
            if any(abs(float(a - b)) > 1e-9 * scale for a, b in zip(alt.coords, rhs.coords)):
                raise SemigeoError("reduced-flow forms disagree beyond float tolerance")
    return rhs


def nonintegrability_witness():
    """The pair (f1, f2) and the h0 + h1 part of its bracket (equals e3).

    A nonzero value witnesses that h2 (the horizontal space) is not closed
    under the bracket, i.e. the horizontal distribution is non-integrable.
    """
    x = basis_element("f1")
    y = basis_element("f2")
    br = bracket(x, y)
    part = project(br, 0) + project(br, 1)
    return (x, y), part


# ---------------------------------------------------------------------------
# Serialization (8 exact rationals, comma separated)
# ---------------------------------------------------------------------------


def serialize_element(x: AlgebraElement) -> str:
    return ",".join(str(Fraction(c)) for c in x.coords)


def parse_element(text: str) -> AlgebraElement:
    parts = text.split(",")
    if len(parts) != 8:
        raise DomainError(f"element string needs 8 comma-separated rationals, got {len(parts)}")
    try:
        return AlgebraElement(tuple(Fraction(p.strip()) for p in parts))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad rational in element string: {exc}") from exc
