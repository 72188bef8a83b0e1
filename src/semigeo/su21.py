"""Exact engine for the su(2,1) homogeneous-space example.

Works in the fixed basis e1..e4, f1..f4 of su(2,1) = {X : X^* I_{2,1} + I_{2,1} X = 0},
where e1 spans the isotropy line h0, (e2, e3, e4) span h1 (the rest of the
maximal compact part) and (f1..f4) span h2.  Elements are stored as 8
coordinates; brackets, the invariant form B(X, Y) = -Re tr(XY), projections,
and the degree-4 curvature form are evaluated exactly in rational arithmetic
whenever the inputs are rational (floats are accepted and simply degrade to
float arithmetic).  One sparse list of the 54 nonzero structure constants,
all integers, drives the exact bracket, the exact pair kernel and the float
margin forms; it and the diagonal of B are computed once per process from
the integer basis matrices (int64 arithmetic, checked exactly).  The exact
paths work on integer numerators over a common denominator: the pair kernel
makes one pass for [X, Y], [X1, Y1] and [X2, Y2]_1, and both quartic forms
and the determinant identity, homogeneous of degree (2, 2), are each one
integer polynomial (det_residuals, quartic_numerators).  The coordinates
may be 8 numbers (one pair; the scalar functions divide once into a
Fraction) or 8 rows of a batch of pairs in one array pass: Python-int rows,
or integer rows of any numpy width, whose degree-(2, 2) step runs on Python
ints.  feasible() is four integer sign tests; scan_region reduces each t and
each k to integers once and applies them to the whole grid in one array
pass.  Both array passes run in int64 while a derived bound keeps every
magnitude below 2^63 and on Python ints past it (_exact_array), so neither
wraps.  The Jacobi, Ad-invariance and containment checks read one integer
table of the 64 basis brackets.

The one-parameter family of metrics is (X, Y) = (1+t) B(X1, Y1) + B(X2, Y2)
on h1 + h2, t > -1.  The curvature quadratic form, the Gram determinant in
the invariants (x, y, z), the four feasibility inequalities in (t, k), and
the reduced geodesic-flow equations

    (1+t) G1' = 0,          G2' = t [G1, G2]

are all provided.  Brackets are linear in X ^ Y, so the sampled margin
quartic - k * gram is a quadratic form on the 21 Plücker coordinates of a
pair (7 tangent coordinates of a ``charts.sample_blocks`` block), evaluated by
``charts.plane_values`` and reduced by ``charts.sampled_check`` block by
block; scan_region walks the same blocks, so memory stays flat in samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product, repeat
from typing import NamedTuple, Sequence

import numpy as np

from .charts import SAMPLE_BLOCK, plane_margins, plane_values, sample_blocks, sampled_check, wedge
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

# Matrix realization: basis element i is _BASIS[i, 0] + sqrt(-1) _BASIS[i, 1].
_BASIS = np.array([
    [[[0, 0, 0], [0, 0, 0], [0, 0, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, -2]]],  # e1
    [[[0, 0, 0], [0, 0, 0], [0, 0, 0]], [[1, 0, 0], [0, -1, 0], [0, 0, 0]]],  # e2
    [[[0, 1, 0], [-1, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, 0]]],  # e3
    [[[0, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 1, 0], [1, 0, 0], [0, 0, 0]]],  # e4
    [[[0, 0, 1], [0, 0, 0], [1, 0, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, 0]]],  # f1
    [[[0, 0, 0], [0, 0, 1], [0, 1, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, 0]]],  # f2
    [[[0, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 1], [0, 0, 0], [-1, 0, 0]]],  # f3
    [[[0, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 1], [0, -1, 0]]],  # f4
], dtype=np.int64)


def _coordinates(re, im, half) -> tuple:
    """The basis coordinates of the matrix re + sqrt(-1) im, read off its
    entries; ``half`` divides by 2 (only the e1 and e2 coordinates need it).
    Trailing axes after the two matrix axes are a batch."""
    a1 = half(-im[2][2])
    return a1, im[0][0] - a1, re[0][1], im[0][1], re[0][2], re[1][2], im[0][2], im[1][2]


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
        coords = np.array([c * _F1 for c in self.coords], dtype=object)  # ints become Fractions
        re, im = np.tensordot(coords, _BASIS.astype(object), 1)
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
    elem = AlgebraElement(_coordinates(re, im, lambda v: v / 2))
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
def _bracket_terms() -> tuple:
    """The 54 nonzero structure constants as (i, j, k, c): [basis_i, basis_j]
    has coordinate c on basis_k.  Every c is an integer (in +-{1, 2, 3}), so
    brackets of integer numerators stay integers.

    Built once from the 64 integer matrix commutators, decomposed by
    ``from_matrix``'s functionals and checked by exact reconstruction.
    """
    re, im = _BASIS[:, 0], _BASIS[:, 1]
    prod_re = np.einsum("iab,jbc->acij", re, re) - np.einsum("iab,jbc->acij", im, im)  # (X_i X_j)[a, c]
    prod_im = np.einsum("iab,jbc->acij", re, im) + np.einsum("iab,jbc->acij", im, re)
    comm = np.stack((prod_re - prod_re.transpose(0, 1, 3, 2), prod_im - prod_im.transpose(0, 1, 3, 2)))
    table = np.stack(_coordinates(*comm, lambda v: v // 2), axis=-1)  # table[i, j, k]
    if not np.array_equal(np.einsum("ijk,kpab->pabij", table, _BASIS), comm):
        raise SemigeoError("a basis bracket is not an integer combination of the basis")
    i, j, k = np.nonzero(table)
    return tuple(zip(i.tolist(), j.tolist(), k.tolist(), table[i, j, k].tolist()))


@lru_cache(maxsize=1)
def _b_diagonal() -> tuple:
    """Diagonal of the Gram matrix of B(X, Y) = -Re tr(XY) over the basis as
    ints, from one trace contraction; the matrix must be diagonal."""
    gram = -np.einsum("ipab,jpba,p->ij", _BASIS, _BASIS, np.array([1, -1]))
    if np.count_nonzero(gram - np.diag(np.diag(gram))):
        raise SemigeoError("B Gram matrix is not diagonal")
    return tuple(np.diag(gram).tolist())


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


def _fixed_width(rows) -> bool:
    return isinstance(rows, np.ndarray) and rows.dtype.kind in "iu"


def _max_abs(rows) -> int:
    """The largest |v| over coordinate rows, as a Python int, at least 1."""
    rows = np.asarray(rows)
    return max(1, int(rows.max(initial=0)), -int(rows.min(initial=0)))


def _exact_array(values, reach: int) -> np.ndarray:
    """Integer ``values`` as int64 when ``reach`` bounds every magnitude the
    caller's pass forms (the values included) below 2^63, else as Python
    ints: the one rule that keeps the exact array passes (the pair kernels,
    the grid) from wrapping."""
    return np.array(values, dtype=np.int64 if reach < 2**63 else object)


def _python_ints(row):
    """An int64 row as Python ints (products of two bracket or minor
    numerators can pass 2^63); anything else unchanged."""
    return row.astype(object) if _fixed_width(row) else row


def _pair_brackets(xs, ys) -> tuple:
    """(xs, ys, [X, Y], [X1, Y1], [X2, Y2]_1) from coordinate numerators: 8
    numbers, or 8 rows of a batch of pairs, the brackets as Python ints.

    Integer rows of any width become _exact_array rows.  A bracket numerator
    sums x_i y_j c into one coordinate k, so it is at most w max|x| max|y|, w
    the largest sum of |c| into one k (12 for the true constants); a minor
    x_i y_j - y_i x_j is at most 2 max|x| max|y|, and so is every partial sum."""
    if _fixed_width(xs) or _fixed_width(ys):
        weights = [0] * 8
        for _, _, k, c in _bracket_terms():
            weights[k] += abs(c)
        reach = max(2, *weights) * _max_abs(xs) * _max_abs(ys)
        xs, ys = _exact_array(xs, reach), _exact_array(ys, reach)
    parts = [0] * 8, [0] * 8, [0] * 8
    _bracket_parts(xs, ys, *parts)
    return xs, ys, *([_python_ints(row) for row in part] for part in parts)


def _t_ratio(t) -> tuple:
    """t as (p, q): ints for a rational t, else float(t) over 1.0."""
    if isinstance(t, (int, Fraction)):
        return t.numerator, t.denominator
    return float(t), 1.0


def quartic_numerators(xs, ys, params: ModelParams) -> tuple:
    """4 q^2 den^2 times curvature_quartic and curvature_quartic_first_form,
    t = p/q, from coordinate numerators xs and ys over denominators whose
    product is den: 8 numbers for one pair, or (8, N) rows for a batch of
    integers of any numpy width or Python ints (all exact: the bracket pass
    runs in int64 under a checked bound, on Python ints past it, and the
    quadratic step on Python ints)."""
    p, q = _t_ratio(params.t)
    _, _, full, b11, b22_1 = _pair_brackets(xs, ys)
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
    rows for a batch of integers of any numpy width or Python ints (all
    exact: the bracket pass and the minors x_i y_j - y_i x_j run in int64
    under a checked bound, on Python ints past it, and the squares and
    products on Python ints)."""
    xs, ys, full, b11, b22_1 = _pair_brackets(xs, ys)
    z_sq = sum(_python_ints(xs[i] * ys[j] - ys[i] * xs[j]) ** 2 for i in H1 for j in H2)
    return _b_num(full, full, H2) + 2 * z_sq - _b_num(b11, b22_1)


MAX_FLOAT_T = 1e60  # below it 45 t^4 (eta) and (1 + t)^2 times sampled Plücker squares stay finite


def _float_ts(ts) -> np.ndarray:
    """A t or a sequence of t's as floats; one beyond MAX_FLOAT_T raises DomainError."""
    t = np.asarray(ts, dtype=float)
    bad = t[~(np.abs(t) <= MAX_FLOAT_T)]
    if bad.size:
        raise DomainError(f"|t| must be at most {MAX_FLOAT_T:g} for float evaluation, got {bad.flat[0]:g}")
    return t


def eta(t) -> float:
    """The smaller root in k of the product inequality's boundary:

        eta(t) = (-3 t^2 - 2 t + 5 - sqrt(45 t^4 + 12 t^3 - 50 t^2 + 12 t + 45))
                 / (16 (t + 1)).
    """
    t = float(_float_ts(t))
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
# Float paths (the sampled margins, the reduced geodesic flow's weights)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def b_weights_float() -> np.ndarray:
    """Diagonal of the B Gram matrix as floats (the matrix is diagonal)."""
    return np.array(_b_diagonal(), dtype=float)


@lru_cache(maxsize=1)
def _margin_terms() -> tuple:
    """The t-free parts of _margin_forms: the five 21 x 21 forms that
    curvature_quartic's terms weight, from a bracket pass over the unit
    bivectors e_i ^ e_j (1 <= i < j), and masks of the h1^h2 and h1^h1 rows."""
    i, j = np.triu_indices(7, 1)
    full, b11, b22_1 = np.zeros((3, 8, len(i)))
    _bracket_parts(np.eye(8)[:, i + 1], np.eye(8)[:, j + 1], full, b11, b22_1)
    f0, f2 = (np.equal(_BLOCK_OF, b)[:, None] * full for b in (0, 2))

    def form(a, b):  # symmetric matrix of w -> B(a w, b w)
        m = a.T @ (b_weights_float()[:, None] * b)
        return (m + m.T) / 2

    bi, bj = np.take(_BLOCK_OF, i + 1), np.take(_BLOCK_OF, j + 1)
    return form(b11, b11), form(b22_1, b22_1), form(b11, b22_1), form(f2, f2), form(f0, f0), bi != bj, bi == 1


def _margin_forms(ts) -> tuple[np.ndarray, np.ndarray]:
    """Q(t) and G(t), the quartic and the Gram value on the Plücker
    coordinates ``wedge(x[:, 1:], y[:, 1:])``, as (len(ts), 21, 21) stacks
    over the t-values ``ts``, each t's the same in any stack.  G is diagonal,
    4 (1+t)^2 / 4 / -4 (1+t) on h1^h1 / h2^h2 / h1^h2 (for |t| <= MAX_FLOAT_T)."""
    t = _float_ts(ts)[:, None, None]
    b11, b22, mixed, f2, f0, h1h2, h1h1 = _margin_terms()
    quartic = (1 + t) / 4 * b11 + (1 - 3 * t) / 4 * b22 + (1 - t - 2 * t * t) / 2 * mixed + (1 + t) ** 2 / 4 * f2 + f0
    return quartic, np.where(h1h2, -4 * (1 + t), np.where(h1h1, 4 * (1 + t) ** 2, 4.0)) * np.eye(21)


def sample_margins(t: float, k: float, n: int, seed: int, tol: float = 1e-9) -> tuple[float, bool]:
    """The sampled check of quartic - k * gram >= 0 on n pairs in h1 + h2,
    their 7 tangent coordinates drawn and reduced block by block by
    ``charts.sampled_check``: the witness margin (the first non-finite one,
    else the first minimum) and whether every margin >= -tol * max(1,
    |quartic|, |k * gram|)."""
    forms = _margin_forms([t])

    def evaluate(_, us, vs):
        margins, scales = plane_margins(wedge(us, vs), *forms, float(k))
        return margins.T, scales.T, us[:, None], vs[:, None]

    min_margin, _, passed, _ = sampled_check(evaluate, n, tol, seed, 7)
    return min_margin, passed


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


_FEASIBLE = 0b1111  # a cell's code when all four inequalities hold
# Per cell code: its four inequalities and its feasible flag, as GridCell
# fields and as the CSV text between the k and min_margin columns.
_CODE_FLAGS = tuple((*(bool(code >> i & 1) for i in range(4)), code == _FEASIBLE) for code in range(16))
_CODE_TEXTS = tuple("".join(f",{int(flag)}" for flag in flags) + "," for flags in _CODE_FLAGS)


@dataclass(frozen=True)
class FeasibilityGrid:
    """Per-cell feasibility over a (t, k) grid, cells in t-major order.

    codes holds one byte per cell, bit i set when inequality i + 1 holds;
    margins is None for an exact-only grid, else the sampled min_margin of
    each cell.  cells derives the GridCell tuple from them.
    """

    t_values: tuple
    k_values: tuple
    codes: bytes
    margins: tuple | None = None

    @property
    def cells(self) -> tuple:
        margins = repeat(None) if self.margins is None else self.margins
        return tuple(
            GridCell(t, k, *_CODE_FLAGS[code], margin)
            for (t, k), code, margin in zip(product(self.t_values, self.k_values), self.codes, margins)
        )

    def feasible_t_values(self) -> tuple:
        n_k = len(self.k_values)
        rows = (self.codes[i * n_k : (i + 1) * n_k] for i in range(len(self.t_values)))
        return tuple(sorted({t for t, row in zip(self.t_values, rows) if _FEASIBLE in row}))

    def to_csv(self) -> str:
        t_texts = [repr(t) for t in self.t_values]
        k_texts = [f",{k!r}" for k in self.k_values]
        margins = repeat("") if self.margins is None else map(repr, self.margins)
        lines = ["t,k,ineq1,ineq2,ineq3,ineq4,feasible,min_margin"]
        lines += [
            t_text + k_text + _CODE_TEXTS[code] + margin
            for (t_text, k_text), code, margin in zip(product(t_texts, k_texts), self.codes, margins)
        ]
        return "\n".join(lines) + "\n"


def _grid_reach(t_terms: Sequence, k_ratios: Sequence) -> int:
    """A bound on every magnitude _cell_flags forms over the grid of the
    t-terms (b, s, u, w) and the k-ratios (c, d), both lists nonempty.

    With M_t the largest |b|, |s|, |u| and M_k the largest |c|, |d|, the
    factors of the fourth test are |b d - 2 c s| <= 3 M_t M_k and
    |u d - 8 c b| <= 9 M_t M_k, so each partial product of its left side is
    at most 108 M_t^4 M_k^2 (M_t, M_k >= 1), and the right side w d d is at
    most max(w) M_k^2.  The first three tests stay below 9 M_t M_k.
    """
    m_t = max(max(abs(b), abs(s), abs(u)) for b, s, u, _ in t_terms)
    m_k = max(max(abs(c), d) for c, d in k_ratios)
    return max(108 * m_t**4, max(w for *_, w in t_terms)) * m_k**2


def _grid_codes(t_terms: Sequence, k_ratios: Sequence) -> bytes:
    """_cell_flags on every (t, k) cell in one array pass: the t-terms as
    (n_t, 1) columns against the k-ratios as (1, n_k) rows.  Returns one
    code byte per cell in t-major order (bit i: inequality i + 1 holds), in
    int64 or on Python ints under _grid_reach (_exact_array); a float t or k
    has an exact ratio with a denominator near 2^55.
    """
    if not t_terms or not k_ratios:
        return b""
    reach = _grid_reach(t_terms, k_ratios)
    terms, ratios = _exact_array(t_terms, reach).T[:, :, None], _exact_array(k_ratios, reach).T[:, None, :]
    flags = _cell_flags(tuple(terms), tuple(ratios))
    return np.packbits(np.stack(flags, axis=-1), axis=-1, bitorder="little").tobytes()


_SCAN_T_ROWS, _SCAN_K_COLUMNS = 32, 21  # a sampled scan's margin arrays hold at most 32 x 21 x SAMPLE_BLOCK


def _scan_margins(t_values: Sequence, k_values: Sequence, sample_count: int, seed: int) -> np.ndarray:
    """The (n_t, n_k) minima of quartic - k * gram over the pairs that
    sample_margins(t, k, sample_count, seed) draws.  Each chunk of t-rows
    builds its forms once and walks the blocks, keeping a running minimum
    per cell; every margin array is a view of one buffer."""
    ks = np.array(k_values, dtype=float)[:, None]
    minima = np.full((len(t_values), len(ks)), np.inf)
    buffer = np.empty(_SCAN_K_COLUMNS * _SCAN_T_ROWS * SAMPLE_BLOCK)
    for t_lo in range(0, len(t_values), _SCAN_T_ROWS):
        forms = _margin_forms(t_values[t_lo : t_lo + _SCAN_T_ROWS])
        rows = minima[t_lo : t_lo + _SCAN_T_ROWS]
        for _, us, vs in sample_blocks(seed, sample_count, 7):
            lhs, area = (v.ravel() for v in plane_values(wedge(us, vs), *forms))  # t-major rows
            for k_lo in range(0, len(ks), _SCAN_K_COLUMNS):
                k_chunk, cells = ks[k_lo : k_lo + _SCAN_K_COLUMNS], rows[:, k_lo : k_lo + _SCAN_K_COLUMNS]
                margins = buffer[: len(k_chunk) * lhs.size].reshape(len(k_chunk), lhs.size)
                np.subtract(lhs, np.multiply(k_chunk, area, out=margins), out=margins)
                np.minimum(cells, margins.reshape(len(k_chunk), len(rows), -1).min(axis=-1).T, out=cells)
    return minima


def scan_region(
    t_values: Sequence,
    k_values: Sequence,
    sample_count: int = 0,
    seed: int = 0,
) -> FeasibilityGrid:
    """Evaluate the four inequalities (exactly for rational grid values) on a
    grid, optionally adding a sampled minimum curvature margin per cell.

    Each t and each k is checked and reduced to integers once, in the order
    a cell-by-cell loop reaches them: the first t, then every k, then the
    other t's (so a bad value raises the same DomainError).  The whole grid
    is then one array pass of the four integer sign tests feasible() uses
    (_grid_codes): in int64 under a checked magnitude bound, on Python ints
    past it.

    A cell's min_margin is that of sample_margins(t, k, sample_count, seed),
    bit for bit (_scan_margins); memory stays flat in ``sample_count``.
    """
    t_values, k_values = tuple(t_values), tuple(k_values)
    t_terms, k_ratios = [], []
    for t in t_values if k_values else ():
        ModelParams(t, k_values[0])  # checks t (and, in the first row, k_values[0] next)
        t_terms.append(_t_terms(t))
        if not k_ratios:
            k_ratios = [_ratio(ModelParams(t, k).k) for k in k_values]
    t_floats, k_floats = tuple(float(t) for t in t_values), tuple(float(k) for k in k_values)
    margins = None
    if sample_count > 0:
        margins = tuple(_scan_margins(t_floats, k_floats, sample_count, seed).ravel().tolist())
    return FeasibilityGrid(t_floats, k_floats, _grid_codes(t_terms, k_ratios), margins)


# ---------------------------------------------------------------------------
# Reduced geodesic flow on the algebra
# ---------------------------------------------------------------------------


def euler_arnold_rhs(gamma: AlgebraElement, params: ModelParams) -> AlgebraElement:
    """Right side of the reduced flow: G1' = 0 and G2' = t [G1, G2].

    Also evaluates phi(G') and [phi(G), G] with phi scaling h1 by (1+t), and
    verifies the two agree (exactly for rational inputs, to 1e-9 relative
    for floats).
    """
    _require_tangent(gamma)
    t = params.t
    g1 = project(gamma, 1)
    g2 = project(gamma, 2)
    rhs = bracket(g1, g2).scale(t)
    if any(rhs.coords[i] != 0 for i in (0, 1, 2, 3)):
        raise SemigeoError("bracket [h1, h2] left h2; structure table corrupt")
    phi_gamma = g1.scale(1 + t) + g2
    alt = bracket(phi_gamma, gamma)
    # phi fixes h2, so phi(G') = G' and agreement means alt == rhs.
    exact = all(isinstance(c, (int, Fraction)) for c in gamma.coords) and isinstance(t, (int, Fraction))
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
