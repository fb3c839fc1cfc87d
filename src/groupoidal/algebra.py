"""Functions on a finite groupoid and their convolution algebra.

Includes the Weyl-unit realization of pair groupoids, the regular
(left-convolution) realization of an arbitrary finite groupoid, its trace
normalization, and the quadrature-scale convolution variants for grids and
matrices of group-algebra entries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .groupoid import (
    UNDEFINED,
    FiniteGroupoid,
    NotTransitiveError,
    classify,
    isotropy_group,
    pair_groupoid,
)


class AlgebraMismatchError(ValueError):
    """Raised when combining functions that live on different groupoids."""


@dataclass(frozen=True)
class GroupoidFunction:
    """A complex-valued function on the elements of one groupoid."""

    groupoid: FiniteGroupoid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.groupoid.order,):
            raise AlgebraMismatchError("value vector length must equal the groupoid order")
        object.__setattr__(self, "values", vals)

    def _check_owner(self, other: "GroupoidFunction") -> None:
        if other.groupoid != self.groupoid:
            raise AlgebraMismatchError("functions live on different groupoids")

    def __add__(self, other: "GroupoidFunction") -> "GroupoidFunction":
        self._check_owner(other)
        return GroupoidFunction(self.groupoid, self.values + other.values)

    def __sub__(self, other: "GroupoidFunction") -> "GroupoidFunction":
        self._check_owner(other)
        return GroupoidFunction(self.groupoid, self.values - other.values)

    def __mul__(self, scalar) -> "GroupoidFunction":
        return GroupoidFunction(self.groupoid, self.values * scalar)

    __rmul__ = __mul__

    def to_dict(self, inline_groupoid: bool = True) -> dict:
        return {
            "groupoid": self.groupoid.to_dict() if inline_groupoid else None,
            "values": [[float(v.real), float(v.imag)] for v in self.values],
        }

    @staticmethod
    def from_dict(data: dict, groupoid: FiniteGroupoid | None = None) -> "GroupoidFunction":
        owner = groupoid
        if owner is None:
            g = data.get("groupoid")
            if isinstance(g, str):
                owner = FiniteGroupoid.load(g)
            elif isinstance(g, dict):
                owner = FiniteGroupoid.from_dict(g)
            else:
                raise AlgebraMismatchError("no groupoid supplied for the function")
        vals = np.array([complex(re, im) for re, im in data["values"]])
        return GroupoidFunction(owner, vals)


def delta(G: FiniteGroupoid, gamma: int) -> GroupoidFunction:
    """Indicator function of a single element; these span the algebra."""
    if not 0 <= gamma < G.order:
        raise ValueError(f"element {gamma} out of range for order {G.order}")
    vals = np.zeros(G.order, dtype=np.complex128)
    vals[gamma] = 1.0
    return GroupoidFunction(G, vals)


def convolve(f1: GroupoidFunction, f2: GroupoidFunction) -> GroupoidFunction:
    """Convolution (f1 * f2)(g) = sum over j o k = g of f1(j) f2(k).

    Iterates the stored defined-composition triples only; the composition
    table is the ground truth for which products contribute.
    """
    f1._check_owner(f2)
    G = f1.groupoid
    triples = G.composable_triples()
    out = np.zeros(G.order, dtype=np.complex128)
    if len(triples):
        np.add.at(out, triples[:, 2], f1.values[triples[:, 0]] * f2.values[triples[:, 1]])
    return GroupoidFunction(G, out)


def random_function(
    G: FiniteGroupoid, rng: np.random.Generator, integer: bool = False
) -> GroupoidFunction:
    """Random test function; with ``integer`` the values are Gaussian integers."""
    if integer:
        vals = rng.integers(-5, 6, G.order) + 1j * rng.integers(-5, 6, G.order)
    else:
        vals = rng.standard_normal(G.order) + 1j * rng.standard_normal(G.order)
    return GroupoidFunction(G, vals.astype(np.complex128))


# ---------------------------------------------------------------------------
# Weyl units and the pair-groupoid realization
# ---------------------------------------------------------------------------


def weyl_units(n: int) -> np.ndarray:
    """Stack of the n^2 Weyl matrix units, indexed flat: E[(i*n + k)] = E_ik.

    (E_ik)_jl = delta_ij delta_kl, so E_ik E_jl = delta_kj E_il and the E's
    are an orthonormal basis of the Hilbert-Schmidt space.
    """
    if n < 1:
        raise ValueError("weyl_units needs n >= 1")
    return np.eye(n * n, dtype=np.complex128).reshape(n * n, n, n)


def pair_size(G: FiniteGroupoid) -> int | None:
    """Return n when G is structurally pair_groupoid(n) in canonical indexing."""
    n = int(round(np.sqrt(G.order)))
    return n if n * n == G.order and G == pair_groupoid(n) else None


def realize_pair_function(f: GroupoidFunction) -> np.ndarray:
    """The matrix A_f = sum f(i,k) E_ik of a pair-groupoid function.

    With elements indexed (i, k) -> i*n + k this is exactly a reshape; the
    map is a linear bijection intertwining convolution with the matrix
    product.
    """
    n = pair_size(f.groupoid)
    if n is None:
        raise AlgebraMismatchError(
            "realize_pair_function needs a canonical pair groupoid owner"
        )
    return f.values.reshape(n, n).copy()


def pair_function_from_matrix(G: FiniteGroupoid, A: np.ndarray) -> GroupoidFunction:
    """Inverse of realize_pair_function: f(i,k) = Tr[A E_ik^T] = A[i,k]."""
    n = pair_size(G)
    if n is None:
        raise AlgebraMismatchError("owner is not a canonical pair groupoid")
    A = np.asarray(A, dtype=np.complex128)
    if A.shape != (n, n):
        raise AlgebraMismatchError(f"matrix must be {n}x{n}")
    return GroupoidFunction(G, A.reshape(-1).copy())


# ---------------------------------------------------------------------------
# regular (left convolution) realization
# ---------------------------------------------------------------------------


def d_realization(G: FiniteGroupoid, gamma: int) -> np.ndarray:
    """Matrix of the left-convolution operator ``delta_gamma *`` in the delta basis.

    ``D(gamma)[i, k] = 1`` iff ``gamma o k = i``; products satisfy
    ``D(a) D(b) = D(a o b)`` when defined and vanish otherwise.
    """
    if not 0 <= gamma < G.order:
        raise ValueError(f"element {gamma} out of range")
    D = np.zeros((G.order, G.order))
    ks = np.nonzero(G.compose[gamma] != UNDEFINED)[0]
    D[G.compose[gamma, ks], ks] = 1.0
    return D


def d_realization_stack(G: FiniteGroupoid) -> np.ndarray:
    """All D(gamma) at once: D[j, i, k] = 1 for each composable triple j o k = i."""
    j, k, i = G.composable_triples().T
    D = np.zeros((G.order,) * 3)
    D[j, i, k] = 1.0
    return D


@dataclass(frozen=True)
class NormalizationInfo:
    """Trace normalizer of the regular realization on a transitive groupoid.

    ``value`` is the working constant Tr[D(g) D(g)^T] = ord(G0) * ord(H),
    which makes (1/value) Tr[D(j) D(k)^T] = delta_jk exact.  The closed form
    ord(G0) + (ord(H) - 1) is kept as ``formula_value``: it agrees with the
    trace for principal groupoids and for groups but differs from it as soon
    as there are both several units and nontrivial isotropy.
    """

    value: int
    unit_count: int
    isotropy_excess: int

    @property
    def formula_value(self) -> int:
        return self.unit_count + self.isotropy_excess

    @property
    def matches_formula(self) -> bool:
        return self.value == self.formula_value


def normalization_constant(G: FiniteGroupoid) -> NormalizationInfo:
    """Normalizer making the regular realization an orthogonal family.

    Raises
    ------
    NotTransitiveError
        For nontransitive groupoids, where the constant is defined only per
        orbit; split with ``orbits()`` first.
    """
    cls = classify(G)
    if not cls.transitive:
        raise NotTransitiveError(
            "normalization constant is defined per orbit; decompose a "
            "nontransitive groupoid with orbits() first"
        )
    u = len(G.units)
    h = isotropy_group(G, next(iter(G.units))).order
    return NormalizationInfo(value=u * h, unit_count=u, isotropy_excess=h - 1)


def quantize_D(f: GroupoidFunction) -> np.ndarray:
    """A_f = sum f(g) D(g): groupoid functions to operators on the algebra."""
    G = f.groupoid
    j, k, i = G.composable_triples().T
    A = np.zeros((G.order, G.order), dtype=np.complex128)
    np.add.at(A, (i, k), f.values[j])
    return A


def dequantize_D(G: FiniteGroupoid, A: np.ndarray) -> GroupoidFunction:
    """f(g) = Tr[A D(g)^T] / N; left-inverse of quantize_D on its image."""
    A = np.asarray(A, dtype=np.complex128)
    if A.shape != (G.order, G.order):
        raise AlgebraMismatchError(f"operator must be {G.order}x{G.order}")
    norm = normalization_constant(G).value
    j, k, i = G.composable_triples().T
    vals = np.zeros(G.order, dtype=np.complex128)
    np.add.at(vals, j, A[i, k])
    return GroupoidFunction(G, vals / norm)


# ---------------------------------------------------------------------------
# quadrature-scale convolutions
# ---------------------------------------------------------------------------


def trapezoid_weights(points: np.ndarray) -> np.ndarray:
    """Trapezoid-rule weights for a strictly increasing 1D grid."""
    points = np.asarray(points, dtype=float)
    if len(points) < 2:
        raise ValueError(f"a trapezoid grid needs at least 2 points (got {len(points)})")
    if np.any(np.diff(points) <= 0):
        raise ValueError("grid points must be strictly increasing")
    w = np.empty_like(points)
    w[1:-1] = (points[2:] - points[:-2]) / 2
    w[0] = (points[1] - points[0]) / 2
    w[-1] = (points[-1] - points[-2]) / 2
    return w


def gauss_legendre_rule(a: float, b: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre points and weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(m)
    return (a + b) / 2 + (b - a) / 2 * x, (b - a) / 2 * w


def weighted_grid_convolve(
    f1: np.ndarray,
    f2: np.ndarray,
    weights: np.ndarray,
    density: np.ndarray | None = None,
) -> np.ndarray:
    """Density-weighted continuous matrix product on a common 1D grid.

    (f1 * f2)(x, y) = rho(x) rho(y) * sum_s f1(x, s) f2(s, y) rho(s)^2 w_s;
    with rho = 1 this is the plain discretized continuous matrix product.

    Writing the composition constraints with rescaled delta functions would
    multiply the result by a free positive prefactor per endpoint; only the
    canonical normalization (prefactor 1) is implemented.
    """
    f1 = np.asarray(f1, dtype=np.complex128)
    f2 = np.asarray(f2, dtype=np.complex128)
    weights = np.asarray(weights, dtype=float)
    m = len(weights)
    if f1.shape != (m, m) or f2.shape != (m, m):
        raise ValueError("grid functions and weights must share one grid")
    if density is None:
        density = np.ones(m)
    density = np.asarray(density, dtype=float)
    if density.shape != (m,) or np.any(density <= 0):
        raise ValueError("density must be positive on every grid point")
    core = (f1 * (density**2 * weights)[None, :]) @ f2
    return density[:, None] * density[None, :] * core


def group_convolve(a: np.ndarray, b: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Classical group-algebra convolution (a * b)(g) = sum_{g1 g2 = g} a(g1) b(g2)."""
    table = np.asarray(table, dtype=np.int64)
    m = table.shape[0]
    out = np.zeros(m, dtype=np.complex128)
    for g1 in range(m):
        out[table[g1]] += a[g1] * b
    return out


def matrix_group_convolve(F1: np.ndarray, F2: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Row-by-column product of matrices whose entries are group-algebra elements.

    ``F1, F2`` have shape (n, n, ord(H)); scalar multiplication inside the
    matrix product is replaced by convolution on the group H.
    """
    F1 = np.asarray(F1, dtype=np.complex128)
    F2 = np.asarray(F2, dtype=np.complex128)
    if F1.shape != F2.shape or F1.ndim != 3:
        raise ValueError("operands must be (n, n, ord(H)) arrays of equal shape")
    n, _, m = F1.shape
    if np.asarray(table).shape != (m, m):
        raise ValueError("group table does not match the entry length")
    out = np.zeros_like(F1)
    for i in range(n):
        for j in range(n):
            acc = np.zeros(m, dtype=np.complex128)
            for k in range(n):
                acc += group_convolve(F1[i, k], F2[k, j], table)
            out[i, j] = acc
    return out


# ---------------------------------------------------------------------------
# operator (de)serialization
# ---------------------------------------------------------------------------


def operator_to_dict(A: np.ndarray) -> dict:
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("operator must be a square matrix")
    flat = A.reshape(-1)
    return {
        "dim": A.shape[0],
        "entries": [[float(v.real), float(v.imag)] for v in flat],
    }


def operator_from_dict(data: dict) -> np.ndarray:
    if not isinstance(data, dict) or not {"dim", "entries"} <= data.keys():
        raise ValueError("operator JSON must be an object with 'dim' and 'entries'")
    n = data["dim"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError("operator dim must be an integer >= 1")
    pairs = np.asarray(data["entries"], dtype=float)
    if pairs.shape != (n * n, 2):
        raise ValueError("entries must be dim^2 [re, im] pairs")
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(n, n)


def load_operator(path) -> np.ndarray:
    with open(path) as fh:
        return operator_from_dict(json.load(fh))
