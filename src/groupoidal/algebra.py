"""Functions on a finite groupoid and their convolution algebra.

A function on a groupoid G is a complex array of one value per element id:
numpy does its linear arithmetic, and ``convolve(G, f1, f2)`` is the product.
The module also holds the Weyl matrix units, the regular (left-convolution)
realization of an arbitrary finite groupoid, its trace normalization, and
the density-weighted grid convolution.  With ids (u*n + v)*|H| + h, ``convolve``
on ``transitive_groupoid(n, H)`` is the product of M_n(C[H]).  Functions are
(de)quantized only in ``starproduct``: through ``weyl_qdpair(n)`` for pair
groupoids, and through ``regular_reconstruct`` / ``regular_symbol`` for the
regular realization.
"""

from __future__ import annotations

import json
from typing import Callable, NamedTuple

import numpy as np

from .groupoid import FiniteGroupoid, NotTransitiveError, blocks, classify, isotropy_group


class AlgebraMismatchError(ValueError):
    """Raised when a value array does not hold one value per groupoid element."""


def delta(G: FiniteGroupoid, gamma: int) -> np.ndarray:
    """Indicator function of a single element; these span the algebra."""
    if not 0 <= gamma < G.order:
        raise ValueError(f"element {gamma} out of range for order {G.order}")
    vals = np.zeros(G.order, dtype=np.complex128)
    vals[gamma] = 1.0
    return vals


def convolve(G: FiniteGroupoid, f1, f2) -> np.ndarray:
    """Convolution (f1 * f2)(g) = sum over j o k = g of f1(j) f2(k).

    Iterates the stored defined-composition triples only; the composition
    table is the ground truth for which products contribute.
    """
    f1, f2 = np.asarray(f1, dtype=np.complex128), np.asarray(f2, dtype=np.complex128)
    if f1.shape != (G.order,) or f2.shape != (G.order,):
        raise AlgebraMismatchError(f"functions on a groupoid of order {G.order} need {G.order} "
                                   f"values each (got shapes {f1.shape} and {f2.shape})")
    j, k, g = G.composable_triples().T
    out = np.zeros(G.order, dtype=np.complex128)
    np.add.at(out, g, f1[j] * f2[k])
    return out


def random_function(
    G: FiniteGroupoid, rng: np.random.Generator, integer: bool = False
) -> np.ndarray:
    """Random test function; with ``integer`` the values are Gaussian integers."""
    if integer:
        vals = rng.integers(-5, 6, G.order) + 1j * rng.integers(-5, 6, G.order)
    else:
        vals = rng.standard_normal(G.order) + 1j * rng.standard_normal(G.order)
    return vals.astype(np.complex128)


# ---------------------------------------------------------------------------
# Weyl units
# ---------------------------------------------------------------------------


def weyl_units(n: int) -> np.ndarray:
    """Stack of the n^2 Weyl matrix units, indexed flat: E[(i*n + k)] = E_ik.

    (E_ik)_jl = delta_ij delta_kl, so E_ik E_jl = delta_kj E_il and the E's
    are an orthonormal basis of the Hilbert-Schmidt space.
    """
    if n < 1:
        raise ValueError("weyl_units needs n >= 1")
    return np.eye(n * n, dtype=np.complex128).reshape(n * n, n, n)


# ---------------------------------------------------------------------------
# regular (left convolution) realization
# ---------------------------------------------------------------------------


def d_realization_stack(G: FiniteGroupoid) -> np.ndarray:
    """All D(gamma) at once: D[j, i, k] = 1 for each composable triple j o k = i."""
    j, k, i = G.composable_triples().T
    D = np.zeros((G.order,) * 3)
    D[j, i, k] = 1.0
    return D


class NormalizationInfo(NamedTuple):
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


ALL = slice(None)


class GridFunction(NamedTuple):
    """An m x m function on a 1D grid, held as the rule that forms its tiles.

    ``tile(rows, cols)`` returns f[rows, cols], to be read, not written, for
    two slices of step 1.  The consumers here ask for row bands and column
    bands of ``blocks(m, m)`` lines, 1 MB each, so no m x m array is built
    unless ``whole()`` is called (tests, CSV export).
    """

    size: int
    tile: Callable[[slice, slice], np.ndarray]

    def whole(self) -> np.ndarray:
        return self.tile(ALL, ALL)


def grid_function(f) -> GridFunction:
    """``f`` itself if it is a GridFunction, else the square array it tiles."""
    if isinstance(f, GridFunction):
        return f
    f = np.asarray(f, dtype=np.complex128)
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise ValueError(f"a grid function is a square matrix (got shape {f.shape})")
    return GridFunction(len(f), lambda rows, cols: f[rows, cols])


def weighted_grid_convolve(f1, f2, weights: np.ndarray,
                           density: np.ndarray | None = None) -> GridFunction:
    """Density-weighted continuous matrix product on a common 1D grid.

    (f1 * f2)(x, y) = rho(x) rho(y) * sum_s f1(x, s) f2(s, y) rho(s)^2 w_s;
    with rho = 1 this is the plain discretized continuous matrix product.
    ``f1`` and ``f2`` are arrays or ``GridFunction``s; so is the result, whose
    tile is the row band of f1, scaled, times one column band of f2 after
    another, each of ``blocks(m, m)`` lines.  The O(m^3) sum is taken on the
    grid, tile by tile, when the tiles are asked for.

    Writing the composition constraints with rescaled delta functions would
    multiply the result by a free positive prefactor per endpoint; only the
    canonical normalization (prefactor 1) is implemented.
    """
    f1, f2 = grid_function(f1), grid_function(f2)
    weights = np.asarray(weights, dtype=float)
    m = len(weights)
    if f1.size != m or f2.size != m:
        raise ValueError("grid functions and weights must share one grid")
    if density is not None:
        density = np.asarray(density, dtype=float)
        if density.shape != (m,) or np.any(density <= 0):
            raise ValueError("density must be positive on every grid point")
    scale = weights if density is None else density**2 * weights

    def tile(rows: slice, cols: slice) -> np.ndarray:
        band = f1.tile(rows, ALL) * scale
        lo, hi, _ = cols.indices(m)
        out = np.empty((len(band), hi - lo), dtype=np.complex128)
        for c in blocks(hi - lo, m):
            np.matmul(band, f2.tile(ALL, slice(lo + c.start, lo + c.stop)), out=out[:, c])
        if density is not None:
            out *= np.outer(density[rows], density[cols])
        return out

    return GridFunction(m, tile)


# ---------------------------------------------------------------------------
# operator files
# ---------------------------------------------------------------------------


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
