"""Concrete Hilbert-space immersions producing quantizer-dequantizer pairs.

Each pair here immerses the pair groupoid of a labelled vector family,
(i, k) -> |v_i><v_k|, by one ``starproduct.rank_one_pair`` call (the truncated
Fock basis is ``weyl_qdpair(n)``); on an orthonormal basis its star product
is exactly the groupoid convolution.  The coherent-state lattice is the
deliberate counterexample: the family is not orthonormal and the equality
fails by a finite, reportable gap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import trapezoid_weights
from .groupoid import InfeasibleError, check_dense_size
from .starproduct import (
    QDPair,
    duality_residual,
    kernel,
    nonboolean_margin,
    rank_one_pair,
    star,
)


# ---------------------------------------------------------------------------
# basis spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpinSpace:
    """Spin-j label set: m in {-j, ..., j}, index m + j.

    The one place that checks a spin quantum number and derives 2j + 1.
    """

    j: float

    def __post_init__(self):
        two_j = 2 * self.j
        if not (np.isfinite(two_j) and two_j >= 0 and abs(two_j - round(two_j)) <= 1e-12):
            raise ValueError("j must be a nonnegative integer or half-integer")
        object.__setattr__(self, "j", float(self.j))

    @property
    def dim(self) -> int:
        return int(round(2 * self.j)) + 1

    @property
    def m_values(self) -> np.ndarray:
        return np.arange(self.dim) - self.j


@dataclass(frozen=True)
class PositionGrid:
    """Quadrature grid: strictly increasing points with positive weights."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if p.ndim != 1 or p.shape != w.shape:
            raise ValueError("points and weights must be matching 1D arrays")
        if np.any(np.diff(p) <= 0):
            raise ValueError("grid points must be strictly increasing")
        if np.any(w <= 0):
            raise ValueError("quadrature weights must be positive")
        object.__setattr__(self, "points", p)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.points)


def position_grid(a: float = -8.0, b: float = 8.0, m: int = 512) -> PositionGrid:
    """m uniformly spaced points on [a, b] with trapezoid weights."""
    pts = np.linspace(a, b, m)
    return PositionGrid(pts, trapezoid_weights(pts))


@dataclass(frozen=True)
class CoherentGrid:
    """Finite lattice of coherent labels z with d^2z/pi cell weight."""

    z_points: np.ndarray
    cell_area: float

    def __post_init__(self):
        z = np.asarray(self.z_points, dtype=complex)
        if z.ndim != 1 or len(z) == 0:
            raise ValueError("z_points must be a nonempty 1D complex array")
        if self.cell_area <= 0:
            raise ValueError("cell_area must be positive")
        object.__setattr__(self, "z_points", z)

    def __len__(self) -> int:
        return len(self.z_points)

    @property
    def point_weight(self) -> float:
        return self.cell_area / np.pi


def coherent_grid(size: int, spacing: float) -> CoherentGrid:
    """Square size x size lattice of coherent labels centered at the origin."""
    if size < 1 or spacing <= 0:
        raise ValueError("need size >= 1 and positive spacing")
    offs = (np.arange(size) - (size - 1) / 2) * spacing
    z = (offs[:, None] + 1j * offs[None, :]).reshape(-1)
    return CoherentGrid(z, spacing**2)


def disk_lattice(radius: float, spacing: float) -> CoherentGrid:
    """Lattice of coherent labels covering the disk |z| <= radius."""
    if not (0 < spacing < np.inf and 0 <= radius < np.inf):
        raise ValueError(f"lattice spacing must be positive and radius finite "
                         f"(got spacing {spacing}, radius {radius})")
    n = round(radius / spacing)
    check_dense_size((2 * n + 1, 2 * n + 1), np.complex128, "coherent lattice")
    ax = spacing * np.arange(-n, n + 1)
    z = (ax[:, None] + 1j * ax[None, :]).reshape(-1)
    z = z[np.abs(z) <= radius + 1e-12]
    return CoherentGrid(z, spacing**2)


# ---------------------------------------------------------------------------
# operators on the truncated Fock space
# ---------------------------------------------------------------------------


def annihilation(n_trunc: int) -> np.ndarray:
    """Truncated annihilation matrix, <n-1|a|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1, n_trunc)), 1).astype(np.complex128)


def spin_weyl_pair(j: float) -> QDPair:
    """Self-dual pair |j m><j m'| over the spin pair-groupoid index set."""
    sp = SpinSpace(j)
    return rank_one_pair(np.eye(sp.dim), sp.m_values.tolist())


def two_mode_weyl_pair(n1: int, n2: int) -> QDPair:
    """Self-dual pair |n1 n2><m1 m2| built from tensor products."""
    if n1 < 2 or n2 < 2:
        raise ValueError("each mode needs truncation dimension >= 2")
    return rank_one_pair(np.eye(n1 * n2), list(itertools.product(range(n1), range(n2))))


def spin_block_pair(js: tuple) -> QDPair:
    """Immersion of a disjoint union of spin pair groupoids.

    Operators |j m><j m'| act block-diagonally on the direct sum of the
    spin spaces; cross-block units are not part of the index set, so the
    symbol of any operator supported across blocks vanishes.
    """
    spaces = [SpinSpace(j) for j in js]
    basis = [(s.j, m) for s in spaces for m in s.m_values.tolist()]
    block = np.repeat(np.arange(len(spaces)), [s.dim for s in spaces])
    return rank_one_pair(np.eye(len(basis)), basis,
                         select=np.flatnonzero(block[:, None] == block[None, :]))


# ---------------------------------------------------------------------------
# Hermite functions and the position bridge
# ---------------------------------------------------------------------------


def hermite_functions(n_max: int, x) -> np.ndarray:
    """Orthonormal oscillator eigenfunctions phi_0 .. phi_n_max on a grid.

    Uses the normalized three-term recurrence
    phi_{k+1} = sqrt(2/(k+1)) x phi_k - sqrt(k/(k+1)) phi_{k-1},
    which keeps every row O(1) (no raw Hermite polynomials, no overflow).
    """
    if n_max < 0:
        raise ValueError(f"Hermite order must be nonnegative (got {n_max})")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros((n_max + 1, len(x)))
    out[0] = np.pi**-0.25 * np.exp(-0.5 * x**2)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for k in range(1, n_max):
        out[k + 1] = np.sqrt(2.0 / (k + 1)) * x * out[k] - np.sqrt(k / (k + 1)) * out[k - 1]
    return out


def fock_to_position_symbol(F: np.ndarray, grid: PositionGrid) -> np.ndarray:
    """Position-representation kernel f(x, y) = sum F(n, m) phi_n(x) phi_m(y)."""
    F = np.asarray(F, dtype=np.complex128)
    if F.ndim != 2 or F.shape[0] != F.shape[1] or len(F) < 1:
        raise ValueError("Fock symbol must be a square matrix of dimension at least 1")
    phi = hermite_functions(len(F) - 1, grid.points)
    return phi.T @ F @ phi


def position_to_fock_symbol(f: np.ndarray, grid: PositionGrid, n_trunc: int) -> np.ndarray:
    """Recover F(n, m) = integral f(x, y) phi_n(x) phi_m(y) dx dy by quadrature.

    Raises
    ------
    InfeasibleError
        When the grid endpoints cannot contain the support of the highest
        requested Hermite function; the message suggests a sufficient bound.
    """
    if n_trunc < 1:
        raise ValueError(f"Fock truncation must be at least 1 (got {n_trunc})")
    f = np.asarray(f, dtype=np.complex128)
    m = len(grid)
    if f.shape != (m, m):
        raise ValueError("grid symbol shape must match the grid")
    reach = max(abs(grid.points[0]), abs(grid.points[-1]))
    needed = np.sqrt(2 * (n_trunc - 1)) + 1.0
    if reach < needed:
        suggested = np.sqrt(2 * n_trunc) + 4.0
        raise InfeasibleError(
            f"grid reaches |x| = {reach:.2f} but phi_{n_trunc - 1} needs at least "
            f"{needed:.2f}; use a bound b >= {suggested:.2f}"
        )
    phi = hermite_functions(n_trunc - 1, grid.points)
    wphi = phi * grid.weights[None, :]
    return wphi @ f @ wphi.T


def position_qdpair(grid: PositionGrid) -> QDPair:
    """Quadrature-level pair |x_i><y_j| / sqrt(w_i w_j) with weights w_i w_j.

    The kets e_i / sqrt(w_i) mimic delta-normalized position kets, so the
    duality relation holds exactly at the lattice level.  Intended for small
    grids (m^2 index points); the physical 512-point grids are handled through
    the symbol transforms and ``weighted_grid_convolve`` instead.
    """
    kets = np.eye(len(grid)) / np.sqrt(grid.weights)[:, None]
    return rank_one_pair(kets, grid.points.tolist(), grid.weights)


# ---------------------------------------------------------------------------
# coherent states
# ---------------------------------------------------------------------------


def coherent_overlap(w: complex, z: complex) -> complex:
    """<w|z> = exp(-(|w|^2 + |z|^2)/2 + conj(w) z); never a delta function."""
    return np.exp(-(abs(w) ** 2 + abs(z) ** 2) / 2 + np.conj(w) * z)


def coherent_state_vector(n_trunc: int, z) -> np.ndarray:
    """Truncated coherent vectors sum_n e^{-|z|^2/2} z^n / sqrt(n!) |n>.

    ``z`` may be an array of labels: the result is one row per label, and a
    scalar gives the single vector.  z = 0 is exactly the vacuum |0>.
    """
    if n_trunc < 1:
        raise ValueError(f"Fock truncation must be at least 1 (got {n_trunc})")
    z = np.asarray(z, dtype=complex)
    zs = z.reshape(-1, 1)
    n = np.arange(n_trunc)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n_trunc)))))
    r = np.abs(zs)
    with np.errstate(divide="ignore", invalid="ignore"):
        mag = np.exp(-r**2 / 2 + n * np.log(r) - 0.5 * log_fact)
    vecs = mag * np.exp(1j * np.angle(zs) * n)
    vecs[zs[:, 0] == 0] = np.eye(1, n_trunc)
    return vecs.reshape(z.shape + (n_trunc,))


def coherent_pair(grid: CoherentGrid, n_trunc: int) -> QDPair:
    """Self-dual coherent pair |z><w| over the lattice; not orthonormal.

    The index set is the full lattice square {(z, w)} with the product
    measure weight (cell/pi)^2, stored as the truncated coherent vectors of
    each side.  Lattice points must stay inside the truncation reliability
    region |z| <= sqrt(n_trunc)/2.
    """
    zmax = float(np.abs(grid.z_points).max())
    if zmax > np.sqrt(n_trunc) / 2:
        # probability mass beyond the truncated space (Poisson tail)
        kept = np.sum(np.abs(coherent_state_vector(n_trunc, grid.z_points)) ** 2, axis=1)
        worst = max(0.0, 1.0 - float(kept.min()))
        raise InfeasibleError(
            f"lattice reaches |z| = {zmax:.2f} beyond sqrt(n_trunc)/2 = "
            f"{np.sqrt(n_trunc) / 2:.2f}; worst truncated mass {worst:.2e}"
        )
    return rank_one_pair(coherent_state_vector(n_trunc, grid.z_points), grid.z_points,
                         np.full(len(grid), grid.point_weight))


def coherent_discrepancy_report(grid: CoherentGrid, n_trunc: int) -> dict:
    """Quantify how far the coherent lattice pair is from a groupoid immersion.

    Returns the duality residual, the max gap between the star product and
    the lattice pair-groupoid convolution (f * g)(z, w) = sum_s f(z, s)
    g(s, w) cell/pi on Gaussian test symbols, the distance of the kernel from
    the nearest 0/1 tensor (on a small sublattice), and the agreement of the
    analytic overlap with the series truncated at 64 levels.  The
    counterexample is quantitative: all three discrepancy figures stay
    bounded away from zero under grid refinement.
    """
    pair = coherent_pair(grid, n_trunc)
    m = len(grid)
    z = grid.z_points
    f = np.exp(-np.abs(z[:, None] - 0.25) ** 2 - np.abs(z[None, :] + 0.25j) ** 2)
    g = np.exp(-np.abs(z[:, None] + 0.25) ** 2 - np.abs(z[None, :] - 0.25j) ** 2)
    conv = f @ g * grid.point_weight
    gap = float(np.abs(star(pair, f.reshape(-1), g.reshape(-1)).reshape(m, m) - conv).max())

    sub = CoherentGrid(z[: min(m, 4)], grid.cell_area)
    nonboolean = nonboolean_margin(kernel(coherent_pair(sub, n_trunc)))

    vecs = coherent_state_vector(64, z)
    series = np.conj(vecs) @ vecs.T  # [w, z] = <w|z>
    dev = np.abs(coherent_overlap(z[:, None], z[None, :]) - series).max()

    return {
        "duality_residual": duality_residual(pair),
        "star_vs_convolution_gap": gap,
        "kernel_nonboolean_margin": nonboolean,
        "overlap_series_dev": float(dev),
        "lattice_points": m,
        "n_trunc": n_trunc,
    }
