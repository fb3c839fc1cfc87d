"""Concrete Hilbert-space immersions producing quantizer-dequantizer pairs.

Spin, truncated Fock, two-mode, and position-grid index sets all immerse as
rank-one families |a><b| built on an orthonormal basis, so their star
products reduce exactly to groupoid convolutions.  The coherent-state
lattice is the deliberate counterexample: the family is not orthonormal and
the equality fails by a finite, reportable gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import gauss_legendre_rule, trapezoid_weights, weyl_units
from .starproduct import IndexSpace, QDPair, Symbol, kernel, rank_one_pair, star


class GridSupportError(ValueError):
    """Raised when a position grid cannot support the requested Fock range."""


class TruncationRegionError(ValueError):
    """Raised when a coherent lattice leaves the truncation reliability region."""


# ---------------------------------------------------------------------------
# basis spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpinSpace:
    """Spin-j label set: m in {-j, ..., j}, index m + j."""

    j: float

    def __post_init__(self):
        two_j = 2 * self.j
        if abs(two_j - round(two_j)) > 1e-12 or self.j < 0:
            raise ValueError("j must be a nonnegative integer or half-integer")
        object.__setattr__(self, "j", float(self.j))

    @property
    def dim(self) -> int:
        return int(round(2 * self.j)) + 1

    @property
    def m_values(self) -> np.ndarray:
        return np.arange(self.dim) - self.j


@dataclass(frozen=True)
class FockSpace:
    """Truncated boson Fock space |0> .. |n_trunc - 1>."""

    n_trunc: int

    def __post_init__(self):
        if self.n_trunc < 2:
            raise ValueError("truncation dimension must be at least 2")

    @property
    def dim(self) -> int:
        return self.n_trunc


@dataclass(frozen=True)
class PositionGrid:
    """Uniformly spaced quadrature grid with positive weights."""

    points: np.ndarray
    weights: np.ndarray
    rule: str = "trapezoid"

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


def position_grid(a: float = -8.0, b: float = 8.0, m: int = 512, rule: str = "trapezoid") -> PositionGrid:
    if rule == "trapezoid":
        pts = np.linspace(a, b, m)
        return PositionGrid(pts, trapezoid_weights(pts), rule)
    if rule == "gauss-legendre":
        pts, w = gauss_legendre_rule(a, b, m)
        return PositionGrid(pts, w, rule)
    raise ValueError(f"unknown quadrature rule {rule!r}")


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


def coherent_grid(size: int, spacing: float, center: complex = 0j) -> CoherentGrid:
    """Square size x size lattice of coherent labels centered at ``center``."""
    if size < 1 or spacing <= 0:
        raise ValueError("need size >= 1 and positive spacing")
    offs = (np.arange(size) - (size - 1) / 2) * spacing
    z = (center + offs[:, None] + 1j * offs[None, :]).reshape(-1)
    return CoherentGrid(z, spacing**2)


def disk_lattice(radius: float, spacing: float) -> CoherentGrid:
    """Lattice of coherent labels covering the disk |z| <= radius."""
    if spacing <= 0:
        raise ValueError(f"lattice spacing must be positive (got {spacing})")
    ax = np.arange(-radius, radius + spacing / 2, spacing)
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
    ms = sp.m_values
    labels = tuple((float(m), float(mp)) for m in ms for mp in ms)
    return rank_one_pair(sp.dim, labels, "spin", {"j": sp.j})


def fock_weyl_pair(n_trunc: int) -> QDPair:
    """Self-dual pair |n><m| on the truncated Fock space."""
    fs = FockSpace(n_trunc)
    labels = tuple((n, m) for n in range(fs.dim) for m in range(fs.dim))
    return rank_one_pair(fs.dim, labels, "fock", {"n_trunc": fs.dim})


def two_mode_weyl_pair(n1: int, n2: int) -> QDPair:
    """Self-dual pair |n1 n2><m1 m2| built from tensor products."""
    if n1 < 2 or n2 < 2:
        raise ValueError("each mode needs truncation dimension >= 2")
    dim = n1 * n2
    labels = tuple(
        ((a1, a2), (b1, b2))
        for a1 in range(n1)
        for a2 in range(n2)
        for b1 in range(n1)
        for b2 in range(n2)
    )
    return rank_one_pair(dim, labels, "two_mode", {"n1": n1, "n2": n2})


def spin_block_pair(js: tuple) -> QDPair:
    """Immersion of a disjoint union of spin pair groupoids.

    Operators |j m><j m'| act block-diagonally on the direct sum of the
    spin spaces; cross-block units are not part of the index set, so the
    symbol of any operator supported across blocks vanishes.
    """
    spaces = [SpinSpace(j) for j in js]
    dim = sum(s.dim for s in spaces)
    labels = []
    units = []
    off = 0
    for s in spaces:
        idx = off + np.arange(s.dim)
        units.append((idx[:, None] * dim + idx[None, :]).reshape(-1))
        labels += [((s.j, float(m)), (s.j, float(mp))) for m in s.m_values for mp in s.m_values]
        off += s.dim
    ops = weyl_units(dim)[np.concatenate(units)]
    space = IndexSpace(tuple(labels), np.ones(len(labels)))
    return QDPair(space, ops, ops, hilbert_dim=dim, kind="spin_blocks",
                  params={"js": [s.j for s in spaces]})


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


def hermite_function(n: int, x):
    """phi_n(x) = <x|n> for scalar or array x."""
    vals = hermite_functions(n, x)[n]
    return vals[0] if np.isscalar(x) else vals


def fock_to_position_symbol(F: Symbol | np.ndarray, grid: PositionGrid) -> np.ndarray:
    """Position-representation kernel f(x, y) = sum F(n, m) phi_n(x) phi_m(y)."""
    Fm = _fock_symbol_matrix(F)
    n_trunc = Fm.shape[0]
    phi = hermite_functions(n_trunc - 1, grid.points)
    return phi.T @ Fm @ phi


def position_to_fock_symbol(f: np.ndarray, grid: PositionGrid, n_trunc: int) -> np.ndarray:
    """Recover F(n, m) = integral f(x, y) phi_n(x) phi_m(y) dx dy by quadrature.

    Raises
    ------
    GridSupportError
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
        raise GridSupportError(
            f"grid reaches |x| = {reach:.2f} but phi_{n_trunc - 1} needs at least "
            f"{needed:.2f}; use a bound b >= {suggested:.2f}"
        )
    phi = hermite_functions(n_trunc - 1, grid.points)
    wphi = phi * grid.weights[None, :]
    return wphi @ f @ wphi.T


def _fock_symbol_matrix(F: Symbol | np.ndarray) -> np.ndarray:
    if isinstance(F, Symbol):
        n = int(round(np.sqrt(len(F.space))))
        return F.values.reshape(n, n)
    F = np.asarray(F, dtype=np.complex128)
    if F.ndim != 2 or F.shape[0] != F.shape[1] or len(F) < 1:
        raise ValueError("Fock symbol must be a square matrix of dimension at least 1")
    return F


def position_qdpair(grid: PositionGrid) -> QDPair:
    """Quadrature-level pair |x_i><y_j| / sqrt(w_i w_j) with weights w_i w_j.

    The grid vectors mimic delta-normalized position kets, so the duality
    relation holds exactly at the lattice level.  Intended for small grids;
    the physical 512-point grids are handled through the symbol transforms
    and ``weighted_grid_convolve`` instead of materialized operators.
    """
    m = len(grid)
    weights = np.outer(grid.weights, grid.weights).reshape(-1)
    ops = weyl_units(m) / np.sqrt(weights)[:, None, None]
    pts = grid.points.tolist()
    space = IndexSpace(tuple((x, y) for x in pts for y in pts), weights)
    params = {
        "m": m,
        "rule": grid.rule,
        "a": float(grid.points[0]),
        "b": float(grid.points[-1]),
    }
    return QDPair(space, ops, ops, hilbert_dim=m, kind="position", params=params)


def save_grid_symbol_csv(f: np.ndarray, grid: PositionGrid, path) -> None:
    """Export a grid symbol f(x, y) as CSV rows (x, y, re, im)."""
    import csv

    f = np.asarray(f, dtype=np.complex128)
    m = len(grid)
    if f.shape != (m, m):
        raise ValueError("symbol shape must match the grid")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "re", "im"])
        for i in range(m):
            for j in range(m):
                writer.writerow([
                    repr(float(grid.points[i])),
                    repr(float(grid.points[j])),
                    repr(float(f[i, j].real)),
                    repr(float(f[i, j].imag)),
                ])


# ---------------------------------------------------------------------------
# coherent states
# ---------------------------------------------------------------------------


def coherent_overlap(w: complex, z: complex) -> complex:
    """<w|z> = exp(-(|w|^2 + |z|^2)/2 + conj(w) z); never a delta function."""
    return np.exp(-(abs(w) ** 2 + abs(z) ** 2) / 2 + np.conj(w) * z)


def coherent_state_vector(n_trunc: int, z: complex) -> np.ndarray:
    """Truncated coherent vector sum_n e^{-|z|^2/2} z^n / sqrt(n!) |n>."""
    if n_trunc < 1:
        raise ValueError(f"Fock truncation must be at least 1 (got {n_trunc})")
    n = np.arange(n_trunc)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n_trunc)))))
    if z == 0:
        vec = np.zeros(n_trunc, dtype=np.complex128)
        vec[0] = 1.0
        return vec
    mag = np.exp(-abs(z) ** 2 / 2 + n * np.log(abs(z)) - 0.5 * log_fact)
    return mag * np.exp(1j * np.angle(z) * n)


def coherent_truncation_tail(n_trunc: int, z: complex) -> float:
    """Probability mass of |z> beyond the truncated space (Poisson tail)."""
    vec = coherent_state_vector(n_trunc, z)
    return float(max(0.0, 1.0 - np.vdot(vec, vec).real))


def coherent_pair(grid: CoherentGrid, n_trunc: int) -> QDPair:
    """Self-dual coherent pair |z><w| over the lattice; not orthonormal.

    The index set is the full lattice square {(z, w)} with the product
    measure weight (cell/pi)^2.  Lattice points must stay inside the
    truncation reliability region |z| <= sqrt(n_trunc)/2.
    """
    zmax = float(np.abs(grid.z_points).max())
    if zmax > np.sqrt(n_trunc) / 2:
        worst = max(coherent_truncation_tail(n_trunc, z) for z in grid.z_points)
        raise TruncationRegionError(
            f"lattice reaches |z| = {zmax:.2f} beyond sqrt(n_trunc)/2 = "
            f"{np.sqrt(n_trunc) / 2:.2f}; worst truncated mass {worst:.2e}"
        )
    vecs = np.stack([coherent_state_vector(n_trunc, z) for z in grid.z_points])
    mlat = len(grid)
    ops = np.einsum("za,wb->zwab", vecs, np.conj(vecs)).reshape(mlat * mlat, n_trunc, n_trunc)
    labels = tuple((z, w) for z in grid.z_points for w in grid.z_points)
    weights = np.full(mlat * mlat, grid.point_weight**2)
    space = IndexSpace(labels, weights)
    return QDPair(
        space,
        ops,
        ops,
        hilbert_dim=n_trunc,
        kind="coherent",
        params={"lattice": len(grid), "cell_area": grid.cell_area, "n_trunc": n_trunc},
    )


def coherent_grid_convolve(f: np.ndarray, g: np.ndarray, grid: CoherentGrid) -> np.ndarray:
    """Lattice pair-groupoid convolution (f * g)(z, w) = sum_s f(z, s) g(s, w) cell/pi."""
    m = len(grid)
    f = np.asarray(f, dtype=np.complex128)
    g = np.asarray(g, dtype=np.complex128)
    if f.shape != (m, m) or g.shape != (m, m):
        raise ValueError("symbols must be m x m matrices over the lattice")
    return f @ g * grid.point_weight


def coherent_duality_residual(grid: CoherentGrid, n_trunc: int) -> float:
    """Duality residual of the coherent lattice pair via Gram factorization.

    Tr[D(z,w) U(z',w')^dag] = <w|w'><z'|z>, so the full residual over the
    lattice square follows from one small Gram matrix of truncated coherent
    vectors; equals the generic pair computation exactly.
    """
    vecs = np.stack([coherent_state_vector(n_trunc, z) for z in grid.z_points])
    gram_abs = np.abs(vecs.conj() @ vecs.T)
    m = len(grid)
    wgt = grid.point_weight**2
    out = gram_abs[None, :, None, :] * gram_abs[:, None, :, None]
    out = wgt * out.reshape(m * m, m * m)
    # the identity is real positive on the diagonal, so |.| commutes with -I
    return float(np.abs(out - np.eye(m * m)).max())


def coherent_discrepancy_report(
    grid: CoherentGrid, n_trunc: int, overlap_check_dim: int = 64
) -> dict:
    """Quantify how far the coherent lattice pair is from a groupoid immersion.

    Returns the duality residual, the max gap between the star product and
    the lattice pair-groupoid convolution on Gaussian test symbols, the
    distance of the kernel from the nearest 0/1 tensor (on a small
    sublattice), and the agreement of the analytic overlap with the
    truncated series.  The counterexample is quantitative: all three
    discrepancy figures stay bounded away from zero under grid refinement.
    """
    pair = coherent_pair(grid, n_trunc)
    m = len(grid)
    z = grid.z_points
    f = np.exp(-np.abs(z[:, None] - 0.25) ** 2 - np.abs(z[None, :] + 0.25j) ** 2)
    g = np.exp(-np.abs(z[:, None] + 0.25) ** 2 - np.abs(z[None, :] - 0.25j) ** 2)
    conv = coherent_grid_convolve(f, g, grid)
    fsym, gsym = (Symbol(pair.space, h.reshape(-1)) for h in (f, g))
    gap = float(np.abs(star(pair, fsym, gsym).values.reshape(m, m) - conv).max())

    sub = CoherentGrid(z[: min(m, 4)], grid.cell_area)
    sub_pair = coherent_pair(sub, n_trunc)
    K = kernel(sub_pair).values
    nonboolean = float(np.minimum(np.abs(K), np.abs(K - 1)).max())

    dev = 0.0
    for zi in z:
        for wi in z:
            series = np.vdot(
                coherent_state_vector(overlap_check_dim, wi),
                coherent_state_vector(overlap_check_dim, zi),
            )
            dev = max(dev, abs(coherent_overlap(wi, zi) - series))

    return {
        "duality_residual": coherent_duality_residual(grid, n_trunc),
        "star_vs_convolution_gap": gap,
        "kernel_nonboolean_margin": nonboolean,
        "overlap_series_dev": float(dev),
        "lattice_points": m,
        "n_trunc": n_trunc,
    }


def build_pair_from_manifest(manifest: dict) -> QDPair:
    kind = manifest["kind"]
    params = manifest["params"]
    if kind == "spin":
        return spin_weyl_pair(params["j"])
    if kind == "fock":
        return fock_weyl_pair(params["n_trunc"])
    if kind == "two_mode":
        return two_mode_weyl_pair(params["n1"], params["n2"])
    if kind == "spin_blocks":
        return spin_block_pair(tuple(params["js"]))
    if kind == "coherent":
        side = int(round(np.sqrt(params["lattice"])))
        grid = coherent_grid(side, np.sqrt(params["cell_area"]))
        return coherent_pair(grid, params["n_trunc"])
    if kind == "position":
        grid = position_grid(params["a"], params["b"], params["m"], params["rule"])
        return position_qdpair(grid)
    raise ValueError(f"cannot rebuild pair of kind {kind!r}")
