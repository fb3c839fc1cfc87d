"""Spin, photon-number, and symplectic tomography on truncated spaces.

Each scheme rotates or displaces a rank-one quantizer-dequantizer family
with a unitary parameter; the diagonal of the transformed symbol is the
tomogram, and the scheme-specific reconstruction formulas rebuild the
operator from tomographic data.

Numerical policy: delta measures are always realized as exact spectral
atoms of truncated operators, never smoothed; every truncated unitary comes
from one eigendecomposition (the little-d from J_y; every quadrature
direction, the Weyl and displacement operators and the intertwining kernel
from q).
Reconstruction integrals are lattice quadratures whose grid parameters are
part of every report, together with the Fock range the grid can actually
resolve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .groupoid import InfeasibleError
from .realizations import CoherentGrid, SpinSpace, annihilation


class OrderingParameterError(ValueError):
    """Raised for ordering parameters outside (-1, 1)."""


class DegenerateDirectionError(ValueError):
    """Raised for the zero quadrature direction (mu, nu) = (0, 0)."""


# lattice points per batch of photon_tomogram / photon_reconstruct: bounds the
# temporaries (~0.15 MB a point at N_t = 32) and measured fastest (in cache)
_POINT_BLOCK = 32
# complex entries per batch, which bounds each temporary to 1 MB: spin_tomogram
# rotates (2j+1)^2 entries per rotation, so 148 rotations at j = 10 and 4 at
# j = 60; symplectic_reconstruct gathers N_t^2 entries of S per row of A, so
# all 32 rows at N_t = 32 and 7 rows at N_t = 96.  Not lower: freed 1 MB
# temporaries lift glibc's dynamic mmap threshold above photon_tomogram's
# 512 KB point blocks, which then reuse heap pages; at 1 << 15 the blocks stay
# mmapped and fault their pages in afresh every batch (a photon run's minor
# page faults: ~170 at 1 << 16, ~9,100 at 1 << 15)
_ROTATION_BLOCK = 1 << 16
# lattice points above which symplectic_reconstruct is refused: 12-20 us a
# point measured at N_t 8-32 (2 vCPUs), so under half a minute of work
SYMPLECTIC_POINT_LIMIT = 1 << 20


# ---------------------------------------------------------------------------
# spin scheme
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EulerAngles:
    """zyz Euler angles; canonical ranges are documented, not enforced."""

    alpha: float
    beta: float
    gamma: float


def angular_momentum(j: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Jz, Jy, J+) for spin j in the basis m = -j..j (index m + j)."""
    m = SpinSpace(j).m_values
    jz = np.diag(m).astype(np.complex128)
    jplus = np.diag(np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1)), -1).astype(np.complex128)
    jy = (jplus - jplus.conj().T) / 2j
    return jz, jy, jplus


def _spin_frame(j: float) -> tuple[np.ndarray, np.ndarray]:
    """(m, V): the spectrum m = -j..j of J_y, used exactly, and its eigenvectors."""
    return SpinSpace(j).m_values, np.linalg.eigh(angular_momentum(j)[1])[1]


def _little_d(frame, beta) -> np.ndarray:
    """d(beta) = 1 + V diag(e^{-i beta m} - 1) V^dag from the J_y eigenframe (m, V)."""
    m, V = frame
    phases = np.exp(-1j * np.multiply.outer(beta, m)) - 1.0
    return np.eye(len(m)) + ((V * phases[..., None, :]) @ V.conj().T).real


def _wigner_D(m, d, alpha, gamma) -> np.ndarray:
    """D = diag(e^{-i m alpha}) d diag(e^{-i m gamma}) from the little-d matrices d."""
    alpha = np.asarray(alpha)[..., None, None]
    gamma = np.asarray(gamma)[..., None, None]
    return np.exp(-1j * m[:, None] * alpha) * d * np.exp(-1j * m[None, :] * gamma)


def wigner_little_d(j: float, beta) -> np.ndarray:
    """Real rotation matrices d^j(beta), rows/columns ordered m = -j..j.

    Convention: d^j_{m'm}(beta) = <j m'| exp(-i beta J_y) |j m>.  One
    ``eigh(J_y)`` gives J_y = V diag(m) V^dag (spectrum -j..j, used exactly),
    so d(beta) = 1 + V diag(e^{-i beta m} - 1) V^dag for every angle at once;
    the identity is split off so that beta = 0 gives exactly 1.  ``beta`` may
    be an array: the result has shape ``beta.shape + (2j+1, 2j+1)``.
    """
    return _little_d(_spin_frame(j), beta)


def wigner_D(j: float, g: EulerAngles) -> np.ndarray:
    """Unitary D^j(g) = exp(-i a Jz) exp(-i b Jy) exp(-i c Jz); array angles batch."""
    return _wigner_D(SpinSpace(j).m_values, wigner_little_d(j, g.beta), g.alpha, g.gamma)


def spin_symbol(j: float, g: EulerAngles, A: np.ndarray) -> np.ndarray:
    """Rotated symbol w_A(g; m, m') = <g, j m| A |g, j m'> = (D^dag A D)[m, m'].

    Array angles batch: the result has shape ``angles.shape + (2j+1, 2j+1)``.
    """
    D = wigner_D(j, g)
    A = np.asarray(A, dtype=np.complex128)
    if A.shape != D.shape[-2:]:
        raise ValueError("operator dimension does not match 2j+1")
    return D.conj().swapaxes(-1, -2) @ A @ D


def spin_reconstruct_at_g(j: float, g: EulerAngles, w: np.ndarray) -> np.ndarray:
    """Exact inverse of spin_symbol at the same group elements: A = D w D^dag."""
    D = wigner_D(j, g)
    w = np.asarray(w, dtype=np.complex128)
    if w.shape[-2:] != D.shape[-2:]:
        raise ValueError("symbol dimension does not match 2j+1")
    return D @ w @ D.conj().swapaxes(-1, -2)


def spin_tomogram(j: float, g: EulerAngles, rho: np.ndarray) -> np.ndarray:
    """Tomograms <g, j m|rho|g, j m>, the diagonal of ``spin_symbol``, as a (..., 2j+1) array."""
    dim = SpinSpace(j).dim
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (dim, dim):
        raise ValueError("operator dimension does not match 2j+1")
    angles = np.broadcast_arrays(g.alpha, g.beta, g.gamma)
    flat = [a.ravel() for a in angles]
    probs = np.empty((flat[0].size, dim))
    frame, step = _spin_frame(j), max(1, _ROTATION_BLOCK // dim**2)
    for lo in range(0, len(probs), step):
        alpha, beta, gamma = (a[lo:lo + step] for a in flat)
        D = _wigner_D(frame[0], _little_d(frame, beta), alpha, gamma)
        probs[lo:lo + step] = np.sum(np.conj(D) * (rho @ D), axis=-2).real
    return probs.reshape(angles[0].shape + (dim,))


# ---------------------------------------------------------------------------
# displacement machinery
# ---------------------------------------------------------------------------


def displacement_operator(n_trunc: int, z: complex) -> np.ndarray:
    """exp(z a^dag - conj(z) a) on the truncated space (exactly unitary there).

    z a^dag - conj(z) a = -i(mu q + nu p) with (mu, nu) = sqrt(2) (-Im z, Re z)
    holds exactly for the truncated ladder operators, so this is the quadrature
    frame's Weyl operator; z = 0 gives exactly 1.  It deviates from the
    infinite-dimensional displacement only in the levels within ~|z|^2 of the
    truncation edge.
    """
    return QuadratureFrame(n_trunc).weyl(-np.sqrt(2) * np.imag(z), np.sqrt(2) * np.real(z))


def displaced_rows(n_rows: int, n_cols: int, z) -> np.ndarray:
    """Exact matrix elements R[n, m] = <n|D(z)|m> of the full displacement.

    Row 0 is the coherent-state row e^{-|z|^2/2} (-conj(z))^m / sqrt(m!);
    higher rows follow from a D(z) = D(z) (a + z):
    sqrt(n+1) <n+1|D|m> = z <n|D|m> + sqrt(m) <n|D|m-1>.
    Column m depends only on columns <= m, so unlike the truncated
    exponential every finite block holds the infinite-dimensional elements,
    which is what quantizer sums need.  For an array ``z`` the recurrence
    runs once over all points; the result has shape z.shape + (n_rows, n_cols).
    """
    z = np.asarray(z, dtype=np.complex128)
    zs = z.reshape(-1, 1)
    sq = np.sqrt(np.arange(n_cols))
    R = np.empty((len(zs), n_rows, n_cols), dtype=np.complex128)
    with np.errstate(over="ignore"):  # the prefactor leads: huge |z| gives 0, not 0 * inf
        steps = np.hstack([np.exp(-np.abs(zs) ** 2 / 2), -np.conj(zs) / sq[1:]])
    R[:, 0] = np.cumprod(steps, axis=1)
    for n in range(n_rows - 1):
        row = zs * R[:, n]
        row[:, 1:] += sq[1:] * R[:, n, :-1]
        R[:, n + 1] = row / np.sqrt(n + 1)
    return R.reshape(z.shape + (n_rows, n_cols))


# ---------------------------------------------------------------------------
# photon-number scheme
# ---------------------------------------------------------------------------


def displaced_parity(n_trunc: int, z: complex, s: float) -> np.ndarray:
    """s-ordered displaced parity T(z, s) = 2/(1-s) D(z) ((s+1)/(s-1))^N D(z)^dag."""
    if not -1 < s < 1:
        raise OrderingParameterError("ordering parameter must satisfy |s| < 1")
    D = displacement_operator(n_trunc, z)
    powers = ((s + 1) / (s - 1)) ** np.arange(n_trunc, dtype=float)
    return 2 / (1 - s) * (D * powers[None, :]) @ D.conj().T


@dataclass(frozen=True)
class PhotonTomogram:
    """Photon-number tomographic table P(n, z) on a lattice of arguments z.

    Follows the sign convention P(n, -z) = Phi(n, n; z) inherited from
    conjugation by D(z): the value stored at argument z is the displaced
    number distribution at displacement -z.
    """

    z_grid: CoherentGrid
    table: np.ndarray  # (n_max, len(z_grid))
    n_max: int

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.shape != (self.n_max, len(self.z_grid)):
            raise ValueError("table must be (n_max, number of lattice points)")
        object.__setattr__(self, "table", t)


def photon_tomogram(
    rho: np.ndarray,
    grid: CoherentGrid,
    n_max: int | None = None,
) -> PhotonTomogram:
    """Tomographic table P(n, z) = <n,-z|rho|n,-z> for every lattice argument z.

    Row n of R = displaced_rows(z) is the conjugate of D(-z)|n>, and only its
    first ``rho.shape[0]`` columns meet rho; the displaced rows on those
    columns are exact, so no enlarged working space is needed.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    n_state = rho.shape[0]
    if rho.shape != (n_state, n_state):
        raise ValueError("rho must be square")
    n_max = n_max or n_state
    table = np.empty((n_max, len(grid)))
    for start in range(0, len(grid), _POINT_BLOCK):
        blk = slice(start, start + _POINT_BLOCK)
        R = displaced_rows(n_max, n_state, grid.z_points[blk])
        table[:, blk] = np.sum((R @ rho) * np.conj(R), axis=-1).real.T
    return PhotonTomogram(z_grid=grid, table=table, n_max=n_max)


def _laguerre_table(n_max: int, k_max: int, x) -> np.ndarray:
    """Associated Laguerre L_n^k(x), 0 <= n <= n_max, 0 <= k <= k_max, on axes after x's."""
    dt = np.longdouble
    x = np.asarray(x, dtype=dt)[..., None]
    L = np.zeros(x.shape[:-1] + (n_max + 1, k_max + 1), dtype=dt)
    k = np.arange(k_max + 1, dtype=dt)
    L[..., 0, :] = 1.0
    if n_max >= 1:
        L[..., 1, :] = 1.0 + k - x
    for n in range(1, n_max):
        L[..., n + 1, :] = ((2 * n + k + 1 - x) * L[..., n, :] - (n + k) * L[..., n - 1, :]) / (n + 1)
    return L


def number_power_block(dim: int, alpha, kappa: float) -> np.ndarray:
    """Closed-form block <m| D(alpha) kappa^N D(alpha)^dag |n>, m, n < dim.

    Derived from coherent-state generating functions:
    G_mn = e^{-(1-kappa)|a|^2} sqrt(n!/m!) ((1-kappa) a)^{m-n} kappa^n
           L_n^{m-n}(-(1-kappa)^2 |a|^2 / kappa)   (m >= n, Hermitian).

    Evaluated in extended precision: for |kappa| > 1 the entries span many
    orders of magnitude and the downstream lattice sums cancel them to O(1),
    so the per-entry rounding floor matters.  Array ``alpha`` gives a batch.
    """
    if kappa == 0:
        raise ValueError("kappa must be nonzero")
    alpha = np.asarray(alpha, dtype=np.complex128)
    kap = np.longdouble(kappa)
    t = (np.hypot(alpha.real, alpha.imag) ** 2).astype(np.longdouble)
    L = _laguerre_table(dim - 1, dim - 1, -((1 - kap) ** 2) * t / kap)
    log_fact = np.concatenate(
        ([np.longdouble(0.0)], np.cumsum(np.log(np.arange(1, dim, dtype=np.longdouble))))
    )
    pref = np.exp(-(1 - kap) * t)[..., None]
    kp = kap ** np.arange(dim)
    cpow = ((1 - kappa) * alpha).astype(np.clongdouble)[..., None] ** np.arange(dim)
    mm, ns = np.tril_indices(dim)
    vals = (
        pref
        * np.exp(0.5 * (log_fact[ns] - log_fact[mm]))
        * cpow[..., mm - ns]
        * kp[ns]
        * L[..., ns, mm - ns]
    )
    G = np.zeros(alpha.shape + (dim, dim), dtype=np.clongdouble)
    G[..., mm, ns] = vals
    G[..., ns, mm] = np.conj(vals)
    return G


def grid_resolvable_dim(spacing: float, radius: float) -> int:
    """Largest Fock index a phase-space lattice can reconstruct faithfully.

    The photon quantizer's (j, k) entry oscillates radially like a Laguerre
    function of degree ~min(j, k); beyond the returned index the zero
    spacing falls under the lattice Nyquist limit and the quadrature
    aliases, independent of arithmetic precision.  The bounds (2/spacing
    from oscillation, 1.2 radius^2 from envelope support) were calibrated
    against direct convergence scans.
    """
    return max(1, min(int(2.0 / spacing), int(1.2 * radius**2)))


@dataclass(frozen=True)
class ReconstructionResult:
    operator: np.ndarray
    scheme: str
    n_trunc: int
    reliable_dim: int
    grid: dict
    params: dict = field(default_factory=dict)

    @property
    def max_abs_beyond_reliable(self) -> float:
        """Largest |entry| outside the reliable block, where only the grid limits it."""
        beyond = np.ones(self.operator.shape, dtype=bool)
        beyond[: self.reliable_dim, : self.reliable_dim] = False
        return float(np.abs(self.operator[beyond]).max(initial=0.0))

    def errors_against(self, reference: np.ndarray) -> dict:
        """Frobenius and trace errors on the resolvable block, and over every
        entry the operator holds.

        The reference is cropped to the operator's shape: a photon result
        holds only its resolvable block, so there both figures coincide.
        """
        ref = np.asarray(reference, dtype=np.complex128)
        r, d = self.reliable_dim, len(self.operator)
        diff = self.operator - ref[:d, :d]
        return {
            "frobenius_error": float(np.linalg.norm(diff[:r, :r])),
            "frobenius_error_full": float(np.linalg.norm(diff)),
            "trace_error": float(abs(np.trace(diff[:r, :r]))),
        }

    def report(self, reference: np.ndarray | None = None, seed: int | None = None) -> dict:
        out = {
            "schema": 1,
            "scheme": self.scheme,
            "grid": self.grid,
            "N_t": self.n_trunc,
            "reliable_dim": self.reliable_dim,
            "max_abs_beyond_reliable": self.max_abs_beyond_reliable,
            "seed": seed,
            **self.params,
        }
        if reference is not None:
            out.update(self.errors_against(reference))
        return out


def check_photon_reconstruction(s: float, n_trunc: int) -> float:
    """Refuse an infeasible photon reconstruction, else return its quantizer
    ratio kappa = -(1-s)/(1+s).

    Raises OrderingParameterError outside s in (-1, 0], and InfeasibleError
    when the weights |kappa|^n up to n_trunc - 1 overflow extended precision.
    Cheap, so a caller can check before it computes any tomogram.
    """
    if not -1 < s <= 0:
        raise OrderingParameterError("photon reconstruction needs s in (-1, 0]")
    kappa = -(1 - s) / (1 + s)
    if (n_trunc - 1) * np.log(abs(kappa)) > 700.0:
        n_ok = int(700.0 / np.log(abs(kappa)))
        raise InfeasibleError(
            f"quantizer weights |kappa|^n overflow for n_trunc={n_trunc} at "
            f"s={s}; cap the Fock range at n_max <= {n_ok}"
        )
    return kappa


def photon_reconstruct(tomogram: PhotonTomogram, s: float) -> ReconstructionResult:
    """Rebuild an operator from photon-number tomographic data.

    Evaluates A = sum over the lattice of (cell/pi) sum_n P(n, -z) D_phi(n, z)
    with the photon quantizer D_phi(n, z) = 2/(1-s) ((s+1)/(s-1))^n T(z, -s).
    The inner n-sum is a scalar weight; the z-dependent factor T(z, -s) is
    taken from the closed-form displaced number-power block (the exact
    infinite-dimensional matrix elements, free of the catastrophic
    cancellation a truncated Fock sum would suffer), and the lattice
    accumulation runs in extended precision because the integrand's dynamic
    range spans ~|kappa|^N while the sums cancel to O(1).  Both run on
    batches of ``_POINT_BLOCK`` lattice points.

    Only the leading ``reliable_dim`` x ``reliable_dim`` block, the entries
    the lattice resolves, is computed and returned: entry (m, n) of the
    closed-form block does not depend on its size, so this block equals the
    leading block of the full sum over the tomogram's ``n_max`` Fock rows,
    whose other entries are quadrature-limited.  The weight-overflow guard
    reads ``n_max``, not the block: keyed on the block it would admit
    1 + s < 3e-10 at the default grid, where the reconstruction misses by up
    to ~1e131.
    """
    kappa = check_photon_reconstruction(s, tomogram.n_max)
    grid = tomogram.z_grid
    q = (s + 1) / (s - 1)
    qn = q ** np.arange(tomogram.n_max, dtype=float)
    radius = float(np.abs(grid.z_points).max())
    spacing = float(np.sqrt(grid.cell_area))
    reliable = min(tomogram.n_max, grid_resolvable_dim(spacing, radius))

    # tomogram argument zeta corresponds to quantizer displacement -zeta
    weights = grid.point_weight * ((2 / (1 - s)) * (tomogram.table.T @ qn)).astype(np.longdouble)
    total = np.zeros((reliable, reliable), dtype=np.clongdouble)
    for start in range(0, len(grid), _POINT_BLOCK):
        blk = slice(start, start + _POINT_BLOCK)
        T_blk = (2 / (1 + s)) * number_power_block(reliable, -grid.z_points[blk], kappa)
        total += np.sum(weights[blk, None, None] * T_blk, axis=0)
    return ReconstructionResult(
        operator=total.astype(np.complex128),
        scheme="photon",
        n_trunc=tomogram.n_max,
        reliable_dim=reliable,
        grid={"radius": radius, "spacing": spacing, "points": len(grid)},
        params={"s": s},
    )


# ---------------------------------------------------------------------------
# symplectic scheme
# ---------------------------------------------------------------------------


def quadrature_operator(n_trunc: int, mu: float, nu: float) -> np.ndarray:
    """Hermitian mu q + nu p from the truncated ladder operators."""
    if mu == 0 and nu == 0:
        raise DegenerateDirectionError("direction (mu, nu) = (0, 0) is degenerate")
    a = annihilation(n_trunc)
    q = (a + a.conj().T) / np.sqrt(2)
    p = (a - a.conj().T) / (1j * np.sqrt(2))
    return mu * q + nu * p


@dataclass(frozen=True)
class SymplecticTomogram:
    """Exact spectral measure of mu q + nu p paired with state weights."""

    mu: float
    nu: float
    x: np.ndarray  # eigenvalues, ascending
    p: np.ndarray  # weights <e_k|rho|e_k>

    def reflected(self) -> SymplecticTomogram:
        """The tomogram at (-mu, -nu): M(X, -mu, -nu) = M(-X, mu, nu), atoms kept ascending."""
        return SymplecticTomogram(mu=-self.mu, nu=-self.nu, x=-self.x[::-1], p=self.p[::-1])


class QuadratureFrame:
    """Spectrum and eigenvectors of every quadrature mu q + nu p from one eigh(q).

    With U_t = diag(e^{itn}), U_t q U_t^dag = cos(t) q + sin(t) p holds exactly
    on the truncated space, so mu q + nu p (r = hypot(mu, nu), t = atan2(nu, mu))
    has eigenvalues r x_q and eigenvectors U_t V_q, with the frame's phases.
    ``polar`` refuses a direction once, for the eigenbases, the Weyl operators
    and the weight table of ``state_tomogram_provider`` alike.
    """

    def __init__(self, n_trunc: int):
        self.x_q, self.V_q = np.linalg.eigh(quadrature_operator(n_trunc, 1.0, 0.0))
        self._x_max = float(self.x_q[-1])

    def polar(self, mu: float, nu: float, origin_ok: bool = False) -> tuple[float, float]:
        """(r, t) = (hypot(mu, nu), atan2(nu, mu)); the refusals of every direction.

        Raises DegenerateDirectionError at (0, 0) unless ``origin_ok``, and
        InfeasibleError when the eigenvalues r x_q are not finite; the
        largest, r max(x_q), decides, so the check costs one product.
        """
        if mu == 0 and nu == 0 and not origin_ok:
            raise DegenerateDirectionError("direction (mu, nu) = (0, 0) is degenerate")
        r = np.hypot(mu, nu)
        if not math.isfinite(float(r) * self._x_max):  # Python floats overflow silently
            raise InfeasibleError(f"the eigenvalues of mu q + nu p at (mu, nu) = ({mu:g}, {nu:g}) "
                                  "overflow float64; use a shorter direction")
        return r, np.arctan2(nu, mu)

    def direction(self, mu: float, nu: float,
                  origin_ok: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues r x_q, eigenvector columns U_t V_q) of mu q + nu p, checked by ``polar``."""
        r, theta = self.polar(mu, nu, origin_ok)
        return r * self.x_q, np.exp(1j * theta * np.arange(len(self.x_q)))[:, None] * self.V_q

    def weyl(self, mu: float, nu: float) -> np.ndarray:
        """Weyl operator exp(-i(mu q + nu p)) on the truncated space.

        Computed as 1 + U_t V_q diag(e^{-i r x_q} - 1) V_q^dag U_t^dag, with the
        identity split off so that (mu, nu) = (0, 0) gives exactly 1.
        """
        x, V = self.direction(mu, nu, origin_ok=True)
        return np.eye(len(x)) + (V * (np.exp(-1j * x) - 1.0)) @ V.conj().T


def symplectic_tomogram(n_trunc: int, mu: float, nu: float, rho: np.ndarray) -> SymplecticTomogram:
    """Atoms (x_k, <e_k|rho|e_k>) of the truncated quadrature spectral measure."""
    if np.shape(rho) != (n_trunc, n_trunc):
        raise ValueError("rho must be n_trunc x n_trunc")
    return state_tomogram_provider(rho)(mu, nu)


def characteristic_value(tomogram: SymplecticTomogram) -> complex:
    """chi(mu, nu) = sum_k p_k e^{i x_k}: the inner x-integral done exactly."""
    return complex(np.sum(tomogram.p * np.exp(1j * tomogram.x)))


def symplectic_reconstruct(
    n_trunc: int,
    provider,
    grid_limit: float = 6.0,
    grid_step: float = 0.1,
) -> ReconstructionResult:
    """Reconstruct A = (1/2pi) int chi(mu, nu) e^{-i(mu q + nu p)} dmu dnu.

    ``provider(mu, nu)`` must return the SymplecticTomogram of the target
    state, and ``provider.frame`` must be the QuadratureFrame of its n_trunc
    levels, which the assembly reuses; the inner x-integral of the
    reconstruction formula is evaluated exactly on the tomogram atoms, the
    outer integral by a trapezoid lattice over [-L, L]^2.  The provider is
    asked for half the lattice only (the rows mu > 0 and the points nu > 0 of
    the row mu = 0): by homogeneity, M(X, -mu, -nu) = M(-X, mu, nu), the
    reflected tomogram gives chi at the mirror point (-mu, -nu), with no
    assumption that the operator is Hermitian.  In the quadrature frame the sum is
    A[j, k] = sum_a V_q[j, a] S[j - k, a] conj(V_q[k, a]) with
    S[d, a] = sum over points of chi e^{itd} e^{-i r x_a}, accumulated one
    mu-row at a time, each row mu > 0 together with its mirror row, whose
    angles are t + pi; (0, 0) enters with r = t = 0 and chi = Tr[A].

    If |chi| has not decayed at the grid boundary the lattice misses
    characteristic-function mass; a warning reports the largest |chi| on the
    first row (mu = -L) and column (nu = -L) of the lattice, which is also
    recorded in the result.
    """
    if not (0 < grid_limit < np.inf and 0 < grid_step < np.inf):
        raise ValueError("grid_limit and grid_step must be positive and finite")
    ratio = grid_limit / grid_step
    points = (2 * round(ratio) + 1) ** 2 if ratio < np.inf else ratio
    if points > SYMPLECTIC_POINT_LIMIT:
        raise InfeasibleError(f"reconstruction grid of {points:,} points exceeds the "
                              f"{SYMPLECTIC_POINT_LIMIT:,}-point limit; use a coarser step")
    frame = provider.frame
    if len(frame.x_q) != n_trunc:
        raise ValueError(f"the provider's frame has {len(frame.x_q)} levels, not n_trunc={n_trunc}")
    n_half = round(ratio)
    grid = grid_step * np.arange(-n_half, n_half + 1)
    mus, nus = (a.ravel() for a in np.meshgrid(grid, grid, indexing="ij"))
    # in row-major order point k mirrors point -1 - k, and the centre is (0, 0)
    centre = len(mus) // 2
    chi = np.empty(len(mus), dtype=np.complex128)
    chi[centre] = np.sum(provider(grid_step * 1e-9, 0.0).p)
    for k in range(centre + 1, len(mus)):
        tomogram = provider(mus[k], nus[k])
        chi[k] = characteristic_value(tomogram)
        chi[-1 - k] = characteristic_value(tomogram.reflected())
    chi = chi.reshape(len(grid), len(grid))
    tail = max(np.abs(chi[0]).max(), np.abs(chi[:, 0]).max())

    shifts = np.arange(1 - n_trunc, n_trunc)
    signs = (-1.0) ** shifts[:, None]  # e^{i(t + pi)d} = (-1)^d e^{itd}
    S = np.zeros((len(shifts), n_trunc), dtype=np.complex128)
    for i in range(n_half, len(grid)):
        # row mu > 0 carries its mirror row -mu, point for point at the same r
        row = chi[i] if i == n_half else chi[i] + signs * chi[-1 - i, ::-1]
        phases = row * np.exp(1j * np.multiply.outer(shifts, np.arctan2(grid, grid[i])))
        S += phases @ np.exp(-1j * np.multiply.outer(np.hypot(grid[i], grid), frame.x_q))
    diagonal = np.subtract.outer(np.arange(n_trunc), np.arange(n_trunc)) + n_trunc - 1
    total = np.empty((n_trunc, n_trunc), dtype=np.complex128)
    step = max(1, _ROTATION_BLOCK // n_trunc**2)
    for lo in range(0, n_trunc, step):  # row blocks of A: S[j - k] is (rows, N_t, N_t)
        rows = slice(lo, lo + step)
        total[rows] = np.einsum("ja,jka,ka->jk", frame.V_q[rows], S[diagonal[rows]],
                                frame.V_q.conj())
    total *= grid_step**2 / (2 * np.pi)

    if tail > 1e-3:
        warnings.warn(
            f"characteristic values reach |chi| = {tail:.2e} at the grid "
            "boundary; enlarge the (mu, nu) window or refine the step",
            RuntimeWarning,
            stacklevel=2,
        )
    reliable = max(1, int(0.375 * n_trunc))
    return ReconstructionResult(
        operator=total,
        scheme="symplectic",
        n_trunc=n_trunc,
        reliable_dim=reliable,
        grid={"limit": grid_limit, "step": grid_step, "points": len(grid) ** 2},
        params={"boundary_tail": float(tail)},
    )


def state_tomogram_provider(rho: np.ndarray):
    """Provider for symplectic_reconstruct: every direction's weights from one table.

    In the eigenvectors U_t V_q of direction t, p_a(t) = sum_d e^{-itd} C[d, a] with
    C[d, a] = sum_{j-k=d} conj(V_q[j, a]) rho[j, k] V_q[k, a], d = 1-N_t..N_t-1; C is
    summed once along the diagonals of rho, and a direction costs one row product.
    The provider carries its QuadratureFrame, ``provider.frame``, for the assembly.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    n = len(rho)
    if rho.shape != (n, n) or np.abs(rho - rho.conj().T).max() > 1e-10:
        raise ValueError("rho must be a square Hermitian matrix")
    frame = QuadratureFrame(n)
    shifts, V = np.arange(1 - n, n), frame.V_q
    C = np.empty((len(shifts), n), dtype=np.complex128)
    for i, d in enumerate(shifts):
        j = np.arange(max(d, 0), n + min(d, 0))  # the rows of the diagonal j - k = d
        C[i] = rho[j, j - d] @ (V[j].conj() * V[j - d])

    def provider(mu: float, nu: float) -> SymplecticTomogram:
        r, theta = frame.polar(mu, nu)
        return SymplecticTomogram(mu=mu, nu=nu, x=r * frame.x_q,
                                  p=(np.exp(-1j * theta * shifts) @ C).real)

    provider.frame = frame
    return provider


@dataclass(frozen=True)
class QuasiSymbol:
    """Operator A as basis^dag A basis, in the frame eigenbasis of one direction."""

    mu: float
    nu: float
    x: np.ndarray
    matrix: np.ndarray
    basis: np.ndarray


def symplectic_quasi_symbol(n_trunc: int, mu: float, nu: float, A: np.ndarray) -> QuasiSymbol:
    """W_A(x_k, x_l; mu, nu) = <e_k|A|e_l>; its diagonal is the tomogram."""
    A = np.asarray(A, dtype=np.complex128)
    if A.shape != (n_trunc, n_trunc):
        raise ValueError("operator must be n_trunc x n_trunc")
    return _quasi_symbol(QuadratureFrame(n_trunc), mu, nu, A)


def _quasi_symbol(frame: QuadratureFrame, mu: float, nu: float, A: np.ndarray) -> QuasiSymbol:
    """A seen in the (mu, nu) eigenbasis of ``frame``."""
    x, V = frame.direction(mu, nu)
    return QuasiSymbol(mu=mu, nu=nu, x=x, matrix=V.conj().T @ A @ V, basis=V)


def intertwining_kernel(
    n_trunc: int,
    xp_prime: tuple[float, float, float],
    mu: float,
    nu: float,
) -> QuasiSymbol:
    """Quasi-symbol of the symplectic quantizer D_Sigma(x', mu', nu').

    D_Sigma = exp[i(x' - mu' q - nu' p)] / 2pi; feeding this kernel into the
    closing integral against diagonal tomograms reproduces the off-diagonal
    quasi-distribution W_A(x_k, x_l; mu, nu).  It is e^{ix'} / 2pi times the
    frame's Weyl operator at (mu', nu'), seen in the (mu, nu) eigenbasis V.
    """
    xp, mup, nup = xp_prime
    frame = QuadratureFrame(n_trunc)
    x, V = frame.direction(mu, nu)
    matrix = np.exp(1j * xp) / (2 * np.pi) * (V.conj().T @ frame.weyl(mup, nup) @ V)
    return QuasiSymbol(mu=mu, nu=nu, x=x, matrix=matrix, basis=V)


def quasi_symbol_from_tomograms(
    n_trunc: int,
    provider,
    mu: float,
    nu: float,
    grid_limit: float = 6.0,
    grid_step: float = 0.1,
) -> QuasiSymbol:
    """Closing identity: W_A(.,.; mu, nu) from diagonal tomograms alone.

    Evaluates the triple integral of tomogram times intertwining kernel; the
    x'-integral is exact on atoms (it only multiplies e^{i x'}), leaving the
    lattice sum over (mu', nu') of chi(mu', nu') e^{-i(mu' q + nu' p)}
    rotated into the (mu, nu) eigenbasis, taken from ``provider.frame``.
    """
    rec = symplectic_reconstruct(n_trunc, provider, grid_limit, grid_step)
    return _quasi_symbol(provider.frame, mu, nu, rec.operator)
