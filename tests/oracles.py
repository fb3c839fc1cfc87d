"""Reference forms the tests compare the library against.

Each helper here serves one comparison and claims nothing of its own:

- the per-element regular realization ``d_realization`` and its stacks
  ``regular_stacks`` (oracles for ``algebra.d_realization_stack``,
  ``starproduct.regular_symbol`` and ``starproduct.regular_reconstruct``);
- the dense (m, d, d) operator stacks of a rank-one pair, ``dense_stacks``,
  and the dense formulas on any stacks: ``dense_symbol``,
  ``dense_reconstruct``, ``dense_duality_residual``,
  ``dense_resolution_residual`` and ``dense_kernel`` (oracles for the Gram
  products of ``starproduct`` and for ``starproduct.d_realization_kernel``),
  and ``stacked``, which stacks the x1 slices those two kernels yield;
- the dense displaced symbol ``photon_symbol`` (criterion 6 and the photon
  tomography tests);
- the per-direction symplectic weights ``rotated_frame_tomogram``, which
  rotate the frame's eigenvectors to each direction (oracle for the weight
  table of ``tomography.state_tomogram_provider``);
- the full-lattice symplectic sum ``full_lattice_reconstruct``, which asks
  the provider for every lattice point (oracle for
  ``tomography.symplectic_reconstruct``, which reads half of them);
- the smoothed densities of criterion 7, where atoms and a continuum density
  are mollified with the same kernel before they are compared;
- the group-algebra loops ``group_convolve`` and ``matrix_group_convolve``
  (oracles for ``algebra.convolve`` on ``group_groupoid(H)`` and
  ``transitive_groupoid(n, H)``: C[T(n, H)] is M_n(C[H]));
- the blockwise ``resolution_residual`` of a rank-one pair, the kernel
  identity ``associativity_residual``, the flag ``self_dual``, the
  ``unitarity_defect`` of a matrix and the single Hermite function
  ``hermite_function`` (against the batched recurrence);
- the row-by-row ``csv.writer`` table ``write_csv`` (byte oracle for the
  block writer ``cli._write_csv``);
- the Gauss-Legendre ``gauss_legendre_grid``, a non-uniform second rule
  beside the library's trapezoid ``realizations.position_grid``;
- the whole-array density-weighted product ``grid_convolve`` (exact oracle
  for the tiles of ``algebra.weighted_grid_convolve``);
- the whole-array position round trip ``whole_grid_roundtrip``, which holds
  f, g and their grid product as m x m arrays (oracle for the tiles of the
  position bridge and ``roundtrip``);
- ``traced_peak``, the tracemalloc peak of one call, for the memory guards.
"""

import csv
import tracemalloc

import numpy as np

from groupoidal.groupoid import UNDEFINED, FiniteGroupoid
from groupoidal.realizations import PositionGrid, hermite_functions
from groupoidal.starproduct import QDPair
from groupoidal.tomography import (
    QuadratureFrame,
    SymplecticTomogram,
    characteristic_value,
    displacement_operator,
)


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


def regular_stacks(G: FiniteGroupoid) -> tuple:
    """(D, U) stacks of the regular realization: D(g) = d_realization(G, g), U(g) = D(g) / N(g).

    N(g) = Tr[D(g) D(g)^T] is read off the operators, not the table.
    """
    D = np.stack([d_realization(G, g) for g in range(G.order)])
    return D, D / np.einsum("xab,xab->x", D, D)[:, None, None]


def dense_stacks(pair: QDPair) -> tuple:
    """(D, U) stacks of a rank-one pair: D(x) = |a_x><b_x|, U(x) = |c_x><d_x|."""
    a, b, c, d = pair.families
    return tuple(np.einsum("xi,xj->xij", u, np.conj(v)) for u, v in ((a, b), (c, d)))


def dense_symbol(U: np.ndarray, A: np.ndarray) -> np.ndarray:
    """f_A(x) = Tr[A U(x)^dagger]."""
    return np.einsum("ab,xab->x", A, np.conj(U))


def dense_reconstruct(D: np.ndarray, weights: np.ndarray, f: np.ndarray) -> np.ndarray:
    """A = sum_x f(x) w(x) D(x)."""
    return np.einsum("x,x,xab->ab", f, weights, D)


def dense_duality_residual(D: np.ndarray, U: np.ndarray, weights: np.ndarray) -> float:
    """max over (x, x') of |Tr[D(x) U(x')^dagger] w(x') - delta_xx'|."""
    overlap = np.einsum("xab,yab->xy", D, np.conj(U)) * weights[None, :]
    return float(np.abs(overlap - np.eye(len(D))).max())


def dense_resolution_residual(D: np.ndarray, U: np.ndarray, weights: np.ndarray) -> float:
    """Frobenius distance of sum_x w_x vec D(x) vec U(x)^dagger from the identity."""
    m, d2 = len(D), D[0].size
    S = np.einsum("x,xa,xb->ab", weights, D.reshape(m, d2), np.conj(U.reshape(m, d2)))
    return float(np.linalg.norm(S - np.eye(d2)))


def dense_kernel(D: np.ndarray, U: np.ndarray) -> np.ndarray:
    """K(x1, x2, x) = Tr[D(x1) D(x2) U(x)^dagger], one x1 slice at a time, at any m."""
    m = len(D)
    Uf = np.conj(U.reshape(m, -1))
    return np.stack([(D[a] @ D).reshape(m, -1) @ Uf.T for a in range(m)])


def stacked(slices) -> np.ndarray:
    """The whole (m, m, m) kernel from the x1 slices that ``starproduct`` yields."""
    return np.stack(tuple(slices))


def photon_symbol(n_trunc: int, z: complex, A: np.ndarray) -> np.ndarray:
    """Displaced symbol Phi_A(n, m; z) = <n, z|A|m, z> with |n, z> = D(z)|n>."""
    A = np.asarray(A, dtype=np.complex128)
    if A.shape != (n_trunc, n_trunc):
        raise ValueError("operator dimension does not match n_trunc")
    D = displacement_operator(n_trunc, z)
    return D.conj().T @ A @ D


def rotated_frame_tomogram(frame: QuadratureFrame, rho: np.ndarray, mu: float,
                           nu: float) -> SymplecticTomogram:
    """Atoms and weights diag(V^dag rho V) in the eigenvectors V of mu q + nu p."""
    x, V = frame.direction(mu, nu)
    return SymplecticTomogram(mu=mu, nu=nu, x=x, p=((V.conj().T @ rho) * V.T).sum(1).real)


def full_lattice_reconstruct(n: int, provider, L: float, step: float) -> tuple:
    """(operator, boundary tail) of the symplectic lattice sum over every point of [-L, L]^2.

    Each lattice point gets its own provider call; (0, 0) is the trace, read
    from the tomogram at (step 1e-9, 0).  The tail is the largest |chi| on the
    first lattice row and column.
    """
    n_half = round(L / step)
    grid = step * np.arange(-n_half, n_half + 1)
    frame = QuadratureFrame(n)
    shifts = np.arange(1 - n, n)
    S = np.zeros((len(shifts), n), dtype=np.complex128)
    tail = 0.0
    for mu in grid:
        chi = np.array([characteristic_value(provider(mu, nu)) if mu or nu
                        else np.sum(provider(step * 1e-9, 0.0).p) for nu in grid])
        tail = max(tail, np.abs(chi if mu == grid[0] else chi[:1]).max())
        phases = chi * np.exp(1j * np.multiply.outer(shifts, np.arctan2(grid, mu)))
        S += phases @ np.exp(-1j * np.multiply.outer(np.hypot(mu, grid), frame.x_q))
    j, k = np.indices((n, n))
    A = np.einsum("ja,jka,ka->jk", frame.V_q, S[j - k + n - 1], frame.V_q.conj())
    return A * step**2 / (2 * np.pi), float(tail)


def smoothed_atom_density(tomogram: SymplecticTomogram, xs: np.ndarray) -> np.ndarray:
    """Gaussian-smoothed spectral measure on evaluation points ``xs``.

    The bandwidth per atom is the local eigenvalue spacing, matching the
    resolution the truncated spectrum actually has.
    """
    xs = np.asarray(xs, dtype=float)
    bw = np.gradient(tomogram.x)
    kern = np.exp(-((xs[:, None] - tomogram.x[None, :]) ** 2) / (2 * bw[None, :] ** 2))
    kern /= np.sqrt(2 * np.pi) * bw[None, :]
    return kern @ tomogram.p


def smoothed_reference_density(density, tomogram: SymplecticTomogram, xs: np.ndarray) -> np.ndarray:
    """The same smoothing applied to an analytic density for fair comparison.

    Comparing raw atoms to a continuum density in sup norm is ill-posed;
    mollifying both sides with the identical kernel isolates the actual
    spectral-measure error from the O(bandwidth^2) smoothing bias.  The
    density is integrated on 4001 points over [-9, 9].
    """
    xs = np.asarray(xs, dtype=float)
    y = np.linspace(-9.0, 9.0, 4001)
    dy = y[1] - y[0]
    sig = np.interp(y, tomogram.x, np.gradient(tomogram.x))
    kern = np.exp(-((xs[:, None] - y[None, :]) ** 2) / (2 * sig[None, :] ** 2))
    kern /= np.sqrt(2 * np.pi) * sig[None, :]
    return kern @ density(y) * dy


def ground_state_position_density(x: np.ndarray) -> np.ndarray:
    """|phi_0(x)|^2 = e^{-x^2} / sqrt(pi)."""
    return hermite_functions(0, x)[0] ** 2


def group_convolve(a: np.ndarray, b: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Classical group-algebra convolution (a * b)(g) = sum_{g1 g2 = g} a(g1) b(g2)."""
    table = np.asarray(table, dtype=np.int64)
    out = np.zeros(len(table), dtype=np.complex128)
    for g1 in range(len(table)):
        out[table[g1]] += a[g1] * b
    return out


def matrix_group_convolve(F1: np.ndarray, F2: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Row-by-column product of (n, n, ord(H)) matrices of group-algebra entries.

    Scalar multiplication inside the matrix product is replaced by
    ``group_convolve`` on the group H.
    """
    n = len(F1)
    out = np.zeros(np.shape(F1), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i, j] += group_convolve(F1[i, k], F2[k, j], table)
    return out


def resolution_residual(pair: QDPair) -> float:
    """Frobenius distance of S = sum_x w_x vec D(x) vec U(x)^dagger from the identity.

    Zero exactly when symbol followed by reconstruct is the identity on all
    operators.  The (i, k) block of S is the weighted Gram product
    sum_x w_x a_x[i] conj(c_x[k]) conj(b_x) d_x^T, so S is never held whole and
    the identity is subtracted block by block (no cancellation near zero).
    """
    w = pair.space.weights
    a, b, c, d = pair.families
    bh, cc, eye = np.conj(b).T, np.conj(c), np.eye(pair.hilbert_dim)
    total = 0.0
    for i in range(pair.hilbert_dim):
        wa = w * a[:, i]
        for k in range(pair.hilbert_dim):
            block = (bh * (wa * cc[:, k])) @ d - (eye if i == k else 0.0)
            total += float(np.vdot(block, block).real)
    return float(np.sqrt(total))


def associativity_residual(K: np.ndarray, weights: np.ndarray) -> float:
    """Deviation of a kernel from the quadratic associativity identity.

    max over (x1, x2, x3, x) of
    |sum_y K(x1,x2,y) w_y K(y,x3,x) - sum_y K(x2,x3,y) w_y K(x1,y,x)|.
    """
    lhs = np.einsum("aby,y,ycd->abcd", K, weights, K)
    rhs = np.einsum("bcy,y,ayd->abcd", K, weights, K)
    return float(np.abs(lhs - rhs).max())


def self_dual(pair: QDPair) -> bool:
    """Whether the dequantizer family equals the quantizer family."""
    a, b, c, d = pair.families
    return all(u is v or np.array_equal(u, v) for u, v in ((a, c), (b, d)))


def unitarity_defect(U: np.ndarray) -> float:
    """max |U U^dagger - 1|."""
    U = np.asarray(U)
    return float(np.abs(U @ U.conj().T - np.eye(U.shape[0])).max())


def hermite_function(n: int, x):
    """phi_n(x) = <x|n> for scalar or array x, read off the batched recurrence."""
    vals = hermite_functions(n, x)[n]
    return vals[0] if np.isscalar(x) else vals


def write_csv(path, header: list, *columns) -> None:
    """Write ``header``, then one row per index i holding entry i of every column.

    An array column is flattened to Python scalars, so each float is its repr.
    """
    cols = [c.ravel().tolist() if isinstance(c, np.ndarray) else c for c in columns]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cols))


def gauss_legendre_grid(a: float, b: float, m: int) -> PositionGrid:
    """Gauss-Legendre points and weights on [a, b] as a PositionGrid."""
    x, w = np.polynomial.legendre.leggauss(m)
    return PositionGrid((a + b) / 2 + (b - a) / 2 * x, (b - a) / 2 * w)


def grid_convolve(f1: np.ndarray, f2: np.ndarray, weights: np.ndarray,
                  density: np.ndarray) -> np.ndarray:
    """rho(x) rho(y) * sum_s f1(x, s) f2(s, y) rho(s)^2 w_s as whole m x m arrays."""
    core = (f1 * (density**2 * weights)[None, :]) @ f2
    return density[:, None] * density[None, :] * core


def whole_grid_roundtrip(F: np.ndarray, G: np.ndarray, grid: PositionGrid) -> tuple:
    """(F, F G) carried through the grid on whole arrays: f, g and (f w) @ g, each m x m."""
    phi = hermite_functions(len(F) - 1, grid.points)
    wphi = phi * grid.weights[None, :]
    f, g = phi.T @ F @ phi, phi.T @ G @ phi
    return wphi @ f @ wphi.T, wphi @ ((f * grid.weights) @ g) @ wphi.T


def traced_peak(fn, *args) -> tuple:
    """(fn(*args), peak bytes tracemalloc saw during that call), after one untraced call.

    The untraced call takes the one-time allocations of a first call (imports,
    caches), so the peak is what a repeated call holds.
    """
    fn(*args)
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
