"""Reference forms the tests compare the library against.

Each helper here serves one comparison and claims nothing of its own:

- the per-element regular realization ``d_realization`` and its stacks
  ``regular_stacks`` (oracles for ``algebra.d_realization_stack``,
  ``starproduct.regular_symbol`` and ``starproduct.regular_reconstruct``);
- the dense (m, d, d) operator stacks of a rank-one pair, ``dense_stacks``,
  and the dense formulas on any stacks: ``dense_symbol``,
  ``dense_reconstruct``, ``dense_duality_residual``,
  ``dense_resolution_residual`` and ``dense_kernel`` (oracles for the Gram
  products of ``starproduct`` and for ``starproduct.d_realization_kernel``);
- the dense displaced symbol ``photon_symbol`` (criterion 6 and the photon
  tomography tests);
- the full-lattice symplectic sum ``full_lattice_reconstruct``, which asks
  the provider for every lattice point (oracle for
  ``tomography.symplectic_reconstruct``, which reads half of them);
- the smoothed densities of criterion 7, where atoms and a continuum density
  are mollified with the same kernel before they are compared.
"""

import numpy as np

from groupoidal.groupoid import UNDEFINED, FiniteGroupoid
from groupoidal.realizations import hermite_functions
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


def photon_symbol(n_trunc: int, z: complex, A: np.ndarray) -> np.ndarray:
    """Displaced symbol Phi_A(n, m; z) = <n, z|A|m, z> with |n, z> = D(z)|n>."""
    A = np.asarray(A, dtype=np.complex128)
    if A.shape != (n_trunc, n_trunc):
        raise ValueError("operator dimension does not match n_trunc")
    D = displacement_operator(n_trunc, z)
    return D.conj().T @ A @ D


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
