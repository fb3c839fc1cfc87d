import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from groupoidal import tomography
from groupoidal.groupoid import InfeasibleError
from groupoidal.realizations import (
    CoherentGrid,
    annihilation,
    coherent_state_vector,
    disk_lattice,
)
from groupoidal.tomography import (
    DegenerateDirectionError,
    EulerAngles,
    OrderingParameterError,
    QuadratureFrame,
    ReconstructionResult,
    SymplecticTomogram,
    angular_momentum,
    characteristic_value,
    check_photon_reconstruction,
    displaced_parity,
    displaced_rows,
    displacement_operator,
    grid_resolvable_dim,
    intertwining_kernel,
    number_power_block,
    photon_reconstruct,
    photon_tomogram,
    quadrature_operator,
    quasi_symbol_from_tomograms,
    spin_reconstruct_at_g,
    spin_symbol,
    spin_tomogram,
    state_tomogram_provider,
    symplectic_quasi_symbol,
    symplectic_reconstruct,
    symplectic_tomogram,
    wigner_D,
    wigner_little_d,
)
from oracles import (
    full_lattice_reconstruct,
    ground_state_position_density,
    photon_symbol,
    rotated_frame_tomogram,
    smoothed_atom_density,
    smoothed_reference_density,
    traced_peak,
    unitarity_defect,
)


def _rand_density(rng, d):
    X = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = X @ X.conj().T
    return rho / np.trace(rho).real


def _rand_op(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


# quadrature coordinates: either axis, negative values, never so small that the
# dense eigh oracle of mu q + nu p loses its eigenvectors to underflow
_COORD = st.one_of(st.just(0.0), st.floats(0.01, 4.0), st.floats(-4.0, -0.01))
_DIRECTION = st.tuples(_COORD, _COORD).filter(lambda d: d != (0.0, 0.0))


# directions of radius 1e-9..10: exactly on an axis, or at any angle
_RADIUS = st.floats(-9.0, 1.0).map(lambda e: 10.0**e)
_AXIS_DIRECTION = st.builds(lambda r, k: [(r, 0.0), (0.0, r), (-r, 0.0), (0.0, -r)][k],
                            _RADIUS, st.integers(0, 3))
_ANGLE_DIRECTION = st.builds(lambda r, t: (r * math.cos(t), r * math.sin(t)),
                             _RADIUS, st.floats(-math.pi, math.pi))


def _complex_weight_provider(A):
    """Provider whose weights diag(V^dag A V) keep the complex part of a non-Hermitian A."""
    frame = QuadratureFrame(len(A))

    def provider(mu, nu):
        x, V = frame.direction(mu, nu)
        return SymplecticTomogram(mu=mu, nu=nu, x=x, p=np.einsum("ja,jk,ka->a", V.conj(), A, V))

    provider.frame = frame
    return provider


def _assert_diagonalises(qs, n_t, mu, nu):
    # the quasi-symbol's basis holds eigenvectors of mu q + nu p for its x
    D = qs.basis.conj().T @ quadrature_operator(n_t, mu, nu) @ qs.basis
    assert np.abs(D - np.diag(qs.x)).max() < 1e-12


class TestWignerD:
    def test_identity_element(self):
        for j in (0.5, 1.0, 2.0):
            D = wigner_D(j, EulerAngles(0, 0, 0))
            assert np.abs(D - np.eye(int(2 * j) + 1)).max() < 1e-15

    def test_spin_flip(self):
        D = wigner_D(0.5, EulerAngles(0, np.pi, 0))
        assert abs(abs(D[0, 1]) - 1.0) < 1e-15
        assert abs(D[0, 0]) < 1e-15

    @pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 2.0, 2.5])
    def test_exponential_oracle_and_unitarity(self, j):
        jz, jy, _ = angular_momentum(j)
        rng = np.random.default_rng(int(2 * j))
        for _ in range(100):
            a, b, c = rng.uniform(-2 * np.pi, 2 * np.pi, 3)
            D = wigner_D(j, EulerAngles(a, b, c))
            oracle = expm(-1j * a * jz) @ expm(-1j * b * jy) @ expm(-1j * c * jz)
            assert np.abs(D - oracle).max() < 1e-12
            assert unitarity_defect(D) < 1e-12

    def test_little_d_is_real_rotation(self):
        d = wigner_little_d(1.0, 0.7)
        assert np.abs(d @ d.T - np.eye(3)).max() < 1e-14
        assert abs(np.linalg.det(d) - 1.0) < 1e-14

    @pytest.mark.parametrize("j", [10.0, 20.0, 40.5, 60.0, 100.0])
    def test_large_j_unitary_and_matches_expm(self, j):
        _, jy, _ = angular_momentum(j)
        betas = np.random.default_rng(int(2 * j)).uniform(-2 * np.pi, 2 * np.pi, 3)
        for beta, d in zip(betas, wigner_little_d(j, betas)):
            assert np.abs(d - expm(-1j * beta * jy)).max() < 1e-12
            assert unitarity_defect(d) < 1e-12

    def test_batch_is_stack_of_single_elements(self):
        g = EulerAngles(*np.random.default_rng(8).uniform(-np.pi, np.pi, (3, 7)))
        D = wigner_D(2.5, g)
        assert D.shape == (7, 6, 6)
        for i in range(7):
            single = wigner_D(2.5, EulerAngles(g.alpha[i], g.beta[i], g.gamma[i]))
            assert np.array_equal(D[i], single)


class TestSpinScheme:
    def test_identity_g_gives_matrix_elements(self):
        rng = np.random.default_rng(0)
        A = _rand_op(rng, 4)
        w = spin_symbol(1.5, EulerAngles(0, 0, 0), A)
        assert np.abs(w - A).max() < 1e-14

    def test_stretched_state_diagonal(self):
        rho = np.zeros((3, 3), dtype=complex)
        rho[2, 2] = 1.0  # |j j><j j| for j = 1
        tom = spin_tomogram(1.0, EulerAngles(0, 0, 0), rho)
        assert np.array_equal(tom, [0, 0, 1])

    def test_maximally_mixed_invariance(self):
        rng = np.random.default_rng(1)
        rho = np.eye(5) / 5
        for _ in range(10):
            g = EulerAngles(*rng.uniform(-np.pi, np.pi, 3))
            tom = spin_tomogram(2.0, g, rho)
            assert np.abs(tom - 0.2).max() < 1e-14

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for j in (0.5, 1.5, 2.5):
            d = int(2 * j) + 1
            A = _rand_op(rng, d)
            for _ in range(20):
                g = EulerAngles(*rng.uniform(-np.pi, np.pi, 3))
                back = spin_reconstruct_at_g(j, g, spin_symbol(j, g, A))
                assert np.abs(back - A).max() < 1e-12

    def test_identity_symbol_reconstructs_identity(self):
        g = EulerAngles(0.4, 1.2, -0.3)
        assert np.abs(spin_reconstruct_at_g(1.0, g, np.eye(3)) - np.eye(3)).max() < 1e-13

    def test_wrong_g_does_not_reconstruct(self):
        rng = np.random.default_rng(3)
        A = _rand_density(rng, 4) + 0.5 * np.diag([1, -1, 1, -1.0])
        g1 = EulerAngles(0.3, 1.0, 0.2)
        g2 = EulerAngles(-1.1, 2.0, 0.9)
        w = spin_symbol(1.5, g1, A)
        assert np.abs(spin_reconstruct_at_g(1.5, g2, w) - A).max() > 0.1

    def test_batched_tomograms(self):
        rng = np.random.default_rng(10)
        rho = _rand_density(rng, 4)
        g = EulerAngles(*rng.uniform(-np.pi, np.pi, (3, 5)))
        probs = spin_tomogram(1.5, g, rho)
        assert probs.shape == (5, 4)
        for i in range(5):
            single = spin_tomogram(1.5, EulerAngles(g.alpha[i], g.beta[i], g.gamma[i]), rho)
            assert np.array_equal(probs[i], single)

    def test_rotation_blocks_equal_one_batch(self, monkeypatch):
        rng = np.random.default_rng(11)
        rho = _rand_density(rng, 6)
        g = EulerAngles(*rng.uniform(-np.pi, np.pi, (3, 4, 5)))
        whole = spin_tomogram(2.5, g, rho)
        # 109 entries make blocks of 3 rotations, so block edges fall inside the rows of g
        monkeypatch.setattr(tomography, "_ROTATION_BLOCK", 3 * 36 + 1)
        assert np.array_equal(spin_tomogram(2.5, g, rho), whole)
        assert whole.shape == (4, 5, 6)

    def test_one_eigendecomposition_per_tomogram(self, monkeypatch):
        rng = np.random.default_rng(15)
        rho = _rand_density(rng, 6)
        g = EulerAngles(*rng.uniform(-np.pi, np.pi, (3, 10)))
        whole = spin_tomogram(2.5, g, rho)
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(M.shape) or eigh(M))
        # 3 * 36 entries make blocks of 3 rotations: 4 blocks for 10 rotations
        monkeypatch.setattr(tomography, "_ROTATION_BLOCK", 3 * 36)
        assert np.array_equal(spin_tomogram(2.5, g, rho), whole)
        assert calls == [(6, 6)]

    def test_rotation_batch_memory_is_bounded_by_the_block(self):
        # 2,000 rotations at j = 20 are 51 MB of complex entries per array
        rng = np.random.default_rng(12)
        rho = _rand_density(rng, 41)
        g = EulerAngles(*rng.uniform(-np.pi, np.pi, (3, 2000)))
        probs, peak = traced_peak(spin_tomogram, 20, g, rho)
        assert np.abs(probs.sum(axis=1) - 1).max() < 1e-12
        assert peak < 5 * 16 * tomography._ROTATION_BLOCK

    def test_stochasticity(self):
        rng = np.random.default_rng(4)
        for j in (0.5, 1.0, 2.5):
            d = int(2 * j) + 1
            for _ in range(20):
                rho = _rand_density(rng, d)
                g = EulerAngles(*rng.uniform(-np.pi, np.pi, 3))
                tom = spin_tomogram(j, g, rho)
                assert abs(tom.sum() - 1.0) < 1e-12
                assert tom.min() > -1e-12

    @settings(max_examples=40, deadline=None)
    @given(two_j=st.integers(1, 10), batch=st.sampled_from([(), (1,), (5,)]),
           seed=st.integers(0, 2**32 - 1))
    def test_tomogram_is_the_diagonal_of_the_symbol(self, two_j, batch, seed):
        rng = np.random.default_rng(seed)
        rho = _rand_density(rng, two_j + 1)
        g = EulerAngles(*rng.uniform(-2 * np.pi, 2 * np.pi, (3,) + batch))
        probs = spin_tomogram(two_j / 2, g, rho)
        assert probs.shape == batch + (two_j + 1,)
        for i in np.ndindex(batch):
            single = EulerAngles(g.alpha[i], g.beta[i], g.gamma[i])
            diagonal = np.diagonal(spin_symbol(two_j / 2, single, rho)).real
            assert np.abs(probs[i] - diagonal).max() < 1e-13


    @settings(max_examples=40, deadline=None)
    @given(two_j=st.integers(1, 10), batch=st.sampled_from([(1,), (5,), (2, 3)]),
           seed=st.integers(0, 2**32 - 1))
    def test_batched_symbol_and_inverse_stack_single_calls(self, two_j, batch, seed):
        rng = np.random.default_rng(seed)
        A = _rand_op(rng, two_j + 1)
        g = EulerAngles(*rng.uniform(-2 * np.pi, 2 * np.pi, (3,) + batch))
        w = spin_symbol(two_j / 2, g, A)
        back = spin_reconstruct_at_g(two_j / 2, g, w)
        assert w.shape == back.shape == batch + A.shape
        for i in np.ndindex(batch):
            single = EulerAngles(g.alpha[i], g.beta[i], g.gamma[i])
            w_i = spin_symbol(two_j / 2, single, A)
            assert np.abs(w[i] - w_i).max() < 1e-13
            assert np.abs(back[i] - spin_reconstruct_at_g(two_j / 2, single, w_i)).max() < 1e-13
        assert np.abs(back - A).max() < 1e-12

    def test_batched_symbol_refuses_a_wrong_dimension(self):
        g = EulerAngles(np.zeros(2), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="operator dimension"):
            spin_symbol(1, g, np.eye(4))
        with pytest.raises(ValueError, match="symbol dimension"):
            spin_reconstruct_at_g(1, g, np.zeros((2, 4, 4)))
class TestDisplacement:
    def test_zero_displacement(self):
        assert np.array_equal(displacement_operator(8, 0), np.eye(8))

    def test_coherent_column_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            z = complex(*rng.uniform(-1.4, 1.4, 2))
            col = displacement_operator(64, z)[:, 0]
            n = np.arange(64)
            want = coherent_state_vector(64, z)
            assert np.abs(col - want).max() < 1e-8

    def test_inverse_block(self):
        z = 1.1 - 0.7j
        D = displacement_operator(64, z) @ displacement_operator(64, -z)
        assert np.abs(D[:32, :32] - np.eye(64)[:32, :32]).max() < 1e-8

    @pytest.mark.parametrize("n_t", [1, 2, 8, 24, 64])
    def test_matches_truncated_expm(self, n_t):
        a = annihilation(n_t)
        rng = np.random.default_rng(n_t)
        for z in rng.uniform(-2.5, 2.5, (5, 2)) @ np.array([1, 1j]):
            oracle = expm(z * a.conj().T - np.conj(z) * a)
            assert np.abs(displacement_operator(n_t, z) - oracle).max() < 1e-13

    def test_exactly_unitary_on_truncated_space(self):
        assert unitarity_defect(displacement_operator(24, 1.5 + 0.5j)) < 1e-13

    def test_displaced_rows_vs_expm(self):
        z = 0.9 + 0.3j
        R = displaced_rows(6, 48, z)
        D = displacement_operator(48, z)
        assert np.abs(R[:, :36] - D[:6, :36]).max() < 1e-12

    def test_displaced_rows_batch_is_stack_of_points(self):
        zs = np.array([0, 0.9 + 0.3j, -1.5j, 2.0])
        R = displaced_rows(5, 12, zs)
        assert R.shape == (4, 5, 12)
        for z, R_z in zip(zs, R):
            assert np.array_equal(R_z, displaced_rows(5, 12, z))
        assert np.array_equal(R[0], np.eye(5, 12))

    @pytest.mark.parametrize("z", [1e11, 1e200, 1e300 - 1e300j])
    def test_displaced_rows_vanish_far_out(self, z):
        # e^{-|z|^2/2} leads the product, so it never meets an overflowed power of z
        R = displaced_rows(2, 32, z)
        assert np.array_equal(R, np.zeros((2, 32)))


class TestPhotonScheme:
    def test_zero_displacement_is_fock_symbol(self):
        rng = np.random.default_rng(6)
        A = _rand_op(rng, 8)
        assert np.abs(photon_symbol(8, 0, A) - A).max() < 1e-14

    def test_vacuum_poisson(self):
        rho = np.zeros((64, 64), dtype=complex)
        rho[0, 0] = 1.0
        for z in (0.5, 1.0 + 0.5j, 2.0):
            phi = photon_symbol(64, z, rho)
            lam = abs(z) ** 2
            for n in range(20):
                want = np.exp(-lam) * lam**n / math.factorial(n)
                assert abs(phi[n, n].real - want) < 1e-8

    def test_trace_preserved(self):
        rng = np.random.default_rng(7)
        rho = _rand_density(rng, 32)
        phi = photon_symbol(32, 0.8j, rho)
        assert abs(np.trace(phi) - 1.0) < 1e-12

    def test_tomogram_sign_convention(self):
        # P(n, z) = Phi(n, n; -z): for rho = |b><b| this is Poisson(|b + z|^2)
        b, zeta = 0.6 + 0.3j, -0.4 + 0.2j
        v = coherent_state_vector(64, b)
        rho = np.outer(v, v.conj())
        tom = photon_tomogram(rho, CoherentGrid(np.array([zeta]), 0.04), n_max=16)
        lam = abs(b + zeta) ** 2
        for n in range(16):
            want = np.exp(-lam) * lam**n / math.factorial(n)
            assert abs(tom.table[n, 0] - want) < 1e-10

    def test_tomogram_matches_displaced_symbol(self):
        # rho lives on 6 levels and the table is computed there; the oracle
        # displaces the embedded state with the truncated expm at N = 64
        rng = np.random.default_rng(9)
        rho = np.zeros((64, 64), dtype=complex)
        rho[:6, :6] = _rand_density(rng, 6)
        zs = np.array([0.3 - 0.2j, 1.5 + 0.5j, -2.0j])
        tom = photon_tomogram(rho[:6, :6], CoherentGrid(zs, 0.04), n_max=10)
        for i, z in enumerate(zs):
            oracle = np.diag(photon_symbol(64, -z, rho))[:10].real
            assert np.abs(tom.table[:, i] - oracle).max() < 1e-10


class TestDisplacedParity:
    def test_parity_at_origin(self):
        T = displaced_parity(12, 0, 0.0)
        assert np.abs(T - np.diag(2.0 * (-1.0) ** np.arange(12))).max() < 1e-14

    def test_trace_alternating(self):
        # Tr T(z, 0) = 2 sum (-1)^n vanishes for even truncation, any z
        assert abs(np.trace(displaced_parity(16, 0, 0.0))) < 1e-12
        assert abs(np.trace(displaced_parity(16, 0.7 - 0.3j, 0.0))) < 1e-12

    def test_hermitian(self):
        # for s > 0 the operator is unbounded and the truncated entries grow
        # like |(s+1)/(s-1)|^n, so hermiticity is asserted relative to scale
        for s in (-0.5, 0.0, 0.5):
            T = displaced_parity(24, 0.8 - 0.2j, s)
            scale = max(1.0, np.abs(T).max())
            assert np.abs(T - T.conj().T).max() / scale < 1e-10

    def test_ordering_parameter_domain(self):
        with pytest.raises(OrderingParameterError):
            displaced_parity(8, 0, 1.0)
        with pytest.raises(OrderingParameterError):
            displaced_parity(8, 0, -1.5)


class TestNumberPowerBlock:
    @pytest.mark.parametrize("alpha,kappa", [
        (0.7 + 0.3j, -3.0), (1.5 - 0.8j, -1.0), (0.4 + 0j, -0.2), (0j, -3.0),
    ])
    def test_against_brute_force(self, alpha, kappa):
        big = 160
        a = annihilation(big)
        D = expm(alpha * a.conj().T - np.conj(alpha) * a)
        brute = D @ np.diag(kappa ** np.arange(big, dtype=float)) @ D.conj().T
        G = number_power_block(8, alpha, kappa).astype(complex)
        scale = max(1.0, np.abs(G).max())
        assert np.abs(G - brute[:8, :8]).max() / scale < 1e-4

    def test_hermitian(self):
        G = number_power_block(16, 1.2 - 0.4j, -3.0).astype(complex)
        assert np.abs(G - G.conj().T).max() == 0.0

    def test_batch_is_stack_of_points(self):
        alphas = np.array([0j, 0.7 + 0.3j, -1.5 + 0.8j])
        G = number_power_block(8, alphas, -3.0)
        assert G.shape == (3, 8, 8)
        for alpha, G_alpha in zip(alphas, G):
            assert np.array_equal(G_alpha, number_power_block(8, alpha, -3.0))

    def test_matches_displaced_parity(self):
        # 2/(1-s) D(z) q^N D(z)^dag with q = (s+1)/(s-1) is the displaced parity
        s, z = -0.4, 0.5 + 0.2j
        T = displaced_parity(48, z, s)
        G = 2 / (1 - s) * number_power_block(12, z, (s + 1) / (s - 1)).astype(complex)
        assert np.abs(T[:12, :12] - G).max() < 1e-10


class TestPhotonReconstruction:
    def test_zero_tomogram(self):
        lat = disk_lattice(2.0, 0.5)
        tom = photon_tomogram(np.zeros((8, 8), dtype=complex), lat, n_max=8)
        rec = photon_reconstruct(tom, s=-0.5)
        assert np.abs(rec.operator).max() < 1e-14

    def test_vacuum_small_grid(self):
        n_t = 16
        rho = np.zeros((n_t, n_t), dtype=complex)
        rho[0, 0] = 1.0
        lat = disk_lattice(3.0, 0.25)
        tom = photon_tomogram(rho, lat, n_max=n_t)
        rec = photon_reconstruct(tom, s=-0.5)
        errs = rec.errors_against(rho)
        assert rec.reliable_dim == grid_resolvable_dim(0.25, 3.0) == 8
        assert errs["frobenius_error"] < 5e-3

    def test_block_size_does_not_change_the_result(self, monkeypatch):
        import groupoidal.tomography as tomography

        rho = np.zeros((16, 16), dtype=complex)
        rho[1, 1] = 1.0
        tom = photon_tomogram(rho, disk_lattice(3.0, 0.25), n_max=16)
        one = photon_reconstruct(tom, s=-0.5).operator
        monkeypatch.setattr(tomography, "_POINT_BLOCK", 7)
        blocks = photon_reconstruct(tom, s=-0.5).operator
        assert np.abs(blocks[:8, :8] - one[:8, :8]).max() < 1e-12
        assert np.abs(blocks - one).max() < 1e-13 * np.abs(one).max()

    @pytest.mark.parametrize("s", [0.0, -0.5])
    def test_resolvable_block_is_the_leading_block_of_the_full_sum(self, s):
        n_t = 16
        rho = _rand_density(np.random.default_rng(11), n_t)
        lat = disk_lattice(3.0, 0.25)
        tom = photon_tomogram(rho, lat, n_max=n_t)
        rec = photon_reconstruct(tom, s=s)
        # the whole n_t x n_t lattice sum in one contraction, no point batches;
        # summed in another order, so it is compared relative to the summands
        q, kappa = (s + 1) / (s - 1), -(1 - s) / (1 + s)
        w = (lat.point_weight * (2 / (1 - s)) * (tom.table.T @ q ** np.arange(n_t))).astype(np.longdouble)
        G = (2 / (1 + s)) * number_power_block(n_t, -lat.z_points, kappa)
        r = rec.reliable_dim
        full = np.tensordot(w, G, axes=1)[:r, :r]
        scale = np.tensordot(np.abs(w), np.abs(G), axes=1)[:r, :r]
        assert r == 8 and rec.operator.shape == (r, r)
        assert np.all(np.abs(rec.operator - full) <= 1e-15 * scale)

    def test_sums_only_the_resolvable_block(self, monkeypatch):
        dims = []

        def spy(dim, alpha, kappa):
            dims.append(dim)
            return number_power_block(dim, alpha, kappa)

        monkeypatch.setattr(tomography, "number_power_block", spy)
        lat = disk_lattice(3.0, 0.25)
        tom = photon_tomogram(np.eye(16, dtype=complex) / 16, lat, n_max=16)
        rec = photon_reconstruct(tom, s=-0.5)
        assert dims == [rec.reliable_dim] * -(-len(lat) // tomography._POINT_BLOCK)

    def test_report_gives_largest_entry_beyond_reliable_block(self):
        op = np.zeros((4, 4), dtype=complex)
        op[:2, :2] = 100.0
        op[3, 1] = -7.0
        rec = ReconstructionResult(op, "photon", n_trunc=4, reliable_dim=2, grid={})
        assert rec.report()["max_abs_beyond_reliable"] == 7.0
        whole = ReconstructionResult(op, "photon", n_trunc=4, reliable_dim=4, grid={})
        assert whole.max_abs_beyond_reliable == 0.0

    def test_ordering_domain(self):
        lat = disk_lattice(1.0, 0.5)
        tom = photon_tomogram(np.eye(4, dtype=complex) / 4, lat, n_max=4)
        with pytest.raises(OrderingParameterError):
            photon_reconstruct(tom, s=0.5)

    def test_weight_overflow_guard(self):
        lat = disk_lattice(1.0, 0.5)
        tom = photon_tomogram(np.eye(4, dtype=complex) / 4, lat, n_max=64)
        assert tom.table.shape[0] == 64
        with pytest.raises(InfeasibleError, match="n_max"):
            photon_reconstruct(tom, s=-0.9999999)
        with pytest.raises(InfeasibleError, match="n_max"):
            check_photon_reconstruction(-0.9999999, 64)
        assert check_photon_reconstruction(-0.5, 64) == -3.0


class TestQuadratureOperator:
    def test_position_direction(self):
        q = quadrature_operator(8, 1.0, 0.0)
        for n in range(7):
            assert abs(q[n, n + 1] - np.sqrt((n + 1) / 2)) < 1e-14
        assert np.abs(q - q.conj().T).max() == 0.0

    def test_eigenvalue_scaling(self):
        x1 = np.linalg.eigvalsh(quadrature_operator(16, 0.6, 0.8))
        x2 = np.linalg.eigvalsh(quadrature_operator(16, 1.2, 1.6))
        assert np.abs(x2 - 2.0 * x1).max() < 1e-12

    def test_degenerate_direction(self):
        with pytest.raises(DegenerateDirectionError):
            quadrature_operator(8, 0.0, 0.0)


class TestSymplecticTomogram:
    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(8)
        rho = _rand_density(rng, 32)
        tom = symplectic_tomogram(32, 0.7, -0.4, rho)
        assert abs(tom.p.sum() - 1.0) < 1e-12

    def test_maximally_mixed(self):
        tom = symplectic_tomogram(16, 1.0, 0.5, np.eye(16, dtype=complex) / 16)
        assert np.abs(tom.p - 1 / 16).max() < 1e-13

    def test_atoms_sorted(self):
        rng = np.random.default_rng(9)
        tom = symplectic_tomogram(24, 0.3, 1.1, _rand_density(rng, 24))
        assert np.all(np.diff(tom.x) > 0)

    def test_rejects_non_hermitian(self):
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            symplectic_tomogram(4, 1.0, 0.0, bad)

    def test_homogeneity(self):
        rng = np.random.default_rng(10)
        rho = _rand_density(rng, 16)
        base = symplectic_tomogram(16, 0.8, 0.3, rho)
        lam = 2.5
        scaled = symplectic_tomogram(16, lam * 0.8, lam * 0.3, rho)
        assert np.abs(scaled.x - lam * base.x).max() < 1e-10
        assert np.abs(scaled.p - base.p).max() < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(n_t=st.integers(2, 40), direction=_DIRECTION, seed=st.integers(0, 2**32 - 1))
    def test_reflection_is_the_mirror_direction(self, n_t, direction, seed):
        # M(X, -mu, -nu) = M(-X, mu, nu): the reflected tomogram is the provider's at (-mu, -nu)
        mu, nu = direction
        provider = state_tomogram_provider(_rand_density(np.random.default_rng(seed), n_t))
        reflected, mirror = provider(mu, nu).reflected(), provider(-mu, -nu)
        assert (reflected.mu, reflected.nu) == (-mu, -nu)
        assert np.abs(reflected.x - mirror.x).max() <= 1e-13 * np.hypot(mu, nu)
        assert np.abs(reflected.p - mirror.p).max() <= 1e-13

    def test_characteristic_symmetry(self):
        rng = np.random.default_rng(11)
        rho = _rand_density(rng, 24)
        chi = characteristic_value(symplectic_tomogram(24, 0.9, 0.4, rho))
        chi_neg = characteristic_value(symplectic_tomogram(24, -0.9, -0.4, rho))
        assert abs(chi_neg - np.conj(chi)) < 1e-12

    def test_rotational_covariance_of_spectrum(self):
        # eigenvalues of cos(t) q + sin(t) p are t-independent on the
        # truncated space; compare the inner half of the spectrum
        n_t = 32
        ref = np.linalg.eigvalsh(quadrature_operator(n_t, 1.0, 0.0))
        inner = slice(n_t // 4, 3 * n_t // 4)
        for theta in (0.3, 1.1, 2.0):
            x = np.linalg.eigvalsh(quadrature_operator(n_t, np.cos(theta), np.sin(theta)))
            assert np.abs(x[inner] - ref[inner]).max() < 1e-10

    def test_smoothed_density_matches_ground_state(self):
        n_t = 64
        rho = np.zeros((n_t, n_t), dtype=complex)
        rho[0, 0] = 1.0
        tom = symplectic_tomogram(n_t, 1.0, 0.0, rho)
        xs = np.linspace(-3, 3, 301)
        est = smoothed_atom_density(tom, xs)
        ref = smoothed_reference_density(ground_state_position_density, tom, xs)
        assert np.abs(est - ref).max() < 1e-3


class TestQuadratureFrame:
    def test_degenerate_direction(self):
        with pytest.raises(DegenerateDirectionError):
            QuadratureFrame(8).direction(0.0, 0.0)

    def test_overflowing_weyl_direction_is_infeasible(self):
        # r max(x_q) overflows: refused, not an all-NaN matrix
        with pytest.raises(InfeasibleError, match="overflow"):
            QuadratureFrame(4).weyl(1e308, 1e308)
        with pytest.raises(InfeasibleError, match="overflow"):
            displacement_operator(4, 1e308)
        with pytest.raises(InfeasibleError, match="overflow"):
            intertwining_kernel(4, (0.0, 1e308, 1e308), 1.0, 0.0)

    def test_weyl_at_the_origin_is_exactly_the_identity(self):
        for mu, nu in ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)):
            assert np.array_equal(QuadratureFrame(6).weyl(mu, nu), np.eye(6))

    @settings(max_examples=25, deadline=None)
    @given(n_t=st.integers(2, 40), direction=_DIRECTION, seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_eigh(self, n_t, direction, seed):
        mu, nu = direction
        rho = _rand_density(np.random.default_rng(seed), n_t)
        x_ref, V_ref = np.linalg.eigh(quadrature_operator(n_t, mu, nu))
        x, basis = QuadratureFrame(n_t).direction(mu, nu)
        assert np.abs(x - x_ref).max() < 1e-12 * max(1.0, np.hypot(mu, nu))
        p_ref = np.einsum("jk,jl,lk->k", V_ref.conj(), rho, V_ref).real
        assert np.abs(symplectic_tomogram(n_t, mu, nu, rho).p - p_ref).max() < 1e-12
        D = basis.conj().T @ quadrature_operator(n_t, mu, nu) @ basis
        assert np.abs(D - np.diag(x)).max() < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(n_t=st.integers(2, 40), direction=_DIRECTION, prime=_DIRECTION,
           xp=st.floats(-3.0, 3.0))
    def test_intertwining_kernel_matches_eigh_form(self, n_t, direction, prime, xp):
        # explicit W-form against V^dag D_Sigma V with D_Sigma from a dense eigh
        K = intertwining_kernel(n_t, (xp, *prime), *direction)
        xs, Vp = np.linalg.eigh(quadrature_operator(n_t, *prime))
        d_sigma = (Vp * np.exp(1j * (xp - xs))) @ Vp.conj().T / (2 * np.pi)
        assert np.abs(K.basis.conj().T @ d_sigma @ K.basis - K.matrix).max() < 1e-12


class TestWeightTable:
    """state_tomogram_provider's weight table against the rotated eigenvectors."""

    @settings(max_examples=60, deadline=None)
    @given(n_t=st.integers(2, 16), direction=st.one_of(_AXIS_DIRECTION, _ANGLE_DIRECTION),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_rotated_frame(self, n_t, direction, seed):
        rng = np.random.default_rng(seed)
        rho = rng.uniform(0.5, 2.0) * _rand_density(rng, n_t)
        provider, frame = state_tomogram_provider(rho), QuadratureFrame(n_t)
        mu, nu = direction
        for m, n in ((mu, nu), (-mu, -nu)):  # a point and its mirror
            tom, ref = provider(m, n), rotated_frame_tomogram(frame, rho, m, n)
            assert np.array_equal(tom.x, ref.x)
            assert np.abs(tom.p - ref.p).max() <= 1e-14 * np.trace(rho).real


class TestSymplecticReconstruction:
    def test_vacuum(self):
        n_t = 32
        rho = np.zeros((n_t, n_t), dtype=complex)
        rho[0, 0] = 1.0
        rec = symplectic_reconstruct(n_t, state_tomogram_provider(rho), 6.0, 0.1)
        errs = rec.errors_against(rho)
        assert rec.reliable_dim == 12
        assert errs["frobenius_error"] < 1e-3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_report_schema(self):
        n_t = 8
        rho = np.eye(n_t, dtype=complex) / n_t
        rec = symplectic_reconstruct(n_t, state_tomogram_provider(rho), 3.0, 0.5)
        rep = rec.report(rho, seed=0)
        for key in ("schema", "scheme", "grid", "N_t", "frobenius_error", "trace_error", "seed"):
            assert key in rep

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_default_lattice_is_symmetric_and_holds_origin(self):
        # every tomogram serves its own point and the mirror point, so the
        # provider is asked for half the 121^2 lattice plus the trace
        seen = []
        inner = state_tomogram_provider(np.eye(2, dtype=complex) / 2)

        def provider(mu, nu):
            seen.append((mu, nu))
            return inner(mu, nu)

        provider.frame = inner.frame
        rec = symplectic_reconstruct(2, provider)
        assert rec.grid["points"] == 121**2 and len(seen) == 7321
        # the origin is served by the exact chi(0, 0) = Tr branch
        assert (0.0, 0.0) not in seen and (0.1 * 1e-9, 0.0) in seen
        points = set(seen) - {(0.1 * 1e-9, 0.0)}
        mirrors = {(-mu, -nu) for mu, nu in points}
        assert not points & mirrors
        grid = 0.1 * np.arange(-60, 61)
        assert points | mirrors | {(0.0, 0.0)} == {(mu, nu) for mu in grid for nu in grid}

    @pytest.mark.parametrize(
        "limit,step", [(6.0, 0.0), (0.0, 0.1), (6.0, -0.1), (np.inf, 0.1), (6.0, np.nan)]
    )
    def test_degenerate_lattice_refused(self, limit, step):
        with pytest.raises(ValueError, match="must be positive and finite"):
            symplectic_reconstruct(2, state_tomogram_provider(np.eye(2) / 2), limit, step)

    def test_provider_frame_of_another_size_refused(self):
        # the assembly reuses the provider's frame, so its N_t must be the reconstruction's
        with pytest.raises(ValueError, match="frame has 6 levels, not n_trunc=8"):
            symplectic_reconstruct(8, state_tomogram_provider(np.eye(6) / 6), 1.0, 0.5)

    @pytest.mark.parametrize(
        "limit,step,points",
        [(6.0, 1e-3, "144,024,001"), (6.0, 6.0 / 512, "1,050,625"), (1e308, 1e-3, "inf"),
         (6.0, 5e-324, "inf")],
    )
    def test_lattice_refused_by_its_point_count(self, limit, step, points):
        def provider(mu, nu):
            raise AssertionError("the provider is called before the refusal")

        match = f"grid of {points} points exceeds"
        with pytest.raises(InfeasibleError, match=match):
            symplectic_reconstruct(8, provider, limit, step)
        with pytest.raises(InfeasibleError, match=match):
            quasi_symbol_from_tomograms(8, provider, 1.0, 0.0, limit, step)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_row_blocks_equal_one_block(self, monkeypatch):
        provider = state_tomogram_provider(_rand_density(np.random.default_rng(13), 10))
        whole = symplectic_reconstruct(10, provider, 2.0, 0.5).operator
        # 301 entries make blocks of 3 rows of A at N_t = 10, the last one a single row
        monkeypatch.setattr(tomography, "_ROTATION_BLOCK", 3 * 100 + 1)
        blocked = symplectic_reconstruct(10, provider, 2.0, 0.5).operator
        assert np.abs(blocked - whole).max() <= 1e-15

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_assembly_memory_is_bounded_by_the_block(self):
        # gathering S[j - k] for all of A at once takes N_t^3 complex entries, 14 MB at N_t = 96
        n_t = 96
        provider = state_tomogram_provider(_rand_density(np.random.default_rng(14), n_t))
        rec, peak = traced_peak(symplectic_reconstruct, n_t, provider, 1.0, 0.5)
        assert np.isfinite(rec.operator).all()
        assert peak < 16 * n_t**3 / 2

    def test_point_limit_admits_the_documented_grids(self):
        # L 6 at step 0.1 and 0.05 (121^2 and 241^2 points) pass; 1025^2 does not
        assert 241**2 <= tomography.SYMPLECTIC_POINT_LIMIT < 1025**2


class TestHalfLattice:
    """symplectic_reconstruct reads half the lattice and equals the full-lattice sum."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["state", "complex weights"])
    @settings(max_examples=10, deadline=None)
    @given(n_t=st.integers(4, 12), limit=st.floats(2.0, 3.0), step=st.floats(0.25, 0.5),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_full_lattice(self, kind, n_t, limit, step, seed):
        rng = np.random.default_rng(seed)
        if kind == "state":
            A = _rand_density(rng, n_t)
            provider = state_tomogram_provider(A)
        else:  # a non-Hermitian operator: chi(-mu, -nu) is not conj chi(mu, nu)
            A = _rand_op(rng, n_t)
            provider = _complex_weight_provider(A)
        rec = symplectic_reconstruct(n_t, provider, limit, step)
        ref, tail = full_lattice_reconstruct(n_t, provider, limit, step)
        scale = np.abs(A).max()
        assert np.abs(rec.operator - ref).max() <= 1e-13 * scale
        assert rec.params["boundary_tail"] == pytest.approx(tail, rel=0, abs=1e-13 * scale)


class TestQuasiSymbol:
    def test_diagonal_of_position_operator(self):
        q = quadrature_operator(16, 1.0, 0.0)
        qs = symplectic_quasi_symbol(16, 1.0, 0.0, q)
        assert np.abs(np.diag(qs.matrix) - qs.x).max() < 1e-12

    def test_hermitian_for_hermitian_operator(self):
        rng = np.random.default_rng(13)
        A = _rand_density(rng, 12)
        qs = symplectic_quasi_symbol(12, 0.4, 0.9, A)
        assert np.abs(qs.matrix - qs.matrix.conj().T).max() < 1e-13

    def test_exact_reconstruction_from_full_symbol(self):
        rng = np.random.default_rng(14)
        A = _rand_op(rng, 10)
        qs = symplectic_quasi_symbol(10, 0.7, 0.7, A)
        _assert_diagonalises(qs, 10, 0.7, 0.7)
        back = qs.basis @ qs.matrix @ qs.basis.conj().T
        assert np.abs(back - A).max() < 1e-12

    def test_diagonal_equals_tomogram(self):
        rng = np.random.default_rng(15)
        rho = _rand_density(rng, 16)
        qs = symplectic_quasi_symbol(16, 0.2, -1.3, rho)
        tom = symplectic_tomogram(16, 0.2, -1.3, rho)
        assert np.abs(np.diag(qs.matrix).real - tom.p).max() < 1e-12


class TestIntertwining:
    def test_identity_point(self):
        K = intertwining_kernel(12, (0.0, 0.0, 0.0), 1.0, 0.0)
        assert np.abs(K.matrix - np.eye(12) / (2 * np.pi)).max() < 1e-14

    def test_adjoint_covariance(self):
        n_t = 10
        mu, nu = 0.6, -0.8
        xp = (0.4, 0.3, 0.7)
        K = intertwining_kernel(n_t, xp, mu, nu)
        _assert_diagonalises(K, n_t, mu, nu)
        # kernel of D_Sigma^dagger equals the conjugate transpose
        xs, Vp = np.linalg.eigh(quadrature_operator(n_t, xp[1], xp[2]))
        op_dag = ((Vp * np.exp(-1j * (xp[0] - xs))[None, :]) @ Vp.conj().T / (2 * np.pi))
        V = K.basis
        K_dag = V.conj().T @ op_dag @ V
        assert np.abs(K_dag - K.matrix.conj().T).max() < 1e-14

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_closing_identity_makes_one_eigendecomposition(self, monkeypatch):
        # the provider's quadrature frame serves the reconstruction and the eigenbasis
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(M.shape) or eigh(M))
        via = quasi_symbol_from_tomograms(8, state_tomogram_provider(np.eye(8) / 8),
                                          1.0, 0.0, 2.0, 0.5)
        assert calls == [(8, 8)]
        monkeypatch.undo()
        direct = symplectic_quasi_symbol(8, 1.0, 0.0, symplectic_reconstruct(
            8, state_tomogram_provider(np.eye(8) / 8), 2.0, 0.5).operator)
        assert all(np.array_equal(getattr(via, k), getattr(direct, k))
                   for k in ("x", "matrix", "basis"))

    def test_closing_identity_on_reliable_block(self):
        n_t = 24
        rho = np.zeros((n_t, n_t), dtype=complex)
        rho[0, 0] = 1.0
        mu, nu = 0.8, 0.6
        direct = symplectic_quasi_symbol(n_t, mu, nu, rho)
        via = quasi_symbol_from_tomograms(
            n_t, state_tomogram_provider(rho), mu, nu, 6.0, 0.1
        )
        r = max(1, int(0.375 * n_t))
        P = np.zeros((n_t, n_t))
        P[:r, :r] = np.eye(r)
        _assert_diagonalises(via, n_t, mu, nu)
        V = via.basis
        rec_op = V @ via.matrix @ V.conj().T
        lhs = V.conj().T @ (P @ rho @ P) @ V
        rhs = V.conj().T @ (P @ rec_op @ P) @ V
        assert np.linalg.norm(lhs - rhs) < 5e-3


class TestConvergenceWarning:
    def test_narrow_grid_warns_with_tail(self):
        rho = np.zeros((8, 8), dtype=complex)
        rho[0, 0] = 1.0
        with pytest.warns(RuntimeWarning, match="boundary"):
            rec = symplectic_reconstruct(8, state_tomogram_provider(rho), 2.0, 0.5)
        assert rec.params["boundary_tail"] > 1e-3

    def test_wide_grid_silent(self):
        # needs sqrt(2 N_t) comfortably above L: the truncated spectral
        # measure can only represent chi out to its own Nyquist radius
        import warnings as w

        rho = np.zeros((32, 32), dtype=complex)
        rho[0, 0] = 1.0
        with w.catch_warnings():
            w.simplefilter("error")
            rec = symplectic_reconstruct(32, state_tomogram_provider(rho), 6.0, 0.4)
        assert rec.params["boundary_tail"] < 1e-3


class TestTruncationArtifacts:
    def test_commutator_identity_holds_below_edge(self):
        # [a, a^dag] = 1 on all but the last diagonal entry of the truncation
        n_t = 12
        a = annihilation(n_t)
        comm = a @ a.conj().T - a.conj().T @ a
        diag = np.diag(comm).real
        assert np.abs(diag[:-1] - 1.0).max() < 1e-14
        assert abs(diag[-1] - (1.0 - n_t)) < 1e-13
        off = comm - np.diag(np.diag(comm))
        assert np.abs(off).max() == 0.0


class TestOffDiagonalReconstruction:
    def test_photon_reconstructs_coherent_state(self):
        # |alpha><alpha| has off-diagonal Fock structure, so this exercises
        # the P(n, -z) sign convention and the quantizer phases end to end
        n_t = 32
        alpha = 0.5 + 0.3j
        v = coherent_state_vector(n_t, alpha)
        rho = np.outer(v, v.conj())
        lat = disk_lattice(4.0, 0.2)
        tom = photon_tomogram(rho, lat, n_max=n_t)
        rec = photon_reconstruct(tom, s=-0.5)
        errs = rec.errors_against(rho)
        assert errs["frobenius_error"] < 5e-3, errs

    def test_symplectic_reconstructs_displaced_vacuum(self):
        n_t = 32
        rho0 = np.zeros((n_t, n_t), dtype=complex)
        rho0[0, 0] = 1.0
        D1 = displacement_operator(n_t, 1.0)
        rho = D1 @ rho0 @ D1.conj().T
        rec = symplectic_reconstruct(n_t, state_tomogram_provider(rho), 6.0, 0.1)
        errs = rec.errors_against(rho)
        assert errs["frobenius_error"] < 5e-3, errs


class TestTomogramNormalisation:
    @settings(max_examples=25, deadline=None)
    @given(two_j=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
    def test_spin_tomograms_are_probability_vectors(self, two_j, seed):
        rng = np.random.default_rng(seed)
        rho = _rand_density(rng, two_j + 1)
        g = EulerAngles(*rng.uniform(-2 * np.pi, 2 * np.pi, (3, 8)))
        probs = spin_tomogram(two_j / 2, g, rho)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12
        assert probs.min() > -1e-12

    @settings(max_examples=25, deadline=None)
    @given(levels=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_photon_columns_sum_to_trace(self, levels, seed):
        # |z| <= 2 keeps the displaced low levels far inside N_t = 64
        rng = np.random.default_rng(seed)
        rho = np.zeros((64, 64), dtype=complex)
        rho[:levels, :levels] = rng.uniform(0.5, 2.0) * _rand_density(rng, levels)
        tom = photon_tomogram(rho, disk_lattice(2.0, 0.4), n_max=64)
        assert np.abs(tom.table.sum(axis=0) - np.trace(rho).real).max() < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(n_t=st.integers(2, 40), direction=_DIRECTION, seed=st.integers(0, 2**32 - 1))
    def test_symplectic_weights_sum_to_trace(self, n_t, direction, seed):
        rng = np.random.default_rng(seed)
        rho = rng.uniform(0.5, 2.0) * _rand_density(rng, n_t)
        p = symplectic_tomogram(n_t, *direction, rho).p
        assert abs(p.sum() - np.trace(rho).real) < 1e-12
        assert p.min() > -1e-12
