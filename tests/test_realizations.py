import numpy as np
import pytest

from groupoidal.algebra import weighted_grid_convolve, weyl_units
from groupoidal import groupoid
from groupoidal.groupoid import InfeasibleError, disjoint_union, pair_groupoid
from groupoidal.realizations import (
    CoherentGrid,
    SpinSpace,
    annihilation,
    coherent_discrepancy_report,
    coherent_grid,
    coherent_overlap,
    coherent_pair,
    coherent_state_vector,
    disk_lattice,
    fock_to_position_symbol,
    hermite_functions,
    position_grid,
    position_qdpair,
    position_to_fock_symbol,
    spin_block_pair,
    spin_weyl_pair,
    two_mode_weyl_pair,
)
from groupoidal.starproduct import (
    duality_residual,
    star,
    symbol,
    weyl_qdpair,
)
from groupoidal.tomography import displacement_operator
from oracles import (
    dense_duality_residual,
    dense_stacks,
    gauss_legendre_grid,
    hermite_function,
    resolution_residual,
    self_dual,
    whole_grid_roundtrip,
)


def _rand_op(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


class TestSpinPair:
    def test_half_spin_equals_weyl_units(self):
        pair = spin_weyl_pair(0.5)
        assert pair.hilbert_dim == 2
        assert np.array_equal(dense_stacks(pair)[0], weyl_units(2))
        assert self_dual(pair)

    def test_symbol_is_matrix_element(self):
        pair = spin_weyl_pair(1.0)
        rng = np.random.default_rng(0)
        A = _rand_op(rng, 3)
        f = symbol(pair, A)
        for idx, (m, mp) in enumerate(pair.space.labels):
            assert abs(f[idx] - A[int(m + 1), int(mp + 1)]) < 1e-14

    def test_completeness(self):
        pair = spin_weyl_pair(1.5)
        D, _ = dense_stacks(pair)
        diag = sum(
            D[i]
            for i, (m, mp) in enumerate(pair.space.labels)
            if m == mp
        )
        assert np.array_equal(diag, np.eye(4))

    def test_residuals_vanish_for_any_j(self):
        for j in (0.5, 1.0, 2.5):
            pair = spin_weyl_pair(j)
            assert duality_residual(pair) == 0.0
            assert resolution_residual(pair) == 0.0

    def test_invalid_j(self):
        with pytest.raises(ValueError):
            SpinSpace(0.3)


class TestFockPair:
    def test_symbol_matrix_elements(self):
        pair = weyl_qdpair(5)
        rng = np.random.default_rng(1)
        A = _rand_op(rng, 5)
        f = symbol(pair, A)
        assert np.abs(f.reshape(5, 5) - A).max() < 1e-14

    def test_star_is_matrix_product(self):
        pair = weyl_qdpair(4)
        rng = np.random.default_rng(2)
        A, B = _rand_op(rng, 4), _rand_op(rng, 4)
        out = star(pair, symbol(pair, A), symbol(pair, B))
        assert np.abs(out.reshape(4, 4) - A @ B).max() < 1e-12

    def test_qubit_reduction(self):
        assert np.array_equal(dense_stacks(weyl_qdpair(2))[0], weyl_units(2))

    def test_truncated_ladder_elements(self):
        a = annihilation(8)
        for n in range(7):
            assert a[n, n + 1] == np.sqrt(n + 1)


class TestTwoModePair:
    def test_symbol_of_tensor_product_factorizes(self):
        pair = two_mode_weyl_pair(2, 3)
        rng = np.random.default_rng(3)
        A, B = _rand_op(rng, 2), _rand_op(rng, 3)
        f = symbol(pair, np.kron(A, B))
        for idx, ((n1, n2), (m1, m2)) in enumerate(pair.space.labels):
            assert abs(f[idx] - A[n1, m1] * B[n2, m2]) < 1e-13

    def test_star_is_composite_matrix_product(self):
        pair = two_mode_weyl_pair(2, 2)
        rng = np.random.default_rng(4)
        A, B = _rand_op(rng, 4), _rand_op(rng, 4)
        out = star(pair, symbol(pair, A), symbol(pair, B))
        assert np.abs(out.reshape(4, 4) - A @ B).max() < 1e-12

    def test_forbidden_products_vanish(self):
        pair = two_mode_weyl_pair(2, 2)
        ops, _ = dense_stacks(pair)
        labels = pair.space.labels
        for i, (a1, b1) in enumerate(labels):
            for j, (a2, b2) in enumerate(labels):
                prod = ops[i] @ ops[j]
                if b1 != a2:  # source of the first != target of the second
                    assert np.all(prod == 0)
                else:
                    assert np.abs(prod).max() == 1.0


class TestHermite:
    def test_ground_state_value(self):
        assert abs(hermite_function(0, 0.0) - np.pi**-0.25) < 1e-15
        # quadrature normalization oracle
        x, w = np.polynomial.legendre.leggauss(200)
        x, w = 8 * x, 8 * w
        assert abs(np.sum(w * hermite_function(0, x) ** 2) - 1.0) < 1e-12

    def test_orthonormality_gauss_hermite_oracle(self):
        x, w = np.polynomial.hermite.hermgauss(64)
        phi = hermite_functions(30, x)
        gram = (phi * (w * np.exp(x**2))) @ phi.T
        assert np.abs(gram - np.eye(31)).max() < 1e-10

    def test_odd_parity_at_zero(self):
        assert hermite_function(1, 0.0) == 0.0

    def test_parity(self):
        x = np.linspace(-5, 5, 101)
        phi = hermite_functions(12, x)
        for n in range(13):
            assert np.abs(phi[n] - (-1.0) ** n * phi[n][::-1]).max() < 1e-12

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            hermite_function(-1, 0.0)


class TestPositionBridge:
    def test_rank_one_symbol(self):
        grid = position_grid(-8, 8, 256)
        F = np.zeros((4, 4), dtype=complex)
        F[0, 0] = 1.0
        f = fock_to_position_symbol(F, grid).whole()
        phi0 = hermite_function(0, grid.points)
        assert np.abs(f - np.outer(phi0, phi0)).max() < 1e-14

    def test_round_trip(self):
        grid = position_grid(-8, 8, 512)
        rng = np.random.default_rng(5)
        F = _rand_op(rng, 16)
        F2 = position_to_fock_symbol(fock_to_position_symbol(F, grid), grid, 16)
        assert np.abs(F2 - F).max() < 1e-6

    def test_hermitian_kernel(self):
        grid = position_grid(-8, 8, 128)
        rng = np.random.default_rng(6)
        A = _rand_op(rng, 6)
        A = A + A.conj().T
        f = fock_to_position_symbol(A, grid).whole()
        assert np.abs(f - f.conj().T).max() < 1e-12

    def test_linearity_exact(self):
        grid = position_grid(-8, 8, 64)
        rng = np.random.default_rng(7)
        F, G = _rand_op(rng, 4), _rand_op(rng, 4)
        lhs = fock_to_position_symbol(2.0 * F + 3.0 * G, grid).whole()
        rhs = (2.0 * fock_to_position_symbol(F, grid).whole()
               + 3.0 * fock_to_position_symbol(G, grid).whole())
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_projector_recovered(self):
        grid = position_grid(-8, 8, 512)
        phi0 = hermite_function(0, grid.points)
        F = position_to_fock_symbol(np.outer(phi0, phi0).astype(complex), grid, 8)
        want = np.zeros((8, 8))
        want[0, 0] = 1.0
        assert np.abs(F - want).max() < 1e-8

    def test_star_matches_grid_convolution(self):
        # product of position symbols = discretized continuous matrix product
        grid = position_grid(-8, 8, 512)
        rng = np.random.default_rng(8)
        FA, FB = _rand_op(rng, 16), _rand_op(rng, 16)
        fa = fock_to_position_symbol(FA, grid)
        fb = fock_to_position_symbol(FB, grid)
        prod = weighted_grid_convolve(fa, fb, grid.weights)
        back = position_to_fock_symbol(prod, grid, 16)
        assert np.abs(back - FA @ FB).max() < 1e-6

    @pytest.mark.parametrize("n_t,points,rows", [(16, 512, None), (6, 200, 12)],
                             ids=["roundtrip run", "12-line tiles"])
    def test_tiles_match_the_whole_array_roundtrip(self, monkeypatch, n_t, points, rows):
        # the tiles hold no m x m array; 200 lines in bands of 12 end in a band of 8
        if rows is not None:
            monkeypatch.setattr(groupoid, "BLOCK_ENTRIES", rows * points + 7)
        grid = position_grid(-8, 8, points)
        rng = np.random.default_rng(n_t)
        F, G = _rand_op(rng, n_t), _rand_op(rng, n_t)
        f, g = fock_to_position_symbol(F, grid), fock_to_position_symbol(G, grid)
        got = [position_to_fock_symbol(f, grid, n_t),
               position_to_fock_symbol(weighted_grid_convolve(f, g, grid.weights), grid, n_t)]
        for x, y in zip(got, whole_grid_roundtrip(F, G, grid)):
            assert np.abs(x - y).max() <= 1e-14

    def test_support_error_with_suggestion(self):
        grid = position_grid(-4, 4, 128)
        with pytest.raises(InfeasibleError, match="b >="):
            position_to_fock_symbol(np.zeros((128, 128)), grid, 24)

    def test_small_position_pair_duality(self):
        pair = position_qdpair(position_grid(-2, 2, 5))
        assert duality_residual(pair) < 1e-12

    def test_gauss_legendre_rule(self):
        grid = gauss_legendre_grid(-8, 8, 96)
        rng = np.random.default_rng(9)
        F = _rand_op(rng, 8)
        F2 = position_to_fock_symbol(fock_to_position_symbol(F, grid), grid, 8)
        assert np.abs(F2 - F).max() < 1e-8


class TestCoherent:
    def test_overlap_normalization(self):
        for z in (0, 1.5, 2j, -1 + 1j):
            assert abs(coherent_overlap(z, z) - 1.0) < 1e-15

    def test_vacuum_one_overlap(self):
        assert abs(abs(coherent_overlap(0, 1)) ** 2 - np.exp(-1)) < 1e-15

    def test_overlap_matches_series(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            z, w = (rng.uniform(-2, 2, 2) @ np.array([1, 1j]) for _ in range(2))
            series = np.vdot(coherent_state_vector(64, w), coherent_state_vector(64, z))
            assert abs(coherent_overlap(w, z) - series) < 1e-10

    def test_series_matches_displacement_column(self):
        z = 0.8 - 0.6j
        col = displacement_operator(64, z)[:, 0]
        assert np.abs(col - coherent_state_vector(64, z)).max() < 1e-10

    def test_duality_residual_large(self):
        pair = coherent_pair(coherent_grid(5, 0.5), 64)
        assert duality_residual(pair) > 0.1

    def test_kernel_entry_at_origin(self):
        grid = CoherentGrid(np.array([0j]), 0.25)
        pair = coherent_pair(grid, 16)
        from groupoidal.starproduct import kernel

        (K,) = kernel(pair)  # one x1 slice
        assert abs(K[0, 0] - 1.0) < 1e-14  # <0|0>^3

    def test_reliability_region_enforced(self):
        with pytest.raises(InfeasibleError, match="truncated mass"):
            coherent_pair(coherent_grid(5, 2.0), 16)

    def test_discrepancy_report(self):
        rep = coherent_discrepancy_report(coherent_grid(5, 0.5), 64)
        assert rep["duality_residual"] > 0.1
        assert rep["star_vs_convolution_gap"] > 1e-2
        assert rep["kernel_nonboolean_margin"] >= 0.05
        assert rep["overlap_series_dev"] < 1e-10

    def test_gap_persists_under_refinement(self):
        gaps = [
            coherent_discrepancy_report(coherent_grid(5, 0.5), 32)["star_vs_convolution_gap"],
            coherent_discrepancy_report(coherent_grid(7, 0.35), 32)["star_vs_convolution_gap"],
        ]
        assert all(g > 1e-2 for g in gaps)

    def test_factored_duality_residual_matches_dense_oracle(self):
        pair = coherent_pair(coherent_grid(3, 0.6), 24)
        oracle = dense_duality_residual(*dense_stacks(pair), pair.space.weights)
        assert abs(duality_residual(pair) - oracle) < 1e-12

    def test_batched_vectors_equal_single_calls(self):
        z = np.concatenate([coherent_grid(5, 0.5).z_points, [0j, 1e-300, -2.5j]])
        batch = coherent_state_vector(40, z)
        assert batch.shape == (len(z), 40)
        assert np.array_equal(batch, np.stack([coherent_state_vector(40, zi) for zi in z]))
        assert np.array_equal(coherent_state_vector(40, z.reshape(4, 7)), batch.reshape(4, 7, 40))
        vac = coherent_state_vector(40, 0)
        assert vac.shape == (40,) and np.array_equal(vac, np.eye(40)[0])

    def test_disk_lattice(self):
        lat = disk_lattice(2.0, 0.5)
        assert np.all(np.abs(lat.z_points) <= 2.0 + 1e-12)
        assert lat.cell_area == 0.25

    @pytest.mark.parametrize("radius,spacing,points", [(4.0, 0.2, 1257), (3.0, 0.25, 441),
                                                       (2.0, 0.4, 81)])
    def test_disk_lattice_is_symmetric_with_exact_centre(self, radius, spacing, points):
        z = disk_lattice(radius, spacing).z_points
        assert len(z) == points
        assert 0j in z.tolist()
        assert np.array_equal(np.sort_complex(-z), np.sort_complex(z))


class TestSpinBlocks:
    def test_block_structure(self):
        pair = spin_block_pair((0.5, 1.0))
        assert pair.hilbert_dim == 5
        assert len(pair.space) == 4 + 9  # matches disjoint-union groupoid order
        G = disjoint_union([pair_groupoid(2), pair_groupoid(3)])
        assert len(pair.space) == G.order

    def test_cross_block_symbols_vanish(self):
        pair = spin_block_pair((0.5, 1.0))
        cross = np.zeros((5, 5), dtype=complex)
        cross[0, 3] = 1.0  # |1/2, -1/2><1, 0| lives across blocks
        f = symbol(pair, cross)
        assert np.all(f == 0)

    def test_block_diagonal_quantizers(self):
        pair = spin_block_pair((0.5, 1.0))
        for op in dense_stacks(pair)[0]:
            assert np.all(op[:2, 2:] == 0) and np.all(op[2:, :2] == 0)

    def test_residuals(self):
        pair = spin_block_pair((0.5, 1.0))
        assert duality_residual(pair) == 0.0
        # operators span only the block-diagonal subalgebra, never all of
        # End(H); the resolution residual counts the missing cross blocks
        assert resolution_residual(pair) > 0


class TestSelfDualStorage:
    @pytest.mark.parametrize(
        "pair",
        [spin_weyl_pair(1.0), spin_block_pair((0.5, 1.0)),
         coherent_pair(coherent_grid(3, 0.5), 16), position_qdpair(position_grid(-2, 2, 5))],
        ids=["rank_one", "blocks", "coherent", "position"],
    )
    def test_one_read_only_stack(self, pair):
        a, b, c, d = pair.families
        assert c is a and d is b
        assert self_dual(pair)
        for v in (a, b):
            with pytest.raises(ValueError):
                v[0, 0] = 1.0

    def test_coherent_pair_holds_no_operator_stack(self):
        pair = coherent_pair(coherent_grid(5, 0.5), 64)
        m, d = len(pair.space), pair.hilbert_dim
        held = [pair.space.weights]
        for v in (getattr(pair, name) for name in type(pair).__slots__):
            held += list(v) if isinstance(v, tuple) else [v]
        sizes = [v.size for v in held if isinstance(v, np.ndarray)]
        assert len(sizes) == 5 and max(sizes) == m * d < m * d * d


class TestGridSymbolExport:
    def test_csv_round_trip(self, tmp_path):
        # the symbol ``roundtrip --csv`` writes is f = fock_to_position_symbol(F)
        # for the run's first random F; x runs slowest, as in f[x, y]
        import csv as csvmod

        from groupoidal.cli import main

        argv = ["roundtrip", "--nt", "2", "--points", "24", "--xmax", "6", "--seed", "2"]
        assert main([*argv, "--out", str(tmp_path), "--csv", "sym.csv"]) == 0
        rng = np.random.default_rng(2)
        F = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        grid = position_grid(-6, 6, 24)
        f = fock_to_position_symbol(F, grid).whole()
        rows = list(csvmod.reader((tmp_path / "sym.csv").open()))
        assert rows[0] == ["x", "y", "re", "im"]
        assert len(rows) == 1 + 24**2
        xy = np.array([[float(r[0]), float(r[1])] for r in rows[1:]]).reshape(24, 24, 2)
        assert np.array_equal(xy[:, :, 0], np.repeat(grid.points[:, None], 24, axis=1))
        assert np.array_equal(xy[:, :, 1], np.repeat(grid.points[None, :], 24, axis=0))
        back = np.array([float(r[2]) + 1j * float(r[3]) for r in rows[1:]]).reshape(24, 24)
        assert np.array_equal(back, f)

    def test_exact_text_of_two_point_grid(self, tmp_path):
        from groupoidal.cli import _write_csv

        path = tmp_path / "sym.csv"
        f = np.array([[1 + 0.5j, -2.0], [0.25j, 1 / 3]])
        points = position_grid(-1.5, 1.5, 2).points
        _write_csv(path, ["x", "y", "re", "im"], [points], [np.tile(points, 2), f.real, f.imag])
        rows = ["x,y,re,im", "-1.5,-1.5,1.0,0.5", "-1.5,1.5,-2.0,0.0", "1.5,-1.5,0.0,0.25",
                "1.5,1.5,0.3333333333333333,0.0"]
        assert path.read_bytes() == "".join(r + "\r\n" for r in rows).encode()
