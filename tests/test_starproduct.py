import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidal.algebra import convolve, random_function, weyl_units
from groupoidal.groupoid import (
    cyclic_group_table,
    group_groupoid,
    pair_groupoid,
    transitive_groupoid,
)
from groupoidal.realizations import coherent_grid, coherent_pair, fock_weyl_pair, spin_weyl_pair
from groupoidal.starproduct import (
    IndexSpace,
    Kernel3,
    QDPair,
    SpaceMismatchError,
    Symbol,
    associativity_residual,
    d_realization_qdpair,
    duality_residual,
    export_kernel_csv,
    kernel,
    reconstruct,
    resolution_residual,
    star,
    symbol,
    verify_gen_conv,
    verify_prop1,
    weyl_qdpair,
)


def _rand_op(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


class TestSymbolReconstruct:
    def test_weyl_unit_symbol_is_delta(self):
        pair = weyl_qdpair(2)
        f = symbol(pair, weyl_units(2)[1])  # E_01
        want = np.zeros(4)
        want[1] = 1
        assert np.array_equal(f.values, want)

    def test_zero_operator(self):
        pair = weyl_qdpair(3)
        assert np.all(symbol(pair, np.zeros((3, 3))).values == 0)

    def test_fock_vacuum_projector(self):
        pair = fock_weyl_pair(4)
        f = symbol(pair, np.diag([1.0, 0, 0, 0]).astype(complex))
        want = np.zeros(16)
        want[0] = 1
        assert np.array_equal(f.values, want)

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_round_trip(self, n):
        pair = weyl_qdpair(n)
        rng = np.random.default_rng(n)
        A = _rand_op(rng, n)
        back = reconstruct(pair, symbol(pair, A))
        assert np.abs(back - A).max() < 1e-12

    def test_zero_symbol(self):
        pair = weyl_qdpair(3)
        f = Symbol(pair.space, np.zeros(9))
        assert np.all(reconstruct(pair, f) == 0)

    def test_coherent_round_trip_fails_with_reported_residual(self):
        pair = coherent_pair(coherent_grid(3, 0.6), 24)
        rng = np.random.default_rng(0)
        A = _rand_op(rng, 24)
        back = reconstruct(pair, symbol(pair, A))
        assert np.abs(back - A).max() > 1e-2
        assert resolution_residual(pair) > 0.1

    def test_space_mismatch(self):
        pair = weyl_qdpair(2)
        other = weyl_qdpair(3)
        with pytest.raises(SpaceMismatchError):
            reconstruct(pair, Symbol(other.space, np.zeros(9)))

    def test_symbol_side_identity_for_non_spanning_pair(self):
        # zero duality residual gives the identity on symbols even when the
        # family does not span operator space (regular-realization pairs)
        G = transitive_groupoid(2, cyclic_group_table(2))
        pair = d_realization_qdpair(G)
        assert duality_residual(pair) == 0.0
        rng = np.random.default_rng(3)
        f = Symbol(pair.space, rng.standard_normal(8) + 1j * rng.standard_normal(8))
        back = symbol(pair, reconstruct(pair, f))
        assert np.abs(back.values - f.values).max() < 1e-12


class TestResiduals:
    def test_weyl_pairs_exact(self):
        for n in (2, 3, 5):
            pair = weyl_qdpair(n)
            assert duality_residual(pair) == 0.0
            assert resolution_residual(pair) == 0.0

    def test_d_realization_pair_duality(self):
        for G in (pair_groupoid(3), transitive_groupoid(2, cyclic_group_table(2))):
            assert duality_residual(d_realization_qdpair(G)) == 0.0

    def test_coherent_residual_large_and_bounded_below(self):
        grid = coherent_grid(5, 0.5)
        pair = coherent_pair(grid, 64)
        res = duality_residual(pair)
        assert res > 0.1
        # the worst overlap beats |<0|z=1>|^2 = e^-1 ~ 0.3679
        assert res >= np.exp(-1)

    def test_resolution_residual_decreases_with_refinement(self):
        # refinement = densifying while extending toward the plane integral
        # (within the truncation reliability region); the residual stays
        # strictly positive and decreases monotonically along the sequence
        vals = []
        for size, spacing in [(3, 0.7), (5, 0.5), (9, 0.3)]:
            pair = coherent_pair(coherent_grid(size, spacing), 12)
            vals.append(resolution_residual(pair))
        assert all(v > 0 for v in vals)
        assert vals[0] > vals[1] > vals[2]


class TestKernel:
    def test_weyl_kernel_delta_structure(self):
        n = 3
        K = kernel(weyl_qdpair(n)).values
        for a in range(n * n):
            i, k = divmod(a, n)
            for b in range(n * n):
                j, l = divmod(b, n)
                for c in range(n * n):
                    m, nn = divmod(c, n)
                    want = 1.0 if (k == j and i == m and l == nn) else 0.0
                    assert K[a, b, c] == want

    def test_weyl_kernel_one_count(self):
        for n in (2, 3, 4):
            K = kernel(weyl_qdpair(n)).values
            ones = np.count_nonzero(K == 1.0)
            assert ones == n**3
            # one entry per composable triple of the pair groupoid
            assert ones == len(pair_groupoid(n).composable_triples())

    def test_fock_kernel_kronecker_structure(self):
        nt = 2
        K = kernel(fock_weyl_pair(nt)).values
        for a in range(4):
            n1, m1 = divmod(a, nt)
            for b in range(4):
                n2, m2 = divmod(b, nt)
                for c in range(4):
                    n, m = divmod(c, nt)
                    want = 1.0 if (n == n1 and m1 == n2 and m2 == m) else 0.0
                    assert K[a, b, c] == want

    def test_coherent_kernel_matches_overlaps(self):
        from groupoidal.realizations import coherent_overlap

        grid = coherent_grid(2, 0.5)
        pair = coherent_pair(grid, 48)
        K = kernel(pair).values
        z = grid.z_points
        m = len(z)
        labels = [(a, b) for a in range(m) for b in range(m)]
        for ia, (z1, w1) in enumerate(labels):
            for ib, (z2, w2) in enumerate(labels):
                for ic, (zz, ww) in enumerate(labels):
                    want = (
                        coherent_overlap(z[zz], z[z1])
                        * coherent_overlap(z[w1], z[z2])
                        * coherent_overlap(z[w2], z[ww])
                    )
                    assert abs(K[ia, ib, ic] - want) < 1e-12

    def test_materialization_limit(self):
        pair = coherent_pair(coherent_grid(3, 0.5), 8)  # m = 81 > 64
        with pytest.raises(SpaceMismatchError):
            kernel(pair)
        assert kernel(pair, force=True).values.shape == (81, 81, 81)


class TestSpaceCheck:
    def test_structurally_equal_spaces_combine(self):
        rng = np.random.default_rng(5)
        A, B = _rand_op(rng, 2), _rand_op(rng, 2)
        other = weyl_qdpair(2)
        f, g = symbol(other, A), symbol(other, B)
        got = star(weyl_qdpair(2), f, g)
        assert np.abs(got.values - star(other, f, g).values).max() == 0.0
        assert np.abs(reconstruct(weyl_qdpair(2), got) - A @ B).max() < 1e-12

    def test_other_space_of_equal_size_refused(self):
        pair = weyl_qdpair(2)
        f = symbol(pair, np.eye(2))
        reweighted = Symbol(IndexSpace(pair.space.labels, 2 * pair.space.weights), f.values)
        for alien in (symbol(spin_weyl_pair(0.5), np.eye(2)), reweighted):
            with pytest.raises(SpaceMismatchError):
                star(pair, f, alien)
            with pytest.raises(SpaceMismatchError):
                reconstruct(pair, alien)


class TestStar:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_star_equals_convolution_on_weyl(self, n):
        G = pair_groupoid(n)
        pair = weyl_qdpair(n)
        rng = np.random.default_rng(n)
        for _ in range(5):
            f1, f2 = random_function(G, rng), random_function(G, rng)
            got = star(pair, Symbol(pair.space, f1.values), Symbol(pair.space, f2.values))
            want = convolve(f1, f2).values
            assert np.abs(got.values - want).max() < 1e-12

    def test_identity_symbol_is_neutral(self):
        pair = weyl_qdpair(3)
        rng = np.random.default_rng(0)
        ident = symbol(pair, np.eye(3, dtype=complex))
        g = symbol(pair, _rand_op(rng, 3))
        out = star(pair, ident, g)
        assert np.abs(out.values - g.values).max() < 1e-12

    def test_factored_star_matches_forced_kernel(self):
        pair = coherent_pair(coherent_grid(3, 0.5), 8)  # m = 81
        rng = np.random.default_rng(1)
        f = symbol(pair, _rand_op(rng, 8))
        g = symbol(pair, _rand_op(rng, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = star(pair, f, g)
        K = kernel(pair, force=True)
        w = pair.space.weights
        want = np.einsum("a,b,abc->c", f.values * w, g.values * w, K.values)
        assert np.abs(got.values - want).max() < 1e-10


# every transitive groupoid T(u, Z_k) whose regular realization fits the
# dense-kernel limit, u^2 k <= 64
_TRANSITIVE_SHAPES = [(u, k) for k in range(1, 65) for u in range(1, 9) if u * u * k <= 64]


class TestStarProperties:
    @settings(max_examples=25, deadline=None)
    @given(shape=st.sampled_from(_TRANSITIVE_SHAPES), seed=st.integers(0, 2**32 - 1))
    def test_star_is_convolution_and_associative(self, shape, seed):
        G = transitive_groupoid(shape[0], cyclic_group_table(shape[1]))
        pair = d_realization_qdpair(G)
        rng = np.random.default_rng(seed)
        f, g, h = (random_function(G, rng) for _ in range(3))
        sf, sg, sh = (Symbol(pair.space, x.values) for x in (f, g, h))
        fg = star(pair, sf, sg)
        assert np.abs(fg.values - convolve(f, g).values).max() < 1e-12
        lhs = star(pair, fg, sh).values
        rhs = star(pair, sf, star(pair, sg, sh)).values
        # triple products reach |.| ~ 1e2 at order 64; compare relative to that
        assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(lhs).max())


class TestAssociativity:
    def test_weyl_exact(self):
        for n in (2, 3, 6):
            assert associativity_residual(weyl_qdpair(n)) == 0.0

    def test_d_realization_small(self):
        for G in (pair_groupoid(3), transitive_groupoid(2, cyclic_group_table(2))):
            assert associativity_residual(d_realization_qdpair(G)) < 1e-12

    def test_perturbed_kernel_fails(self):
        pair = weyl_qdpair(2)
        K = kernel(pair).values.copy()
        K[0, 0, 0] += 0.5
        w = pair.space.weights
        lhs = np.einsum("aby,y,ycd->abcd", K, w, K)
        rhs = np.einsum("bcy,y,ayd->abcd", K, w, K)
        assert np.abs(lhs - rhs).max() >= 0.4


class TestEquivalenceReports:
    def test_prop1_exact_small(self):
        rep = verify_prop1(2, n_pairs=50)
        assert rep.passed and rep.kernel_is_boolean
        assert rep.details["integer_max_dev"] == 0.0

    def test_prop1_trivial(self):
        rep = verify_prop1(1, n_pairs=10)
        assert rep.passed and rep.max_dev < 1e-14

    def test_prop1_n8(self):
        rep = verify_prop1(8, n_pairs=100, seed=3)
        assert rep.passed and rep.max_dev < 1e-12
        assert rep.details["kernel_ones"] == 8**3

    def test_genconv_pair3(self):
        rep = verify_gen_conv(pair_groupoid(3))
        assert rep.passed
        assert rep.details["kernel_vs_delta_dev"] == 0.0

    def test_genconv_group_z4(self):
        rep = verify_gen_conv(group_groupoid(cyclic_group_table(4)))
        assert rep.passed
        assert rep.details["normalization"] == 4

    def test_genconv_star_matches_classical_group_convolution(self):
        # independent oracle: classical convolution on Z4 by double loop
        table = cyclic_group_table(4)
        G = group_groupoid(table)
        pair = d_realization_qdpair(G)
        rng = np.random.default_rng(21)
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        want = np.zeros(4, dtype=complex)
        for g1 in range(4):
            for g2 in range(4):
                want[table[g1, g2]] += a[g1] * b[g2]
        got = star(pair, Symbol(pair.space, a), Symbol(pair.space, b))
        assert np.abs(got.values - want).max() < 1e-12

    def test_genconv_mixed(self):
        rep = verify_gen_conv(transitive_groupoid(2, cyclic_group_table(2)))
        assert rep.passed
        assert rep.details["normalization"] == 4
        assert rep.max_dev < 1e-12

    def test_genconv_rejects_nontransitive(self):
        from groupoidal.groupoid import disjoint_union

        with pytest.raises(ValueError):
            verify_gen_conv(disjoint_union([pair_groupoid(2), pair_groupoid(2)]))

    def test_report_json_schema(self):
        import json

        rep = verify_prop1(2, n_pairs=5)
        data = json.loads(rep.to_json())
        for key in ("schema", "groupoid_order", "hilbert_dim", "max_dev",
                    "frobenius_dev", "kernel_is_boolean", "seed"):
            assert key in data

    def test_seed_reproducibility(self):
        a = verify_prop1(4, n_pairs=20, seed=11)
        b = verify_prop1(4, n_pairs=20, seed=11)
        assert a.max_dev == b.max_dev and a.frobenius_dev == b.frobenius_dev


class TestKernelExport:
    def test_csv_rows(self, tmp_path):
        pair = weyl_qdpair(2)
        path = tmp_path / "k.csv"
        export_kernel_csv(pair, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 4**3  # header + m^3 rows for m = 4 index points
        assert lines[0] == "x1,x2,x,re,im"

    def test_size_limit(self, tmp_path):
        with pytest.raises(ValueError):
            export_kernel_csv(weyl_qdpair(5), tmp_path / "k.csv")


class TestValidation:
    def test_index_space_needs_positive_weights(self):
        with pytest.raises(ValueError):
            IndexSpace(("a",), np.array([0.0]))

    def test_kernel3_shape(self):
        sp = IndexSpace(("a", "b"), np.ones(2))
        with pytest.raises(SpaceMismatchError):
            Kernel3(sp, np.zeros((2, 2)))

    def test_qdpair_shape(self):
        sp = IndexSpace(("a",), np.ones(1))
        with pytest.raises(SpaceMismatchError):
            QDPair(sp, np.zeros((2, 2, 2)), np.zeros((1, 2, 2)), 2)

    def test_self_dual_flag(self):
        pair = weyl_qdpair(2)
        assert pair.self_dual
        other = QDPair(pair.space, pair.quantizers, pair.quantizers * 2, 2)
        assert not other.self_dual


class TestBracketTransport:
    def test_commutator_symbol_is_star_commutator(self):
        # the operator bracket transports through symbols: for orthonormal
        # pairs, star(f, g) - star(g, f) is the symbol of [A, B]
        pair = weyl_qdpair(3)
        rng = np.random.default_rng(17)
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        fa, fb = symbol(pair, A), symbol(pair, B)
        lhs = star(pair, fa, fb).values - star(pair, fb, fa).values
        rhs = symbol(pair, A @ B - B @ A).values
        assert np.abs(lhs - rhs).max() < 1e-12
