import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidal import groupoid, starproduct
from groupoidal.algebra import convolve, random_function, weyl_units
from groupoidal.cli import _write_csv, main
from groupoidal.groupoid import (
    FiniteGroupoid,
    GroupoidStructureError,
    InfeasibleError,
    action_groupoid,
    cyclic_group_table,
    disjoint_union,
    group_groupoid,
    pair_groupoid,
    transitive_groupoid,
)
from groupoidal.realizations import (
    coherent_grid,
    coherent_pair,
    position_grid,
    position_qdpair,
    spin_block_pair,
    spin_weyl_pair,
    two_mode_weyl_pair,
)
from groupoidal.starproduct import (
    IndexSpace,
    QDPair,
    SpaceMismatchError,
    d_realization_kernel,
    duality_residual,
    kernel,
    nonboolean_margin,
    reconstruct,
    regular_reconstruct,
    regular_symbol,
    star,
    symbol,
    verify_gen_conv,
    verify_prop1,
    weyl_qdpair,
)
from oracles import (
    associativity_residual,
    d_realization,
    dense_duality_residual,
    dense_kernel,
    dense_reconstruct,
    dense_resolution_residual,
    dense_stacks,
    dense_symbol,
    gauss_legendre_grid,
    regular_stacks,
    resolution_residual,
    self_dual,
    stacked,
)


def _rand_op(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


class TestSymbolReconstruct:
    def test_weyl_unit_symbol_is_delta(self):
        pair = weyl_qdpair(2)
        f = symbol(pair, weyl_units(2)[1])  # E_01
        want = np.zeros(4)
        want[1] = 1
        assert np.array_equal(f, want)

    def test_zero_operator(self):
        pair = weyl_qdpair(3)
        assert np.all(symbol(pair, np.zeros((3, 3))) == 0)

    def test_fock_vacuum_projector(self):
        pair = weyl_qdpair(4)
        f = symbol(pair, np.diag([1.0, 0, 0, 0]).astype(complex))
        want = np.zeros(16)
        want[0] = 1
        assert np.array_equal(f, want)

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_round_trip(self, n):
        pair = weyl_qdpair(n)
        rng = np.random.default_rng(n)
        A = _rand_op(rng, n)
        back = reconstruct(pair, symbol(pair, A))
        assert np.abs(back - A).max() < 1e-12

    def test_zero_symbol(self):
        pair = weyl_qdpair(3)
        assert np.all(reconstruct(pair, np.zeros(9)) == 0)

    def test_coherent_round_trip_fails_with_reported_residual(self):
        pair = coherent_pair(coherent_grid(3, 0.6), 24)
        rng = np.random.default_rng(0)
        A = _rand_op(rng, 24)
        back = reconstruct(pair, symbol(pair, A))
        assert np.abs(back - A).max() > 1e-2
        assert resolution_residual(pair) > 0.1

    def test_space_mismatch(self):
        pair = weyl_qdpair(2)
        with pytest.raises(SpaceMismatchError):
            reconstruct(pair, symbol(weyl_qdpair(3), np.eye(3)))

    def test_symbol_side_identity_for_non_spanning_family(self):
        # zero duality residual gives the identity on symbols even when the
        # family does not span operator space (the regular realization)
        G = transitive_groupoid(2, cyclic_group_table(2))
        assert dense_duality_residual(*regular_stacks(G), np.ones(8)) == 0.0
        rng = np.random.default_rng(3)
        f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        back = regular_symbol(G, regular_reconstruct(G, f))
        assert np.abs(back - f).max() < 1e-12


class TestResiduals:
    def test_weyl_pairs_exact(self):
        for n in (2, 3, 5):
            pair = weyl_qdpair(n)
            assert duality_residual(pair) == 0.0
            assert resolution_residual(pair) == 0.0

    def test_regular_realization_duality(self):
        for G in (pair_groupoid(3), transitive_groupoid(2, cyclic_group_table(2))):
            assert dense_duality_residual(*regular_stacks(G), np.ones(G.order)) == 0.0

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
        K = stacked(kernel(weyl_qdpair(n)))
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
            K = stacked(kernel(weyl_qdpair(n)))
            ones = np.count_nonzero(K == 1.0)
            assert ones == n**3
            # one entry per composable triple of the pair groupoid
            assert ones == len(pair_groupoid(n).composable_triples())

    def test_fock_kernel_kronecker_structure(self):
        nt = 2
        K = stacked(kernel(weyl_qdpair(nt)))
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
        K = stacked(kernel(pair))
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

    @pytest.mark.parametrize("pair", [weyl_qdpair(8), spin_weyl_pair(2.5)], ids=["weyl8", "spin"])
    def test_kernel_equals_the_dense_oracle(self, pair):
        # the sizes above the hypothesis families: m = 64 (`equiv prop1 --n 8`) and 36
        assert np.array_equal(stacked(kernel(pair)), dense_kernel(*dense_stacks(pair)))

    @pytest.mark.parametrize("case", ["weyl", "coherent", "regular"])
    def test_each_slice_is_the_dense_oracle_slice(self, case):
        # the kernels yield fresh (m, m) x1 slices, bit for bit the dense oracle's
        # where its arithmetic is exact; a coherent Gram product rounds otherwise
        if case == "regular":
            G = transitive_groupoid(2, cyclic_group_table(3))
            D, _ = regular_stacks(G)
            got = list(d_realization_kernel(G))
            want = dense_kernel(D, D) / np.einsum("xab,xab->x", D, D)  # counts / N(g)
        else:
            pair = weyl_qdpair(4) if case == "weyl" else coherent_pair(coherent_grid(2, 0.5), 16)
            got, want = list(kernel(pair)), dense_kernel(*dense_stacks(pair))
        m = len(want)
        assert len(got) == m and all(k.shape == (m, m) for k in got)
        assert not any(np.shares_memory(got[0], k) for k in got[1:])
        for k, w in zip(got, want):
            if case == "coherent":
                assert np.abs(k - w).max() <= 1e-15
            else:
                assert np.array_equal(k, w)

    def test_kernel_keeps_the_left_to_right_gram_product(self):
        pair = coherent_pair(coherent_grid(2, 0.5), 16)
        a, b, c, d = pair.families
        bc = np.conj(b)
        want = (bc @ a.T)[:, :, None] * (bc @ d.T)[None, :, :] * (a @ np.conj(c).T)[:, None, :]
        assert np.array_equal(stacked(kernel(pair)), want)

    def test_nonboolean_margin_equals_the_whole_array_formula(self):
        perturbed = stacked(kernel(weyl_qdpair(3)))
        perturbed[8, 2, 7] = 0.7 - 0.1j  # in the last x1 slice
        for K in (stacked(kernel(coherent_pair(coherent_grid(2, 0.5), 16))), perturbed,
                  stacked(kernel(weyl_qdpair(3))), stacked(d_realization_kernel(pair_groupoid(3)))):
            assert nonboolean_margin(K) == float(np.minimum(np.abs(K), np.abs(K - 1.0)).max())
        assert nonboolean_margin(perturbed) == abs((0.7 - 0.1j) - 1.0)

    def test_materialization_limit(self):
        pair = coherent_pair(coherent_grid(3, 0.5), 8)  # m = 81 > 64
        with pytest.raises(InfeasibleError, match="materialization limit"):
            kernel(pair)


class TestSpaceCheck:
    def test_structurally_equal_spaces_combine(self):
        rng = np.random.default_rng(5)
        A, B = _rand_op(rng, 2), _rand_op(rng, 2)
        other = weyl_qdpair(2)
        f, g = symbol(other, A), symbol(other, B)
        got = star(weyl_qdpair(2), f, g)
        assert np.abs(got - star(other, f, g)).max() == 0.0
        assert np.abs(reconstruct(weyl_qdpair(2), got) - A @ B).max() < 1e-12

    def test_symbol_of_another_length_refused(self):
        pair = weyl_qdpair(2)
        f = symbol(pair, np.eye(2))
        for alien in (symbol(weyl_qdpair(3), np.eye(3)), f[:3], f.reshape(2, 2)):
            with pytest.raises(SpaceMismatchError):
                star(pair, f, alien)
            with pytest.raises(SpaceMismatchError):
                reconstruct(pair, alien)


class TestRankOnePair:
    def test_labels_weights_and_select_follow_the_flat_index(self):
        rng = np.random.default_rng(4)
        basis = ("a", ("a",), "a ", 1)  # distinct labels that look alike
        n = len(basis)
        vecs = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        w = np.array([0.5, 2.0, 3.0, 0.25])
        full = starproduct.rank_one_pair(vecs, basis, w)
        kets, bras = full.families[:2]  # D(x) = |v_i><v_k|
        for i in range(n):
            for k in range(n):
                x = i * n + k
                assert full.space.labels[x] == (basis[i], basis[k])
                assert all(u is v for u, v in zip(full.space.labels[x], (basis[i], basis[k])))
                assert full.space.weights[x] == w[i] * w[k]
                assert np.array_equal(kets[x], vecs[i]) and np.array_equal(bras[x], vecs[k])
        select = np.array([13, 2, 7, 0, 10])
        part = starproduct.rank_one_pair(vecs, basis, w, select)
        assert part.space.labels == tuple(full.space.labels[x] for x in select)
        assert np.array_equal(part.space.weights, full.space.weights[select])
        for got, want in zip(part.families, full.families):
            assert np.array_equal(got, want[select])
        for pair in (full, part):
            assert self_dual(pair)
            assert all(u is v for u, v in zip(pair.families[:2], pair.families[2:]))
            assert np.array_equal(*dense_stacks(pair))


class TestQDPairEquality:
    def test_equal_pairs_compare_structurally(self):
        pair = weyl_qdpair(2)
        assert pair == weyl_qdpair(2)
        assert not pair != weyl_qdpair(2)
        assert pair != weyl_qdpair(3)
        assert pair != spin_weyl_pair(0.5)  # same stacks, other labels
        assert pair != "weyl"

    def test_operators_and_space_are_compared(self):
        pair = weyl_qdpair(2)
        a, b, c, d = pair.families
        changed_ops = QDPair(pair.space, (a, b, 2 * c, d))
        reweighted = IndexSpace(pair.space.labels, 2 * pair.space.weights)
        changed_space = QDPair(reweighted, (a, b, a, b))
        same = QDPair(pair.space, (a.copy(), b.copy(), a, b))
        assert pair == same
        assert pair != changed_ops
        assert pair != changed_space

    def test_dense_operator_stacks_are_refused(self):
        # a pair stores only the four (m, d) vector stacks of a rank-one family
        pair = weyl_qdpair(2)
        D, U = dense_stacks(pair)
        for families in ((D, U), (D, D, U, U)):
            with pytest.raises(SpaceMismatchError):
                QDPair(pair.space, families)


class TestStar:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_star_equals_convolution_on_weyl(self, n):
        G = pair_groupoid(n)
        pair = weyl_qdpair(n)
        rng = np.random.default_rng(n)
        for _ in range(5):
            f1, f2 = random_function(G, rng), random_function(G, rng)
            got = star(pair, f1, f2)
            want = convolve(G, f1, f2)
            assert np.abs(got - want).max() < 1e-12

    def test_identity_symbol_is_neutral(self):
        pair = weyl_qdpair(3)
        rng = np.random.default_rng(0)
        ident = symbol(pair, np.eye(3, dtype=complex))
        g = symbol(pair, _rand_op(rng, 3))
        out = star(pair, ident, g)
        assert np.abs(out - g).max() < 1e-12

    def test_factored_star_matches_forced_kernel(self):
        pair = coherent_pair(coherent_grid(3, 0.5), 8)  # m = 81
        rng = np.random.default_rng(1)
        f = symbol(pair, _rand_op(rng, 8))
        g = symbol(pair, _rand_op(rng, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = star(pair, f, g)
        K = dense_kernel(*dense_stacks(pair))
        w = pair.space.weights
        want = np.einsum("a,b,abc->c", f * w, g * w, K)
        assert np.abs(got - want).max() < 1e-10


# every transitive groupoid T(u, Z_k) whose regular realization fits the
# dense-kernel limit, u^2 k <= 64
_TRANSITIVE_SHAPES = [(u, k) for k in range(1, 65) for u in range(1, 9) if u * u * k <= 64]
# one transitive shape, or a union of 2-3 transitive parts, of order <= 64
_GROUPOID_PARTS = st.one_of(
    st.sampled_from(_TRANSITIVE_SHAPES).map(lambda shape: [shape]),
    st.lists(st.tuples(st.integers(1, 3), st.integers(1, 7)), min_size=2, max_size=3)
    .filter(lambda parts: sum(u * u * k for u, k in parts) <= 64))


def _union(parts):
    return disjoint_union([transitive_groupoid(u, cyclic_group_table(k)) for u, k in parts])


class TestStarProperties:
    @settings(max_examples=25, deadline=None)
    @given(shape=st.sampled_from(_TRANSITIVE_SHAPES), seed=st.integers(0, 2**32 - 1))
    def test_star_is_convolution_and_associative(self, shape, seed):
        G = transitive_groupoid(shape[0], cyclic_group_table(shape[1]))

        def star_(f1, f2):
            return regular_symbol(G, regular_reconstruct(G, f1) @ regular_reconstruct(G, f2))

        rng = np.random.default_rng(seed)
        f, g, h = (random_function(G, rng) for _ in range(3))
        fg = star_(f, g)
        assert np.abs(fg - convolve(G, f, g)).max() < 1e-12
        lhs = star_(fg, h)
        rhs = star_(f, star_(g, h))
        # triple products reach |.| ~ 1e2 at order 64; compare relative to that
        assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(lhs).max())

    @settings(max_examples=25, deadline=None)
    @given(parts=_GROUPOID_PARTS, n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_star_is_convolution_exactly_on_gaussian_integers(self, parts, n, seed):
        # a symbol and a groupoid function are one array, so both sides compare as they are
        rng = np.random.default_rng(seed)
        G = _union(parts)
        f, g = (random_function(G, rng, integer=True) for _ in range(2))
        fg = regular_symbol(G, regular_reconstruct(G, f) @ regular_reconstruct(G, g))
        assert np.array_equal(fg, convolve(G, f, g))
        P = pair_groupoid(n)
        f, g = (random_function(P, rng, integer=True) for _ in range(2))
        assert np.array_equal(star(weyl_qdpair(n), f, g), convolve(P, f, g))


class TestDRealizationKernel:
    @settings(max_examples=12, deadline=None)
    @given(parts=_GROUPOID_PARTS)
    def test_kernel_is_the_exact_delta_and_matches_the_dense_oracle(self, parts):
        G = _union(parts)
        K = stacked(d_realization_kernel(G))
        delta = np.zeros_like(K)
        delta[tuple(G.composable_triples().T)] = 1.0
        assert np.array_equal(K, delta)  # 0/1 exactly, 1 exactly at the composable triples
        # against Tr[D1 D2 U^dagger] with U's rounded 1/N
        assert np.abs(dense_kernel(*regular_stacks(G)) - K).max() <= 1e-15

    def test_refuses_an_order_above_the_limit_before_building(self, monkeypatch):
        def unbuilt(G):
            raise AssertionError("stack built before the size check")

        monkeypatch.setattr(starproduct, "d_realization_stack", unbuilt)
        with pytest.raises(InfeasibleError, match="m=81 index points exceeds"):
            d_realization_kernel(pair_groupoid(9))


class TestRegularRealization:
    """The gather and scatter-add over composable triples against the dense stacks."""

    @settings(max_examples=20, deadline=None)
    @given(parts=_GROUPOID_PARTS, seed=st.integers(0, 2**32 - 1))
    def test_round_trip_is_exact_on_integers_and_matches_the_dense_stacks(self, parts, seed):
        G = _union(parts)
        rng = np.random.default_rng(seed)
        f = random_function(G, rng, integer=True)
        assert np.array_equal(regular_symbol(G, regular_reconstruct(G, f)), f)
        f = random_function(G, rng)
        A = regular_reconstruct(G, f)
        D, U = regular_stacks(G)
        assert np.array_equal(A, dense_reconstruct(D, np.ones(G.order), f))
        # both sides sum N(g) terms, so each may round by about N(g) ulps of f
        widths = np.einsum("xab,xab->x", D, D)
        dev = np.abs(regular_symbol(G, A) - dense_symbol(U, A))
        assert np.all(dev <= 1e-15 * widths * np.abs(f).max())

    def test_scatter_adds_elements_that_send_k_to_the_same_i(self):
        # Z2 with a o a = a: e o a = a o a = a, so D(e) and D(a) both hold (a, a)
        G = FiniteGroupoid.from_dict({"order": 2, "units": [0], "source": [0, 0],
                                      "target": [0, 0], "inverse": [0, 1],
                                      "compose": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]]})
        f = np.array([2.0 + 1j, -3.0 + 0.5j])
        want = sum(f[g] * d_realization(G, g) for g in range(G.order))
        assert want[1, 1] == f[0] + f[1]
        assert np.array_equal(regular_reconstruct(G, f), want)

    def test_shapes_are_checked(self):
        G = pair_groupoid(2)
        with pytest.raises(SpaceMismatchError):
            regular_reconstruct(G, np.ones(3))
        with pytest.raises(SpaceMismatchError):
            regular_symbol(G, np.eye(3))


# every rank-one family, sized by k; the Weyl-unit ones have 0/1 factors
_RANK_ONE_FAMILIES = {
    "weyl": lambda k: weyl_qdpair(1 + k % 5),
    "spin": lambda k: spin_weyl_pair((k % 5) / 2),
    "fock": lambda k: weyl_qdpair(2 + k % 4),
    "two_mode": lambda k: two_mode_weyl_pair(2 + k % 2, 2 + k // 2 % 2),
    "spin_blocks": lambda k: spin_block_pair(((k % 3) / 2, 1 + k // 3 % 2 / 2)),
    "position": lambda k: position_qdpair(
        (position_grid, gauss_legendre_grid)[k // 4 % 2](-2, 2, 2 + k % 4)),
    "coherent": lambda k: coherent_pair(coherent_grid(1 + k % 3, 0.3 + 0.1 * (k % 5)),
                                        8 + 4 * (k // 5 % 4)),
}
_UNIT_FAMILIES = {"weyl", "spin", "fock", "two_mode", "spin_blocks"}


class TestRankOneMatchesDenseOracle:
    """Factored operations against the dense formulas on the materialized stacks."""

    @pytest.mark.parametrize("family", sorted(_RANK_ONE_FAMILIES))
    @settings(max_examples=12, deadline=None)
    @given(k=st.integers(0, 59), seed=st.integers(0, 2**32 - 1))
    def test_factored_equals_dense(self, family, k, seed):
        pair = _RANK_ONE_FAMILIES[family](k)
        (D, U), w = dense_stacks(pair), pair.space.weights
        rng = np.random.default_rng(seed)
        m, d = len(pair.space), pair.hilbert_dim
        A = _rand_op(rng, d)
        f, g = (rng.standard_normal(m) + 1j * rng.standard_normal(m) for _ in range(2))
        got = [symbol(pair, A), reconstruct(pair, f), star(pair, f, g),
               duality_residual(pair), resolution_residual(pair)]
        fg = dense_reconstruct(D, w, f) @ dense_reconstruct(D, w, g)
        want = [dense_symbol(U, A), dense_reconstruct(D, w, f), dense_symbol(U, fg),
                dense_duality_residual(D, U, w), dense_resolution_residual(D, U, w)]
        if m <= 64:
            got.append(stacked(kernel(pair)))
            want.append(dense_kernel(D, U))
        for x, y in zip(got, want):
            if family in _UNIT_FAMILIES:
                assert np.array_equal(x, y)
            else:
                assert np.abs(x - y).max() <= 1e-13 * max(1.0, np.abs(y).max())


class TestDualityResidualBlocks:
    @pytest.mark.parametrize("block", [1, 40])
    def test_row_blocks_give_the_same_residual(self, monkeypatch, block):
        # m = 9 with block 40 gives row blocks 0-3, 4-7 and a short last one,
        # which alone holds the defect |3 - 1| of the rescaled last dequantizer
        weyl = weyl_qdpair(3)
        a, b, c, d = weyl.families
        pairs = [QDPair(weyl.space, (a, b, np.vstack([c[:-1], 3 * c[-1:]]), d)),
                 coherent_pair(coherent_grid(2, 0.5), 12)]
        want = [duality_residual(p) for p in pairs]
        monkeypatch.setattr(groupoid, "BLOCK_ENTRIES", block)
        assert [duality_residual(p) for p in pairs] == want
        assert want[0] == 2.0 == dense_duality_residual(*dense_stacks(pairs[0]), np.ones(9))
        assert want[1] > 0.1

    def test_default_blocks_equal_one_block(self, monkeypatch):
        # the 625-point coherent pair of `equiv coherent`: 6 blocks of 104 rows and one of 1
        pair = coherent_pair(coherent_grid(5, 0.5), 64)
        assert groupoid.BLOCK_ENTRIES // 625 == 104
        blocked = duality_residual(pair)
        monkeypatch.setattr(groupoid, "BLOCK_ENTRIES", 625 * 625)
        assert duality_residual(pair) == blocked


class TestAssociativity:
    def test_weyl_exact(self):
        for n in (2, 3, 6):
            pair = weyl_qdpair(n)
            assert associativity_residual(stacked(kernel(pair)), pair.space.weights) == 0.0

    def test_d_realization_small(self):
        for G in (pair_groupoid(3), transitive_groupoid(2, cyclic_group_table(2))):
            assert associativity_residual(stacked(d_realization_kernel(G)),
                                          np.ones(G.order)) == 0.0

    def test_perturbed_kernel_fails(self):
        pair = weyl_qdpair(2)
        K = stacked(kernel(pair))
        K[0, 0, 0] += 0.5
        assert associativity_residual(K, pair.space.weights) >= 0.4


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
        K = stacked(kernel(weyl_qdpair(8)))
        assert rep.details["kernel_ones"] == 8**3 == np.count_nonzero(np.abs(K - 1.0) < 1e-14)

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
        rng = np.random.default_rng(21)
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        want = np.zeros(4, dtype=complex)
        for g1 in range(4):
            for g2 in range(4):
                want[table[g1, g2]] += a[g1] * b[g2]
        got = regular_symbol(G, regular_reconstruct(G, a) @ regular_reconstruct(G, b))
        assert np.abs(got - want).max() < 1e-12

    def test_genconv_mixed(self):
        rep = verify_gen_conv(transitive_groupoid(2, cyclic_group_table(2)))
        assert rep.passed
        assert rep.details["normalization"] == 4
        assert rep.max_dev < 1e-12

    @pytest.mark.parametrize("n_pairs", [0, -1])
    def test_genconv_needs_a_symbol_pair(self, n_pairs):
        # with no pair compared the report would be a vacuous PASS with max_dev 0.0
        with pytest.raises(ValueError, match="n_pairs >= 1"):
            verify_gen_conv(pair_groupoid(2), n_pairs=n_pairs)

    def test_genconv_checks_a_nontransitive_union(self):
        # N(g) is 2, 3 and 4 on the three orbits; U(g) = D(g)/N(g) makes K = delta exactly
        G = disjoint_union([pair_groupoid(2), group_groupoid(cyclic_group_table(3)),
                            transitive_groupoid(2, cyclic_group_table(2))])
        rep = verify_gen_conv(G)
        assert rep.passed and rep.details["kernel_vs_delta_dev"] == 0.0
        assert rep.details["normalization"] == [2, 3, 4]

    @pytest.mark.parametrize(
        "G",
        [pair_groupoid(6), group_groupoid(cyclic_group_table(7)),
         group_groupoid(cyclic_group_table(49)), transitive_groupoid(2, cyclic_group_table(3)),
         # Z2 swaps points 0 and 1 and fixes 2: two orbits, order 6
         action_groupoid(cyclic_group_table(2), lambda x, g: x ^ g if x < 2 else x, 3)],
        ids=["pair6", "z7", "z49", "t2z3", "action"],
    )
    def test_genconv_kernel_exact(self, G):
        # at N = 6, 7 and 49, N copies of the rounded 1/N do not sum to 1
        rep = verify_gen_conv(G, n_pairs=3)
        assert rep.passed and rep.kernel_is_boolean
        assert rep.details["kernel_vs_delta_dev"] == 0.0
        assert rep.max_dev < starproduct.STAR_CONVOLUTION_TOL

    def test_genconv_refuses_an_empty_row(self):
        data = pair_groupoid(3).to_dict()
        data["compose"] = [t for t in data["compose"] if t[0] != 1]
        with pytest.raises(GroupoidStructureError, match="element 1 composes with no element"):
            verify_gen_conv(FiniteGroupoid.from_dict(data))

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 4)), min_size=2, max_size=3)
           .filter(lambda parts: sum(u * u * k for u, k in parts) <= 32))
    def test_genconv_exact_on_unions_of_transitive_parts(self, parts):
        G = disjoint_union([transitive_groupoid(u, cyclic_group_table(k)) for u, k in parts])
        rep = verify_gen_conv(G, n_pairs=5)
        assert rep.details["kernel_vs_delta_dev"] == 0.0
        assert rep.max_dev < starproduct.STAR_CONVOLUTION_TOL and rep.passed

    def test_seed_reproducibility(self):
        a = verify_prop1(4, n_pairs=20, seed=11)
        b = verify_prop1(4, n_pairs=20, seed=11)
        assert a.max_dev == b.max_dev and a.frobenius_dev == b.frobenius_dev


class TestKernelExport:
    """Kernel arrays through the CLI's CSV writer, in the columns ``kernel`` writes."""

    @staticmethod
    def _export(K, path):
        m = len(K)
        _write_csv(path, ["x1", "x2", "x", "re", "im"], np.indices((m, m)),
                   [np.tile(np.arange(m), m * m), K.real, K.imag])

    def test_csv_rows(self, tmp_path):
        path = tmp_path / "k.csv"
        self._export(stacked(kernel(weyl_qdpair(2))), path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 4**3  # header + m^3 rows for m = 4 index points
        assert lines[0] == "x1,x2,x,re,im"

    @pytest.mark.parametrize("selector,m", [(["--weyl", "5"], 25), (["--pair", "5"], 25),
                                            (["--group", "Z17"], 17)],
                             ids=["weyl5", "pair5", "z17"])
    def test_size_limit(self, tmp_path, monkeypatch, capsys, selector, m):
        # refused before any kernel is built, naming the selector
        def unbuilt(*args):
            raise AssertionError("kernel built before the size check")

        monkeypatch.setattr(starproduct, "kernel", unbuilt)
        monkeypatch.setattr(starproduct, "d_realization_kernel", unbuilt)
        assert main(["kernel", *selector, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            f"infeasible parameters: {' '.join(selector)}: kernel CSV export is limited to "
            f"m <= 16 index points (m = {m})\n")
        assert not list(tmp_path.iterdir())

    def test_exact_text_of_two_point_kernel(self, tmp_path):
        # K(x1, x2, x) = a_x2 conj(a_x) a_x1 for a = (1, 0.5i); every float is repr'd
        a = np.array([[1.0], [0.5j]])
        ones = np.ones((2, 1))
        pair = QDPair(IndexSpace(("a", "b"), np.ones(2)), (a, ones, a, ones))
        path = tmp_path / "k.csv"
        self._export(stacked(kernel(pair)), path)
        rows = ["x1,x2,x,re,im", "0,0,0,1.0,0.0", "0,0,1,0.0,-0.5", "0,1,0,0.0,0.5",
                "0,1,1,0.25,0.0", "1,0,0,0.0,0.5", "1,0,1,0.25,0.0", "1,1,0,-0.25,0.0",
                "1,1,1,0.0,0.125"]
        assert path.read_bytes() == "".join(r + "\r\n" for r in rows).encode()


class TestValidation:
    def test_index_space_needs_positive_weights(self):
        with pytest.raises(ValueError):
            IndexSpace(("a",), np.array([0.0]))

    def test_qdpair_shape(self):
        sp = IndexSpace(("a",), np.ones(1))
        with pytest.raises(SpaceMismatchError):
            QDPair(sp, (np.zeros((2, 2, 2)), np.zeros((1, 2, 2))))

    def test_self_dual_flag(self):
        pair = weyl_qdpair(2)
        assert self_dual(pair)
        a, b, _, _ = pair.families
        other = QDPair(pair.space, (a, b, a, 2 * b))
        assert not self_dual(other)


class TestBracketTransport:
    def test_commutator_symbol_is_star_commutator(self):
        # the operator bracket transports through symbols: for orthonormal
        # pairs, star(f, g) - star(g, f) is the symbol of [A, B]
        pair = weyl_qdpair(3)
        rng = np.random.default_rng(17)
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        fa, fb = symbol(pair, A), symbol(pair, B)
        lhs = star(pair, fa, fb) - star(pair, fb, fa)
        rhs = symbol(pair, A @ B - B @ A)
        assert np.abs(lhs - rhs).max() < 1e-12
