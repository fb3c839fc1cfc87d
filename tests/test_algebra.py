import numpy as np
import pytest
from scipy.integrate import simpson

from groupoidal.algebra import (
    AlgebraMismatchError,
    convolve,
    d_realization_stack,
    delta,
    normalization_constant,
    operator_from_dict,
    random_function,
    trapezoid_weights,
    weighted_grid_convolve,
    weyl_units,
)
from groupoidal.groupoid import (
    NotTransitiveError,
    cyclic_group_table,
    disjoint_union,
    group_groupoid,
    pair_groupoid,
    transitive_groupoid,
)
from groupoidal.starproduct import (
    SpaceMismatchError,
    reconstruct,
    regular_reconstruct,
    regular_symbol,
    symbol,
    weyl_qdpair,
)
from groupoidal import algebra
from oracles import d_realization, grid_convolve, group_convolve, matrix_group_convolve


def _weyl_matrix(f: np.ndarray) -> np.ndarray:
    """sum f(i, k) E_ik of a pair-groupoid function, through the Weyl pair."""
    return reconstruct(weyl_qdpair(round(np.sqrt(len(f)))), f)


class TestFunctionArrays:
    def test_functions_are_complex_arrays(self):
        G = pair_groupoid(2)
        for f in (delta(G, 1), random_function(G, np.random.default_rng(0)),
                  convolve(G, np.arange(4.0), np.arange(4.0))):
            assert f.dtype == np.complex128 and f.shape == (4,)
        # real arrays are taken as they are: the pair-groupoid product is the matrix product
        want = np.arange(4.0).reshape(2, 2) @ np.arange(4.0).reshape(2, 2)
        assert np.array_equal(convolve(G, np.arange(4.0), np.arange(4.0)), want.reshape(-1))

    def test_wrong_length_refused(self):
        # a longer array would be read silently by the triple gather, so it is refused too
        G = pair_groupoid(2)
        for bad in (np.ones(3), np.ones(5), np.ones((2, 2))):
            with pytest.raises(AlgebraMismatchError):
                convolve(G, np.ones(4), bad)
            with pytest.raises(AlgebraMismatchError):
                convolve(G, bad, np.ones(4))


class TestConvolution:
    def test_pair_convolution_is_matrix_product(self):
        G = pair_groupoid(2)
        rng = np.random.default_rng(0)
        f1, f2 = random_function(G, rng), random_function(G, rng)
        got = _weyl_matrix(convolve(G, f1, f2))
        want = _weyl_matrix(f1) @ _weyl_matrix(f2)
        assert np.abs(got - want).max() < 1e-13

    def test_delta_convolution(self):
        G = pair_groupoid(3)
        for j in range(G.order):
            for k in range(G.order):
                out = convolve(G, delta(G, j), delta(G, k))
                prod = G.product(j, k)
                if prod is None:
                    assert np.all(out == 0)
                else:
                    assert np.array_equal(out, delta(G, prod))

    def test_group_convolution_oracle(self):
        # classical convolution on Z3 computed by an independent double loop
        table = cyclic_group_table(3)
        G = group_groupoid(table)
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal(3) + 1j * rng.standard_normal(3), rng.standard_normal(3)
        want = np.zeros(3, dtype=complex)
        for g in range(3):
            for g1 in range(3):
                g2 = np.nonzero(table[g1] == g)[0][0]
                want[g] += a[g1] * b[g2]
        got = convolve(G, a, b.astype(complex))
        assert np.abs(got - want).max() < 1e-14
        assert np.abs(group_convolve(a, b.astype(complex), table) - want).max() < 1e-14

    def test_associativity_and_bilinearity(self):
        for G in (pair_groupoid(3), transitive_groupoid(2, cyclic_group_table(2)),
                  disjoint_union([pair_groupoid(2), group_groupoid(cyclic_group_table(3))])):
            rng = np.random.default_rng(2)
            f, g, h = (random_function(G, rng) for _ in range(3))
            lhs = convolve(G, convolve(G, f, g), h)
            rhs = convolve(G, f, convolve(G, g, h))
            assert np.abs(lhs - rhs).max() < 1e-12
            lin = convolve(G, f + 2.0 * g, h)
            assert np.abs(lin - (convolve(G, f, h) + 2.0 * convolve(G, g, h))).max() < 1e-12

    def test_owner_mismatch_rejected(self):
        f = delta(pair_groupoid(2), 0)
        g = delta(pair_groupoid(3), 0)
        with pytest.raises(AlgebraMismatchError):
            convolve(pair_groupoid(2), f, g)

    def test_delta_basis_reconstructs(self):
        G = pair_groupoid(3)
        f = random_function(G, np.random.default_rng(3))
        acc = np.zeros(G.order, dtype=complex)
        for g in range(G.order):
            acc += f[g] * delta(G, g)
        assert np.array_equal(acc, f)

    def test_delta_associativity_exhaustive(self):
        # associativity on the full delta basis is exact 0/1 arithmetic
        for G in (pair_groupoid(3), transitive_groupoid(2, cyclic_group_table(2))):
            deltas = [delta(G, g) for g in range(G.order)]
            for a in range(G.order):
                for b in range(G.order):
                    ab = convolve(G, deltas[a], deltas[b])
                    for c in range(G.order):
                        lhs = convolve(G, ab, deltas[c])
                        rhs = convolve(G, deltas[a], convolve(G, deltas[b], deltas[c]))
                        assert np.array_equal(lhs, rhs)


class TestWeylUnits:
    def test_single_entry(self):
        E = weyl_units(3)
        for i in range(3):
            for k in range(3):
                M = np.zeros((3, 3))
                M[i, k] = 1
                assert np.array_equal(E[i * 3 + k], M)

    def test_product_rule(self):
        E = weyl_units(2)
        assert np.array_equal(E[1] @ E[2], E[0])       # E01 E10 = E00
        assert np.all(E[1] @ E[1] == 0)                # E01 E01 = 0

    def test_orthonormality(self):
        E = weyl_units(3)
        for a in range(9):
            for b in range(9):
                assert np.trace(E[a] @ E[b].conj().T) == (1.0 if a == b else 0.0)

    def test_completeness_of_diagonal(self):
        E = weyl_units(4)
        assert np.array_equal(sum(E[i * 4 + i] for i in range(4)), np.eye(4))


class TestPairRealization:
    def test_delta_realizes_to_unit(self):
        G = pair_groupoid(2)
        A = _weyl_matrix(delta(G, 1))  # element (0,1)
        assert np.array_equal(A, weyl_units(2)[1])

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_algebra_isomorphism(self, n):
        G = pair_groupoid(n)
        rng = np.random.default_rng(n)
        for _ in range(5):
            f1, f2 = random_function(G, rng), random_function(G, rng)
            lhs = _weyl_matrix(convolve(G, f1, f2))
            rhs = _weyl_matrix(f1) @ _weyl_matrix(f2)
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_exact_for_integer_functions(self):
        G = pair_groupoid(4)
        rng = np.random.default_rng(7)
        f1 = random_function(G, rng, integer=True)
        f2 = random_function(G, rng, integer=True)
        lhs = _weyl_matrix(convolve(G, f1, f2))
        rhs = _weyl_matrix(f1) @ _weyl_matrix(f2)
        assert np.array_equal(lhs, rhs)

    def test_unit_indicator_realizes_to_identity(self):
        G = pair_groupoid(3)
        vals = np.zeros(9, dtype=complex)
        for i in range(3):
            vals[i * 3 + i] = 1
        assert np.array_equal(_weyl_matrix(vals), np.eye(3))

    def test_round_trip_with_matrix(self):
        pair = weyl_qdpair(3)
        A = np.arange(9).reshape(3, 3).astype(complex)
        assert np.array_equal(symbol(pair, A), A.reshape(-1))
        assert np.array_equal(reconstruct(pair, symbol(pair, A)), A)

    def test_non_pair_owner_rejected(self):
        # a symbol of another pair's length is refused
        for other in (np.eye(9)[0], np.eye(3)[0], np.eye(4)[:2]):
            with pytest.raises(SpaceMismatchError):
                reconstruct(weyl_qdpair(2), other)


class TestDRealization:
    def test_products_follow_composition(self):
        for G in (pair_groupoid(2), transitive_groupoid(2, cyclic_group_table(2))):
            D = [d_realization(G, g) for g in range(G.order)]
            for j in range(G.order):
                for k in range(G.order):
                    prod = G.product(j, k)
                    got = D[j] @ D[k]
                    want = D[prod] if prod is not None else np.zeros_like(got)
                    assert np.array_equal(got, want)

    def test_regular_representation_of_group(self):
        G = group_groupoid(cyclic_group_table(2))
        assert np.array_equal(d_realization(G, 0), np.eye(2))
        assert np.array_equal(d_realization(G, 1), np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_unit_acts_as_partial_identity(self):
        G = transitive_groupoid(2, cyclic_group_table(2))
        for u in G.units:
            D = d_realization(G, u)
            for k in range(G.order):
                col = D[:, k]
                if G.target[k] == u:
                    want = np.zeros(G.order)
                    want[k] = 1.0
                    assert np.array_equal(col, want)
                else:
                    assert np.all(col == 0)

    def test_pair_trace_bookkeeping(self):
        # D-realization of pair(n) = n copies of the Weyl realization:
        # Tr D(gamma_(i,k)) = n * Tr E_ik
        n = 4
        G = pair_groupoid(n)
        E = weyl_units(n)
        for g in range(G.order):
            assert np.trace(d_realization(G, g)) == n * np.trace(E[g]).real


class TestNormalization:
    def test_pair_groupoid(self):
        for n in (2, 3, 5):
            info = normalization_constant(pair_groupoid(n))
            assert info.value == n == info.formula_value

    def test_group(self):
        for m in (2, 3, 4, 5):
            info = normalization_constant(group_groupoid(cyclic_group_table(m)))
            assert info.value == m == info.formula_value

    def test_mixed_transitive_brute_force_trace(self):
        # the working normalizer is the brute-force trace ord(G0) * ord(H);
        # the closed form ord(G0) + ord(H) - 1 differs here (4 vs 3)
        G = transitive_groupoid(2, cyclic_group_table(2))
        info = normalization_constant(G)
        traces = {np.trace(d_realization(G, g) @ d_realization(G, g).T) for g in range(G.order)}
        assert traces == {float(info.value)}
        assert info.value == 4
        assert info.formula_value == 3

    def test_trace_orthogonality(self):
        # includes an order-64 member (pair groupoid of 8 points)
        for G in (pair_groupoid(3), pair_groupoid(8),
                  transitive_groupoid(2, cyclic_group_table(2)),
                  transitive_groupoid(2, cyclic_group_table(4)),
                  group_groupoid(cyclic_group_table(4))):
            info = normalization_constant(G)
            D = np.stack([d_realization(G, g) for g in range(G.order)])
            gram = np.einsum("jab,kab->jk", D, D) / info.value
            assert np.array_equal(gram, np.eye(G.order))

    def test_nontransitive_rejected(self):
        with pytest.raises(NotTransitiveError):
            normalization_constant(disjoint_union([pair_groupoid(2), pair_groupoid(2)]))


class TestDQuantization:
    @pytest.mark.parametrize(
        "G", [pair_groupoid(3), transitive_groupoid(2, cyclic_group_table(2)),
              group_groupoid(cyclic_group_table(4))],
        ids=["pair3", "t2z2", "z4"],
    )
    def test_round_trip(self, G):
        rng = np.random.default_rng(5)
        f = random_function(G, rng)
        back = regular_symbol(G, regular_reconstruct(G, f))
        assert np.abs(back - f).max() < 1e-12

    def test_zero_operator(self):
        out = regular_symbol(pair_groupoid(2), np.zeros((4, 4)))
        assert np.all(out == 0)

    def test_delta_recovered_from_d_matrix(self):
        G = transitive_groupoid(2, cyclic_group_table(2))
        out = regular_symbol(G, d_realization(G, 3))
        assert np.array_equal(out, delta(G, 3))


_SCATTER_CORPUS = pytest.mark.parametrize(
    "G", [pair_groupoid(3), transitive_groupoid(2, cyclic_group_table(2)),
          group_groupoid(cyclic_group_table(4)),
          disjoint_union([pair_groupoid(2), group_groupoid(cyclic_group_table(3))])],
    ids=["pair3", "t2z2", "z4", "pair2+z3"],
)


class TestScatterRealization:
    """The scatter-built stack and (de)quantizers against d_realization."""

    @_SCATTER_CORPUS
    def test_stack_matches_per_element(self, G):
        D = d_realization_stack(G)
        for g in range(G.order):
            assert np.array_equal(D[g], d_realization(G, g))

    @_SCATTER_CORPUS
    def test_quantize_matches_sum(self, G):
        f = random_function(G, np.random.default_rng(G.order))
        want = sum(f[g] * d_realization(G, g) for g in range(G.order))
        assert np.array_equal(np.tensordot(f, d_realization_stack(G), 1), want)
        assert np.array_equal(regular_reconstruct(G, f), want)

    @_SCATTER_CORPUS
    def test_dequantize_matches_trace(self, G):
        # each element is normalized by its own trace Tr[D(g) D(g)^T], transitive or not
        rng = np.random.default_rng(G.order)
        A = rng.standard_normal((G.order,) * 2) + 1j * rng.standard_normal((G.order,) * 2)
        D = [d_realization(G, g) for g in range(G.order)]
        want = [np.trace(A @ d.T) / np.trace(d @ d.T) for d in D]
        assert np.abs(regular_symbol(G, A) - want).max() < 1e-12


class TestGridConvolution:
    def setup_method(self):
        self.x = np.linspace(-6, 6, 401)
        self.w = trapezoid_weights(self.x)

    def test_gaussian_kernel_vs_quadrature_oracle(self):
        # compared where the convolution integrand decays inside [-6, 6];
        # at the domain edge both rules approximate a truncated integral and
        # the comparison stops being about the convolution machinery
        X, Y = np.meshgrid(self.x, self.x, indexing="ij")
        f = np.exp(-((X - Y) ** 2))
        got = weighted_grid_convolve(f, f, self.w)
        inner = np.nonzero(np.abs(self.x) <= 2.8)[0]
        # independent oracle 1: Simpson quadrature per output entry
        for i in inner[:: len(inner) // 7]:
            for j in inner[:: len(inner) // 7]:
                integrand = f[i, :] * f[:, j]
                want = simpson(integrand, x=self.x)
                assert abs(got[i, j] - want) < 1e-8
        # independent oracle 2: closed form sqrt(pi/2) e^{-(x-y)^2/2}
        want = np.sqrt(np.pi / 2) * np.exp(-((X - Y) ** 2) / 2)
        sub = np.ix_(inner, inner)
        assert np.abs(got[sub] - want[sub]).max() < 1e-8

    def test_narrow_gaussian_is_approximate_identity(self):
        X, Y = np.meshgrid(self.x, self.x, indexing="ij")
        f = np.exp(-((X - Y) ** 2))
        eps = 0.05
        unit = np.exp(-((X - Y) ** 2) / eps**2) / (eps * np.sqrt(np.pi))
        got = weighted_grid_convolve(f, unit, self.w)
        inner = slice(30, -30)
        assert np.abs(got - f)[inner, inner].max() < 2e-3

    def test_associativity(self):
        rng = np.random.default_rng(0)
        X, Y = np.meshgrid(self.x, self.x, indexing="ij")
        f1 = np.exp(-((X - Y) ** 2))
        f2 = np.exp(-((X - Y) ** 2) / 2 + 0.1 * X - 0.1 * Y)
        f3 = np.exp(-(X**2) / 4 - (Y**2) / 4)
        lhs = weighted_grid_convolve(weighted_grid_convolve(f1, f2, self.w), f3, self.w)
        rhs = weighted_grid_convolve(f1, weighted_grid_convolve(f2, f3, self.w), self.w)
        assert np.abs(lhs - rhs).max() < 1e-8

    def test_density_weighted_form(self):
        x = np.linspace(-4, 4, 201)
        w = trapezoid_weights(x)
        rho = 1.0 + 0.3 * np.exp(-(x**2))
        X, Y = np.meshgrid(x, x, indexing="ij")
        f = np.exp(-((X - Y) ** 2))
        got = weighted_grid_convolve(f, f, w, density=rho)
        i, j = 70, 130
        integrand = f[i, :] * f[:, j] * rho**2
        want = rho[i] * rho[j] * simpson(integrand, x=x)
        assert abs(got[i, j] - want) < 1e-8

    @pytest.mark.parametrize("m,rows", [(200, 12), (512, None)],
                             ids=["12-row blocks", "default blocks"])
    def test_row_blocks_equal_one_block(self, monkeypatch, m, rows):
        # 200 rows in blocks of 12 end in a block of 8; 512 rows take 4 default blocks
        rng = np.random.default_rng(21)
        f1, f2 = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) for _ in "12")
        w, rho = trapezoid_weights(np.linspace(-5, 5, m)), 0.5 + rng.random(m)
        if rows is not None:
            monkeypatch.setattr(algebra, "_GRID_BLOCK", rows * m + 7)
        assert algebra._GRID_BLOCK < m * m
        blocked = [weighted_grid_convolve(f1, f2, w), weighted_grid_convolve(f1, f2, w, rho)]
        monkeypatch.setattr(algebra, "_GRID_BLOCK", m * m)
        whole = [weighted_grid_convolve(f1, f2, w), weighted_grid_convolve(f1, f2, w, rho)]
        assert all(np.array_equal(x, y) for x, y in zip(blocked, whole))
        # the density path keeps the whole-array rounding (rho_i rho_j) * core
        assert np.array_equal(blocked[1], grid_convolve(f1, f2, w, rho))
        assert np.array_equal(blocked[0], (f1 * w) @ f2)

    def test_rejects_bad_density(self):
        x = np.linspace(0, 1, 5)
        f = np.zeros((5, 5))
        with pytest.raises(ValueError):
            weighted_grid_convolve(f, f, trapezoid_weights(x), density=np.zeros(5))


# S3 as permutations of (0, 1, 2) in lexicographic order, S3[a][b] = a o b; it is
# non-abelian, so a swapped product order h h' -> h' h shows
S3 = np.array([
    [0, 1, 2, 3, 4, 5],
    [1, 0, 4, 5, 2, 3],
    [2, 3, 0, 1, 5, 4],
    [3, 2, 5, 4, 0, 1],
    [4, 5, 1, 0, 3, 2],
    [5, 4, 3, 2, 1, 0],
])


def _rand_entries(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestMatrixGroupConvolve:
    """C[T(n, H)] is M_n(C[H]): element (u, v, h) has id (u*n + v)*|H| + h."""

    def test_trivial_group_is_matrix_product(self):
        rng = np.random.default_rng(0)
        F1, F2 = _rand_entries(rng, (2, 3, 3))
        G = transitive_groupoid(3, np.array([[0]]))
        got = convolve(G, F1.reshape(-1), F2.reshape(-1))
        assert np.abs(got.reshape(3, 3) - F1 @ F2).max() < 1e-13

    def test_single_unit_is_group_convolution(self):
        rng = np.random.default_rng(1)
        G = group_groupoid(S3)
        a, b = _rand_entries(rng, (2, 6))
        got = convolve(G, a, b)
        assert np.abs(got - group_convolve(a, b, S3)).max() < 1e-13
        one_by_one = matrix_group_convolve(a[None, None], b[None, None], S3)[0, 0]
        assert np.abs(got - one_by_one).max() < 1e-13

    def test_matches_transitive_groupoid_convolution(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 3):
            G = transitive_groupoid(n, S3)
            F1, F2 = _rand_entries(rng, (2, n, n, 6))
            got = convolve(G, F1.reshape(-1), F2.reshape(-1)).reshape(n, n, 6)
            assert np.abs(got - matrix_group_convolve(F1, F2, S3)).max() < 1e-13
            # the transposed table multiplies h' h: it misses, so the order is tested
            assert np.abs(got - matrix_group_convolve(F1, F2, S3.T)).max() > 1


class TestSerialization:
    def test_operator_round_trip(self):
        A = np.array([[1 + 2j, 0.5], [-1j, 3.25]])
        data = {"dim": 2, "entries": [[1.0, 2.0], [0.5, 0.0], [0.0, -1.0], [3.25, 0.0]]}
        assert np.array_equal(operator_from_dict(data), A)
