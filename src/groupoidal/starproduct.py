"""Quantizer-dequantizer pairs, operator symbols, and star products.

A ``QDPair`` carries two rank-one operator families over a weighted index
set: the quantizer D(x) = |a_x><b_x| used to rebuild operators from symbols
and the dequantizer U(x) = |c_x><d_x| used to take symbols
f_A(x) = Tr[A U(x)^dagger].  A symbol is a complex array of one value per
index point; the Weyl pair's flat index i*n + k is the pair groupoid's
element id, so its symbols are the groupoid functions of ``algebra``, and
the regular realization's symbols are indexed by element id too.  The pair
is stored as its vectors, so symbols, reconstructions, kernels and the
duality residual are Gram products.  The star product of symbols is the
image of the operator product, and ``star`` computes it as
symbol(reconstruct(f) @ reconstruct(g)) at every size.

The regular realization D(g)[i, k] = 1 iff g o k = i of a finite groupoid is
not rank-one.  Its composable triples (j, k, i) describe it whole:
``regular_reconstruct`` is a scatter-add over them and ``regular_symbol`` a
gather divided by the row widths N(g).

The kernel K(x1, x2, x) = Tr[D(x1) D(x2) U(x)^dagger] is formed only for
the 0/1 checks and the CSV export (m <= 64), and never whole: ``kernel`` and
``d_realization_kernel`` yield it one (m, m) x1 slice at a time, the first
from three m x m Gram matrices of a rank-one pair, the second as exact
integer counts of products of the regular realization's 0/1 operators.  The
checks reduce each slice as it comes, and ``duality_residual`` takes its
m x m overlap in row blocks, so the star path holds O(m^2) entries.

The equivalence checks at the bottom confirm, instance by instance, that
for Weyl-unit pairs and for the regular realization the star product is
exactly the groupoid convolution.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

import numpy as np

from .algebra import convolve, d_realization_stack, random_function
from .groupoid import UNDEFINED, FiniteGroupoid, Frozen, GroupoidStructureError, InfeasibleError
from .groupoid import blocks, check_dense_size, pair_groupoid

# Kernels above this index count are refused (time).  No m^3 kernel is held, only
# (m, m) slices, but the checks read all m^3 entries: with the cap lifted,
# verify_prop1 took 0.04 s at m = 64 and 24 s at m = 1,024 (2 vCPUs).
KERNEL_MATERIALIZE_LIMIT = 64
# Largest max deviation at which a float star product counts as the convolution.
STAR_CONVOLUTION_TOL = 1e-12


class SpaceMismatchError(ValueError):
    """Raised when symbols or operators do not match a pair's index space."""


class IndexSpace(Frozen):
    """Finite measure space: index labels plus a positive weight per point."""

    __slots__ = ("labels", "weights")

    def __init__(self, labels: tuple, weights: np.ndarray):
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(labels),):
            raise ValueError("one weight per label required")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "weights", w)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IndexSpace):
            return NotImplemented
        return self is other or (
            self.labels == other.labels and np.array_equal(self.weights, other.weights)
        )

    def __len__(self) -> int:
        return len(self.labels)


class QDPair(Frozen):
    """Rank-one quantizer/dequantizer families over an index space.

    ``families`` is (a, b, c, d), the (m, d) vector stacks of
    D(x) = |a_x><b_x| and U(x) = |c_x><d_x|.  The pair stores m*d numbers per
    stack, and every operation below is a product of m x d and m x m
    matrices.  A self-dual pair, (a, b, a, b), keeps one read-only storage for
    both families.
    """

    __slots__ = ("space", "families")

    def __init__(self, space: IndexSpace, families: tuple):
        fam = tuple(families)
        if len(fam) != 4:
            raise SpaceMismatchError("families must be the vector stacks (a, b, c, d)")
        shared = fam[2] is fam[0] and fam[3] is fam[1]
        stored = tuple(np.asarray(v, dtype=np.complex128) for v in (fam[:2] if shared else fam))
        shape = (len(space),) + stored[0].shape[1:2]
        if len(shape) != 2 or any(v.shape != shape for v in stored):
            raise SpaceMismatchError("each family must be a stack of shape (m, d)")
        if shared:
            for v in stored:
                v.setflags(write=False)
            stored *= 2
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "families", stored)

    def __eq__(self, other) -> bool:
        """Structural equality: same space and stored families."""
        if not isinstance(other, QDPair):
            return NotImplemented
        return self is other or (
            self.space == other.space
            and all(np.array_equal(u, v) for u, v in zip(self.families, other.families))
        )

    @property
    def hilbert_dim(self) -> int:
        return self.families[0].shape[-1]


def symbol(pair: QDPair, A: np.ndarray) -> np.ndarray:
    """Dequantization: f_A(x) = Tr[A U(x)^dagger] = <c_x|A|d_x>."""
    A = np.asarray(A, dtype=np.complex128)
    if A.shape != (pair.hilbert_dim, pair.hilbert_dim):
        raise SpaceMismatchError("operator dimension does not match the pair")
    _, _, c, d = pair.families
    return np.sum((np.conj(c) @ A) * d, axis=1)


def reconstruct(pair: QDPair, f) -> np.ndarray:
    """Quantization: A = sum_x f(x) D(x) w(x).

    Inverse of ``symbol`` exactly when the duality residual vanishes; for
    non-orthogonal families (coherent grids) the residual quantifies the
    reconstruction defect rather than hiding it.
    """
    f = np.asarray(f, dtype=np.complex128)
    if f.shape != (len(pair.space),):
        raise SpaceMismatchError("a symbol needs one value per index point of the pair")
    a, b, _, _ = pair.families
    return a.T @ ((f * pair.space.weights)[:, None] * np.conj(b))


def duality_residual(pair: QDPair) -> float:
    """max over (x, x') of |Tr[D(x) U(x')^dagger] w(x') - delta_xx'|.

    Tr[D(x) U(x')^dagger] = <c_x'|a_x><b_x|d_x'>, two Gram matrices.  The
    m x m overlap is taken in row blocks, so memory stays O(m) per row at any
    lattice size.
    """
    m, w = len(pair.space), pair.space.weights
    a, b, c, d = pair.families
    bc, ch = np.conj(b), np.conj(c).T
    worst = 0.0
    for rows in blocks(m, m):
        overlap = a[rows] @ ch
        overlap *= bc[rows] @ d.T
        overlap *= w[None, :]
        overlap[:, rows][np.diag_indices(len(overlap))] -= 1.0  # the block's deltas
        worst = max(worst, float(np.abs(overlap).max()))
    return worst


def _check_kernel_size(m: int) -> None:
    if m > KERNEL_MATERIALIZE_LIMIT:
        raise InfeasibleError(
            f"kernel tensor for m={m} index points exceeds the materialization "
            f"limit ({KERNEL_MATERIALIZE_LIMIT})"
        )


def kernel(pair: QDPair):
    """K(x1, x2, x) = Tr[D(x1) D(x2) U(x)^dagger] of a rank-one pair, one x1 slice at a time.

    K = <b1|a2><b2|d_x><c_x|a1>, a product of three m x m Gram matrices taken
    left to right; slice x1 is G1[x1][:, None] * G2 * G3[x1].  The size is
    checked and the Gram matrices formed at the call; the returned iterator
    yields the m fresh (m, m) slices.  The regular realization's kernel is
    ``d_realization_kernel``.
    """
    _check_kernel_size(len(pair.space))
    a, b, c, d = pair.families
    bc = np.conj(b)
    G1, G2, G3 = bc @ a.T, bc @ d.T, a @ np.conj(c).T
    return (G1[x1][:, None] * G2 * G3[x1] for x1 in range(len(G1)))


def star(pair: QDPair, f, g) -> np.ndarray:
    """Star product symbol(reconstruct(f) @ reconstruct(g)); equals the kernel double sum."""
    return symbol(pair, reconstruct(pair, f) @ reconstruct(pair, g))


# ---------------------------------------------------------------------------
# canonical pairs
# ---------------------------------------------------------------------------


def rank_one_pair(vectors, basis, weights=None, select=None) -> QDPair:
    """Self-dual immersion (i, k) -> |v_i><v_k| of the pair groupoid of a vector family.

    ``basis`` labels the vectors; the index set is product(basis, basis), with
    flat index i*n + k, and the pair weights are w_i w_k (``weights`` default
    to 1).  ``select`` keeps a subset of the flat indices, of the labels,
    weights and stacks alike.  The pair stores two (m, d) vector stacks, never
    the m x d x d operators.
    """
    vectors = np.asarray(vectors)
    n = len(vectors)
    check_dense_size((n * n, *vectors.shape[1:]), vectors.dtype, "pair vector stack")
    w = np.ones(n) if weights is None else weights
    labels, w2 = tuple(itertools.product(basis, basis)), np.outer(w, w).reshape(-1)
    kets, bras = np.repeat(vectors, n, axis=0), np.tile(vectors, (n, 1))
    if select is not None:
        labels = tuple(labels[x] for x in select)
        w2, kets, bras = w2[select], kets[select], bras[select]
    return QDPair(IndexSpace(labels, w2), (kets, bras, kets, bras))


def weyl_qdpair(n: int) -> QDPair:
    """Self-dual Weyl-unit pair |i><k| over the pair-groupoid index set, w = 1."""
    if n < 1:
        raise ValueError(f"Weyl pair needs dimension n >= 1 (got {n})")
    return rank_one_pair(np.eye(n), range(n))


def _row_widths(G: FiniteGroupoid) -> np.ndarray:
    """N(g) = #{k : g o k defined} = Tr[D(g) D(g)^T]; an empty row (no groupoid) is refused."""
    widths = np.count_nonzero(G.compose != UNDEFINED, axis=1)
    if not widths.all():
        g = int(np.argmin(widths))
        raise GroupoidStructureError(f"element {g} composes with no element (row {g} is empty)")
    return widths


def regular_reconstruct(G: FiniteGroupoid, f) -> np.ndarray:
    """Quantization in the regular realization: sum_g f(g) D(g), D(g)[i, k] = 1 iff g o k = i.

    f(j) is added at (i, k) for each composable triple (j, k, i).  Added, not
    assigned: on a table that is no groupoid two elements may send k to the
    same i, and the sum then holds both terms.
    """
    f = np.asarray(f, dtype=np.complex128)
    if f.shape != (G.order,):
        raise SpaceMismatchError("one value per groupoid element required")
    j, k, i = G.composable_triples().T
    A = np.zeros((G.order, G.order), dtype=np.complex128)
    np.add.at(A, (i, k), f[j])
    return A


def regular_symbol(G: FiniteGroupoid, A: np.ndarray) -> np.ndarray:
    """Dequantization in the regular realization: f_A(g) = Tr[A D(g)^T] / N(g).

    The trace is a gather, the sum of A[i, k] over the triples (g, k, i),
    divided once by the row widths N(g) = Tr[D(g) D(g)^T].  N(g) is
    ord(G0) * ord(H) on a transitive groupoid and that product over the orbit
    of g otherwise, so regular_symbol(G, regular_reconstruct(G, f)) = f.
    """
    A = np.asarray(A, dtype=np.complex128)
    if A.shape != (G.order, G.order):
        raise SpaceMismatchError("operator dimension does not match the groupoid order")
    j, k, i = G.composable_triples().T
    vals, widths = A[i, k], _row_widths(G)
    # real divisions, rounded correctly; a complex one would miss integers at N = 49
    return (np.bincount(j, vals.real, G.order) / widths
            + 1j * (np.bincount(j, vals.imag, G.order) / widths))


def d_realization_kernel(G: FiniteGroupoid):
    """Regular-realization kernel K(g1, g2, g) = Tr[D(g1) D(g2) D(g)^T] / N(g), 0/1 exactly.

    Yields one (m, m) slice per g1: the products D(g1) D(g2) of the real 0/1
    operators of ``d_realization_stack``, contracted with every D(g), give
    integer counts, divided once by the row widths (U(g)'s rounded 1/N would
    miss 1 at N = 6).  The size, the row widths and the stack are checked and
    built at the call.  K comes from the operators, not the composition table,
    so comparing it with delta_{g1 o g2}(g) checks them.
    """
    m = G.order
    _check_kernel_size(m)
    widths, D = _row_widths(G), d_realization_stack(G)
    Df = D.reshape(m, -1)
    return ((D[g1] @ D).reshape(m, -1) @ Df.T / widths for g1 in range(m))


# ---------------------------------------------------------------------------
# equivalence reports
# ---------------------------------------------------------------------------


class EquivalenceReport(NamedTuple):
    max_dev: float
    frobenius_dev: float
    kernel_is_boolean: bool
    passed: bool
    details: dict


def nonboolean_margin(K) -> float:
    """Distance of a kernel, given by its x1 slices, from the nearest 0/1 tensor (0.0 if 0/1)."""
    return float(max(np.minimum(np.abs(k), np.abs(k - 1.0)).max() for k in K))


def _star_equals_convolution(
    product, G: FiniteGroupoid, K, n_pairs: int, seed: int, **details,
) -> EquivalenceReport:
    """The one check that a star product of symbols on ``G`` is its convolution.

    ``product(f1, f2)`` maps two symbols, value arrays in the flat element
    indexing of ``G``, to their star product, compared as arrays with
    ``convolve(G, f1, f2)``.  ``K``, the x1 slices of its kernel from the
    caller (``verify_gen_conv`` passes its exact count form), is read once:
    each slice gives its 0/1 margin and its ones, then is compared with
    delta_{g1 o g2}(g) by subtracting 1 in place at the composable triples of
    its row.  Then max(1, n_pairs // 10) Gaussian-integer symbol pairs, which
    must agree exactly, and ``n_pairs`` float pairs are drawn in that order
    from ``default_rng(seed)``.
    """
    if n_pairs < 1:
        raise ValueError("the star-convolution check needs a symbol pair (n_pairs >= 1)")
    triples = G.composable_triples()  # sorted by j, so row x1 is one run
    ends = np.searchsorted(triples[:, 0], np.arange(G.order + 1))
    margin, ones, delta_dev = 0.0, 0, 0.0
    for x1, k in enumerate(K):
        margin = max(margin, nonboolean_margin((k,)))
        ones += int(np.count_nonzero(np.abs(k - 1.0) < 1e-14))
        _, x2, x = triples[ends[x1]:ends[x1 + 1]].T
        k[x2, x] -= 1.0
        delta_dev = max(delta_dev, float(np.abs(k).max()))
    details["kernel_ones"], details["kernel_vs_delta_dev"] = ones, delta_dev
    rng = np.random.default_rng(seed)
    dev = np.zeros((2, 2))  # [float, integer] pairs -> largest (max, Frobenius) deviation
    for integer, count in ((1, max(1, n_pairs // 10)), (0, n_pairs)):
        for _ in range(count):
            f1, f2 = (random_function(G, rng, integer=bool(integer)) for _ in range(2))
            diff = np.abs(product(f1, f2) - convolve(G, f1, f2))
            dev[integer] = np.maximum(dev[integer], [diff.max(), np.linalg.norm(diff)])
    details["integer_max_dev"] = float(dev[1, 0])
    exact = max(delta_dev, dev[1, 0]) == 0.0
    return EquivalenceReport(float(dev[0, 0]), float(dev[0, 1]), margin == 0.0,
                             bool(exact and dev[0, 0] < STAR_CONVOLUTION_TOL), details)


def verify_prop1(n: int, n_pairs: int = 100, seed: int = 0) -> EquivalenceReport:
    """Star product of the Weyl pair vs pair-groupoid convolution.

    The Weyl kernel is a 0/1 tensor with one entry per composable triple, so
    the products agree exactly, on Gaussian-integer symbols bit for bit.
    """
    if n < 1:
        raise ValueError("verify_prop1 needs n >= 1")
    _check_kernel_size(n * n)  # before the pair is built
    pair = weyl_qdpair(n)
    return _star_equals_convolution(functools.partial(star, pair), pair_groupoid(n),
                                    kernel(pair), n_pairs, seed)


def verify_gen_conv(G: FiniteGroupoid, n_pairs: int = 20, seed: int = 0) -> EquivalenceReport:
    """Star product of the regular realization vs convolution, on any finite groupoid.

    The kernel is ``d_realization_kernel``, and the product is
    regular_symbol(regular_reconstruct(f1) @ regular_reconstruct(f2)).
    ``normalization`` reports N(g): one int when all rows are equally wide
    (every transitive groupoid), else the distinct widths.
    """
    K = d_realization_kernel(G)
    ns = np.unique(_row_widths(G)).tolist()

    def product(f1, f2):
        return regular_symbol(G, regular_reconstruct(G, f1) @ regular_reconstruct(G, f2))

    return _star_equals_convolution(product, G, K, n_pairs, seed,
                                    normalization=ns[0] if len(ns) == 1 else ns)
