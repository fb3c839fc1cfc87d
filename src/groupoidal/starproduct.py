"""Quantizer-dequantizer pairs, operator symbols, and star products.

A ``QDPair`` carries two operator families over a weighted index set: the
quantizer D(x) used to rebuild operators from symbols and the dequantizer
U(x) used to take symbols f_A(x) = Tr[A U(x)^dagger].  Every family here
but the regular realization is rank-one, |a_x><b_x|, and is stored as its
vectors: symbols, reconstructions, kernels and residuals are then Gram
products.  The star product of symbols is the image of the operator product,
and ``star`` computes it in that factored form, symbol(reconstruct(f) @
reconstruct(g)), at every size.  ``kernel`` materializes K(x1, x2, x) =
Tr[D(x1) D(x2) U(x)^dagger] only as an oracle (m <= 64) for the 0/1 checks
and the CSV export.

The equivalence checks at the bottom confirm, instance by instance, that
for Weyl-unit pairs and for regular-realization pairs the star product is
exactly the groupoid convolution.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    convolve,
    d_realization_stack,
    normalization_constant,
    random_function,
)
from .groupoid import FiniteGroupoid, InfeasibleError, classify, pair_groupoid

# Dense m^3 kernels above this index count are refused (memory).
KERNEL_MATERIALIZE_LIMIT = 64
# Largest max deviation at which a float star product counts as the convolution.
STAR_CONVOLUTION_TOL = 1e-12
# Entries per row block of the m x m duality overlap (16 MB of complex128).
_OVERLAP_BLOCK = 2**20


class SpaceMismatchError(ValueError):
    """Raised when symbols or operators do not match a pair's index space."""


@dataclass(frozen=True)
class IndexSpace:
    """Finite measure space: index labels plus a positive weight per point."""

    labels: tuple
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(self.labels),):
            raise ValueError("one weight per label required")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "weights", w)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IndexSpace):
            return NotImplemented
        return self is other or (
            self.labels == other.labels and np.array_equal(self.weights, other.weights)
        )

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True, eq=False)
class QDPair:
    """Quantizer/dequantizer families over an index space.

    ``families`` is either (D, U), the dense (m, d, d) stacks of D(x) and
    U(x), or (a, b, c, d), the (m, d) vector stacks of a rank-one pair
    D(x) = |a_x><b_x|, U(x) = |c_x><d_x|.  A rank-one pair stores m*d numbers,
    every operation below is then a product of m x d and m x m matrices, and
    ``quantizers`` / ``dequantizers`` build its dense stacks only as a test
    oracle.  A self-dual pair, (D, D) or (a, b, a, b), keeps one read-only
    storage for both families.
    """

    space: IndexSpace
    families: tuple = field(repr=False)

    def __post_init__(self):
        fam = tuple(self.families)
        h = len(fam) // 2
        if len(fam) not in (2, 4):
            raise SpaceMismatchError("families must be (D, U) or (a, b, c, d)")
        shared = all(u is v for u, v in zip(fam[:h], fam[h:]))
        stored = tuple(np.asarray(v, dtype=np.complex128) for v in (fam[:h] if shared else fam))
        shape = (len(self.space),) + stored[0].shape[1:2] * (3 - h)
        if len(shape) != 4 - h or any(v.shape != shape for v in stored):
            raise SpaceMismatchError(f"each family must be a stack of shape (m, d{', d' * (2 - h)})")
        if shared:
            for v in stored:
                v.setflags(write=False)
            stored *= 2
        object.__setattr__(self, "families", stored)

    def __eq__(self, other) -> bool:
        """Structural equality: same space and stored families."""
        if not isinstance(other, QDPair):
            return NotImplemented
        return self is other or (
            self.space == other.space
            and len(self.families) == len(other.families)
            and all(np.array_equal(u, v) for u, v in zip(self.families, other.families))
        )

    @property
    def hilbert_dim(self) -> int:
        return self.families[0].shape[-1]

    @property
    def factors(self) -> tuple | None:
        """The (a, b, c, d) vector stacks of a rank-one pair; None for a dense pair."""
        return self.families if len(self.families) == 4 else None

    @property
    def quantizers(self) -> np.ndarray:
        """(m, d, d) stack of D(x); built afresh for a rank-one pair."""
        return self._stack(0)

    @property
    def dequantizers(self) -> np.ndarray:
        """(m, d, d) stack of U(x); built afresh for a rank-one pair."""
        return self._stack(1)

    def _stack(self, k: int) -> np.ndarray:
        f = self.families
        return f[k] if len(f) == 2 else np.einsum("xi,xj->xij", f[2 * k], np.conj(f[2 * k + 1]))

    @property
    def self_dual(self) -> bool:
        f = self.families
        h = len(f) // 2
        return all(u is v or np.array_equal(u, v) for u, v in zip(f[:h], f[h:]))


@dataclass(frozen=True, eq=False)
class Symbol:
    """Scalar function on a pair's index space representing an operator."""

    space: IndexSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (len(self.space),):
            raise SpaceMismatchError("one value per index point required")
        object.__setattr__(self, "values", v)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Symbol):
            return NotImplemented
        return self is other or (
            self.space == other.space and np.array_equal(self.values, other.values)
        )


def _check_space(pair: QDPair, f: Symbol) -> None:
    if f.space != pair.space:
        raise SpaceMismatchError("symbol does not live on the pair's index space")


def symbol(pair: QDPair, A: np.ndarray) -> Symbol:
    """Dequantization: f_A(x) = Tr[A U(x)^dagger], = <c_x|A|d_x> for a rank-one pair."""
    A = np.asarray(A, dtype=np.complex128)
    if A.shape != (pair.hilbert_dim, pair.hilbert_dim):
        raise SpaceMismatchError("operator dimension does not match the pair")
    if pair.factors is None:
        vals = np.einsum("ab,xab->x", A, np.conj(pair.dequantizers))
    else:
        _, _, c, d = pair.factors
        vals = np.sum((np.conj(c) @ A) * d, axis=1)
    return Symbol(pair.space, vals)


def reconstruct(pair: QDPair, f: Symbol) -> np.ndarray:
    """Quantization: A = sum_x f(x) D(x) w(x).

    Inverse of ``symbol`` exactly when the duality residual vanishes; for
    non-orthogonal families (coherent grids) the residual quantifies the
    reconstruction defect rather than hiding it.
    """
    _check_space(pair, f)
    if pair.factors is None:
        return np.einsum("x,x,xab->ab", f.values, pair.space.weights, pair.quantizers)
    a, b, _, _ = pair.factors
    return a.T @ ((f.values * pair.space.weights)[:, None] * np.conj(b))


def duality_residual(pair: QDPair) -> float:
    """max over (x, x') of |Tr[D(x) U(x')^dagger] w(x') - delta_xx'|.

    For a rank-one pair Tr[D(x) U(x')^dagger] = <c_x'|a_x><b_x|d_x'>, two
    Gram matrices.  The m x m overlap is taken in row blocks of about
    _OVERLAP_BLOCK entries, so memory stays O(m) per row at any lattice size.
    """
    m, w = len(pair.space), pair.space.weights
    if pair.factors is None:
        D, Uc = pair.quantizers, np.conj(pair.dequantizers)
    else:
        a, b, c, d = pair.factors
        bc, ch = np.conj(b), np.conj(c).T
    worst = 0.0
    step = max(1, _OVERLAP_BLOCK // m)
    for lo in range(0, m, step):
        rows = np.arange(lo, min(lo + step, m))
        if pair.factors is None:
            overlap = np.einsum("xab,yab->xy", D[rows], Uc)
        else:
            overlap = a[rows] @ ch
            overlap *= bc[rows] @ d.T
        overlap *= w[None, :]
        overlap[np.arange(len(rows)), rows] -= 1.0
        worst = max(worst, float(np.abs(overlap).max()))
    return worst


def resolution_residual(pair: QDPair) -> float:
    """Frobenius distance of S = sum_x w_x vec D(x) vec U(x)^dagger from the identity.

    Zero exactly when symbol followed by reconstruct is the identity on all
    operators (the family resolves the identity on operator space).  For a
    rank-one pair the (i, k) block of S is the weighted Gram product
    sum_x w_x a_x[i] conj(c_x[k]) conj(b_x) d_x^T, so S is never held whole and
    the identity is subtracted block by block (no cancellation near zero).
    """
    w = pair.space.weights
    if pair.factors is None:
        d2 = pair.hilbert_dim**2
        Dv = pair.quantizers.reshape(len(pair.space), d2)
        Uv = np.conj(pair.dequantizers.reshape(len(pair.space), d2))
        S = np.einsum("x,xa,xb->ab", w, Dv, Uv)
        return float(np.linalg.norm(S - np.eye(d2)))
    a, b, c, d = pair.factors
    bh, cc, eye = np.conj(b).T, np.conj(c), np.eye(pair.hilbert_dim)
    total = 0.0
    for i in range(pair.hilbert_dim):
        wa = w * a[:, i]
        for k in range(pair.hilbert_dim):
            block = (bh * (wa * cc[:, k])) @ d - (eye if i == k else 0.0)
            total += float(np.vdot(block, block).real)
    return float(np.sqrt(total))


def kernel(pair: QDPair, force: bool = False) -> np.ndarray:
    """Materialize K(x1, x2, x) = Tr[D(x1) D(x2) U(x)^dagger] as an (m, m, m) array.

    A rank-one pair gives K = <b1|a2><b2|d_x><c_x|a1>, a product of three m x m
    Gram matrices; a dense pair is contracted one x1 slice at a time.
    """
    m = len(pair.space)
    if m > KERNEL_MATERIALIZE_LIMIT and not force:
        raise InfeasibleError(
            f"kernel tensor for m={m} index points exceeds the materialization "
            f"limit ({KERNEL_MATERIALIZE_LIMIT})"
        )
    if pair.factors is None:
        D = pair.quantizers
        Uf = np.conj(pair.dequantizers.reshape(m, -1))
        return np.stack([(D[a] @ D).reshape(m, -1) @ Uf.T for a in range(m)])
    a, b, c, d = pair.factors
    bc = np.conj(b)
    return (bc @ a.T)[:, :, None] * (bc @ d.T)[None, :, :] * (a @ np.conj(c).T)[:, None, :]


def star(pair: QDPair, f: Symbol, g: Symbol) -> Symbol:
    """Star product symbol(reconstruct(f) @ reconstruct(g)); equals the kernel double sum."""
    return symbol(pair, reconstruct(pair, f) @ reconstruct(pair, g))


def associativity_residual(pair: QDPair) -> float:
    """Deviation of the kernel from the quadratic associativity identity.

    max over (x1, x2, x3, x) of
    |sum_y K(x1,x2,y) w_y K(y,x3,x) - sum_y K(x2,x3,y) w_y K(x1,y,x)|.
    """
    K = kernel(pair)
    w = pair.space.weights
    lhs = np.einsum("aby,y,ycd->abcd", K, w, K)
    rhs = np.einsum("bcy,y,ayd->abcd", K, w, K)
    return float(np.abs(lhs - rhs).max())


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
    n = len(vectors)
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


def d_realization_qdpair(G: FiniteGroupoid) -> QDPair:
    """Regular-realization pair of a transitive groupoid: D(g), U(g) = D(g)/N."""
    info = normalization_constant(G)
    D = d_realization_stack(G).astype(np.complex128)
    labels = tuple(range(G.order))
    space = IndexSpace(labels, np.ones(G.order))
    return QDPair(space, (D, D / info.value))


# ---------------------------------------------------------------------------
# equivalence reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceReport:
    max_dev: float
    frobenius_dev: float
    kernel_is_boolean: bool
    passed: bool
    details: dict = field(default_factory=dict, compare=False)


def nonboolean_margin(K: np.ndarray) -> float:
    """Distance of a kernel from the nearest 0/1 tensor (0.0 for a boolean kernel)."""
    return float(np.minimum(np.abs(K), np.abs(K - 1.0)).max())


def _star_vs_convolve(
    pair: QDPair, G: FiniteGroupoid, n_pairs: int, rng: np.random.Generator,
    integer: bool,
) -> tuple[float, float]:
    """Max and Frobenius deviation between star and convolution.

    Symbols and groupoid functions are identified through the shared flat
    element indexing of the pair's index space.
    """
    max_dev = 0.0
    frob = 0.0
    for _ in range(n_pairs):
        f1 = random_function(G, rng, integer=integer)
        f2 = random_function(G, rng, integer=integer)
        ref = convolve(f1, f2).values
        got = star(pair, Symbol(pair.space, f1.values), Symbol(pair.space, f2.values))
        diff = np.abs(got.values - ref)
        max_dev = max(max_dev, float(diff.max()))
        frob = max(frob, float(np.linalg.norm(diff)))
    return max_dev, frob


def verify_prop1(n: int, n_pairs: int = 100, seed: int = 0) -> EquivalenceReport:
    """Star product of the Weyl pair vs pair-groupoid convolution.

    The kernel of the Weyl pair is a 0/1 tensor with one entry per
    composable triple, so the two products agree exactly; the report
    records the measured deviation over random symbol pairs.
    """
    if n < 1:
        raise ValueError("verify_prop1 needs n >= 1")
    if n_pairs < 1:
        raise ValueError("verify_prop1 needs at least one symbol pair (n_pairs >= 1)")
    if n * n > KERNEL_MATERIALIZE_LIMIT:
        raise InfeasibleError(f"verify_prop1 needs n^2 <= {KERNEL_MATERIALIZE_LIMIT}, got n={n}")
    G = pair_groupoid(n)
    pair = weyl_qdpair(n)
    K = kernel(pair)
    rng = np.random.default_rng(seed)
    int_max, _ = _star_vs_convolve(pair, G, max(1, n_pairs // 10), rng, integer=True)
    max_dev, frob = _star_vs_convolve(pair, G, n_pairs, rng, integer=False)
    boolean = nonboolean_margin(K) == 0.0
    ones = int(np.count_nonzero(np.abs(K - 1.0) < 1e-14))
    return EquivalenceReport(
        max_dev=max_dev,
        frobenius_dev=frob,
        kernel_is_boolean=boolean,
        passed=boolean and int_max == 0.0 and max_dev < STAR_CONVOLUTION_TOL,
        details={"kernel_ones": ones, "integer_max_dev": int_max},
    )


def verify_gen_conv(G: FiniteGroupoid, n_pairs: int = 20, seed: int = 0) -> EquivalenceReport:
    """Star product of the regular-realization pair vs groupoid convolution.

    Checks the kernel entrywise against delta_{j o k}(i) (exact 0/1 values)
    and the star product against convolve on random functions.
    """
    if n_pairs < 1:
        raise ValueError("verify_gen_conv needs at least one symbol pair (n_pairs >= 1)")
    if not classify(G).transitive:
        raise ValueError("verify_gen_conv needs a transitive groupoid")
    if G.order > KERNEL_MATERIALIZE_LIMIT:
        raise InfeasibleError(f"verify_gen_conv caps the order at {KERNEL_MATERIALIZE_LIMIT}")
    pair = d_realization_qdpair(G)
    K = kernel(pair)
    expected = np.zeros_like(K, dtype=np.float64)
    triples = G.composable_triples()
    if len(triples):
        expected[triples[:, 0], triples[:, 1], triples[:, 2]] = 1.0
    kernel_dev = float(np.abs(K - expected).max())
    rng = np.random.default_rng(seed)
    max_dev, frob = _star_vs_convolve(pair, G, n_pairs, rng, integer=False)
    return EquivalenceReport(
        max_dev=max_dev,
        frobenius_dev=frob,
        kernel_is_boolean=nonboolean_margin(K) == 0.0,
        passed=kernel_dev == 0.0 and max_dev < STAR_CONVOLUTION_TOL,
        details={
            "kernel_vs_delta_dev": kernel_dev,
            "normalization": normalization_constant(G).value,
        },
    )


def export_kernel_csv(pair: QDPair, path) -> None:
    """Flat (x1, x2, x, re, im) CSV of a dense kernel; limited to m <= 16."""
    m = len(pair.space)
    if m > 16:
        raise InfeasibleError("kernel CSV export is limited to m <= 16 index points")
    K = kernel(pair)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "x", "re", "im"])
        writer.writerows(zip(*np.indices(K.shape).reshape(3, -1).tolist(),
                             K.real.ravel().tolist(), K.imag.ravel().tolist()))
