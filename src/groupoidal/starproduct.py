"""Quantizer-dequantizer pairs, operator symbols, and star products.

A ``QDPair`` carries two operator families over a weighted index set: the
quantizer D(x) used to rebuild operators from symbols and the dequantizer
U(x) used to take symbols f_A(x) = Tr[A U(x)^dagger].  The star product of
symbols is the image of the operator product, and ``star`` computes it in
that factored form, symbol(reconstruct(f) @ reconstruct(g)), at every size.
``kernel`` materializes K(x1, x2, x) = Tr[D(x1) D(x2) U(x)^dagger] only as a
dense oracle (m <= 64) for the 0/1 checks and the CSV export.

The equivalence checks at the bottom confirm, instance by instance, that
for Weyl-unit pairs and for regular-realization pairs the star product is
exactly the groupoid convolution.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    GroupoidFunction,
    convolve,
    d_realization_stack,
    normalization_constant,
    random_function,
    weyl_units,
)
from .groupoid import FiniteGroupoid, classify, pair_groupoid

# Dense m^3 kernels above this index count are refused (memory).
KERNEL_MATERIALIZE_LIMIT = 64


class SpaceMismatchError(ValueError):
    """Raised when symbols or operators do not match a pair's index space."""


class KernelLimitError(SpaceMismatchError):
    """Raised when a check would need a dense kernel above the size limit."""


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


@dataclass(frozen=True)
class QDPair:
    """Quantizer/dequantizer families over an index space."""

    space: IndexSpace
    quantizers: np.ndarray  # (m, d, d)
    dequantizers: np.ndarray  # (m, d, d)
    hilbert_dim: int
    kind: str = "custom"
    params: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        m, d = len(self.space), self.hilbert_dim
        shared = self.dequantizers is self.quantizers
        for attr in ("quantizers",) if shared else ("quantizers", "dequantizers"):
            A = np.asarray(getattr(self, attr), dtype=np.complex128)
            if A.shape != (m, d, d):
                raise SpaceMismatchError(f"{attr} must have shape (m, d, d)")
            object.__setattr__(self, attr, A)
        if shared:
            # one read-only stack serves both families of a self-dual pair
            self.quantizers.setflags(write=False)
            object.__setattr__(self, "dequantizers", self.quantizers)

    def __eq__(self, other) -> bool:
        """Structural equality: same space, dimension, kind and operators (params ignored)."""
        if not isinstance(other, QDPair):
            return NotImplemented
        key = ("space", "hilbert_dim", "kind")
        return self is other or (
            all(getattr(self, a) == getattr(other, a) for a in key)
            and np.array_equal(self.quantizers, other.quantizers)
            and np.array_equal(self.dequantizers, other.dequantizers)
        )

    @property
    def self_dual(self) -> bool:
        return self.quantizers is self.dequantizers or np.array_equal(
            self.quantizers, self.dequantizers
        )

    def manifest(self) -> dict:
        return {"kind": self.kind, "params": self.params}


@dataclass(frozen=True)
class Symbol:
    """Scalar function on a pair's index space representing an operator."""

    space: IndexSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (len(self.space),):
            raise SpaceMismatchError("one value per index point required")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Kernel3:
    """Dense star-product kernel K(x1, x2, x) over one index space."""

    space: IndexSpace
    values: np.ndarray

    def __post_init__(self):
        m = len(self.space)
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (m, m, m):
            raise SpaceMismatchError("kernel must be an m x m x m tensor")
        object.__setattr__(self, "values", v)


def _check_space(pair: QDPair, f: Symbol) -> None:
    if f.space != pair.space:
        raise SpaceMismatchError("symbol does not live on the pair's index space")


def symbol(pair: QDPair, A: np.ndarray) -> Symbol:
    """Dequantization: f_A(x) = Tr[A U(x)^dagger]."""
    A = np.asarray(A, dtype=np.complex128)
    if A.shape != (pair.hilbert_dim, pair.hilbert_dim):
        raise SpaceMismatchError("operator dimension does not match the pair")
    vals = np.einsum("ab,xab->x", A, np.conj(pair.dequantizers))
    return Symbol(pair.space, vals)


def reconstruct(pair: QDPair, f: Symbol) -> np.ndarray:
    """Quantization: A = sum_x f(x) D(x) w(x).

    Inverse of ``symbol`` exactly when the duality residual vanishes; for
    non-orthogonal families (coherent grids) the residual quantifies the
    reconstruction defect rather than hiding it.
    """
    _check_space(pair, f)
    return np.einsum("x,x,xab->ab", f.values, pair.space.weights, pair.quantizers)


def duality_residual(pair: QDPair) -> float:
    """max over (x, x') of |Tr[D(x) U(x')^dagger] w(x') - delta_xx'|."""
    overlap = np.einsum("xab,yab->xy", pair.quantizers, np.conj(pair.dequantizers))
    overlap = overlap * pair.space.weights[None, :]
    return float(np.abs(overlap - np.eye(len(pair.space))).max())


def resolution_residual(pair: QDPair) -> float:
    """Frobenius distance of sum_x w_x vec D(x) vec U(x)^dagger from the identity.

    Zero exactly when symbol followed by reconstruct is the identity on all
    operators (the family resolves the identity on operator space).
    """
    d2 = pair.hilbert_dim**2
    Dv = pair.quantizers.reshape(len(pair.space), d2)
    Uv = np.conj(pair.dequantizers.reshape(len(pair.space), d2))
    S = np.einsum("x,xa,xb->ab", pair.space.weights, Dv, Uv)
    return float(np.linalg.norm(S - np.eye(d2)))


def kernel(pair: QDPair, force: bool = False) -> Kernel3:
    """Materialize K(x1, x2, x) = Tr[D(x1) D(x2) U(x)^dagger], one x1 slice at a time."""
    m = len(pair.space)
    if m > KERNEL_MATERIALIZE_LIMIT and not force:
        raise KernelLimitError(
            f"kernel tensor for m={m} index points exceeds the materialization "
            f"limit ({KERNEL_MATERIALIZE_LIMIT})"
        )
    D = pair.quantizers
    Uf = np.conj(pair.dequantizers.reshape(m, -1))
    K = np.stack([(D[a] @ D).reshape(m, -1) @ Uf.T for a in range(m)])
    return Kernel3(pair.space, K)


def star(pair: QDPair, f: Symbol, g: Symbol) -> Symbol:
    """Star product symbol(reconstruct(f) @ reconstruct(g)); equals the kernel double sum."""
    _check_space(pair, f)
    _check_space(pair, g)
    return symbol(pair, reconstruct(pair, f) @ reconstruct(pair, g))


def associativity_residual(pair: QDPair) -> float:
    """Deviation of the kernel from the quadratic associativity identity.

    max over (x1, x2, x3, x) of
    |sum_y K(x1,x2,y) w_y K(y,x3,x) - sum_y K(x2,x3,y) w_y K(x1,y,x)|.
    """
    K = kernel(pair).values
    w = pair.space.weights
    lhs = np.einsum("aby,y,ycd->abcd", K, w, K)
    rhs = np.einsum("bcy,y,ayd->abcd", K, w, K)
    return float(np.abs(lhs - rhs).max())


# ---------------------------------------------------------------------------
# canonical pairs
# ---------------------------------------------------------------------------


def rank_one_pair(dim: int, labels: tuple, kind: str, params: dict) -> QDPair:
    """Self-dual pair of the dim^2 rank-one units |a><b|, w = 1."""
    E = weyl_units(dim)
    space = IndexSpace(labels, np.ones(dim * dim))
    return QDPair(space, E, E, hilbert_dim=dim, kind=kind, params=params)


def weyl_qdpair(n: int) -> QDPair:
    """Self-dual Weyl-unit pair over the pair-groupoid index set, w = 1."""
    labels = tuple((i, k) for i in range(n) for k in range(n))
    return rank_one_pair(n, labels, "weyl", {"n": n})


def d_realization_qdpair(G: FiniteGroupoid) -> QDPair:
    """Regular-realization pair of a transitive groupoid: D(g), U(g) = D(g)/N."""
    info = normalization_constant(G)
    D = d_realization_stack(G).astype(np.complex128)
    labels = tuple(range(G.order))
    space = IndexSpace(labels, np.ones(G.order))
    return QDPair(
        space,
        D,
        D / info.value,
        hilbert_dim=G.order,
        kind="d_realization",
        params={"order": G.order, "normalization": info.value},
    )


# ---------------------------------------------------------------------------
# equivalence reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceReport:
    scheme: str
    groupoid_order: int
    hilbert_dim: int
    max_dev: float
    frobenius_dev: float
    kernel_is_boolean: bool
    seed: int
    passed: bool
    details: dict = field(default_factory=dict, compare=False)

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "groupoid_order": self.groupoid_order,
            "hilbert_dim": self.hilbert_dim,
            "max_dev": self.max_dev,
            "frobenius_dev": self.frobenius_dev,
            "kernel_is_boolean": self.kernel_is_boolean,
            "seed": self.seed,
            "passed": self.passed,
            **self.details,
        }

    def to_json(self) -> str:
        return json.dumps({"schema": 1, **self.to_dict()})


def _kernel_is_boolean(K: np.ndarray, tol: float = 0.0) -> bool:
    dist = np.minimum(np.abs(K), np.abs(K - 1.0))
    return bool(dist.max() <= tol)


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
        raise KernelLimitError(f"verify_prop1 needs n^2 <= {KERNEL_MATERIALIZE_LIMIT}, got n={n}")
    G = pair_groupoid(n)
    pair = weyl_qdpair(n)
    K = kernel(pair).values
    rng = np.random.default_rng(seed)
    int_max, _ = _star_vs_convolve(pair, G, max(1, n_pairs // 10), rng, integer=True)
    max_dev, frob = _star_vs_convolve(pair, G, n_pairs, rng, integer=False)
    boolean = _kernel_is_boolean(K)
    ones = int(np.count_nonzero(np.abs(K - 1.0) < 1e-14))
    return EquivalenceReport(
        scheme="prop1",
        groupoid_order=G.order,
        hilbert_dim=n,
        max_dev=max_dev,
        frobenius_dev=frob,
        kernel_is_boolean=boolean,
        seed=seed,
        passed=boolean and int_max == 0.0 and max_dev < 1e-12,
        details={"kernel_ones": ones, "integer_max_dev": int_max},
    )


def verify_gen_conv(G: FiniteGroupoid, n_pairs: int = 20, seed: int = 0) -> EquivalenceReport:
    """Star product of the regular-realization pair vs groupoid convolution.

    Checks the kernel entrywise against delta_{j o k}(i) (exact 0/1 values)
    and the star product against convolve on random functions.
    """
    if not classify(G).transitive:
        raise ValueError("verify_gen_conv needs a transitive groupoid")
    if G.order > KERNEL_MATERIALIZE_LIMIT:
        raise KernelLimitError(f"verify_gen_conv caps the order at {KERNEL_MATERIALIZE_LIMIT}")
    pair = d_realization_qdpair(G)
    K = kernel(pair).values
    expected = np.zeros_like(K, dtype=np.float64)
    triples = G.composable_triples()
    if len(triples):
        expected[triples[:, 0], triples[:, 1], triples[:, 2]] = 1.0
    kernel_dev = float(np.abs(K - expected).max())
    rng = np.random.default_rng(seed)
    max_dev, frob = _star_vs_convolve(pair, G, n_pairs, rng, integer=False)
    return EquivalenceReport(
        scheme="genconv",
        groupoid_order=G.order,
        hilbert_dim=G.order,
        max_dev=max_dev,
        frobenius_dev=frob,
        kernel_is_boolean=_kernel_is_boolean(K, tol=0.0),
        seed=seed,
        passed=kernel_dev == 0.0 and max_dev < 1e-12,
        details={
            "kernel_vs_delta_dev": kernel_dev,
            "normalization": pair.params["normalization"],
        },
    )


def export_kernel_csv(pair: QDPair, path) -> None:
    """Flat (x1, x2, x, re, im) CSV of a dense kernel; limited to m <= 16."""
    m = len(pair.space)
    if m > 16:
        raise ValueError("kernel CSV export is limited to m <= 16 index points")
    K = kernel(pair).values
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "x", "re", "im"])
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    v = K[a, b, c]
                    writer.writerow([a, b, c, repr(float(v.real)), repr(float(v.imag))])
