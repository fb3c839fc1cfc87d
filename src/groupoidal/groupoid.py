"""Finite groupoids with explicit composition tables.

A groupoid is stored as a dense structure over integer element ids
``0..order-1``: unit flags, source/target/inverse maps, and a ``KxK``
partial composition table with ``-1`` marking undefined products.  All
structural axioms can then be checked by exhaustive enumeration, which is
the point of this module: constructions are cheap, verification is total.

All objects are immutable after construction and safe to share across
threads; every operation here is a pure function.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

UNDEFINED = -1

# Exhaustive triple scans are O(K^3); above this order the associativity
# check falls back to a documented random sample.
EXHAUSTIVE_ORDER_LIMIT = 4096
DEFAULT_ASSOCIATIVITY_SAMPLES = 200_000
# (pair, g3) entries per block of the exhaustive associativity scan: bounds
# its temporaries, and blocks this small stay in cache (faster than 2^20)
_ASSOCIATIVITY_BLOCK = 1 << 16


class GroupoidStructureError(ValueError):
    """Raised when input data cannot form a groupoid at all."""


class ActionLawError(ValueError):
    """Raised when a claimed group action violates an action law."""


class NotTransitiveError(ValueError):
    """Raised by operations defined only for transitive groupoids."""


def _element_ids(values, order: int, what: str, row: tuple = ()) -> np.ndarray:
    """JSON ids as an integer (n, *row) array in 0..order-1; 0.9 is refused, not truncated."""
    message = f"{what} must be integer element ids in " + (f"rows of {row[0]}" if row else "a list")
    try:
        arr = np.asarray(values)
    except ValueError as exc:
        raise GroupoidStructureError(message) from exc
    if arr.shape == (0,):
        arr = np.empty((0, *row), dtype=np.int64)
    if arr.ndim != 1 + len(row) or arr.shape[1:] != row or arr.dtype.kind not in "iu":
        raise GroupoidStructureError(message)
    if arr.size and (arr.min() < 0 or arr.max() >= order):
        raise GroupoidStructureError(f"{what} entry outside the element ids 0..{order - 1}")
    return arr


def _frozen_array(values, dtype=np.int64) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FiniteGroupoid:
    """A finite groupoid over elements ``0..order-1``.

    Attributes
    ----------
    order : number of elements K.
    units : ids of the unit elements (the subset G0).
    source, target : maps assigning each element its right/left unit.
    inverse : the two-sided inverse map.
    compose : KxK table; ``compose[j, k]`` is the id of ``j o k`` or -1.
    """

    order: int
    units: frozenset
    source: np.ndarray
    target: np.ndarray
    inverse: np.ndarray
    compose: np.ndarray
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if self.order < 1:
            raise GroupoidStructureError("groupoid needs at least one element")
        for attr in ("source", "target", "inverse"):
            arr = getattr(self, attr)
            if arr.shape != (self.order,):
                raise GroupoidStructureError(f"{attr} map has wrong length")
            if arr.min() < 0 or arr.max() >= self.order:
                raise GroupoidStructureError(f"{attr} map leaves the element range")
        if self.compose.shape != (self.order, self.order):
            raise GroupoidStructureError("composition table must be KxK")
        if self.compose.max() >= self.order or self.compose.min() < UNDEFINED:
            raise GroupoidStructureError("composition table entry out of range")
        if not all(0 <= u < self.order for u in self.units):
            raise GroupoidStructureError("unit id out of range")

    def __eq__(self, other) -> bool:
        """Structural equality: same order, units, maps and table (the name is ignored)."""
        if not isinstance(other, FiniteGroupoid):
            return NotImplemented
        return self is other or (self.order, self.units) == (other.order, other.units) and all(
            np.array_equal(getattr(self, a), getattr(other, a))
            for a in ("source", "target", "inverse", "compose")
        )

    def __len__(self) -> int:
        return self.order

    def is_unit(self, g: int) -> bool:
        return g in self.units

    def base_space(self) -> tuple:
        """The units as an ordered base space (the outer view of G0)."""
        return tuple(sorted(self.units))

    def product(self, j: int, k: int) -> int | None:
        """Return ``j o k`` or None when the pair is not composable."""
        out = int(self.compose[j, k])
        return None if out == UNDEFINED else out

    def composable_pairs(self) -> np.ndarray:
        """All (j, k) with ``j o k`` defined, in lexicographic order."""
        return np.argwhere(self.compose != UNDEFINED)

    def composable_triples(self) -> np.ndarray:
        """All (j, k, i) with ``j o k = i``, in lexicographic (j, k) order."""
        pairs = self.composable_pairs()
        prods = self.compose[pairs[:, 0], pairs[:, 1]]
        return np.column_stack([pairs, prods])

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "units": sorted(int(u) for u in self.units),
            "source": self.source.tolist(),
            "target": self.target.tolist(),
            "inverse": self.inverse.tolist(),
            "compose": self.composable_triples().tolist(),
        }

    @staticmethod
    def from_dict(data: dict) -> "FiniteGroupoid":
        """Build a groupoid from ``to_dict`` output.

        Raises ``GroupoidStructureError`` when ``data`` is not an object with
        the six ``to_dict`` keys, ``order`` is not an integer >= 1, an id is
        not an integer, is negative or not below ``order``, a compose row is
        not a triple, or a ``(j, k)`` pair is listed twice.
        Products that contradict source/target are loaded as given:
        ``validate_axioms`` reports them with witnesses.
        """
        keys = ("order", "units", "source", "target", "inverse", "compose")
        if not isinstance(data, dict) or not set(keys) <= data.keys():
            raise GroupoidStructureError(f"groupoid JSON must be an object with keys {keys}")
        order = data["order"]
        if isinstance(order, bool) or not isinstance(order, (int, np.integer)) or order < 1:
            raise GroupoidStructureError("order must be an integer >= 1")
        triples = _element_ids(data["compose"], order, "compose", row=(3,))
        compose = np.full((order, order), UNDEFINED, dtype=np.int64)
        compose[triples[:, 0], triples[:, 1]] = triples[:, 2]
        if np.count_nonzero(compose != UNDEFINED) != len(triples):
            raise GroupoidStructureError("compose lists some (j, k) pair twice")
        units, source, target, inverse = (
            _element_ids(data[key], order, key) for key in ("units", "source", "target", "inverse")
        )
        return FiniteGroupoid(
            order=order,
            units=frozenset(units.tolist()),
            source=_frozen_array(source),
            target=_frozen_array(target),
            inverse=_frozen_array(inverse),
            compose=_frozen_array(compose),
            name=data.get("name", ""),
        )

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @staticmethod
    def load(path) -> "FiniteGroupoid":
        with open(path) as fh:
            return FiniteGroupoid.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def pair_groupoid(n: int) -> FiniteGroupoid:
    """Pair groupoid of an n-point set: elements (x, y), (x, t) o (t, y) = (x, y).

    Element (x, y) gets id ``x*n + y``; the units are the diagonal pairs.
    """
    if n < 1:
        raise GroupoidStructureError("pair groupoid needs n >= 1 base points")
    order = n * n
    ids = np.arange(order)
    x, y = divmod(ids, n)
    source = y * n + y
    target = x * n + x
    inverse = y * n + x
    compose = np.full((order, order), UNDEFINED, dtype=np.int64)
    a, t, b = np.ix_(range(n), range(n), range(n))
    compose[a * n + t, t * n + b] = a * n + b
    return FiniteGroupoid(
        order=order,
        units=frozenset(int(i * n + i) for i in range(n)),
        source=_frozen_array(source),
        target=_frozen_array(target),
        inverse=_frozen_array(inverse),
        compose=_frozen_array(compose),
        name=f"pair({n})",
    )


def cyclic_group_table(n: int) -> np.ndarray:
    """Multiplication table of the cyclic group Z_n (identity is 0)."""
    if n < 1:
        raise ValueError("cyclic group needs n >= 1")
    a = np.arange(n)
    return (a[:, None] + a[None, :]) % n


def _group_identity(table: np.ndarray) -> int:
    ids = np.arange(table.shape[0])
    two_sided = np.flatnonzero((table == ids).all(axis=1) & (table.T == ids).all(axis=1))
    if len(two_sided) == 0:
        raise GroupoidStructureError("table has no two-sided identity")
    return int(two_sided[0])


def _group_inverses(table: np.ndarray, e: int) -> np.ndarray:
    hits = table == e
    inv = hits.argmax(axis=1)
    bad = np.flatnonzero((hits.sum(axis=1) != 1) | (table[inv, np.arange(len(inv))] != e))
    if len(bad):
        raise GroupoidStructureError(f"element {bad[0]} has no two-sided inverse")
    return inv


def group_groupoid(table: np.ndarray, name: str = "") -> FiniteGroupoid:
    """A finite group seen as a groupoid with the single unit {e}."""
    table = np.asarray(table, dtype=np.int64)
    m = table.shape[0]
    e = _group_identity(table)
    inv = _group_inverses(table, e)
    return FiniteGroupoid(
        order=m,
        units=frozenset([int(e)]),
        source=_frozen_array(np.full(m, e)),
        target=_frozen_array(np.full(m, e)),
        inverse=_frozen_array(inv),
        compose=_frozen_array(table.copy()),
        name=name or f"group({m})",
    )


def action_groupoid(
    table: np.ndarray,
    action: Callable[[int, int], int],
    n_points: int,
    name: str = "",
) -> FiniteGroupoid:
    """Groupoid of a right group action on ``n_points`` points.

    Elements are pairs (x, g) with id ``x*|G| + g``; ``r(x,g) = (x,e)``,
    ``s(x,g) = (x^g, e)`` and ``(x,g) o (x^g, g') = (x, g g')``.

    Raises
    ------
    ActionLawError
        If the identity does not act trivially or compatibility
        ``(x^g)^h = x^(gh)`` fails; the message names the law and a witness.
    """
    table = np.asarray(table, dtype=np.int64)
    m = table.shape[0]
    e = _group_identity(table)
    inv = _group_inverses(table, e)
    act = np.array(
        [[action(x, g) for g in range(m)] for x in range(n_points)], dtype=np.int64
    ).reshape(n_points, m)
    moved = np.flatnonzero(act[:, e] != np.arange(n_points))
    if len(moved):
        raise ActionLawError(f"identity law violated: point {moved[0]} moves under e")
    outside = np.argwhere((act < 0) | (act >= n_points))
    if len(outside):
        x, g = outside[0]
        raise ActionLawError(f"action leaves the point set at (x={x}, g={g})")
    broken = np.argwhere(act[act] != act[:, table])  # (x^g)^h vs x^(gh)
    if len(broken):
        x, g, h = broken[0]
        raise ActionLawError(
            f"compatibility law violated at (x={x}, g={g}, h={h}): (x^g)^h != x^(gh)"
        )

    order = n_points * m
    units = np.arange(n_points) * m + e
    source = act.reshape(-1) * m + e
    target = np.repeat(units, m)
    inverse = (act * m + inv).reshape(-1)
    compose = np.full((order, order), UNDEFINED, dtype=np.int64)
    x, g, h = np.ix_(range(n_points), range(m), range(m))
    compose[x * m + g, act[x, g] * m + h] = x * m + table[g, h]
    return FiniteGroupoid(
        order=order,
        units=frozenset(units.tolist()),
        source=_frozen_array(source),
        target=_frozen_array(target),
        inverse=_frozen_array(inverse),
        compose=_frozen_array(compose),
        name=name or f"action({n_points}x{m})",
    )


def transitive_groupoid(n_units: int, table: np.ndarray, name: str = "") -> FiniteGroupoid:
    """Transitive groupoid with ``n_units`` units and isotropy group ``table``.

    Elements are triples (u, v, h): target unit u, source unit v, isotropy
    label h, composed by ``(u, v, h) o (v, w, h') = (u, w, h h')``.  Every
    finite transitive groupoid is of this form.
    """
    table = np.asarray(table, dtype=np.int64)
    m = table.shape[0]
    e = _group_identity(table)
    inv = _group_inverses(table, e)
    order = n_units * n_units * m

    def idx(u, v, h):
        return (u * n_units + v) * m + h

    ids = np.arange(order)
    uv, h_of = divmod(ids, m)
    u_of, v_of = divmod(uv, n_units)
    target = idx(u_of, u_of, e)
    source = idx(v_of, v_of, e)
    inverse = idx(v_of, u_of, inv[h_of])
    compose = np.full((order, order), UNDEFINED, dtype=np.int64)
    u, v, h, w, h2 = np.ix_(*map(range, (n_units, n_units, m, n_units, m)))
    compose[idx(u, v, h), idx(v, w, h2)] = idx(u, w, table[h, h2])
    return FiniteGroupoid(
        order=order,
        units=frozenset(int(idx(u, u, e)) for u in range(n_units)),
        source=_frozen_array(source),
        target=_frozen_array(target),
        inverse=_frozen_array(inverse),
        compose=_frozen_array(compose),
        name=name or f"transitive({n_units},H{m})",
    )


def disjoint_union(parts: Sequence[FiniteGroupoid], name: str = "") -> FiniteGroupoid:
    """Index-shifted union of groupoids; cross-part products stay undefined."""
    if not parts:
        raise GroupoidStructureError("disjoint union of an empty list")
    order = sum(p.order for p in parts)
    source = np.empty(order, dtype=np.int64)
    target = np.empty(order, dtype=np.int64)
    inverse = np.empty(order, dtype=np.int64)
    compose = np.full((order, order), UNDEFINED, dtype=np.int64)
    units = set()
    off = 0
    for p in parts:
        sl = slice(off, off + p.order)
        source[sl] = p.source + off
        target[sl] = p.target + off
        inverse[sl] = p.inverse + off
        block = p.compose.copy()
        defined = block != UNDEFINED
        block[defined] += off
        compose[sl, sl] = block
        units.update(int(u) + off for u in p.units)
        off += p.order
    return FiniteGroupoid(
        order=order,
        units=frozenset(units),
        source=_frozen_array(source),
        target=_frozen_array(target),
        inverse=_frozen_array(inverse),
        compose=_frozen_array(compose),
        name=name or "+".join(p.name or "?" for p in parts),
    )


# ---------------------------------------------------------------------------
# axiom validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomCheck:
    passed: bool
    witness: tuple | None = None
    checked: int = 0
    sampled: bool = False


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the exhaustive structural scan, one entry per axiom.

    Witnesses are the lexicographically smallest violating tuples in the
    element-id order, so independent re-scans must reproduce them exactly.
    """

    entries: dict

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.entries.values())

    def failures(self) -> dict:
        return {k: v for k, v in self.entries.items() if not v.passed}

    def to_dict(self) -> dict:
        return {
            name: {
                "passed": c.passed,
                "witness": list(c.witness) if c.witness is not None else None,
                "checked": c.checked,
                "sampled": c.sampled,
            }
            for name, c in self.entries.items()
        }


def _first(indices) -> tuple | None:
    if len(indices) == 0:
        return None
    return tuple(int(v) for v in np.atleast_1d(indices[0]))


def validate_axioms(
    G: FiniteGroupoid,
    associativity_samples: int = DEFAULT_ASSOCIATIVITY_SAMPLES,
    rng: np.random.Generator | None = None,
) -> AxiomReport:
    """Check every groupoid axiom by exhaustive enumeration.

    Reports all violated axioms (never fails fast) with minimal witnesses:

    * ``maps_into_units`` -- source and target land in the unit set,
    * ``domain`` -- ``j o k`` defined exactly when ``source(j) = target(k)``,
    * ``a`` -- ``r(j o k) = r(j)`` and ``s(j o k) = s(k)``,
    * ``b`` -- units are their own source and target,
    * ``c`` -- ``r(g) o g = g = g o s(g)``,
    * ``d`` -- associativity on all defined triples,
    * ``e`` -- ``g o g^-1 = r(g)`` and ``g^-1 o g = s(g)``,
    * ``e_left_cancellation`` / ``e_right_cancellation``,
    * ``involution`` -- ``(g^-1)^-1 = g``.

    For orders above ``EXHAUSTIVE_ORDER_LIMIT`` the associativity entry is
    estimated from ``associativity_samples`` random triples and flagged.
    """
    K = G.order
    entries: dict[str, AxiomCheck] = {}
    unit_mask = np.zeros(K, dtype=bool)
    unit_mask[list(G.units)] = True

    bad = np.nonzero(~unit_mask[G.source] | ~unit_mask[G.target])[0]
    entries["maps_into_units"] = AxiomCheck(len(bad) == 0, _first(bad), K)

    defined = G.compose != UNDEFINED
    # composable exactly when source(j) = target(k); the in-place XOR saves a K x K mask
    mismatch = G.source[:, None] == G.target[None, :]
    mismatch ^= defined
    bad = np.argwhere(mismatch)
    entries["domain"] = AxiomCheck(len(bad) == 0, _first(bad), K * K)

    pairs = np.argwhere(defined)
    j, k = pairs.T
    prods = G.compose[j, k]
    bad = pairs[(G.target[prods] != G.target[j]) | (G.source[prods] != G.source[k])]
    entries["a"] = AxiomCheck(len(bad) == 0, _first(bad), len(pairs))

    units_sorted = np.array(sorted(G.units), dtype=np.int64)
    bad_idx = np.nonzero(
        (G.source[units_sorted] != units_sorted) | (G.target[units_sorted] != units_sorted)
    )[0]
    entries["b"] = AxiomCheck(
        len(bad_idx) == 0,
        (int(units_sorted[bad_idx[0]]),) if len(bad_idx) else None,
        len(units_sorted),
    )

    ids = np.arange(K)
    left = G.compose[G.target[ids], ids]
    right = G.compose[ids, G.source[ids]]
    bad = np.nonzero((left != ids) | (right != ids))[0]
    entries["c"] = AxiomCheck(len(bad) == 0, _first(bad), K)

    entries["d"] = _check_associativity(G, defined, pairs, prods, associativity_samples, rng)

    gi = G.inverse[ids]
    bad = np.nonzero(
        (G.compose[ids, gi] != G.target[ids]) | (G.compose[gi, ids] != G.source[ids])
    )[0]
    entries["e"] = AxiomCheck(len(bad) == 0, _first(bad), K)

    # (g' o g) o g^-1 = g' and g^-1 o (g o g'') = g'' over the composable pairs
    left_bad = G.compose[prods, G.inverse[k]] != j
    right_bad = G.compose[G.inverse[j], prods] != k
    entries["e_left_cancellation"] = _first_bad_pair(pairs, left_bad)
    entries["e_right_cancellation"] = _first_bad_pair(pairs, right_bad)

    bad = np.nonzero(G.inverse[G.inverse[ids]] != ids)[0]
    entries["involution"] = AxiomCheck(len(bad) == 0, _first(bad), K)

    return AxiomReport(entries)


def _first_bad_pair(pairs: np.ndarray, bad: np.ndarray) -> AxiomCheck:
    """Smallest bad pair; ``checked`` counts the pairs in rows up to its row."""
    witness = _first(pairs[bad])
    if witness is None:
        return AxiomCheck(True, None, len(pairs))
    checked = int(np.searchsorted(pairs[:, 0], witness[0], side="right"))
    return AxiomCheck(False, witness, checked)


def _check_associativity(G, defined, pairs, prods, samples, rng) -> AxiomCheck:
    """``(g1 o g2) o g3 = g1 o (g2 o g3)``, both sides undefined counting as equal.

    Exhaustive scans take the composable pairs (g1, g2) in blocks and compare
    both sides over every g3 at once; ``checked`` counts the g3 with
    ``(g1 o g2) o g3`` or ``g2 o g3`` defined, up to the witness.  Above
    ``EXHAUSTIVE_ORDER_LIMIT`` random triples are checked in one batch.
    """
    K = G.order
    if K > EXHAUSTIVE_ORDER_LIMIT:
        rng = rng or np.random.default_rng(0)
        triples = rng.integers(0, K, size=(samples, 3))
        g1, g2, g3 = triples.T
        p12, p23 = G.compose[g1, g2], G.compose[g2, g3]
        lhs = np.where(p12 != UNDEFINED, G.compose[p12, g3], UNDEFINED)
        rhs = np.where(p23 != UNDEFINED, G.compose[g1, p23], UNDEFINED)
        witness = _first(triples[lhs != rhs])
        return AxiomCheck(witness is None, witness, samples, sampled=True)

    # the table behind an UNDEFINED column 0, so that g2 o g3 = -1 looks up
    # column 0 of row g1: g1 o (g2 o g3) is then UNDEFINED too
    padded = np.full((K, K + 1), UNDEFINED, dtype=np.int32)
    padded[:, 1:] = G.compose
    block = max(1, _ASSOCIATIVITY_BLOCK // K)
    checked = 0
    for lo in range(0, len(pairs), block):
        g1, g2 = pairs[lo:lo + block].T
        p12 = prods[lo:lo + block]
        lhs = padded[p12, 1:]
        rhs = np.take(padded, (g1 * (K + 1) + 1)[:, None] + padded[g2, 1:])
        counts = np.count_nonzero(defined[p12] | defined[g2], axis=1)
        bad = lhs != rhs
        if bad.any():
            row, g3 = divmod(int(bad.argmax()), K)
            checked += int(counts[:row + 1].sum())
            return AxiomCheck(False, (int(g1[row]), int(g2[row]), g3), checked)
        checked += int(counts.sum())
    return AxiomCheck(True, None, checked)


# ---------------------------------------------------------------------------
# derived structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Orbit:
    members: frozenset


@dataclass(frozen=True)
class IsotropyGroup:
    base_unit: int
    members: tuple
    table: np.ndarray  # composition in member indices

    @property
    def order(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Classification:
    principal: bool
    transitive: bool


@dataclass(frozen=True)
class ConnectingSet:
    """Elements from unit u0 to unit u1; empty iff the units are disconnected."""

    elements: frozenset
    connected: bool


def _require_sane(G: FiniteGroupoid) -> None:
    unit_mask = np.zeros(G.order, dtype=bool)
    unit_mask[list(G.units)] = True
    if not (unit_mask[G.source].all() and unit_mask[G.target].all()):
        raise GroupoidStructureError("source/target do not land in the units")


def orbits(G: FiniteGroupoid) -> list[Orbit]:
    """Partition of the units by reachability through groupoid elements."""
    _require_sane(G)
    parent = {u: u for u in G.units}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for g in range(G.order):
        a, b = find(int(G.target[g])), find(int(G.source[g]))
        if a != b:
            parent[a] = b
    groups: dict[int, set] = {}
    for u in G.units:
        groups.setdefault(find(u), set()).add(u)
    return [Orbit(frozenset(m)) for m in sorted(groups.values(), key=min)]


def isotropy_group(G: FiniteGroupoid, unit: int) -> IsotropyGroup:
    """The group of elements with source and target both equal to ``unit``."""
    if unit not in G.units:
        raise ValueError(f"element {unit} is not a unit")
    members = tuple(
        int(g)
        for g in range(G.order)
        if G.source[g] == unit and G.target[g] == unit
    )
    pos = {g: i for i, g in enumerate(members)}
    table = np.empty((len(members), len(members)), dtype=np.int64)
    for a in members:
        for b in members:
            c = G.product(a, b)
            if c is None or c not in pos:
                raise GroupoidStructureError(
                    f"isotropy set at unit {unit} is not closed under composition"
                )
            table[pos[a], pos[b]] = pos[c]
    return IsotropyGroup(base_unit=int(unit), members=members, table=table)


def classify(G: FiniteGroupoid) -> Classification:
    """Principal iff (r, s) is injective, transitive iff it is onto G0 x G0."""
    rs = set(zip(G.target.tolist(), G.source.tolist()))
    n_units = len(G.units)
    return Classification(
        principal=len(rs) == G.order,
        transitive=len(rs) == n_units * n_units,
    )


def connecting_coset(G: FiniteGroupoid, u0: int, u1: int) -> ConnectingSet:
    """All elements with source u0 and target u1 (the coset joining two units)."""
    for u in (u0, u1):
        if u not in G.units:
            raise ValueError(f"element {u} is not a unit")
    elems = frozenset(
        int(g)
        for g in range(G.order)
        if G.source[g] == u0 and G.target[g] == u1
    )
    return ConnectingSet(elements=elems, connected=bool(elems))
