"""Finite groupoids with explicit composition tables.

A groupoid is stored as a dense structure over integer element ids
``0..order-1``: unit flags, source/target/inverse maps, and a ``KxK``
``int16`` partial composition table with ``-1`` marking undefined products
(``MAX_DENSE_BYTES`` caps K at 32,768, so every id fits).
All structural axioms can then be checked by exhaustive enumeration, which
is the point of this module: constructions are cheap, verification is
total.  Associativity is scanned over the composable triples only (the
paper's G^(3)), read off the table's composable pairs; the scan reads the
table in row blocks and needs O(|G^(2)|) memory besides it, no KxK mask.
It is exhaustive up to 2^24 composable triples and samples seeded pairs above.

Memory policy: ``check_dense_size`` refuses dense arrays above
``MAX_DENSE_BYTES``, and every blocked loop takes ``blocks`` of
``BLOCK_ENTRIES`` = 2^16 entries (1 MB of complex128), which bounds
temporaries and lets glibc reuse heap pages between them.

All objects are immutable after construction and safe to share across
threads; every operation here is a pure function.  The package's value types
are ``typing.NamedTuple`` records or ``__slots__`` classes under ``Frozen``,
not dataclasses: a frozen ``@dataclass`` writes and ``exec``s its methods at
import, 0.5-0.8 ms a class (Python 3.11, 2 vCPUs), which for 21 classes was a
quarter of importing the package.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import warnings
from typing import Callable, NamedTuple, Sequence

import numpy as np

UNDEFINED = -1
# every constructor stores the composition table in this dtype; flat ids j*K + k are int32
TABLE_DTYPE = np.int16
# Largest dense array a constructor or CLI run may allocate; larger requests
# are refused up front instead of failing inside numpy
MAX_DENSE_BYTES = 1 << 31

# The associativity scan is O(|G^(3)|): exhaustive up to 2^24 composable triples
# (pair(64) exactly), above that random composable pairs up to the budget below.
EXHAUSTIVE_TRIPLE_LIMIT = 1 << 24
DEFAULT_ASSOCIATIVITY_SAMPLES = 200_000
# Entries per block of every bounded-memory loop (1 MB of complex128), also table
# entries of a defined mask and composable triples of the associativity scan.  Not
# lower: freed 1 MB temporaries lift glibc's mmap threshold above photon_tomogram's
# 512 KB point blocks, which then reuse heap pages; at 1 << 15 they are mmapped
# afresh every batch, and a photon run's minor page faults go from ~170 to ~9,100
BLOCK_ENTRIES = 1 << 16


class InfeasibleError(ValueError):
    """Well-formed input that a size or numerical limit refuses (CLI exit 3).

    Dense arrays above ``MAX_DENSE_BYTES``, kernels above the materialization
    limit, lattices outside their reliability region, overflowing weights.
    """


def size_text(n: int) -> str:
    """A size for a one-line message: exact below 10^15, else to three figures."""
    # int -> float raises OverflowError past the float range, so those read inf
    return f"{n:,}" if n < 10**15 else f"{float(n) if n < 2**1023 else math.inf:.3g}"


def check_dense_size(shape: tuple, dtype, what: str) -> None:
    """Raise ``InfeasibleError`` if an array of ``shape`` and ``dtype`` exceeds the limit."""
    shape = tuple(map(int, shape))
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if nbytes > MAX_DENSE_BYTES:
        # int / int raises OverflowError once the quotient leaves the float range
        gib = nbytes / 2**30 if nbytes.bit_length() <= 1024 else math.inf
        raise InfeasibleError(
            f"{what} of shape {' x '.join(map(size_text, shape))} needs {gib:.3g} GiB, "
            f"above the {MAX_DENSE_BYTES / 2**30:g} GiB limit"
        )


def blocks(n: int, per_item: int):
    """Slices covering ``range(n)`` in order, ``max(1, BLOCK_ENTRIES // per_item)`` items each."""
    step = max(1, BLOCK_ENTRIES // per_item)
    return (slice(lo, min(lo + step, n)) for lo in range(0, n, step))


def _undefined_table(order: int) -> np.ndarray:
    check_dense_size((order, order), TABLE_DTYPE, "composition table")
    return np.full((order, order), UNDEFINED, dtype=TABLE_DTYPE)


class GroupoidStructureError(ValueError):
    """Raised when input data cannot form a groupoid at all."""


class ActionLawError(ValueError):
    """Raised when a claimed group action violates an action law."""


class NotTransitiveError(ValueError):
    """Raised by operations defined only for transitive groupoids."""


def _element_ids(values, order: int, what: str, row: tuple = (), low: int = 0) -> np.ndarray:
    """Ids as an integer (n, *row) array in low..order-1; 0.9 and false are refused, not cast."""
    message = f"{what} must be integer element ids in " + (f"rows of {row[0]}" if row else "a list")
    try:
        arr = np.asarray(values)
    except ValueError as exc:
        raise GroupoidStructureError(message) from exc
    if arr.shape == (0,):
        arr = np.empty((0, *row), dtype=np.int64)
    if arr.ndim != 1 + len(row) or arr.shape[1:] != row or arr.dtype.kind not in "iu":
        raise GroupoidStructureError(message)
    cells = itertools.chain.from_iterable(values) if row else values  # [False, 3] is int64
    if not isinstance(values, np.ndarray) and {bool, np.bool_} & set(map(type, cells)):
        raise GroupoidStructureError(message)
    if arr.size and (arr.min() < low or arr.max() >= order):
        raise GroupoidStructureError(f"{what} entry outside the element ids {low}..{order - 1}")
    return arr


def _order(value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise GroupoidStructureError("order must be an integer >= 1")
    return int(value)


# "key": of an object member, after the "{" or "," before it
_MEMBER = re.compile(r'[ \t\n\r]*([{,])[ \t\n\r]*("(?:[^"\\\x00-\x1f]|\\.)*")[ \t\n\r]*:[ \t\n\r]*')
_OBJECT_END = re.compile(r"[ \t\n\r]*}[ \t\n\r]*\Z")
# an array of arrays ends at the first "]" then "]", which closes flat rows
_ROWS_START = re.compile(r"\[[ \t\n\r]*\[")
_ROWS_END = re.compile(r"\][ \t\n\r]*\]")
_DECODER = json.JSONDecoder()


def _int_rows(raw: bytes) -> np.ndarray:
    """The JSON array of integer triples ``raw`` as an (n, 3) int64 array, no list per row.

    Ids are >= 0, so -0 is the one signed number to let through; a leading
    zero, which json refuses, shows as more digits than the values print with.
    """
    message = "compose must be an array of integer triples"
    digits = raw.translate(None, b"0123456789")
    skeleton = digits.translate(None, b"- \t\n\r")
    n = len(skeleton) // 5
    if skeleton != b"[" + b"[,,]," * (n - 1) + b"[,,]]" or (
            b"-" in raw and raw.count(b"-") != raw.count(b"-0")):
        raise GroupoidStructureError(message)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # older numpy only warns about data left over
        try:
            values = np.fromstring(raw.translate(None, b"[]"), np.int64, sep=",")
        except (ValueError, Warning) as exc:
            raise GroupoidStructureError(message) from exc
    shown = values.size + sum(np.count_nonzero(values >= 10**k)
                              for k in range(1, len(str(values.max(initial=0)))))
    if shown != len(raw) - len(digits):
        raise GroupoidStructureError(message)
    return values.reshape(n, 3)


def _read_json(text: str):
    """``json.loads(text)``, except that top-level "compose" rows come back as an int64 array.

    The top-level object is walked member by member; a text that is not an
    object, and a syntax error between members, are left to ``json.loads``.
    """
    data, i = {}, 0
    while (member := _MEMBER.match(text, i)) and (member[1] == "{") == (i == 0):
        key, i = json.loads(member[2]), member.end()
        rows = key == "compose" and _ROWS_START.match(text, i) and _ROWS_END.search(text, i)
        if rows:
            data[key], i = _int_rows(text[i:rows.end()].encode()), rows.end()
        else:
            data[key], i = _DECODER.raw_decode(text, i)
    return data if data and _OBJECT_END.match(text, i) else json.loads(text)


def _defined_rows(compose: np.ndarray):
    """(first row, defined mask) of ``compose``, one block of rows at a time."""
    for rows in blocks(len(compose), len(compose)):
        yield rows.start, compose[rows] != UNDEFINED


class Frozen:
    """Base of the validated value types: ``__init__`` stores each slot once with
    ``object.__setattr__``, and a later assignment or deletion is refused."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: {name!r} cannot change")

    __delattr__ = __setattr__

    def __reduce__(self):
        """Copies and pickles rebuild through ``__init__``, which takes the slots in order."""
        return type(self), tuple(getattr(self, s) for s in self.__slots__)


class FiniteGroupoid(Frozen):
    """A finite groupoid over elements ``0..order-1``.

    Attributes
    ----------
    order : number of elements K.
    units : ids of the unit elements (the subset G0).
    source, target : maps assigning each element its right/left unit.
    inverse : the two-sided inverse map.
    compose : KxK table; ``compose[j, k]`` is the id of ``j o k`` or -1.
    name : a label, ignored by ``==``.
    """

    __slots__ = ("order", "units", "source", "target", "inverse", "compose", "name")

    def __init__(self, order: int, units, source, target, inverse, compose, name: str = ""):
        """Coerce and freeze the fields; the one place the storage is decided.

        ``units`` becomes a frozenset of ints, the maps read-only int64 arrays
        and ``compose`` a read-only ``TABLE_DTYPE`` array (an int16 table is
        not copied).  An order whose table exceeds ``MAX_DENSE_BYTES`` is
        refused before the table is read.  Ids are checked before any narrowing
        cast, so a float or out-of-range id is refused rather than truncated.
        """
        order = _order(order)
        check_dense_size((order, order), TABLE_DTYPE, "composition table")
        units = list(units) if isinstance(units, (set, frozenset)) else units
        units = _element_ids(units, order, "units")
        fields = {"compose": _element_ids(compose, order, "compose", (order,), UNDEFINED)}
        if fields["compose"].shape[0] != order:
            raise GroupoidStructureError("composition table must be KxK")
        for attr, value in (("source", source), ("target", target), ("inverse", inverse)):
            fields[attr] = _element_ids(value, order, attr)
            if fields[attr].shape != (order,):
                raise GroupoidStructureError(f"{attr} map has wrong length")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "units", frozenset(units.tolist()))
        for attr, arr in fields.items():
            arr = np.asarray(arr, dtype=TABLE_DTYPE if attr == "compose" else np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, attr, arr)
        object.__setattr__(self, "name", name)

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

    def product(self, j: int, k: int) -> int | None:
        """Return ``j o k`` or None when the pair is not composable."""
        out = int(self.compose[j, k])
        return None if out == UNDEFINED else out

    def composable_pairs(self) -> np.ndarray:
        """All (j, k) with ``j o k`` defined, in lexicographic order, as int32 ids (K^2 < 2^30)."""
        flat = np.concatenate([np.flatnonzero(d) + lo * self.order
                               for lo, d in _defined_rows(self.compose)], dtype=np.int32)
        return np.column_stack(np.divmod(flat, self.order))

    def composable_triples(self) -> np.ndarray:
        """All (j, k, i) with ``j o k = i``, in lexicographic (j, k) order."""
        pairs = self.composable_pairs()
        prods = self.compose[pairs[:, 0], pairs[:, 1]]
        return np.column_stack([pairs, prods])

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "units": sorted(self.units),
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
        order = _order(data["order"])
        triples = _element_ids(data["compose"], order, "compose", row=(3,))
        compose = _undefined_table(order)
        compose[triples[:, 0], triples[:, 1]] = triples[:, 2]
        if sum(np.count_nonzero(d) for _, d in _defined_rows(compose)) != len(triples):
            raise GroupoidStructureError("compose lists some (j, k) pair twice")
        return FiniteGroupoid(order, *(data[key] for key in keys[1:5]), compose,
                              name=data.get("name", ""))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @staticmethod
    def load(path) -> "FiniteGroupoid":
        """``from_dict`` of the JSON file at ``path``, its compose rows decoded as one array."""
        with open(path) as fh:
            return FiniteGroupoid.from_dict(_read_json(fh.read()))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def pair_groupoid(n: int) -> FiniteGroupoid:
    """Pair groupoid of an n-point set: n units, trivial isotropy, (x, t) o (t, y) = (x, y).

    Element (x, y) gets id ``x*n + y``; the units are the diagonal pairs.
    """
    if n < 1:
        raise GroupoidStructureError("pair groupoid needs n >= 1 base points")
    return transitive_groupoid(n, [[0]], name=f"pair({n})")


def cyclic_group_table(n: int) -> np.ndarray:
    """Multiplication table of the cyclic group Z_n (identity is 0)."""
    if n < 1:
        raise ValueError("cyclic group needs n >= 1")
    check_dense_size((n, n), np.int64, "cyclic group table")
    return np.add.outer(np.arange(n), np.arange(n)) % n


def _group_structure(table) -> tuple[np.ndarray, int, np.ndarray]:
    """(table, identity, inverse map) of a group multiplication table; float entries refused."""
    table = _element_ids(table, len(table), "group table", row=(len(table),))
    ids = np.arange(table.shape[0])
    two_sided = np.flatnonzero((table == ids).all(axis=1) & (table.T == ids).all(axis=1))
    if len(two_sided) == 0:
        raise GroupoidStructureError("table has no two-sided identity")
    e = int(two_sided[0])
    hits = table == e
    inv = hits.argmax(axis=1)
    bad = np.flatnonzero((hits.sum(axis=1) != 1) | (table[inv, ids] != e))
    if len(bad):
        raise GroupoidStructureError(f"element {bad[0]} has no two-sided inverse")
    return table, e, inv


def group_groupoid(table: np.ndarray, name: str = "") -> FiniteGroupoid:
    """A finite group seen as a groupoid with the single unit {e}: one-unit transitive."""
    return transitive_groupoid(1, table, name=name or f"group({len(table)})")


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
    table, e, inv = _group_structure(table)
    m = len(table)
    act = np.array([[action(x, g) for g in range(m)] for x in range(n_points)]).reshape(n_points, m)
    if act.size and act.dtype.kind not in "iu":
        raise ActionLawError("the action must map to integer point ids")
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

    units = np.arange(n_points) * m + e
    compose = _undefined_table(n_points * m)
    x, g, h = np.ix_(range(n_points), range(m), range(m))
    compose[x * m + g, act[x, g] * m + h] = x * m + table[g, h]
    return FiniteGroupoid(n_points * m, units, act.reshape(-1) * m + e, np.repeat(units, m),
                          (act * m + inv).reshape(-1), compose,
                          name=name or f"action({n_points}x{m})")


def transitive_groupoid(n_units: int, table: np.ndarray, name: str = "") -> FiniteGroupoid:
    """Transitive groupoid with ``n_units`` units and isotropy group ``table``.

    Elements are triples (u, v, h): target unit u, source unit v, isotropy
    label h, composed by ``(u, v, h) o (v, w, h') = (u, w, h h')``.  Every
    finite transitive groupoid is of this form.
    """
    table, e, inv = _group_structure(table)
    m = len(table)
    order = _order(n_units) ** 2 * m  # n_units < 1 is refused like an order < 1

    def idx(u, v, h):
        return (u * n_units + v) * m + h

    compose = _undefined_table(order)  # refuses an order too large before anything is built
    u_of, v_of, h_of = np.unravel_index(np.arange(order), (n_units, n_units, m))
    # block (u, v, .) x (v, w, .) is (u, w, table), filled in TABLE_DTYPE, which holds every id
    u, v, w = np.ix_(*[np.arange(n_units, dtype=TABLE_DTYPE)] * 3)
    blocks = compose.reshape(n_units, n_units, m, n_units, n_units, m)
    blocks[u, v, :, v, w, :] = idx(u, w, 0)[..., None, None] + table.astype(TABLE_DTYPE)
    diag = np.arange(n_units)
    return FiniteGroupoid(order, idx(diag, diag, e), idx(v_of, v_of, e), idx(u_of, u_of, e),
                          idx(v_of, u_of, inv[h_of]), compose,
                          name=name or f"transitive({n_units},H{m})")


def disjoint_union(parts: Sequence[FiniteGroupoid], name: str = "") -> FiniteGroupoid:
    """Index-shifted union of groupoids; cross-part products stay undefined."""
    if not parts:
        raise GroupoidStructureError("disjoint union of an empty list")
    offsets = np.cumsum([0] + [p.order for p in parts]).tolist()
    compose = _undefined_table(offsets[-1])  # so every shifted id fits TABLE_DTYPE
    for p, off in zip(parts, offsets):
        defined = p.compose != UNDEFINED
        compose[off:off + p.order, off:off + p.order] = np.where(defined, p.compose + off, UNDEFINED)
    maps = [np.concatenate([getattr(p, attr) + off for p, off in zip(parts, offsets)])
            for attr in ("source", "target", "inverse")]
    units = [u + off for p, off in zip(parts, offsets) for u in p.units]
    return FiniteGroupoid(offsets[-1], units, *maps, compose,
                          name=name or "+".join(p.name or "?" for p in parts))


# ---------------------------------------------------------------------------
# axiom validation
# ---------------------------------------------------------------------------


class AxiomCheck(NamedTuple):
    passed: bool
    witness: tuple | None = None
    checked: int = 0
    sampled: bool = False


class AxiomReport(NamedTuple):
    """Outcome of the exhaustive structural scan, one entry per axiom.

    Witnesses are the lexicographically smallest violating tuples in the
    element-id order (a sampled ``d``: among the triples of the sampled pairs),
    so independent re-scans must reproduce them exactly.
    """

    entries: dict

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.entries.values())

    def failures(self) -> dict:
        return {k: v for k, v in self.entries.items() if not v.passed}


def _first(indices) -> tuple | None:
    if len(indices) == 0:
        return None
    return tuple(int(v) for v in np.atleast_1d(indices[0]))


def validate_axioms(G: FiniteGroupoid, rng: np.random.Generator | None = None) -> AxiomReport:
    """Check every groupoid axiom by enumeration (associativity sampled on large tables).

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

    Associativity is exhaustive up to 2^24 composable triples; above that it reads
    composable pairs drawn from ``rng`` (seed 0 by default) until their triples reach
    ``DEFAULT_ASSOCIATIVITY_SAMPLES``, and is flagged ``sampled`` if not all of G^(2).
    """
    K = G.order
    entries: dict[str, AxiomCheck] = {}
    unit_mask = np.zeros(K, dtype=bool)
    unit_mask[list(G.units)] = True

    bad = np.nonzero(~unit_mask[G.source] | ~unit_mask[G.target])[0]
    entries["maps_into_units"] = AxiomCheck(len(bad) == 0, _first(bad), K)

    pairs = G.composable_pairs()
    j, k = pairs.T
    # composable exactly when source(j) = target(k): row j is right iff all its
    # defined k have that target and there are as many as elements with it
    width = np.bincount(j, minlength=K)
    wanted = np.bincount(G.target, minlength=K)[G.source]
    matched = np.bincount(j[G.source[j] == G.target[k]], minlength=K)
    bad = np.flatnonzero((width != wanted) | (matched != wanted))
    witness = None
    if len(bad):
        r = int(bad[0])
        mismatch = (G.target == G.source[r]) ^ (G.compose[r] != UNDEFINED)
        witness = (r, int(mismatch.argmax()))
    entries["domain"] = AxiomCheck(witness is None, witness, K * K)

    prods = G.compose[j, k]
    bad = pairs[(G.target[prods] != G.target[j]) | (G.source[prods] != G.source[k])]
    entries["a"] = AxiomCheck(len(bad) == 0, _first(bad), len(pairs))

    units = np.array(sorted(G.units), dtype=np.int64)
    bad = units[(G.source[units] != units) | (G.target[units] != units)]
    entries["b"] = AxiomCheck(len(bad) == 0, _first(bad), len(units))

    ids = np.arange(K)
    left = G.compose[G.target[ids], ids]
    right = G.compose[ids, G.source[ids]]
    bad = np.nonzero((left != ids) | (right != ids))[0]
    entries["c"] = AxiomCheck(len(bad) == 0, _first(bad), K)

    entries["d"] = _check_associativity(G, pairs, prods, width, rng)

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


def _scanned_pairs(pairs: np.ndarray, width: np.ndarray, rng) -> slice | np.ndarray:
    """Index into ``pairs`` of the (g1, g2) the associativity scan reads, in order.

    All of them while |G^(3)| (``width[g2]`` triples per pair) is at most
    ``EXHAUSTIVE_TRIPLE_LIMIT``; above it, ``k`` pairs drawn without replacement,
    enough to reach ``DEFAULT_ASSOCIATIVITY_SAMPLES`` at the smallest width, cut there.
    """
    uses = np.bincount(pairs[:, 1], minlength=len(width))
    if uses @ width <= EXHAUSTIVE_TRIPLE_LIMIT:
        return slice(None)
    k = min(len(pairs), DEFAULT_ASSOCIATIVITY_SAMPLES // max(1, width[uses > 0].min()) + 1)
    drawn = (rng or np.random.default_rng(0)).choice(len(pairs), k, replace=False)
    n = np.searchsorted(np.cumsum(width[pairs[drawn, 1]]), DEFAULT_ASSOCIATIVITY_SAMPLES) + 1
    return np.sort(drawn[:n])


def _check_associativity(G, pairs, prods, width, rng) -> AxiomCheck:
    """``(g1 o g2) o g3 = g1 o (g2 o g3)``, both sides undefined counting as equal.

    The scan walks the pairs (g1, g2) of ``_scanned_pairs`` in blocks, in
    lexicographic order.  ``pairs`` sorted by row is the CSR form of the
    table, so the composable triples of a pair are read off row g2: there
    both sides are compared.  The g3 with only ``(g1 o g2) o g3`` defined all
    violate; they are the bits of ``packed[g1 o g2] & ~packed[g2]`` in the
    defined mask, bit-packed one row block at a time.  The witness is the
    lexicographically smallest violating triple of the scanned pairs, and
    ``checked`` counts the g3 with ``(g1 o g2) o g3`` or ``g2 o g3`` defined
    over the scanned pairs up to the witness's.
    """
    K = G.order
    scan = _scanned_pairs(pairs, width, rng)
    g1_all, g2_all, p12_all = pairs[scan, 0], pairs[scan, 1], prods[scan]
    sampled = len(p12_all) < len(prods)
    # CSR view of the table: row g2 holds its defined columns g3 and products
    # g2 o g3 at pairs[start[g2]:start[g2] + width[g2]]
    cols = pairs[:, 1]
    start = np.cumsum(width) - width
    # a block ends where the running triple count passes a multiple of BLOCK_ENTRIES
    cuts = (np.flatnonzero(np.diff(np.cumsum(width[g2_all]) // BLOCK_ENTRIES)) + 1).tolist()
    packed = np.concatenate([np.packbits(d, axis=1) for _, d in _defined_rows(G.compose)])
    table = G.compose.ravel()
    checked = 0
    for lo, hi in zip([0, *cuts], [*cuts, len(p12_all)]):
        g1, g2, p12, n = g1_all[lo:hi], g2_all[lo:hi], p12_all[lo:hi], width[g2_all[lo:hi]]
        # g3 with (g1 o g2) o g3 defined but g2 o g3 not: each one violates
        only_left = packed[p12] & ~packed[g2]
        counts = n + np.bitwise_count(only_left).sum(axis=1, dtype=np.int64)
        # composable triples: g3 runs over the defined columns of row g2
        pos = np.repeat(start[g2] - (np.cumsum(n) - n), n)
        pos += np.arange(len(pos))
        flat12 = np.repeat(p12.astype(np.int32) * K, n)  # an int16 p12 * K would wrap
        bad = table[flat12 + cols[pos]] != table[np.repeat(g1 * K, n) + prods[pos]]
        row = np.repeat(np.arange(hi - lo), n)
        violations = counts - n + np.bincount(row[bad], minlength=hi - lo)
        if violations.any():
            r = int(np.flatnonzero(violations)[0])
            row_bad = np.unpackbits(only_left[r], count=K).view(bool)
            row_bad[cols[pos[bad & (row == r)]]] = True
            witness = (int(g1[r]), int(g2[r]), int(row_bad.argmax()))
            return AxiomCheck(False, witness, checked + int(counts[:r + 1].sum()), sampled)
        checked += int(counts.sum())
        del only_left, pos, flat12, bad, row  # before the next block allocates its own
    return AxiomCheck(True, None, checked, sampled)


# ---------------------------------------------------------------------------
# derived structure
# ---------------------------------------------------------------------------


class Orbit(NamedTuple):
    members: frozenset


class IsotropyGroup(NamedTuple):
    base_unit: int
    members: tuple
    table: np.ndarray  # composition in member indices

    @property
    def order(self) -> int:
        return len(self.members)


class Classification(NamedTuple):
    principal: bool
    transitive: bool


class ConnectingSet(NamedTuple):
    """Elements from unit u0 to unit u1; empty iff the units are disconnected."""

    elements: frozenset
    connected: bool


def _require_sane(G: FiniteGroupoid) -> None:
    unit_mask = np.zeros(G.order, dtype=bool)
    unit_mask[list(G.units)] = True
    if not (unit_mask[G.source].all() and unit_mask[G.target].all()):
        raise GroupoidStructureError("source/target do not land in the units")


def orbits(G: FiniteGroupoid) -> list[Orbit]:
    """Partition of the units by reachability through groupoid elements.

    Min-label propagation: every element g joins the labels of its units
    r(g) and s(g), and pointer jumping shortens the chains, until each unit
    carries the smallest unit id of its orbit.
    """
    _require_sane(G)
    label = np.arange(G.order)
    while True:
        joined = label.copy()
        np.minimum.at(joined, G.target, label[G.source])
        np.minimum.at(joined, G.source, label[G.target])
        joined = joined[joined]
        if np.array_equal(joined, label):
            break
        label = joined
    units = np.array(sorted(G.units))
    by_orbit = np.argsort(label[units], kind="stable")
    cuts = np.flatnonzero(np.diff(label[units[by_orbit]])) + 1
    return [Orbit(frozenset(m.tolist())) for m in np.split(units[by_orbit], cuts)]


def isotropy_group(G: FiniteGroupoid, unit: int) -> IsotropyGroup:
    """The group of elements with source and target both equal to ``unit``."""
    if unit not in G.units:
        raise ValueError(f"element {unit} is not a unit")
    members = np.flatnonzero((G.source == unit) & (G.target == unit))
    products = G.compose[np.ix_(members, members)]
    pos = np.full(G.order + 1, -1)  # products -1 (undefined) look up the last slot
    pos[members] = np.arange(len(members))
    table = pos[products]
    if (table < 0).any():
        raise GroupoidStructureError(
            f"isotropy set at unit {unit} is not closed under composition"
        )
    return IsotropyGroup(base_unit=int(unit), members=tuple(members.tolist()), table=table)


def classify(G: FiniteGroupoid) -> Classification:
    """Principal iff (r, s) is injective, transitive iff it is onto G0 x G0."""
    n_rs = len(np.unique(G.target * G.order + G.source))
    n_units = len(G.units)
    return Classification(
        principal=n_rs == G.order,
        transitive=n_rs == n_units * n_units,
    )


def connecting_coset(G: FiniteGroupoid, u0: int, u1: int) -> ConnectingSet:
    """All elements with source u0 and target u1 (the coset joining two units)."""
    for u in (u0, u1):
        if u not in G.units:
            raise ValueError(f"element {u} is not a unit")
    elems = frozenset(np.flatnonzero((G.source == u0) & (G.target == u1)).tolist())
    return ConnectingSet(elements=elems, connected=bool(elems))
