import copy
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_acceptance import _mutate, _oracle_scan

from groupoidal import groupoid
from groupoidal.cli import main
from groupoidal.groupoid import (
    DEFAULT_ASSOCIATIVITY_SAMPLES,
    EXHAUSTIVE_TRIPLE_LIMIT,
    MAX_DENSE_BYTES,
    TABLE_DTYPE,
    UNDEFINED,
    ActionLawError,
    AxiomCheck,
    FiniteGroupoid,
    GroupoidStructureError,
    InfeasibleError,
    action_groupoid,
    blocks,
    check_dense_size,
    classify,
    connecting_coset,
    cyclic_group_table,
    disjoint_union,
    group_groupoid,
    isotropy_group,
    orbits,
    pair_groupoid,
    transitive_groupoid,
    validate_axioms,
)
from oracles import traced_peak


def swap_action(x, g):
    return x if g == 0 else 1 - x


def trivial_action(x, g):
    return x


class TestPairGroupoid:
    def test_small_structure(self):
        G = pair_groupoid(3)
        assert G.order == 9
        assert len(G.units) == 3
        # (0,1) o (1,2) = (0,2)
        assert G.product(0 * 3 + 1, 1 * 3 + 2) == 0 * 3 + 2

    def test_trivial(self):
        G = pair_groupoid(1)
        assert G.order == 1
        assert validate_axioms(G).all_passed

    def test_noncomposable(self):
        G = pair_groupoid(2)
        # s(0,1) = (1,1) != r(0,1) = (0,0)
        assert G.product(1, 1) is None

    def test_zero_size_rejected(self):
        with pytest.raises(GroupoidStructureError):
            pair_groupoid(0)
        for n_units in (0, -2):  # -2 squares to a positive order
            with pytest.raises(GroupoidStructureError, match="order must be an integer >= 1"):
                transitive_groupoid(n_units, [[0]])

    @pytest.mark.parametrize("n", range(1, 11))
    def test_principal_transitive(self, n):
        cls = classify(pair_groupoid(n))
        assert cls.principal and cls.transitive

    def test_inverse_and_units(self):
        G = pair_groupoid(4)
        for x in range(4):
            for y in range(4):
                g = x * 4 + y
                assert G.inverse[g] == y * 4 + x
        assert G.units == frozenset(i * 4 + i for i in range(4))


class TestActionGroupoid:
    def test_swap_is_pair_groupoid(self):
        # Z2 acting by swap on two points is isomorphic to pair(2):
        # relabel (x, g) -> (x, x^g) and compare the full tables.
        G = action_groupoid(cyclic_group_table(2), swap_action, 2)
        P = pair_groupoid(2)
        assert G.order == 4 and len(G.units) == 2
        cls = classify(G)
        assert cls.transitive
        assert isotropy_group(G, min(G.units)).order == 1

        def relabel(e):
            x, g = divmod(e, 2)
            return x * 2 + swap_action(x, g)

        for j in range(4):
            for k in range(4):
                pj, pk = relabel(j), relabel(k)
                got = G.product(j, k)
                want = P.product(pj, pk)
                assert (got is None) == (want is None)
                if got is not None:
                    assert relabel(got) == want

    def test_group_on_point(self):
        G = action_groupoid(cyclic_group_table(2), trivial_action, 1)
        assert len(G.units) == 1
        assert isotropy_group(G, min(G.units)).order == 2
        assert validate_axioms(G).all_passed

    def test_trivial_action_two_points(self):
        G = action_groupoid(cyclic_group_table(2), trivial_action, 2)
        orbs = orbits(G)
        assert len(orbs) == 2
        assert all(len(o.members) == 1 for o in orbs)
        assert not classify(G).transitive
        for u in G.units:
            assert isotropy_group(G, u).order == 2

    def test_invalid_action_reports_law(self):
        def broken(x, g):
            return 0  # identity does not act trivially on point 1

        with pytest.raises(ActionLawError, match="identity law"):
            action_groupoid(cyclic_group_table(2), broken, 2)

        def incompatible(x, g):
            # not an action of Z3: g=1 rotates three points, g=2 acts as swap
            if g == 0:
                return x
            if g == 1:
                return (x + 1) % 3
            return [1, 0, 2][x]

        with pytest.raises(ActionLawError, match="compatibility"):
            action_groupoid(cyclic_group_table(3), incompatible, 3)

    def test_non_integer_action_refused(self):
        # truncated, 1.9 - x would act as the swap and build pair(2)
        with pytest.raises(ActionLawError, match="integer"):
            action_groupoid(cyclic_group_table(2), lambda x, g: x if g == 0 else 1.9 - x, 2)


class TestDisjointUnion:
    def test_orders_add(self):
        G = disjoint_union([pair_groupoid(2), pair_groupoid(3)])
        assert G.order == 13
        assert len(orbits(G)) == 2
        assert validate_axioms(G).all_passed

    def test_cross_part_products_undefined(self):
        # spin-style union: (j m, j m') composes only within the same j
        G = disjoint_union([pair_groupoid(2), pair_groupoid(3)])
        for j in range(4):
            for k in range(4, 13):
                assert G.product(j, k) is None
                assert G.product(k, j) is None

    def test_single_part_identity(self):
        P = pair_groupoid(3)
        G = disjoint_union([P])
        assert G.order == P.order
        assert np.array_equal(G.compose, P.compose)

    def test_empty_rejected(self):
        with pytest.raises(GroupoidStructureError):
            disjoint_union([])


class TestValidateAxioms:
    def test_constructions_pass(self):
        for G in (
            pair_groupoid(4),
            group_groupoid(cyclic_group_table(5)),
            transitive_groupoid(2, cyclic_group_table(2)),
            action_groupoid(cyclic_group_table(2), swap_action, 2),
        ):
            report = validate_axioms(G)
            assert report.all_passed, report.failures()

    def test_redirected_composition_detected(self):
        G = pair_groupoid(3)
        compose = np.array(G.compose)
        j, k = 1, 5  # (0,1) o (1,2) = (0,2) = 2
        assert compose[j, k] == 2
        compose[j, k] = 4  # unit (1,1): wrong target/source bookkeeping
        broken = FiniteGroupoid(
            order=9, units=G.units, source=G.source, target=G.target,
            inverse=G.inverse, compose=compose,
        )
        report = validate_axioms(broken)
        assert not report.all_passed
        # associativity fails with a 3-element witness
        assert not report.entries["d"].passed
        assert len(report.entries["d"].witness) == 3
        g1, g2, g3 = report.entries["d"].witness
        # verify the witness by direct recomputation
        p12 = broken.product(g1, g2)
        lhs = broken.product(p12, g3) if p12 is not None else None
        p23 = broken.product(g2, g3)
        rhs = broken.product(g1, p23) if p23 is not None else None
        assert lhs != rhs

    def test_group_as_groupoid_passes(self):
        report = validate_axioms(group_groupoid(cyclic_group_table(4)))
        assert report.all_passed


class TestOrbitsIsotropyCosets:
    def test_pair_orbit(self):
        orbs = orbits(pair_groupoid(5))
        assert len(orbs) == 1
        assert len(orbs[0].members) == 5

    def test_isotropy_trivial_for_pair(self):
        G = pair_groupoid(4)
        for u in G.units:
            assert isotropy_group(G, u).order == 1

    def test_isotropy_of_group_is_group(self):
        G = group_groupoid(cyclic_group_table(6))
        iso = isotropy_group(G, 0)
        assert iso.order == 6
        assert np.array_equal(iso.table, cyclic_group_table(6))

    def test_isotropy_requires_unit(self):
        with pytest.raises(ValueError):
            isotropy_group(pair_groupoid(3), 1)

    def test_classify_group(self):
        cls = classify(group_groupoid(cyclic_group_table(3)))
        assert not cls.principal and cls.transitive

    def test_classify_union(self):
        cls = classify(disjoint_union([pair_groupoid(2), pair_groupoid(2)]))
        assert cls.principal and not cls.transitive

    def test_connecting_coset_pair(self):
        G = pair_groupoid(3)
        u0, u1 = 1 * 3 + 1, 0  # units (1,1) and (0,0)
        cs = connecting_coset(G, u0, u1)
        assert cs.connected and cs.elements == {0 * 3 + 1}

    def test_connecting_coset_group(self):
        G = group_groupoid(cyclic_group_table(2))
        cs = connecting_coset(G, 0, 0)
        assert cs.elements == {0, 1}

    def test_coset_size_equals_isotropy_order(self):
        for G in (
            transitive_groupoid(2, cyclic_group_table(2)),
            transitive_groupoid(3, cyclic_group_table(2)),
            pair_groupoid(4),
        ):
            units = sorted(G.units)
            h = isotropy_group(G, units[0]).order
            for u0 in units:
                for u1 in units:
                    cs = connecting_coset(G, u0, u1)
                    assert len(cs.elements) == h

    def test_coset_is_left_and_right_coset(self):
        G = transitive_groupoid(2, cyclic_group_table(2))
        u0, u1 = sorted(G.units)
        cs = connecting_coset(G, u0, u1)
        gamma = min(cs.elements)
        left = {G.product(gamma, h) for h in isotropy_group(G, u0).members}
        right = {G.product(h, gamma) for h in isotropy_group(G, u1).members}
        assert left == cs.elements == right

    def test_disconnected_units_flagged(self):
        G = disjoint_union([pair_groupoid(2), pair_groupoid(2)])
        units = sorted(G.units)
        cs = connecting_coset(G, units[0], units[-1])
        assert not cs.connected and not cs.elements

    def test_isotropy_conjugation_isomorphism(self):
        # isotropy groups of one orbit are isomorphic via h -> g o h o g^-1
        G = transitive_groupoid(2, cyclic_group_table(3))
        u0, u1 = sorted(G.units)
        gamma = min(connecting_coset(G, u0, u1).elements)
        iso0, iso1 = isotropy_group(G, u0), isotropy_group(G, u1)
        image = {
            G.product(G.product(gamma, h), int(G.inverse[gamma]))
            for h in iso0.members
        }
        assert image == set(iso1.members)

    def test_transitive_order_formula(self):
        # order = |G0|^2 * |H| for transitive groupoids
        for G in (
            pair_groupoid(5),
            group_groupoid(cyclic_group_table(7)),
            transitive_groupoid(2, cyclic_group_table(2)),
            transitive_groupoid(4, cyclic_group_table(2)),
            transitive_groupoid(2, cyclic_group_table(4)),
        ):
            u = len(G.units)
            h = isotropy_group(G, min(G.units)).order
            assert G.order == u * u * h

    def test_orbits_partition_and_union_stability(self):
        parts = [pair_groupoid(2), group_groupoid(cyclic_group_table(3)), pair_groupoid(3)]
        union = disjoint_union(parts)
        orbs = orbits(union)
        members = [o.members for o in orbs]
        assert sum(len(m) for m in members) == len(union.units)
        assert frozenset().union(*members) == union.units
        assert len(orbs) == sum(len(orbits(p)) for p in parts)


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        for G in (
            pair_groupoid(3),
            transitive_groupoid(2, cyclic_group_table(2)),
            disjoint_union([pair_groupoid(2), group_groupoid(cyclic_group_table(3))]),
        ):
            path = tmp_path / "g.json"
            G.save(path)
            H = FiniteGroupoid.load(path)
            assert H.order == G.order
            assert H.units == G.units
            assert np.array_equal(H.source, G.source)
            assert np.array_equal(H.target, G.target)
            assert np.array_equal(H.inverse, G.inverse)
            assert np.array_equal(H.compose, G.compose)


def _pair2_fields(as_arrays: bool) -> dict:
    """pair(2) as constructor keywords, from Python lists or from int64 arrays."""
    G = pair_groupoid(2)
    fields = {a: np.array(getattr(G, a), dtype=np.int64)
              for a in ("source", "target", "inverse", "compose")}
    if not as_arrays:
        fields = {a: v.tolist() for a, v in fields.items()}
    return {"order": 4, "units": [0, 3], **fields}


_STORAGE_CASES = {
    "pair": lambda: pair_groupoid(3),
    "group": lambda: group_groupoid(cyclic_group_table(4)),
    "action": lambda: action_groupoid(cyclic_group_table(2), swap_action, 2),
    "transitive": lambda: transitive_groupoid(2, cyclic_group_table(3)),
    "disjoint_union": lambda: disjoint_union([pair_groupoid(2), group_groupoid(cyclic_group_table(3))]),
    "from_dict": lambda: FiniteGroupoid.from_dict(pair_groupoid(2).to_dict()),
    "lists": lambda: FiniteGroupoid(**_pair2_fields(as_arrays=False)),
    "int64_arrays": lambda: FiniteGroupoid(**_pair2_fields(as_arrays=True)),
}


class TestStorage:
    """FiniteGroupoid.__post_init__ decides the storage for every way of building one."""

    @pytest.mark.parametrize("build", _STORAGE_CASES.values(), ids=_STORAGE_CASES.keys())
    def test_dtypes_and_read_only(self, build):
        G = build()
        assert type(G.order) is int
        assert isinstance(G.units, frozenset) and all(type(u) is int for u in G.units)
        for attr in ("source", "target", "inverse", "compose"):
            arr = getattr(G, attr)
            assert arr.dtype == (np.int16 if attr == "compose" else np.int64), attr
            assert not arr.flags.writeable, attr
            with pytest.raises(ValueError):
                arr[0] = 0
        assert validate_axioms(G).all_passed

    def test_fields_are_fixed_and_copies_rebuild(self):
        G = pair_groupoid(3)
        with pytest.raises(AttributeError, match="immutable"):
            G.order = 4
        with pytest.raises(AttributeError, match="immutable"):
            del G.name
        for H in (copy.deepcopy(G), pickle.loads(pickle.dumps(G))):
            assert H == G and H.name == G.name and not H.compose.flags.writeable

    def test_lists_and_arrays_build_the_same_groupoid(self):
        G = pair_groupoid(2)
        assert FiniteGroupoid(**_pair2_fields(as_arrays=False)) == G
        assert FiniteGroupoid(**_pair2_fields(as_arrays=True)) == G

    def test_table_in_table_dtype_is_not_copied(self):
        fields = _pair2_fields(as_arrays=True)
        table = fields["compose"].astype(TABLE_DTYPE)
        G = FiniteGroupoid(**{**fields, "compose": table})
        assert np.shares_memory(G.compose, table)

    @pytest.mark.parametrize("as_arrays", [False, True], ids=["lists", "int64_arrays"])
    @pytest.mark.parametrize(
        "key,value",
        [
            ("source", [0.0, 3.0, 0.0, 3.0]),
            ("inverse", [0, 2, 1, 4]),
            ("target", [0, 0, 3, -1]),
            ("units", [0.0, 3.0]),
            ("units", [0, 4]),
            ("compose", np.full((4, 4), 1.0)),
            ("compose", np.full((4, 4), 2**32 + 1, dtype=np.int64)),
            ("compose", np.full((4, 4), 2**16 + 1, dtype=np.int64)),
            ("compose", np.full((4, 4), -2)),
            ("order", 4.0),
        ],
        ids=["float_source", "inverse_beyond_order", "negative_target", "float_units",
             "unit_beyond_order", "float_table", "table_wraps_int32", "table_wraps_int16",
             "table_below_undefined", "float_order"],
    )
    def test_float_or_out_of_range_ids_refused(self, as_arrays, key, value):
        # truncated or wrapped, several of these would build a valid pair(2)
        fields = _pair2_fields(as_arrays)
        fields[key] = np.asarray(value) if as_arrays and key != "order" else value
        with pytest.raises(GroupoidStructureError):
            FiniteGroupoid(**fields)

    @pytest.mark.parametrize(
        "build", [group_groupoid, lambda t: transitive_groupoid(2, t),
                  lambda t: action_groupoid(t, swap_action, 2)],
        ids=["group", "transitive", "action"],
    )
    @pytest.mark.parametrize("table", [[[0.0, 1.0], [1.0, 0.0]], [[0, 1], [1, 2]]],
                             ids=["float_table", "entry_beyond_order"])
    def test_group_table_ids_refused(self, build, table):
        with pytest.raises(GroupoidStructureError):
            build(np.array(table))

    @pytest.mark.parametrize("key", ["source", "compose"])
    def test_wrong_shape_refused(self, key):
        fields = _pair2_fields(as_arrays=True)
        fields[key] = fields[key][:3]
        with pytest.raises(GroupoidStructureError):
            FiniteGroupoid(**fields)


def _sampled_pairs(G: FiniteGroupoid, seed: int) -> np.ndarray:
    """The (g1, g2) the associativity scan reads under ``rng=default_rng(seed)``."""
    pairs = G.composable_pairs()
    width = np.bincount(pairs[:, 0], minlength=G.order)
    rng = np.random.default_rng(seed)
    return pairs[groupoid._scanned_pairs(pairs, width, rng)]


class TestSampledAssociativity:
    def test_large_order_uses_sampling(self):
        # above the exhaustive cap the associativity entry reads whole rows of
        # 65 composable triples until the budget is reached, and is flagged
        G = pair_groupoid(65)  # 65^4 = 17.9 M composable triples > 2^24
        report = validate_axioms(G)
        check = report.entries["d"]
        assert check.sampled
        assert check.passed
        assert check.checked == 65 * math.ceil(DEFAULT_ASSOCIATIVITY_SAMPLES / 65)
        assert report.all_passed
        pairs = _sampled_pairs(G, 0)
        assert len(pairs) == math.ceil(DEFAULT_ASSOCIATIVITY_SAMPLES / 65)
        assert check == _scalar_associativity(G, pairs)

    def test_the_switch_reads_composable_triples_not_the_order(self):
        # Z256 has 2^24 composable triples, the inclusive limit; Z512 has 2^27
        # though its order is far below pair(65)'s
        d = validate_axioms(group_groupoid(cyclic_group_table(256))).entries["d"]
        assert not d.sampled and d.passed and d.checked == 256**3
        G = group_groupoid(cyclic_group_table(512))
        d = validate_axioms(G).entries["d"]
        assert d.sampled and d.passed
        pairs = _sampled_pairs(G, 0)
        assert len(pairs) == DEFAULT_ASSOCIATIVITY_SAMPLES // 512 + 1
        assert d == _scalar_associativity(G, pairs)

    @pytest.mark.parametrize("n", [65, 72])
    def test_redirected_product_is_found(self, n):
        # (0,1) o (1,2) := (0,3): about 2n of the n^3 composable pairs see it,
        # which a draw of triples from K^3 almost never hits
        G = pair_groupoid(n)
        compose = np.array(G.compose)
        compose[1, n + 2] = 3
        broken = FiniteGroupoid(order=G.order, units=G.units, source=G.source,
                                target=G.target, inverse=G.inverse, compose=compose)
        got = validate_axioms(broken, rng=np.random.default_rng(0)).entries["d"]
        assert got.sampled and not got.passed
        g1, g2, g3 = got.witness
        c = broken.compose
        assert c[g1, g2] != UNDEFINED
        lhs = c[c[g1, g2], g3]
        rhs = UNDEFINED if c[g2, g3] == UNDEFINED else c[g1, c[g2, g3]]
        assert lhs != rhs
        assert got == _scalar_associativity(broken, _sampled_pairs(broken, 0))


class TestLoaderRefusals:
    @pytest.mark.parametrize(
        "compose",
        [
            [[0, 0]],
            [[0, 0, 0, 0]],
            [[0, 0, 0], [0, 0]],
            [0, 0, 0],
            [[0, 0, 0.5]],
            [[-1, -1, 0]],
            [[0, 0, 4]],
            [[0, 1, 1], [0, 1, 1]],
        ],
        ids=["pair", "quadruple", "ragged", "flat", "float", "negative", "beyond_order",
             "duplicate"],
    )
    def test_malformed_compose_rejected(self, compose):
        data = pair_groupoid(2).to_dict()
        data["compose"] = compose
        with pytest.raises(GroupoidStructureError):
            FiniteGroupoid.from_dict(data)

    @pytest.mark.parametrize(
        "key,values",
        [
            ("source", [0.9, 3.2, 0, 3]),
            ("units", [0.5, 3.7]),
            ("target", [0, 3, 0, 3.0]),
            ("inverse", [0, 2, 1, "3"]),
            ("source", [True, False, True, False]),
            ("units", [[0], [3]]),
            ("units", 0),
            ("units", [0, 4]),
            ("inverse", [0, 2, 1, -3]),
        ],
        ids=["float_source", "float_units", "integral_float", "string", "bool", "nested",
             "scalar", "unit_beyond_order", "negative_inverse"],
    )
    def test_malformed_maps_rejected(self, key, values):
        data = pair_groupoid(2).to_dict()
        data[key] = values
        with pytest.raises(GroupoidStructureError):
            FiniteGroupoid.from_dict(data)

    @pytest.mark.parametrize(
        "key,values",
        [
            ("units", [False, 3]),
            ("source", [False, 3, 0, 3]),
            ("target", [False, 0, 3, 3]),
            ("inverse", [False, 2, 1, 3]),
            ("compose", [[False, 0, 0], [0, 1, 1], [1, 2, 0], [1, 3, 1], [2, 0, 2], [2, 1, 3],
                         [3, 2, 2], [3, 3, 3]]),
        ],
        ids=["units", "source", "target", "inverse", "compose"],
    )
    def test_boolean_id_among_integers_rejected(self, tmp_path, key, values):
        # np.asarray([False, 3]) is an int64 array; json and load read the same file alike
        data = dict(pair_groupoid(2).to_dict(), **{key: values})
        text = json.dumps(data)
        assert "false" in text
        with pytest.raises(GroupoidStructureError, match=key):
            FiniteGroupoid.from_dict(json.loads(text))
        path = tmp_path / "g.json"
        path.write_text(text)
        with pytest.raises(GroupoidStructureError, match=key):
            FiniteGroupoid.load(path)

    @pytest.mark.parametrize("order", [4.9, 4.0, "4", True, 0, -4],
                             ids=["fractional", "integral_float", "string", "bool", "zero",
                                  "negative"])
    def test_malformed_order_rejected(self, order):
        # int(4.9) would load pair(2) as order 4 and pass every axiom
        data = pair_groupoid(2).to_dict()
        data["order"] = order
        with pytest.raises(GroupoidStructureError, match="order"):
            FiniteGroupoid.from_dict(data)

    def test_contradicting_product_still_loads(self):
        # source/target violations are the axiom scan's business, with witnesses
        data = pair_groupoid(2).to_dict()
        data["compose"][0][2] = 3
        report = validate_axioms(FiniteGroupoid.from_dict(data))
        assert report.entries["a"].witness == (0, 0)

    def test_empty_compose_loads(self):
        data = pair_groupoid(1).to_dict()
        data["compose"] = []
        G = FiniteGroupoid.from_dict(data)
        assert G.product(0, 0) is None
        assert not validate_axioms(G).entries["domain"].passed


def _loader_cases() -> list:
    """(name, file text, ``load`` accepts it): pair(2) as ``save`` writes it, then edited."""
    data = dict(pair_groupoid(2).to_dict(), name="pair(2)")
    text = json.dumps(data)
    first, row = "[[0, 0, 0]", "[[0, 0, 0], "

    def edit(old, new):
        assert old in text
        return text.replace(old, new, 1)

    cases = {
        "saved": (text, True),
        "indent": (json.dumps(data, indent=2), True),
        "float_zero": (edit(first, "[[0.0, 0, 0]"), False),
        "float_exponent": (edit(first, "[[1e3, 0, 0]"), False),
        "bool": (edit(first, "[[false, 0, 0]"), False),
        "leading_zero": (edit(first, "[[0, 00, 0]"), False),
        "signed_leading_zero": (edit(first, "[[-00, 0, 0]"), False),
        "minus_zero": (edit(first, "[[-0, 0, 0]"), True),
        "minus_space": (edit(first, "[[- 0, 0, 0]"), False),
        "lone_minus": (edit(first, "[[-, 0, 0]"), False),
        "plus": (edit(row + "[0, 1, 1]", row + "[0, +1, 1]"), False),
        "row_of_2": (edit(row, "[[0, 0], "), False),
        "row_of_4": (edit(row, "[[0, 0, 0, 0], "), False),
        "nested_row": (edit(row, "[[[0, 0, 0]], "), False),
        "string_id": (edit(first, '[["0", 0, 0]'), False),
        "nan": (edit(first, "[[NaN, 0, 0]"), False),
        "space_in_number": (edit("[1, 3, 1]", "[1, 3 3, 1]"), False),
        "beyond_order": (edit(first, "[[0, 0, 4]"), False),
        "overflow": (edit(first, "[[9223372036854775808, 0, 0]"), False),
        "trailing_data": (text + " {}", False),
        "trailing_whitespace": (text + "\n", True),
        "truncated": (text[:len(text) // 2], False),
        "unclosed_object": (text[:-1], False),
        "comma_for_brace": ("," + text[1:], False),
        "brace_for_comma": (edit(', "units"', ' {"units"'), False),
        # the last "compose" wins, as in json.loads
        "duplicate_compose": ('{"compose": [[1, 1, 1]], ' + text[1:], True),
        "duplicate_compose_last_bad": (text[:-1] + ', "compose": [[0, 0]]}', False),
        "compose_in_name": (edit('"pair(2)"', '"pair(2) \\"compose\\": [[9, 9]]"'), True),
        "nested_compose_before": ('{"meta": {"compose": [[9, 9]]}, ' + text[1:], True),
        "nested_compose_after": (text[:-1] + ', "meta": {"compose": [[9, 9]]}}', True),
        "escaped_key": (edit('"compose"', '"comp\\u006fse"'), True),
        "empty_compose": (json.dumps(dict(data, compose=[])), True),
        "top_level_array": (json.dumps([data]), False),
    }
    return [pytest.param(name, text, accepted, id=name) for name, (text, accepted) in cases.items()]


class TestFileLoader:
    """``load`` decodes the compose rows itself; it agrees with ``from_dict(json.load)``."""

    @pytest.mark.parametrize("name,text,accepted", _loader_cases())
    def test_load_agrees_with_json(self, tmp_path, capsys, name, text, accepted):
        path = tmp_path / "g.json"
        path.write_text(text)
        try:
            expected = FiniteGroupoid.from_dict(json.loads(text))
        except ValueError:
            expected = None
        assert (expected is not None) == accepted
        if accepted:
            G = FiniteGroupoid.load(path)
            assert G == expected and G.name == expected.name
            return
        with pytest.raises(ValueError):
            FiniteGroupoid.load(path)
        assert main(["axioms", "--file", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["pair", "group", "transitive"]), a=st.integers(0, 35),
           b=st.integers(0, 35), union=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_save_load_round_trip(self, tmp_path_factory, kind, a, b, union, seed):
        G = _base_groupoid(kind, a, b)
        if union:
            G = disjoint_union([G, transitive_groupoid(2, cyclic_group_table(2))])
        G = _relabel(G, np.random.default_rng(seed).permutation(G.order))
        path = tmp_path_factory.mktemp("saved") / "g.json"
        G.save(path)
        assert FiniteGroupoid.load(path) == G


# ---------------------------------------------------------------------------
# scalar oracle for the vectorised scan
# ---------------------------------------------------------------------------


def _scalar_reference(G) -> dict:
    """Element-by-element associativity and cancellation scans.

    These are the loops ``validate_axioms`` ran before it was vectorised,
    kept as the oracle for its ``d``, ``e_left_cancellation`` and
    ``e_right_cancellation`` entries, ``checked`` counts included.
    """
    K = G.order
    defined = G.compose != UNDEFINED
    out = {"d": _scalar_associativity(G)}

    # (g' o g) o g^-1 = g' over composable (g', g)
    witness = None
    checked = 0
    for gp in range(K):
        ks = np.nonzero(defined[gp])[0]
        checked += len(ks)
        prods = G.compose[gp, ks]
        back = G.compose[prods, G.inverse[ks]]
        bad_idx = np.nonzero(back != gp)[0]
        if len(bad_idx):
            witness = (gp, int(ks[bad_idx[0]]))
            break
    out["e_left_cancellation"] = AxiomCheck(witness is None, witness, checked)

    # g^-1 o (g o g'') = g'' over composable (g, g'')
    witness = None
    checked = 0
    for g in range(K):
        ks = np.nonzero(defined[g])[0]
        checked += len(ks)
        prods = G.compose[g, ks]
        back = G.compose[G.inverse[g], prods]
        bad_idx = np.nonzero(back != ks)[0]
        if len(bad_idx):
            witness = (g, int(ks[bad_idx[0]]))
            break
    out["e_right_cancellation"] = AxiomCheck(witness is None, witness, checked)
    return out


def _scalar_associativity(G, pairs=None) -> AxiomCheck:
    """Associativity over the triples of the composable ``pairs`` (g1, g2), in order.

    ``pairs`` defaults to all of G^(2) in lexicographic order; fewer pairs
    mark the result ``sampled``.
    """
    defined = G.compose != UNDEFINED
    every = np.argwhere(defined)
    pairs = every if pairs is None else pairs
    sampled = len(pairs) < len(every)
    checked = 0
    for g1, g2 in pairs:
        p12 = G.compose[g1, g2]
        g3s = np.nonzero(defined[p12] | defined[g2])[0]
        checked += len(g3s)
        for g3 in g3s:
            lhs = rhs = UNDEFINED
            if defined[p12, g3]:
                lhs = G.compose[p12, g3]
            if defined[g2, g3]:
                p23 = G.compose[g2, g3]
                if defined[g1, p23]:
                    rhs = G.compose[g1, p23]
                # g2 o g3 defined but g1 o (g2 o g3) missing
                elif lhs != UNDEFINED:
                    return AxiomCheck(False, (int(g1), int(g2), int(g3)), checked, sampled)
            if lhs != rhs:
                return AxiomCheck(False, (int(g1), int(g2), int(g3)), checked, sampled)
    return AxiomCheck(True, None, checked, sampled)


def _base_groupoid(kind: str, a: int, b: int) -> FiniteGroupoid:
    """A valid groupoid of order 2..36 (``_mutate`` needs two elements)."""
    if kind == "pair":
        return pair_groupoid(2 + a % 5)
    if kind == "group":
        return group_groupoid(cyclic_group_table(2 + (a * 7 + b) % 35))
    units = 2 + a % 2
    return transitive_groupoid(units, cyclic_group_table(1 + b % (36 // (units * units))))


def _relabel(G: FiniteGroupoid, perm) -> FiniteGroupoid:
    """The same groupoid with element g renamed perm[g]."""
    perm = np.asarray(perm)
    back = np.argsort(perm)
    compose = np.full_like(G.compose, UNDEFINED)
    defined = G.compose != UNDEFINED
    compose[np.ix_(perm, perm)] = np.where(defined, perm[G.compose], UNDEFINED)
    return FiniteGroupoid(
        order=G.order,
        units=frozenset(int(perm[u]) for u in G.units),
        source=perm[G.source][back],
        target=perm[G.target][back],
        inverse=perm[G.inverse][back],
        compose=compose,
    )


class TestVectorisedScanMatchesScalar:
    @settings(max_examples=50, deadline=None)
    @given(
        kind=st.sampled_from(["pair", "group", "transitive"]),
        a=st.integers(0, 35),
        b=st.integers(0, 35),
        n_mutations=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_report_equals_scalar_scan(self, kind, a, b, n_mutations, seed):
        G = _base_groupoid(kind, a, b)
        assert G.order <= 36
        rng = np.random.default_rng(seed)
        for _ in range(n_mutations):
            G = _mutate(G, rng)
        report = validate_axioms(G).entries
        scalar = _scalar_reference(G)
        for name, want in scalar.items():
            assert report[name] == want, name
        # the other entries against the brute-force witnesses of criterion 9
        for name, witness in _oracle_scan(G).items():
            if name not in scalar:
                assert report[name].witness == (tuple(witness) if witness else None), name

    @settings(max_examples=50, deadline=None)
    @given(
        kind=st.sampled_from(["pair", "group", "transitive"]),
        a=st.integers(0, 35),
        b=st.integers(0, 35),
        n_mutations=st.integers(0, 3),
        budget=st.integers(1, 2000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sampled_scan_equals_scalar_scan(self, kind, a, b, n_mutations, budget, seed):
        # every table with a composable triple is sampled; small budgets leave
        # most pairs out, and one at or above |G^(3)| takes them all
        G = _base_groupoid(kind, a, b)
        rng = np.random.default_rng(seed)
        for _ in range(n_mutations):
            G = _mutate(G, rng)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(groupoid, "EXHAUSTIVE_TRIPLE_LIMIT", 0)
            mp.setattr(groupoid, "DEFAULT_ASSOCIATIVITY_SAMPLES", budget)
            got = validate_axioms(G, rng=np.random.default_rng(seed)).entries["d"]
            pairs = _sampled_pairs(G, seed)
        assert got == _scalar_associativity(G, pairs)
        # distinct composable pairs in lexicographic order, triples up to the budget
        every = G.composable_pairs()
        flat = pairs[:, 0].astype(np.int64) * G.order + pairs[:, 1]
        assert np.all(np.diff(flat) > 0)
        assert np.isin(flat, every[:, 0].astype(np.int64) * G.order + every[:, 1]).all()
        triples = np.count_nonzero(G.compose[pairs[:, 1]] != UNDEFINED)
        assert triples >= budget or len(pairs) == len(every)

    def test_sampled_path_on_corrupted_pair(self):
        G = pair_groupoid(65)  # 65^4 composable triples > EXHAUSTIVE_TRIPLE_LIMIT
        compose = np.array(G.compose)
        rng = np.random.default_rng(65)
        holes = np.argwhere(compose == UNDEFINED)
        picked = holes[rng.random(len(holes)) < 0.05]
        compose[picked[:, 0], picked[:, 1]] = rng.integers(G.order, size=len(picked))
        broken = FiniteGroupoid(
            order=G.order, units=G.units, source=G.source, target=G.target,
            inverse=G.inverse, compose=compose,
        )
        got = validate_axioms(broken).entries["d"]
        want = _scalar_associativity(broken, _sampled_pairs(broken, 0))
        assert got == want
        assert got.sampled and not got.passed

    @settings(max_examples=25, deadline=None)
    @given(
        shape=st.sampled_from([(1, 3), (2, 2), (2, 5), (3, 2), (3, 4)]),
        data=st.data(),
    )
    def test_json_round_trip_of_relabelled_transitive(self, shape, data):
        units, k = shape
        G0 = transitive_groupoid(units, cyclic_group_table(k))
        perm = data.draw(st.permutations(range(G0.order)))
        G = _relabel(G0, perm)
        assert validate_axioms(G).all_passed
        H = FiniteGroupoid.from_dict(json.loads(json.dumps(G.to_dict())))
        assert H.order == G.order and H.units == G.units
        for attr in ("source", "target", "inverse", "compose"):
            assert np.array_equal(getattr(H, attr), getattr(G, attr)), attr


def _corrupt(G: FiniteGroupoid, rng, kind: str, rows=None) -> FiniteGroupoid:
    """``G`` with one product redirected, defined or undefined, in ``rows`` if given."""
    compose = np.array(G.compose)
    mask = compose != UNDEFINED if kind in ("redirect", "undefine") else compose == UNDEFINED
    if rows is not None:
        mask[np.setdiff1d(np.arange(G.order), rows)] = False
    j, k = np.argwhere(mask)[rng.integers(np.count_nonzero(mask))]
    if kind == "redirect":
        compose[j, k] = (compose[j, k] + 1 + rng.integers(G.order - 1)) % G.order
    else:
        compose[j, k] = rng.integers(G.order) if kind == "define" else UNDEFINED
    return FiniteGroupoid(order=G.order, units=G.units, source=G.source, target=G.target,
                          inverse=G.inverse, compose=compose)


_SCAN_BASES = {
    "pair6": pair_groupoid(6),
    "transitive3z4": transitive_groupoid(3, cyclic_group_table(4)),
}


class TestCompositionTripleScan:
    """The block-wise scan over composable triples against the scalar oracle.

    Tiny blocks make one table span hundreds of blocks, so block edges fall
    between and right after the witnesses.
    """

    @pytest.fixture(params=[1, 7, 64], ids=lambda b: f"block{b}")
    def block(self, request, monkeypatch):
        monkeypatch.setattr(groupoid, "BLOCK_ENTRIES", request.param)
        return request.param

    def _scan_equals_oracle(self, G) -> AxiomCheck:
        got = validate_axioms(G).entries["d"]
        assert got == _scalar_associativity(G)
        return got

    @pytest.mark.parametrize("base", sorted(_SCAN_BASES))
    @pytest.mark.parametrize("seed", range(12))
    def test_corrupted_relabelled_tables(self, block, base, seed):
        rng = np.random.default_rng([seed, len(base)])
        G = _relabel(_SCAN_BASES[base], rng.permutation(_SCAN_BASES[base].order))
        assert self._scan_equals_oracle(G).passed
        for _ in range(1 + seed % 3):
            G = _corrupt(G, rng, ("redirect", "define", "undefine")[rng.integers(3)])
        self._scan_equals_oracle(G)

    @pytest.mark.parametrize("base", sorted(_SCAN_BASES))
    @pytest.mark.parametrize("kind", ["redirect", "define", "undefine"])
    def test_witness_past_the_first_block(self, block, base, kind):
        # a product changed in the last rows of the table is first used by a
        # triple some hundred composable triples into the scan, several blocks on
        G = _SCAN_BASES[base]
        rng = np.random.default_rng(len(kind))
        last_rows = np.arange(G.order - G.order // 6, G.order)
        got = self._scan_equals_oracle(_corrupt(G, rng, kind, rows=last_rows))
        assert not got.passed
        assert got.checked > 3 * block

    @pytest.mark.parametrize("kind", [None, "redirect", "define", "undefine"])
    def test_flat_ids_beyond_the_table_dtype(self, kind):
        # at K = 196 the flat id p12 * K leaves the int16 range for p12 >= 168,
        # so an unwidened multiply wraps and reads the wrong table entry
        rng = np.random.default_rng([196, len(kind or "")])
        G = _relabel(pair_groupoid(14), rng.permutation(196))
        assert G.order - 1 <= np.iinfo(TABLE_DTYPE).max < (G.order - 1) * G.order
        if kind:
            G = _corrupt(G, rng, kind, rows=np.arange(G.order - 14, G.order))
        assert self._scan_equals_oracle(G).passed == (kind is None)

    def test_scan_counts_every_composable_triple_of_a_valid_table(self, block):
        # pair(n) has n^4 composable triples and none with only one side defined
        assert self._scan_equals_oracle(pair_groupoid(6)) == AxiomCheck(True, None, 6**4)

    def test_table_round_trips_exactly_in_table_dtype(self):
        for G in (
            *_SCAN_BASES.values(),
            group_groupoid(cyclic_group_table(5)),
            action_groupoid(cyclic_group_table(2), swap_action, 2),
            disjoint_union([pair_groupoid(2), group_groupoid(cyclic_group_table(3))]),
        ):
            assert G.compose.dtype == TABLE_DTYPE == np.int16
            H = FiniteGroupoid.from_dict(json.loads(json.dumps(G.to_dict())))
            assert H.compose.dtype == TABLE_DTYPE
            assert np.array_equal(H.compose, G.compose)
            assert H == G


def _dense_mask_oracle(G: FiniteGroupoid) -> dict:
    """The ``domain``, ``a``, ``d`` and ``e_*`` entries, read off KxK masks."""
    defined = G.compose != UNDEFINED
    mismatch = (G.source[:, None] == G.target[None, :]) ^ defined
    domain = tuple(int(v) for v in np.argwhere(mismatch)[0]) if mismatch.any() else None
    pairs = np.argwhere(defined)
    j, k = pairs.T
    prods = G.compose[j, k]
    bad = pairs[(G.target[prods] != G.target[j]) | (G.source[prods] != G.source[k])]
    a = tuple(int(v) for v in bad[0]) if len(bad) else None
    return {"domain": AxiomCheck(domain is None, domain, G.order**2),
            "a": AxiomCheck(a is None, a, len(pairs)), **_scalar_reference(G)}


class TestRowBlocks:
    """The table read a few rows at a time gives the dense-mask answers.

    With one or seven rows per block, block edges fall on and right after the
    first and last rows, where the corruptions are put.
    """

    @pytest.fixture(params=[1, 7], ids=lambda r: f"rows{r}")
    def rows(self, request, monkeypatch):
        # the block counts table entries; both bases have order 36
        assert {G.order for G in _SCAN_BASES.values()} == {36}
        monkeypatch.setattr(groupoid, "BLOCK_ENTRIES", request.param * 36)
        return request.param

    @pytest.mark.parametrize("base", sorted(_SCAN_BASES))
    @pytest.mark.parametrize("kind", ["redirect", "define", "undefine"])
    @pytest.mark.parametrize("where", ["first", "last"])
    @pytest.mark.parametrize("seed", range(3))
    def test_corrupted_tables_match_the_dense_mask_oracle(self, rows, base, kind, where, seed):
        rng = np.random.default_rng([seed, len(kind), rows])
        G = _relabel(_SCAN_BASES[base], rng.permutation(36))
        G = _corrupt(G, rng, kind, rows=[0] if where == "first" else [35])
        want = _dense_mask_oracle(G)
        got = validate_axioms(G).entries
        assert {name: got[name] for name in want} == want
        assert not all(check.passed for check in want.values())
        if kind != "redirect":  # a product defined or dropped breaks the domain in its row
            assert want["domain"].witness[0] == (0 if where == "first" else 35)
        pairs = G.composable_pairs()
        assert pairs.dtype == np.int32 and np.array_equal(pairs, np.argwhere(G.compose != UNDEFINED))

    @pytest.mark.parametrize("row", [0, 35])
    def test_pair_listed_twice_in_an_edge_row_is_refused(self, rows, row):
        data = _SCAN_BASES["pair6"].to_dict()
        data["compose"].append(next(t for t in data["compose"] if t[0] == row))
        with pytest.raises(GroupoidStructureError, match="twice"):
            FiniteGroupoid.from_dict(data)


class TestAxiomScanMemory:
    """The composition table is the only KxK array the axiom scan allocates."""

    @pytest.mark.parametrize("n", [48, 65], ids=["exhaustive", "sampled"])
    def test_peak_stays_below_one_byte_per_table_entry(self, n):
        G = pair_groupoid(n)
        assert (n**4 > EXHAUSTIVE_TRIPLE_LIMIT) == (n == 65)  # pair(n) has n^4 triples
        report, peak = traced_peak(validate_axioms, G)
        assert report.all_passed
        # a single KxK boolean mask alone would reach the bound
        assert peak < G.order**2


class TestDenseSizeLimit:
    def test_table_beyond_the_limit_is_refused_before_allocation(self):
        with pytest.raises(InfeasibleError, match="composition table"):
            pair_groupoid(300)
        data = pair_groupoid(1).to_dict()
        data["order"] = 10**6
        with pytest.raises(InfeasibleError):
            FiniteGroupoid.from_dict(data)

    def test_caller_built_table_beyond_the_limit_is_refused_unread(self, monkeypatch):
        def unread(*args, **kwargs):
            raise AssertionError("a field was read before the size check")

        monkeypatch.setattr(groupoid, "_element_ids", unread)
        ids = np.arange(40_000)
        with pytest.raises(InfeasibleError, match="composition table"):
            FiniteGroupoid(40_000, [0], ids, ids, ids,
                           np.broadcast_to(np.int16(UNDEFINED), (40_000, 40_000)))

    def test_largest_admitted_order_fits_the_table_dtype(self):
        K = math.isqrt(MAX_DENSE_BYTES // np.dtype(TABLE_DTYPE).itemsize)
        check_dense_size((K, K), TABLE_DTYPE, "table")
        with pytest.raises(InfeasibleError):
            check_dense_size((K + 1, K + 1), TABLE_DTYPE, "table")
        # ids run 0..K-1, UNDEFINED is -1
        assert np.iinfo(TABLE_DTYPE).min <= UNDEFINED and K - 1 <= np.iinfo(TABLE_DTYPE).max

    def test_largest_pair_groupoid_is_181(self):
        check_dense_size((181**2, 181**2), TABLE_DTYPE, "composition table")
        with pytest.raises(InfeasibleError, match="composition table"):
            pair_groupoid(182)

    def test_limit_is_inclusive(self):
        check_dense_size((MAX_DENSE_BYTES // 4,), np.int32, "table")
        with pytest.raises(InfeasibleError):
            check_dense_size((MAX_DENSE_BYTES // 4 + 1,), np.int32, "table")


class TestBlocks:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 3000), per_item=st.integers(1, 3 << 16),
           budget=st.sampled_from([1, 7, 1 << 16]))
    @example(n=0, per_item=1, budget=1 << 16)
    @example(n=5, per_item=(1 << 16) + 1, budget=1 << 16)
    def test_slices_partition_the_range_in_full_blocks(self, n, per_item, budget):
        with pytest.MonkeyPatch.context() as mp:  # blocks reads the budget when called
            mp.setattr(groupoid, "BLOCK_ENTRIES", budget)
            slices = list(blocks(n, per_item))
        step = max(1, budget // per_item)
        assert [i for s in slices for i in range(n)[s]] == list(range(n))
        assert all(s.stop - s.start == step for s in slices[:-1])
        assert all(0 < s.stop - s.start <= step for s in slices)


class TestOrbitLabels:
    def test_orbits_of_relabelled_chains_match_a_graph_search(self):
        # a chain of units joined one element at a time is the slowest case
        # for label propagation; the relabelling scrambles the unit order
        rng = np.random.default_rng(3)
        n = 40
        ids = rng.permutation(2 * n)
        units, links = ids[:n], ids[n:]
        source, target = np.empty(2 * n, int), np.empty(2 * n, int)
        source[units] = target[units] = units
        source[links[:-1]], target[links[:-1]] = units[:-1], units[1:]  # chain u0 - ... - u39
        cut = n // 2
        source[links[cut - 1]] = target[links[cut - 1]] = units[cut - 1]  # split it in two
        source[links[-1]] = target[links[-1]] = units[-1]
        G = FiniteGroupoid(order=2 * n, units=frozenset(units.tolist()), source=source,
                           target=target, inverse=np.arange(2 * n),
                           compose=np.full((2 * n, 2 * n), UNDEFINED))
        want = sorted([frozenset(units[:cut].tolist()), frozenset(units[cut:].tolist())], key=min)
        assert [o.members for o in orbits(G)] == want
