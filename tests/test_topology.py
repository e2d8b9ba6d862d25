from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import cone, posets
from triposet import (
    CapExceededError,
    GrothendieckTopology,
    MissingMaximalError,
    NotASieveError,
    PosetMismatchError,
    StabilityFailError,
    TransitivityFailError,
    TriposetError,
    build_poset,
    enumerate_topologies,
    validate_topology,
)
from triposet.poset import _Layout, _layout


def smallest_families(poset):
    return [[cone(poset, p)] for p in range(poset.n)]


def largest_families(poset):
    return [list(poset.sieves(p)) for p in range(poset.n)]


class TestValidate:
    def test_smallest_topology_is_valid(self, chain3):
        J = validate_topology(chain3, smallest_families(chain3))
        assert isinstance(J, GrothendieckTopology)

    def test_largest_topology_is_valid(self, chain3):
        validate_topology(chain3, largest_families(chain3))

    def test_missing_pullback_flags_stability(self, chain2):
        families = [
            [cone(chain2, 0)],
            [chain2.downset([]), cone(chain2, 1)],
        ]
        with pytest.raises(StabilityFailError) as exc:
            validate_topology(chain2, families)
        assert exc.value.point == "b"
        assert exc.value.lower == "a"
        assert exc.value.sieve == chain2.downset([])

    def test_open_set_is_not_a_sieve(self, chain2):
        families = [
            [cone(chain2, 0)],
            [chain2.subset("b"), cone(chain2, 1)],
        ]
        with pytest.raises(NotASieveError) as exc:
            validate_topology(chain2, families)
        assert exc.value.point == "b"

    def test_sieve_must_sit_below_its_point(self, chain2):
        families = [
            [chain2.downset("ab"), cone(chain2, 0)],
            [cone(chain2, 1)],
        ]
        with pytest.raises(NotASieveError) as exc:
            validate_topology(chain2, families)
        assert exc.value.point == "a"

    def test_family_without_maximal_sieve(self, singleton):
        with pytest.raises(MissingMaximalError) as exc:
            validate_topology(singleton, [[singleton.downset([])]])
        assert exc.value.point == "a"

    def test_locally_covered_sieve_must_be_covered(self, chain2):
        # empty is covered on the cover {a} of b, so leaving it out of the
        # family at b breaks transitivity
        families = [
            [chain2.downset([]), cone(chain2, 0)],
            [chain2.downset("a"), cone(chain2, 1)],
        ]
        with pytest.raises(TransitivityFailError) as exc:
            validate_topology(chain2, families)
        assert exc.value.point == "b"
        assert exc.value.cover == chain2.downset("a")
        assert exc.value.candidate == chain2.downset([])

    def test_families_by_label(self, chain2):
        J = validate_topology(
            chain2,
            {"b": [cone(chain2, 1)], "a": [cone(chain2, 0)]},
        )
        assert J == validate_topology(chain2, smallest_families(chain2))

    def test_missing_family_rejected(self, chain2):
        with pytest.raises(ValueError):
            validate_topology(chain2, {"a": [cone(chain2, 0)]})
        with pytest.raises(ValueError):
            validate_topology(chain2, [[cone(chain2, 0)]])

    def test_foreign_sieve_rejected(self, chain2, antichain2):
        families = smallest_families(chain2)
        families[0] = [antichain2.downset("a")]
        with pytest.raises(PosetMismatchError):
            validate_topology(chain2, families)

    def test_a_non_sieve_is_reported_before_a_later_foreign_sieve(self, chain2, antichain2):
        # the points are read in order, so {b} on a fails before the foreign
        # sieve on b is read
        families = smallest_families(chain2)
        families[0] = [chain2.subset("b")]
        families[1] = [antichain2.downset("a")]
        with pytest.raises(NotASieveError):
            validate_topology(chain2, families)


class TestFamilies:
    def test_smallest_topology_families(self, chain3):
        J = validate_topology(chain3, smallest_families(chain3))
        for p in range(chain3.n):
            assert J.sieves_at(p) == (cone(chain3, p),)

    def test_largest_topology_at_minimal_point(self, chain2):
        J = validate_topology(chain2, largest_families(chain2))
        a = chain2.index("a")
        assert [s.labels() for s in J.sieves_at(a)] == [(), ("a",)]

    def test_marked_point_family_on_chain(self, chain2):
        # covering families that answer to the subset {b}: everything covers
        # a, only the whole downset covers b
        J = validate_topology(
            chain2,
            [
                [chain2.downset([]), chain2.downset("a")],
                [chain2.downset("ab")],
            ],
        )
        assert [s.labels() for s in J.sieves_at(chain2.index("a"))] == [(), ("a",)]
        assert [s.labels() for s in J.sieves_at(chain2.index("b"))] == [("a", "b")]

    def test_duplicate_sieves_collapse(self, singleton):
        d = cone(singleton, 0)
        J = validate_topology(singleton, [[d, d]])
        assert J.sieves_at(0) == (d,)

    def test_constructor_rejects_the_wrong_number_of_families(self, chain2):
        with pytest.raises(ValueError, match="1 families for a poset with 2 elements"):
            GrothendieckTopology(chain2, [[1]])

    def test_constructor_rejects_a_non_int_mask(self, chain2):
        with pytest.raises(TypeError, match=r"mask 1\.0 is not an int"):
            GrothendieckTopology(chain2, [[1.0], [3]])

    def test_constructor_rejects_an_out_of_range_mask(self, chain2):
        with pytest.raises(ValueError, match="mask 0x7 out of range for n=2"):
            GrothendieckTopology(chain2, [[7], [99]])

    def test_repr_lists_each_point_family(self, chain2):
        assert repr(validate_topology(chain2, largest_families(chain2))) == (
            "GrothendieckTopology(a: {} {a}; b: {} {a} {a b})")

    def test_equality_with_a_non_topology_is_false(self, chain2):
        J = validate_topology(chain2, smallest_families(chain2))
        assert (J == J.families) is False

    def test_equality_is_per_point_families(self, chain2):
        small = validate_topology(chain2, smallest_families(chain2))
        large = validate_topology(chain2, largest_families(chain2))
        assert small != large
        assert small == validate_topology(chain2, smallest_families(chain2))
        assert hash(small) == hash(validate_topology(chain2, smallest_families(chain2)))


class TestEnumerate:
    def test_empty_poset(self, empty):
        assert len(enumerate_topologies(empty)) == 1

    def test_singleton_has_two(self, singleton):
        Js = enumerate_topologies(singleton)
        assert len(Js) == 2
        families = {J.sieves_at(0) for J in Js}
        d = cone(singleton, 0)
        assert (d,) in families
        assert (singleton.downset([]), d) in families

    def test_chain_has_four(self, chain2):
        assert len(enumerate_topologies(chain2)) == 4

    def test_all_pass_validation(self, small_posets):
        for poset in small_posets:
            for J in enumerate_topologies(poset):
                validate_topology(
                    poset, [J.sieves_at(p) for p in range(poset.n)]
                )

    def test_families_upward_closed(self, small_posets):
        for poset in small_posets:
            for J in enumerate_topologies(poset):
                for p in range(poset.n):
                    family = set(J.families[p])
                    for s in J.sieves_at(p):
                        for t in poset.sieves(p):
                            if s <= t:
                                assert t.mask in family

    def test_no_duplicates_and_deterministic(self, vee):
        Js = enumerate_topologies(vee)
        assert len({J.families for J in Js}) == len(Js)
        assert [J.families for J in Js] == [J.families for J in enumerate_topologies(vee)]

    def test_cap_counts_elements(self, chain3):
        with pytest.raises(CapExceededError):
            enumerate_topologies(chain3, cap=2)
        assert len(enumerate_topologies(chain3, cap=3)) == 8


def test_validation_builds_no_layout(chain2, chain3, singleton, antichain2, monkeypatch):
    """The validator reads the sieves off the poset, not off the engine's
    layout, so on a poset with no layout cached it builds none, accepting
    each valid topology and raising the first error of each bad one as it
    does with the layout built."""
    down, sub, top = chain2.downset, chain2.subset, partial(cone, chain2)
    cases = [
        (chain3, smallest_families(chain3)),
        (chain3, largest_families(chain3)),
        (chain2, [[top(0)], [down([]), top(1)]]),  # stability
        (chain2, [[top(0)], [sub("b"), top(1)]]),  # not a sieve
        (chain2, [[down("ab"), top(0)], [top(1)]]),  # not below its point
        (singleton, [[singleton.downset([])]]),  # no maximal sieve
        (chain2, [[down([]), top(0)], [down("a"), top(1)]]),  # transitivity
        (chain2, [[antichain2.downset("a")], [top(1)]]),  # foreign
        (chain2, [[sub("b")], [antichain2.downset("a")]]),  # not a sieve, then foreign
    ]

    def outcome(poset, families):
        try:
            return "ok", validate_topology(poset, families).families
        except (TriposetError, ValueError) as exc:
            return type(exc), str(exc), vars(exc)

    want = [outcome(*case) for case in cases]
    assert [w[0] for w in want] == ["ok", "ok", StabilityFailError, NotASieveError,
                                    NotASieveError, MissingMaximalError, TransitivityFailError,
                                    PosetMismatchError, NotASieveError]

    def never(*args):
        raise AssertionError("built a layout")

    _layout.cache_clear()
    monkeypatch.setattr(_Layout, "__init__", never)
    assert [outcome(*case) for case in cases] == want


@pytest.mark.parametrize(
    "labels,relations",
    [
        (["a"], []),
        (["a", "b"], [("a", "b")]),
        (["a", "b"], []),
        (["a", "b", "c"], [("a", "b"), ("b", "c")]),
        (["a", "b", "c"], [("c", "a"), ("c", "b")]),
        (["a", "b", "c"], [("a", "c"), ("b", "c")]),
    ],
)
def test_enumeration_matches_family_product_filter(labels, relations):
    poset = build_poset(labels, relations)
    lab, le = oracles.order_pairs(poset)
    expected = oracles.all_topologies_by_filter(lab, le)
    got = enumerate_topologies(poset)
    assert len(got) == len(expected)
    as_sets = {
        frozenset(
            (lab[p], frozenset(frozenset(s.labels()) for s in J.sieves_at(p)))
            for p in range(poset.n)
        )
        for J in got
    }
    for families in expected:
        key = frozenset((p, frozenset(fam)) for p, fam in families.items())
        assert key in as_sets


@given(posets(max_n=3), st.data())
@settings(max_examples=50)
def test_validation_agrees_with_naive_checker(poset, data):
    families = []
    for p in range(poset.n):
        sieves = poset.sieves(p)
        chosen = [s for s in sieves if data.draw(st.booleans())]
        families.append(chosen)
    labels, le = oracles.order_pairs(poset)
    naive = oracles.is_topology(
        labels, le,
        {
            labels[p]: {frozenset(s.labels()) for s in families[p]}
            for p in range(poset.n)
        },
    )
    try:
        validate_topology(poset, families)
        accepted = True
    except (MissingMaximalError, StabilityFailError, TransitivityFailError):
        accepted = False
    assert accepted == naive
