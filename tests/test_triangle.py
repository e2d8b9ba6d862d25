import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cone, posets
from triposet import (
    CapExceededError,
    GrothendieckTopology,
    ImageNotDownsetError,
    build_poset,
    enumerate_nuclei,
    enumerate_topologies,
    nucleus_to_subset,
    nucleus_to_subset_alt,
    nucleus_to_subset_via_topology,
    nucleus_to_topology,
    subset_to_nucleus,
    subset_to_topology,
    topology_to_nucleus,
    topology_to_subset,
    validate_nucleus,
    validate_topology,
    verify_triangle,
)

LAW_NAMES = [
    "subset_nucleus_roundtrip",
    "subset_topology_roundtrip",
    "nucleus_roundtrip",
    "topology_roundtrip",
    "nucleus_topology_roundtrip",
    "topology_nucleus_roundtrip",
    "triangle_commutes_via_nucleus",
    "triangle_commutes_via_topology",
    "identity_composite",
    "identity_alt",
    "composite_cross_check",
    "nucleus_count",
    "topology_count",
    "nucleus_bijection",
    "topology_bijection",
    "subset_to_nucleus_valid",
    "subset_to_topology_valid",
    "nucleus_to_topology_valid",
    "topology_to_nucleus_valid",
]


def identity_nucleus(poset):
    return validate_nucleus(poset, {d: d for d in poset.downsets()})


def constant_top_nucleus(poset):
    t = poset.downset(poset.labels)
    return validate_nucleus(poset, {d: t for d in poset.downsets()})


def smallest_topology(poset):
    return validate_topology(
        poset, [[cone(poset, p)] for p in range(poset.n)]
    )


def largest_topology(poset):
    return validate_topology(poset, [poset.sieves(p) for p in range(poset.n)])


class TestSubsetToNucleus:
    def test_full_subset_gives_identity(self, chain3):
        j = subset_to_nucleus(chain3.subset("abc"))
        assert j == identity_nucleus(chain3)

    def test_empty_subset_gives_constant_top(self, chain3):
        j = subset_to_nucleus(chain3.subset([]))
        assert j == constant_top_nucleus(chain3)

    def test_marked_top_of_chain(self, chain2):
        j = subset_to_nucleus(chain2.subset("b"))
        got = [(s.labels(), img.labels()) for s, img in j.pairs()]
        assert got == [((), ("a",)), (("a",), ("a",)), (("a", "b"), ("a", "b"))]


class TestNucleusToSubset:
    def test_identity_marks_everything(self, chain3):
        assert nucleus_to_subset(identity_nucleus(chain3)) == chain3.subset("abc")

    def test_constant_top_marks_nothing(self, chain3):
        assert nucleus_to_subset(constant_top_nucleus(chain3)) == chain3.subset([])

    def test_round_trip_through_nucleus(self, chain2):
        x = chain2.subset("b")
        assert nucleus_to_subset(subset_to_nucleus(x)) == x

    def test_alternate_reading_on_extremes(self, chain3):
        assert nucleus_to_subset_alt(identity_nucleus(chain3)) == chain3.subset("abc")
        assert nucleus_to_subset_alt(constant_top_nucleus(chain3)) == chain3.subset([])

    def test_via_covering_families_on_extremes(self, chain3):
        got = nucleus_to_subset_via_topology(identity_nucleus(chain3))
        assert got == chain3.subset("abc")
        got = nucleus_to_subset_via_topology(constant_top_nucleus(chain3))
        assert got == chain3.subset([])


class TestSubsetToTopology:
    def test_full_subset_gives_smallest(self, chain3):
        assert subset_to_topology(chain3.subset("abc")) == smallest_topology(chain3)

    def test_empty_subset_gives_largest(self, chain3):
        assert subset_to_topology(chain3.subset([])) == largest_topology(chain3)

    def test_marked_top_of_chain(self, chain2):
        J = subset_to_topology(chain2.subset("b"))
        a, b = chain2.index("a"), chain2.index("b")
        assert [s.labels() for s in J.sieves_at(a)] == [(), ("a",)]
        assert [s.labels() for s in J.sieves_at(b)] == [("a", "b")]


class TestTopologyToSubset:
    def test_smallest_marks_everything(self, chain3):
        assert topology_to_subset(smallest_topology(chain3)) == chain3.subset("abc")

    def test_largest_marks_nothing(self, chain3):
        assert topology_to_subset(largest_topology(chain3)) == chain3.subset([])

    def test_round_trip_through_topology(self, chain2):
        x = chain2.subset("b")
        assert topology_to_subset(subset_to_topology(x)) == x


class TestNucleusTopologyEdge:
    def test_identity_gives_smallest(self, chain3):
        assert nucleus_to_topology(identity_nucleus(chain3)) == smallest_topology(chain3)

    def test_constant_top_gives_largest(self, chain3):
        assert nucleus_to_topology(constant_top_nucleus(chain3)) == largest_topology(chain3)

    def test_commutes_with_direct_construction(self, chain2):
        x = chain2.subset("b")
        assert nucleus_to_topology(subset_to_nucleus(x)) == subset_to_topology(x)

    def test_smallest_gives_identity(self, chain3):
        assert topology_to_nucleus(smallest_topology(chain3)) == identity_nucleus(chain3)

    def test_largest_gives_constant_top(self, chain3):
        assert topology_to_nucleus(largest_topology(chain3)) == constant_top_nucleus(chain3)

    def test_empty_downset_lands_on_the_unmarked_part(self, chain2):
        J = subset_to_topology(chain2.subset("b"))
        j = topology_to_nucleus(J)
        assert dict(j.pairs())[chain2.downset([])] == chain2.downset("a")

    def test_a_non_topology_is_not_a_nucleus(self, chain2):
        # j({}) = {b}: {} covers b but not a
        J = GrothendieckTopology(chain2, [[1], [0, 3]])
        with pytest.raises(ImageNotDownsetError, match=r"image \{b\} of \{\}"):
            topology_to_nucleus(J)

    def test_a_family_holding_a_non_sieve_is_read_by_its_sieves(self, chain2):
        # {a, b} is not a sieve on a, so nothing covers a and j({}) = {b}
        J = GrothendieckTopology(chain2, [[3], [3]])
        assert topology_to_subset(J) == chain2.subset(["b"])
        with pytest.raises(ImageNotDownsetError, match=r"image \{b\} of \{a b\}"):
            topology_to_nucleus(J)

    def test_edge_round_trips(self, vee):
        for j in enumerate_nuclei(vee):
            assert topology_to_nucleus(nucleus_to_topology(j)) == j
        for J in enumerate_topologies(vee):
            assert nucleus_to_topology(topology_to_nucleus(J)) == J


def test_equal_posets_convert_alike_through_every_edge():
    # the second poset is equal to the first but a distinct object, so the
    # edges read the arrays cached for the first before it has any of its own
    first, second = (build_poset("abc", [("a", "b"), ("b", "c")]) for _ in range(2))
    for poset in (first, second):
        for x in poset.subsets():
            j, J = subset_to_nucleus(x), subset_to_topology(x)
            assert j.poset is poset and J.poset is poset
            for y in (
                nucleus_to_subset(j),
                nucleus_to_subset_alt(j),
                nucleus_to_subset_via_topology(j),
                topology_to_subset(J),
            ):
                assert y == x and y.poset is poset
            assert nucleus_to_topology(j) == J and topology_to_nucleus(J) == j


class TestExtractionIdentities:
    def test_three_readings_agree_on_fixtures(self, small_posets):
        for poset in small_posets:
            for j in enumerate_nuclei(poset):
                direct = nucleus_to_subset(j)
                assert nucleus_to_subset_alt(j) == direct
                assert nucleus_to_subset_via_topology(j) == direct

    def test_composite_matches_quantified_form(self, small_posets):
        for poset in small_posets:
            for j in enumerate_nuclei(poset):
                composed = topology_to_subset(nucleus_to_topology(j))
                assert composed == nucleus_to_subset_via_topology(j)


class TestVerify:
    def test_empty_poset_counts(self, empty):
        report = verify_triangle(empty)
        assert report.all_passed
        assert report.counts == {"subsets": 1, "nuclei": 1, "topologies": 1}

    def test_chain_counts(self, chain2):
        report = verify_triangle(chain2)
        assert report.all_passed
        assert report.counts == {"subsets": 4, "nuclei": 4, "topologies": 4}

    def test_all_laws_present_in_order(self, singleton):
        report = verify_triangle(singleton)
        assert [law.name for law in report.laws] == LAW_NAMES

    def test_passing_laws_carry_no_witness(self, vee):
        report = verify_triangle(vee)
        for law in report.laws:
            assert law.passed
            assert law.witness is None
        assert [law for law in report.laws if not law.passed] == []

    def test_non_directed_posets_still_verify(self, antichain2):
        report = verify_triangle(antichain2)
        assert not report.directed
        assert report.all_passed

    def test_directed_flag(self, chain2):
        assert verify_triangle(chain2).directed

    def test_elapsed_is_recorded(self, singleton):
        assert verify_triangle(singleton).elapsed_seconds >= 0

    def test_report_is_json_ready(self, chain2):
        report = verify_triangle(chain2)
        data = report.to_jsonable()
        text = json.dumps(data)
        parsed = json.loads(text)
        assert parsed["poset"]["labels"] == ["a", "b"]
        assert parsed["poset"]["n"] == 2
        assert parsed["poset"]["covers"] == [["a", "b"]]
        assert parsed["counts"] == {"subsets": 4, "nuclei": 4, "topologies": 4}
        assert parsed["directed"] is True
        assert parsed["passed"] is True
        assert {law["name"] for law in parsed["laws"]} == set(LAW_NAMES)

    def test_caps_are_forwarded(self, chain2):
        with pytest.raises(CapExceededError):
            verify_triangle(chain2, nucleus_cap=2)
        with pytest.raises(CapExceededError):
            verify_triangle(chain2, topology_cap=1)


def chain(n):
    labels = [f"c{i}" for i in range(n)]
    return build_poset(labels, list(zip(labels, labels[1:])))


def boolean_lattice(k):
    labels = [format(m, f"0{k}b") for m in range(1 << k)]
    covers = [
        (labels[m], labels[m | 1 << b])
        for m in range(1 << k)
        for b in range(k)
        if not m >> b & 1
    ]
    return build_poset(labels, covers)


@pytest.mark.parametrize(
    "poset, nucleus_cap, topology_cap",
    [
        (chain(10), 11, 10),
        (boolean_lattice(3), 20, 8),
    ],
    ids=["chain10", "boolean3"],
)
def test_verify_past_five_elements(poset, nucleus_cap, topology_cap):
    report = verify_triangle(poset, nucleus_cap=nucleus_cap, topology_cap=topology_cap)
    assert report.all_passed
    assert report.counts == dict.fromkeys(("subsets", "nuclei", "topologies"), 1 << poset.n)


class TestBijections:
    def test_nucleus_map_hits_the_census_exactly(self, small_posets):
        for poset in small_posets:
            images = {subset_to_nucleus(x) for x in poset.subsets()}
            census = set(enumerate_nuclei(poset))
            assert images == census
            assert len(images) == 2 ** poset.n

    def test_topology_map_hits_the_census_exactly(self, small_posets):
        for poset in small_posets:
            images = {subset_to_topology(x) for x in poset.subsets()}
            census = set(enumerate_topologies(poset))
            assert images == census
            assert len(images) == 2 ** poset.n


@given(posets(max_n=3), st.data())
@settings(max_examples=60)
def test_subset_round_trips_both_ways(poset, data):
    x = data.draw(st.sampled_from(poset.subsets()))
    assert nucleus_to_subset(subset_to_nucleus(x)) == x
    assert topology_to_subset(subset_to_topology(x)) == x


@given(posets(max_n=3), st.data())
@settings(max_examples=40)
def test_conversion_outputs_validate(poset, data):
    x = data.draw(st.sampled_from(poset.subsets()))
    j = subset_to_nucleus(x)
    validate_nucleus(poset, dict(j.pairs()))
    J = subset_to_topology(x)
    validate_topology(poset, [J.sieves_at(p) for p in range(poset.n)])
    J2 = nucleus_to_topology(j)
    validate_topology(poset, [J2.sieves_at(p) for p in range(poset.n)])
    j2 = topology_to_nucleus(J)
    validate_nucleus(poset, dict(j2.pairs()))
