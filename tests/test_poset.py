import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import cone, posets
from triposet import (
    CapExceededError,
    CycleDetectedError,
    DownSet,
    DuplicateLabelError,
    HARD_STREAM_CAP,
    LATTICE_CAP,
    Poset,
    Subset,
    UnknownLabelError,
    build_poset,
    enumerate_posets,
)
from triposet.poset import _layout


class TestBuild:
    def test_singleton_is_reflexive_only(self, singleton):
        assert singleton.n == 1
        assert singleton.leq(0, 0)

    def test_chain_closes_transitively(self, chain3):
        a, b, c = (chain3.index(x) for x in "abc")
        assert chain3.leq(a, b) and chain3.leq(b, c)
        # a <= c is not among the input pairs; the builder must add it
        assert chain3.leq(a, c)
        assert not chain3.leq(c, a)

    def test_two_way_pair_is_a_cycle(self):
        with pytest.raises(CycleDetectedError):
            build_poset(["a", "b"], [("a", "b"), ("b", "a")])

    def test_indirect_cycle_detected_after_closure(self):
        with pytest.raises(CycleDetectedError):
            build_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])

    def test_duplicate_label_rejected(self):
        with pytest.raises(DuplicateLabelError):
            build_poset(["a", "a"])

    def test_unknown_relation_endpoint_rejected(self):
        with pytest.raises(UnknownLabelError):
            build_poset(["a", "b"], [("a", "z")])

    def test_unknown_lower_endpoint_rejected(self):
        with pytest.raises(UnknownLabelError, match="unknown label 'z'"):
            build_poset(["a"], [("z", "a")])

    def test_declaration_order_fixes_indices(self):
        p = build_poset(["z", "y", "x"])
        assert p.labels == ("z", "y", "x")
        assert p.index("y") == 1

    def test_raw_constructor_rejects_irreflexive_rows(self):
        with pytest.raises(ValueError):
            Poset(("a",), [0])

    def test_raw_constructor_rejects_unclosed_rows(self):
        # a below b, b below c, but a<c missing
        with pytest.raises(ValueError):
            Poset(("a", "b", "c"), [0b001, 0b011, 0b110])

    def test_raw_constructor_rejects_a_length_mismatch(self):
        with pytest.raises(ValueError, match="labels and relation rows disagree in length"):
            Poset(("a", "b"), [0b01])

    def test_raw_constructor_rejects_a_non_string_label(self):
        with pytest.raises(TypeError, match="label 1 is not a string"):
            Poset(("a", 1), [0b01, 0b10])

    def test_raw_constructor_rejects_a_repeated_label(self):
        with pytest.raises(DuplicateLabelError, match="duplicate label 'a'"):
            Poset(("a", "a"), [0b01, 0b10])

    def test_raw_constructor_rejects_a_row_past_the_carrier(self):
        with pytest.raises(ValueError, match="relation row for 'a' is out of range"):
            Poset(("a",), [0b11])

    def test_repr_lists_the_covers(self, diamond, antichain2):
        assert repr(diamond) == "Poset(o a b t; o<a o<b a<t b<t)"
        assert repr(antichain2) == "Poset(a b)"

    def test_equality_with_a_non_poset_is_false(self, chain2):
        assert (chain2 == ("a", "b")) is False


class TestOrder:
    def test_leq_on_chain(self, chain2):
        a, b = chain2.index("a"), chain2.index("b")
        assert chain2.leq(a, b)
        assert not chain2.leq(b, a)

    def test_leq_on_antichain(self, antichain2):
        assert not antichain2.leq(0, 1)
        assert not antichain2.leq(1, 0)

    def test_principal_downset_chain(self, chain2):
        assert cone(chain2, chain2.index("b")) == chain2.downset("ab")
        assert cone(chain2, chain2.index("a")) == chain2.downset("a")

    def test_principal_downset_vee(self, vee):
        assert cone(vee, vee.index("a")) == vee.downset(["a", "c"])

    def test_punctured_is_principal_minus_point(self, small_posets):
        # the punctured cone is downward closed by antisymmetry
        for poset in small_posets:
            for p in range(poset.n):
                assert poset.is_downset_mask(cone(poset, p).mask & ~(1 << p))

    def test_directedness(self, chain2, antichain2, vee, empty):
        assert chain2.is_downward_directed()
        assert not antichain2.is_downward_directed()
        assert vee.is_downward_directed()
        assert not empty.is_downward_directed()

    def test_covers_skip_implied_pairs(self, chain3):
        a, b, c = (chain3.index(x) for x in "abc")
        assert chain3.covers() == ((a, b), (b, c))


class TestDownsets:
    def test_singleton_downsets(self, singleton):
        assert [d.labels() for d in singleton.downsets()] == [(), ("a",)]

    def test_chain_downsets(self, chain2):
        assert [d.labels() for d in chain2.downsets()] == [(), ("a",), ("a", "b")]

    def test_antichain_has_four_downsets(self, antichain2):
        assert len(antichain2.downsets()) == 4

    def test_canonical_order_is_cardinality_then_mask(self, diamond):
        masks = diamond.downset_masks()
        keys = [(m.bit_count(), m) for m in masks]
        assert keys == sorted(keys)

    def test_closed_under_meet_join_with_bounds(self, small_posets):
        for poset in small_posets:
            all_masks = set(poset.downset_masks())
            assert 0 in all_masks
            assert (1 << poset.n) - 1 in all_masks
            for a in poset.downsets():
                for b in poset.downsets():
                    assert (a & b).mask in all_masks
                    assert (a | b).mask in all_masks

    def test_lattice_operations_refuse_past_the_cap(self):
        antichain17 = build_poset(string.ascii_lowercase[:17])
        for operation in (antichain17.downset_masks, antichain17.subsets):
            with pytest.raises(CapExceededError) as exc:
                operation()
            assert str(exc.value) == "17 elements exceeds the lattice-operation cap 16"

    def test_sieves_on_chain_top(self, chain2):
        b = chain2.index("b")
        assert [s.labels() for s in chain2.sieves(b)] == [(), ("a",), ("a", "b")]

    def test_sieves_on_minimal_element(self, chain2, antichain2):
        assert [s.labels() for s in chain2.sieves(chain2.index("a"))] == [(), ("a",)]
        assert [s.labels() for s in antichain2.sieves(0)] == [(), ("a",)]

    def test_punctured_is_a_proper_sieve(self, small_posets):
        for poset in small_posets:
            for p in range(poset.n):
                punct = DownSet(poset, cone(poset, p).mask & ~(1 << p))
                assert punct in poset.sieves(p)
                assert punct != cone(poset, p)

    def test_sieves_are_the_closed_subsets_of_the_cone(self, small_posets):
        for poset in small_posets:
            labels, le = oracles.order_pairs(poset)
            for p in range(poset.n):
                got = {frozenset(s.labels()) for s in poset.sieves(p)}
                assert got == oracles.sieves_in_cone(labels, le, labels[p])


class TestSubsets:
    def test_labels_sorted(self, vee):
        s = vee.subset(["c", "a"])
        assert s.labels() == ("a", "c")
        assert s.to_jsonable() == ["a", "c"]

    def test_membership_by_index_or_label(self, chain2):
        assert chain2.subset([1]) == chain2.subset(["b"])

    def test_extensional_equality_and_hash(self, chain2):
        assert chain2.subset("a") == chain2.downset("a")
        assert hash(chain2.subset("a")) == hash(chain2.downset("a"))
        assert chain2.subset("a") != chain2.subset("b")

    def test_subset_of_other_poset_differs(self, chain2, antichain2):
        assert chain2.subset("a") != antichain2.subset("a")

    def test_downset_constructor_rejects_open_set(self, chain2):
        with pytest.raises(ValueError):
            chain2.downset("b")

    def test_is_downset(self, chain2):
        assert chain2.subset([]).is_downset()
        assert chain2.subset("a").is_downset()
        assert not chain2.subset("b").is_downset()

    def test_unknown_member_label(self, chain2):
        with pytest.raises(UnknownLabelError):
            chain2.subset(["q"])

    def test_member_index_out_of_range(self, chain2):
        with pytest.raises(ValueError, match="element 2 out of range"):
            chain2.subset([2])

    def test_operators_preserve_downset_type(self, antichain2):
        a, b = antichain2.downset("a"), antichain2.downset("b")
        assert isinstance(a & b, DownSet)
        assert isinstance(a | b, DownSet)
        assert (a | b).labels() == ("a", "b")

    def test_order_is_inclusion(self, chain2):
        assert chain2.subset("a") <= chain2.subset("ab")
        assert not chain2.subset("b") <= chain2.subset("a")

    def test_render(self, chain2):
        assert str(chain2.downset("ab")) == "{a b}"
        assert str(chain2.downset([])) == "{}"

    def test_repr_names_the_class(self, chain2):
        assert repr(chain2.subset("b")) == "Subset({b})"
        assert repr(chain2.downset([])) == "DownSet({})"

    def test_length_is_the_cardinality(self, vee):
        assert [len(vee.subset(m)) for m in ([], "c", "ac", "abc")] == [0, 1, 2, 3]

    def test_equality_with_a_non_subset_is_false(self, chain2):
        assert (chain2.subset("a") == 0b01) is False

    def test_subsets_cover_the_powerset(self, vee):
        assert len(vee.subsets()) == 8
        assert len({s.mask for s in vee.subsets()}) == 8

    def test_constructor_rejects_a_non_int_mask(self, chain2, diamond):
        # 1.0 == 1 and hashes alike, so it would pass the range check
        for poset in (chain2, diamond):
            for cls in (Subset, DownSet):
                with pytest.raises(TypeError, match="mask 1.0 is not an int"):
                    cls(poset, 1.0)


class TestEnumeration:
    def test_tiny_counts(self):
        assert len(list(enumerate_posets(0))) == 1
        assert len(list(enumerate_posets(1))) == 1
        assert len(list(enumerate_posets(2))) == 3

    def test_two_point_posets_are_the_expected_three(self):
        seen = set()
        for p in enumerate_posets(2):
            seen.add((p.leq(0, 1), p.leq(1, 0)))
        assert seen == {(False, False), (True, False), (False, True)}

    @pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 3), (3, 19)])
    def test_counts_match_relation_filter(self, n, count):
        assert len(list(enumerate_posets(n))) == count
        assert oracles.count_posets_brute(n) == count

    def test_stream_is_deterministic(self):
        first = [cone(p, 2).mask for p in enumerate_posets(3)]
        second = [cone(p, 2).mask for p in enumerate_posets(3)]
        assert first == second

    def test_default_cap(self):
        assert sum(1 for _ in enumerate_posets(5)) == 4231
        with pytest.raises(CapExceededError):
            enumerate_posets(6)

    def test_hard_cap_wins_over_argument(self):
        with pytest.raises(CapExceededError):
            list(enumerate_posets(HARD_STREAM_CAP + 1, cap=HARD_STREAM_CAP + 1))

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_posets(-1))


@given(posets())
@settings(max_examples=60)
def test_downsets_agree_with_subset_filter(poset):
    labels, le = oracles.order_pairs(poset)
    expected = oracles.downsets_by_filter(labels, le)
    got = {frozenset(d.labels()) for d in poset.downsets()}
    assert got == expected
    assert len(poset.downsets()) == len(expected)


@given(posets())
@settings(max_examples=60)
def test_sieves_agree_with_subset_filter(poset):
    labels, le = oracles.order_pairs(poset)
    for p in range(poset.n):
        expected = oracles.sieves_by_filter(labels, le, labels[p])
        got = {frozenset(s.labels()) for s in poset.sieves(p)}
        assert got == expected


@given(posets())
@settings(max_examples=60)
def test_covers_agree_with_betweenness_scan(poset):
    labels, le = oracles.order_pairs(poset)
    expected = oracles.covers_by_filter(labels, le)
    got = {(labels[p], labels[q]) for p, q in poset.covers()}
    assert got == expected


@given(posets())
@settings(max_examples=60)
def test_directedness_agrees_with_pairwise_scan(poset):
    labels, le = oracles.order_pairs(poset)
    assert poset.is_downward_directed() == oracles.directed_by_scan(labels, le)


@given(posets())
@settings(max_examples=60)
def test_every_downset_is_downward_closed(poset):
    for d in poset.downsets():
        for p in d:
            for q in range(poset.n):
                if poset.leq(q, p):
                    assert q in d


def closure_by_search(n, pairs):
    """``below[p]``: the set of q with q <= p, by a search along the pairs."""
    above = {i: {j for x, j in pairs if x == i} for i in range(n)}
    below = [set() for _ in range(n)]
    for q in range(n):
        seen, frontier = {q}, [q]
        while frontier:
            for r in above[frontier.pop()] - seen:
                seen.add(r)
                frontier.append(r)
        for p in seen:
            below[p].add(q)
    return below


@st.composite
def relation_lists(draw):
    """Up to 6 labels and any list of pairs over them, cycles included."""
    n = draw(st.integers(min_value=0, max_value=6))
    index = st.integers(min_value=0, max_value=max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(index, index), max_size=12)) if n else []
    return n, pairs


@given(relation_lists())
@settings(max_examples=300)
def test_build_poset_matches_a_searched_closure(case):
    n, pairs = case
    labels = list(string.ascii_lowercase[:n])
    below = closure_by_search(n, pairs)
    # the constructor scans points ascending and each cone ascending
    cycle = next(
        ((p, q) for p in range(n) for q in sorted(below[p]) if q != p and p in below[q]),
        None,
    )
    relations = [(labels[x], labels[y]) for x, y in pairs]
    if cycle is not None:
        with pytest.raises(CycleDetectedError) as exc:
            build_poset(labels, relations)
        assert (exc.value.first, exc.value.second) == (
            labels[min(cycle)], labels[max(cycle)]
        )
        return
    poset = build_poset(labels, relations)
    assert poset._down == tuple(sum(1 << q for q in below[p]) for p in range(n))
    assert poset._up == tuple(
        sum(1 << p for p in range(n) if q in below[p]) for q in range(n)
    )


def test_cones_list_each_principal_downset_ascending():
    for n in range(5):
        for poset in enumerate_posets(n):
            assert _layout(poset).cones == [
                tuple(q for q in range(n) if poset._down[p] >> q & 1) for p in range(n)
            ]


@pytest.mark.parametrize("n", range(6))
def test_each_streamed_poset_is_the_one_the_checking_constructor_builds(n):
    """The stream builds its posets without the constructor's checks; each
    must be the poset the checking constructor makes from its rows."""
    for p in enumerate_posets(n, cap=5):
        # a streamed poset carries its rows; its hash, downsets and covers wait until read
        assert (p._hash, p._downsets, p._covers) == (None, None, None)
        checked = Poset(p.labels, p._down)
        assert p == checked and hash(p) == hash(checked)
        assert (p.n, p._down, p._up, p._index) == (
            checked.n, checked._down, checked._up, checked._index
        )
        mask = p.full_mask & 0b10110
        assert Subset(p, mask) == Subset(checked, mask)
        assert hash(Subset(p, mask)) == hash(Subset(checked, mask))
        assert p.covers() == checked.covers()
        assert list(map(p.index, p.labels)) == list(map(checked.index, p.labels))


def from_pairs(n, pairs):
    """The poset on points p0..p{n-1} generated by ``pairs`` of indices (i, j), i <= j."""
    labels = [f"p{i}" for i in range(n)]
    return build_poset(labels, [(labels[i], labels[j]) for i, j in pairs])


def strict_pairs(poset, shift=0):
    """The pairs p < q of ``poset``, its points shifted up by ``shift``."""
    return [(p + shift, q + shift) for p in range(poset.n) for q in range(poset.n)
            if p != q and poset.leq(p, q)]


def chain(n):
    return from_pairs(n, [(i, i + 1) for i in range(n - 1)])


def fence(n):
    """The zigzag p0 < p1 > p2 < p3 ..."""
    return from_pairs(n, [(i, i + 1) if i % 2 == 0 else (i + 1, i) for i in range(n - 1)])


def boolean_lattice(k):
    return from_pairs(1 << k, [(m, m | 1 << b) for m in range(1 << k) for b in range(k)
                               if not m >> b & 1])


def ordinal_sum(P, Q):
    """P below Q: every point of P under every point of Q."""
    return from_pairs(P.n + Q.n, strict_pairs(P) + strict_pairs(Q, P.n)
                      + [(p, P.n + q) for p in range(P.n) for q in range(Q.n)])


def disjoint_union(P, Q):
    return from_pairs(P.n + Q.n, strict_pairs(P) + strict_pairs(Q, P.n))


def fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


# name -> (poset builder, its number of downsets in closed form)
SMALL = {
    "chain3": (lambda: chain(3), 4),
    "antichain2": (lambda: from_pairs(2, []), 4),
    "fence4": (lambda: fence(4), fibonacci(6)),
    "boolean2": (lambda: boolean_lattice(2), 6),
}
DEDEKIND = (2, 3, 6, 20, 168)
CLOSED_FORMS = {
    **{f"chain{n}": (lambda n=n: chain(n), n + 1) for n in range(LATTICE_CAP + 1)},
    **{f"antichain{n}": (lambda n=n: from_pairs(n, []), 1 << n) for n in range(LATTICE_CAP + 1)},
    **{f"fence{n}": (lambda n=n: fence(n), fibonacci(n + 2)) for n in range(1, LATTICE_CAP + 1)},
    **{f"boolean{k}": (lambda k=k: boolean_lattice(k), d) for k, d in enumerate(DEDEKIND)},
    **{f"{a}_below_{b}": (lambda P=P, Q=Q: ordinal_sum(P(), Q()), dp + dq - 1)
       for a, (P, dp) in SMALL.items() for b, (Q, dq) in SMALL.items()},
    **{f"{a}_beside_{b}": (lambda P=P, Q=Q: disjoint_union(P(), Q()), dp * dq)
       for a, (P, dp) in SMALL.items() for b, (Q, dq) in SMALL.items()},
}


@pytest.mark.parametrize("build, count", CLOSED_FORMS.values(), ids=CLOSED_FORMS)
def test_the_downset_counts_meet_their_closed_forms(build, count):
    """Counts that need no enumeration, up to the lattice cap: n + 1 on a
    chain, 2^n on an antichain, F(n + 2) on a fence, the Dedekind numbers on
    the Boolean lattices 2^k, |D(P)| + |D(Q)| - 1 on the ordinal sum and
    |D(P)| * |D(Q)| on the disjoint union; each list holds distinct
    downsets in (cardinality, mask) order."""
    poset = build()
    assert poset.n <= LATTICE_CAP
    masks = poset.downset_masks()
    assert len(masks) == count
    assert list(masks) == sorted(set(masks), key=lambda m: (m.bit_count(), m))
    assert all(map(poset.is_downset_mask, masks))
