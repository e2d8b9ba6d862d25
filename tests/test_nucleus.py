import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import posets
from triposet import (
    CapExceededError,
    ImageNotDownsetError,
    NotIdempotentError,
    NotInflationaryError,
    NotMeetPreservingError,
    Nucleus,
    PosetMismatchError,
    enumerate_nuclei,
    validate_nucleus,
)


def identity_table(poset):
    return {d: d for d in poset.downsets()}


def constant_top_table(poset):
    t = poset.downset(poset.labels)
    return {d: t for d in poset.downsets()}


def image(j, d):
    """j(d), read off the nucleus table."""
    return dict(j.pairs())[d]


class TestValidate:
    def test_identity_is_a_nucleus(self, chain2):
        j = validate_nucleus(chain2, identity_table(chain2))
        assert isinstance(j, Nucleus)

    def test_constant_top_is_a_nucleus(self, vee):
        j = validate_nucleus(vee, constant_top_table(vee))
        assert image(j, vee.downset([])) == vee.downset(vee.labels)

    def test_shrinking_entry_flags_inflationarity(self, chain2):
        table = identity_table(chain2)
        table[chain2.downset("a")] = chain2.downset([])
        with pytest.raises(NotInflationaryError) as exc:
            validate_nucleus(chain2, table)
        assert exc.value.downset == chain2.downset("a")

    def test_open_image_flagged_before_anything_else(self, chain2):
        table = identity_table(chain2)
        table[chain2.downset([])] = chain2.subset("b")
        with pytest.raises(ImageNotDownsetError) as exc:
            validate_nucleus(chain2, table)
        assert exc.value.image == chain2.subset("b")

    def test_drifting_image_flags_idempotence(self, chain2):
        # empty -> {a} -> top grows on the second application
        table = {
            chain2.downset([]): chain2.downset("a"),
            chain2.downset("a"): chain2.downset("ab"),
            chain2.downset("ab"): chain2.downset("ab"),
        }
        with pytest.raises(NotIdempotentError) as exc:
            validate_nucleus(chain2, table)
        assert exc.value.downset == chain2.downset([])

    def test_meet_preservation_failure_names_the_pair(self, antichain2):
        # inflationary and idempotent, but j({a} & {b}) != j({a}) & j({b})
        table = identity_table(antichain2)
        table[antichain2.downset("b")] = antichain2.downset("ab")
        with pytest.raises(NotMeetPreservingError) as exc:
            validate_nucleus(antichain2, table)
        assert exc.value.left == antichain2.downset("a")
        assert exc.value.right == antichain2.downset("b")

    def test_missing_row_rejected(self, chain2):
        table = identity_table(chain2)
        del table[chain2.downset("a")]
        with pytest.raises(ValueError):
            validate_nucleus(chain2, table)

    def test_duplicate_row_rejected(self, chain2):
        pairs = list(identity_table(chain2).items())
        pairs.append((chain2.downset([]), chain2.downset([])))
        with pytest.raises(ValueError):
            validate_nucleus(chain2, pairs)

    def test_open_key_rejected(self, chain2):
        pairs = [(chain2.subset("b"), chain2.downset("ab"))]
        with pytest.raises(ValueError):
            validate_nucleus(chain2, pairs)

    def test_pair_iterable_accepted(self, chain2):
        j = validate_nucleus(chain2, list(identity_table(chain2).items()))
        assert j == validate_nucleus(chain2, identity_table(chain2))

    def test_foreign_key_rejected(self, chain2, antichain2):
        table = identity_table(chain2)
        table[antichain2.downset("a")] = antichain2.downset("a")
        with pytest.raises(PosetMismatchError):
            validate_nucleus(chain2, table)

    def test_foreign_image_rejected(self, chain2, antichain2):
        table = identity_table(chain2)
        table[chain2.downset("a")] = antichain2.downset("a")
        with pytest.raises(PosetMismatchError, match="table image belongs to a different poset"):
            validate_nucleus(chain2, table)


class TestApply:
    def test_identity_application(self, chain3):
        j = validate_nucleus(chain3, identity_table(chain3))
        for d in chain3.downsets():
            assert image(j, d) == d

    def test_constant_top_application(self, chain3):
        j = validate_nucleus(chain3, constant_top_table(chain3))
        for d in chain3.downsets():
            assert image(j, d) == chain3.downset(chain3.labels)

    def test_closure_toward_a_marked_point(self, chain2):
        # the nucleus fixing everything that already contains a
        table = {
            chain2.downset([]): chain2.downset("a"),
            chain2.downset("a"): chain2.downset("a"),
            chain2.downset("ab"): chain2.downset("ab"),
        }
        j = validate_nucleus(chain2, table)
        assert image(j, chain2.downset([])) == chain2.downset("a")

    def test_pairs_follow_canonical_order(self, chain2):
        j = validate_nucleus(chain2, identity_table(chain2))
        assert [s.labels() for s, _ in j.pairs()] == [(), ("a",), ("a", "b")]

    def test_repr_lists_the_rows(self, chain2):
        assert repr(validate_nucleus(chain2, identity_table(chain2))) == (
            "Nucleus({}->{}, {a}->{a}, {a b}->{a b})")

    def test_equality_with_a_non_nucleus_is_false(self, chain2):
        j = validate_nucleus(chain2, identity_table(chain2))
        assert (j == j.images) is False

    def test_table_equality(self, chain2):
        a = validate_nucleus(chain2, identity_table(chain2))
        b = validate_nucleus(chain2, list(identity_table(chain2).items()))
        c = validate_nucleus(chain2, constant_top_table(chain2))
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_constructor_rejects_a_non_int_entry(self, chain2, diamond):
        # 0.0 == 0 and hashes alike, so it would pass the downset lookup
        for poset in (chain2, diamond):
            images = list(poset.downset_masks())
            images[0] = 0.0
            with pytest.raises(TypeError, match="mask 0.0 is not an int"):
                Nucleus(poset, images)
            assert Nucleus(poset, list(poset.downset_masks())).images == poset.downset_masks()

    @pytest.mark.parametrize("bad", [-1, 4])  # chain2's full mask is 3
    def test_constructor_rejects_an_out_of_range_entry(self, chain2, bad):
        # checked before the downset lookup: rendering a negative mask never ends
        with pytest.raises(ValueError, match="out of range for n=2"):
            Nucleus(chain2, [bad, 1, 3])

    def test_constructor_rejects_a_non_downset_entry(self, chain2):
        with pytest.raises(ImageNotDownsetError) as exc:
            Nucleus(chain2, [0, 2, 3])
        assert exc.value.downset == chain2.downset("a")
        assert exc.value.image == chain2.subset("b")

    def test_constructor_rejects_a_wrong_length(self, chain2):
        with pytest.raises(ValueError, match="2 images, expected 3"):
            Nucleus(chain2, [1, 3])


class TestEnumerate:
    def test_empty_poset_has_one_nucleus(self, empty):
        assert len(enumerate_nuclei(empty)) == 1

    def test_singleton_has_identity_and_constant_top(self, singleton):
        js = enumerate_nuclei(singleton)
        assert len(js) == 2
        tables = {j.images for j in js}
        assert (0, 1) in tables  # identity
        assert (1, 1) in tables  # constant top

    def test_chain_has_four(self, chain2):
        assert len(enumerate_nuclei(chain2)) == 4

    def test_all_pass_validation(self, small_posets):
        for poset in small_posets:
            for j in enumerate_nuclei(poset):
                validate_nucleus(poset, dict(j.pairs()))

    def test_top_is_always_fixed(self, small_posets):
        for poset in small_posets:
            for j in enumerate_nuclei(poset):
                assert image(j, poset.downset(poset.labels)) == poset.downset(poset.labels)

    def test_monotone_as_a_consequence(self, small_posets):
        for poset in small_posets:
            ds = poset.downsets()
            for j in enumerate_nuclei(poset):
                img = dict(j.pairs())
                for a in ds:
                    for b in ds:
                        if a <= b:
                            assert img[a] <= img[b]

    def test_no_duplicates_and_deterministic(self, diamond):
        js = enumerate_nuclei(diamond)
        assert len({j.images for j in js}) == len(js)
        assert [j.images for j in js] == [j.images for j in enumerate_nuclei(diamond)]

    def test_cap_counts_downsets(self, chain2):
        with pytest.raises(CapExceededError):
            enumerate_nuclei(chain2, cap=2)
        assert len(enumerate_nuclei(chain2, cap=3)) == 4


@pytest.mark.parametrize(
    "labels,relations",
    [
        (["a"], []),
        (["a", "b"], [("a", "b")]),
        (["a", "b"], []),
        (["a", "b", "c"], [("a", "b"), ("b", "c")]),
        (["a", "b", "c"], [("c", "a"), ("c", "b")]),
    ],
)
def test_enumeration_matches_full_table_filter(labels, relations):
    # the |D|^|D| filter is only feasible on the smallest posets, which is
    # exactly where an enumeration bug would hide in plain sight
    from triposet import build_poset

    poset = build_poset(labels, relations)
    lab, le = oracles.order_pairs(poset)
    expected = oracles.all_nuclei_by_filter(lab, le)
    got = enumerate_nuclei(poset)
    assert len(got) == len(expected)
    as_sets = {
        frozenset(
            (frozenset(s.labels()), frozenset(img.labels())) for s, img in j.pairs()
        )
        for j in got
    }
    for table in expected:
        assert frozenset(table.items()) in as_sets


@given(posets(max_n=3), st.data())
@settings(max_examples=60)
def test_validation_agrees_with_naive_checker(poset, data):
    ds = poset.downsets()
    images = [data.draw(st.sampled_from(ds)) for _ in ds]
    table = dict(zip(ds, images))
    labels, le = oracles.order_pairs(poset)
    naive = oracles.is_nucleus(
        labels, le,
        {frozenset(s.labels()): frozenset(img.labels()) for s, img in table.items()},
    )
    try:
        validate_nucleus(poset, table)
        accepted = True
    except (NotInflationaryError, NotIdempotentError, NotMeetPreservingError):
        accepted = False
    assert accepted == naive


@given(posets(max_n=3))
@settings(max_examples=40)
def test_random_posets_enumerate_without_duplicates(poset):
    js = enumerate_nuclei(poset)
    assert len({j.images for j in js}) == len(js)
    for j in js:
        validate_nucleus(poset, dict(j.pairs()))
