import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import posets
from triposet import (
    DownSet,
    PosetMismatchError,
    implication,
    meet,
)


class TestLattice:
    def test_meet_idempotent(self, chain2):
        a = chain2.downset("a")
        assert meet(a, a) == a

    def test_meet_with_bottom(self, chain2):
        assert meet(chain2.downset("ab"), chain2.downset([])) == chain2.downset([])

    def test_meet_on_chain(self, chain2):
        assert meet(chain2.downset("a"), chain2.downset("ab")) == chain2.downset("a")

    def test_join_with_bottom(self, vee):
        a = vee.downset(["a", "c"])
        assert a | vee.downset([]) == a

    def test_join_on_antichain(self, antichain2):
        got = antichain2.downset("a") | antichain2.downset("b")
        assert got == antichain2.downset("ab")

    def test_join_with_top(self, chain3):
        top = chain3.downset(chain3.labels)
        assert chain3.downset("a") | top == top

    def test_bounds(self, vee):
        assert vee.downset([]).labels() == ()
        assert vee.downset(vee.labels).labels() == ("a", "b", "c")

    def test_results_stay_downsets(self, diamond):
        for a in diamond.downsets():
            for b in diamond.downsets():
                assert isinstance(meet(a, b), DownSet)
                assert isinstance(a | b, DownSet)

    def test_distributivity(self, diamond):
        ds = diamond.downsets()
        for a in ds:
            for b in ds:
                for c in ds:
                    assert meet(a, b | c) == meet(a, b) | meet(a, c)

    def test_meet_rejects_a_plain_subset(self, chain2):
        with pytest.raises(TypeError, match="meet is defined on downsets"):
            meet(chain2.subset("a"), chain2.downset("a"))

    def test_cross_poset_operands_rejected(self, chain2, antichain2):
        with pytest.raises(PosetMismatchError):
            meet(chain2.downset("a"), antichain2.downset("a"))
        with pytest.raises(PosetMismatchError):
            chain2.downset("a") | antichain2.downset("a")


class TestImplication:
    def test_full_left_argument_gives_back_s(self, diamond):
        everything = diamond.subset(range(diamond.n))
        for s in diamond.downsets():
            assert implication(everything, s) == s

    def test_empty_left_argument_gives_top(self, diamond):
        for s in diamond.downsets():
            assert implication(diamond.subset([]), s) == diamond.downset(diamond.labels)

    def test_chain_example(self, chain2):
        got = implication(chain2.subset("b"), chain2.downset([]))
        assert got == chain2.downset("a")

    def test_left_argument_not_closed_first(self, chain2):
        # {b} as given keeps a in the result; its downward closure {a,b}
        # would empty it out, so the pointwise reading is the primitive one
        s = chain2.downset([])
        assert implication(chain2.subset("b"), s) == chain2.downset("a")
        assert implication(chain2.subset("ab"), s) == chain2.downset([])

    def test_adjunction_on_fixture(self, diamond):
        ds = diamond.downsets()
        for a in ds:
            for b in ds:
                for c in ds:
                    assert (meet(a, b) <= c) == (a <= implication(b, c))

    def test_rejects_cross_poset_arguments(self, chain2, antichain2):
        with pytest.raises(PosetMismatchError):
            implication(chain2.subset("a"), antichain2.downset("a"))


@given(posets(), st.data())
@settings(max_examples=80)
def test_implication_closed_for_arbitrary_left_argument(poset, data):
    x = data.draw(st.sampled_from(poset.subsets()))
    s = data.draw(st.sampled_from(poset.downsets()))
    got = implication(x, s)
    assert isinstance(got, DownSet)
    labels, le = oracles.order_pairs(poset)
    expected = oracles.implication_pointwise(
        labels, le, frozenset(x.labels()), frozenset(s.labels())
    )
    assert frozenset(got.labels()) == expected


@given(posets(max_n=3), st.data())
@settings(max_examples=60)
def test_monotone_in_right_antitone_in_left(poset, data):
    subsets = poset.subsets()
    ds = poset.downsets()
    x, x2 = data.draw(st.sampled_from(subsets)), data.draw(st.sampled_from(subsets))
    s, s2 = data.draw(st.sampled_from(ds)), data.draw(st.sampled_from(ds))
    if s <= s2:
        assert implication(x, s) <= implication(x, s2)
    if x <= x2:
        assert implication(x2, s) <= implication(x, s)


@given(posets(max_n=3), st.data())
@settings(max_examples=60)
def test_adjunction_random(poset, data):
    ds = poset.downsets()
    a = data.draw(st.sampled_from(ds))
    b = data.draw(st.sampled_from(ds))
    c = data.draw(st.sampled_from(ds))
    assert (meet(a, b) <= c) == (a <= implication(b, c))
