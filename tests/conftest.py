import string
import sys

import pytest
from hypothesis import strategies as st

from triposet import build_poset


@pytest.fixture
def empty():
    return build_poset([])


@pytest.fixture
def singleton():
    return build_poset(["a"])


@pytest.fixture
def chain2():
    return build_poset(["a", "b"], [("a", "b")])


@pytest.fixture
def chain3():
    return build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])


@pytest.fixture
def antichain2():
    return build_poset(["a", "b"])


@pytest.fixture
def vee():
    # c below both a and b, a and b incomparable
    return build_poset(["a", "b", "c"], [("c", "a"), ("c", "b")])


@pytest.fixture
def diamond():
    return build_poset(
        ["o", "a", "b", "t"],
        [("o", "a"), ("o", "b"), ("a", "t"), ("b", "t")],
    )


@pytest.fixture
def small_posets(empty, singleton, chain2, chain3, antichain2, vee, diamond):
    return [empty, singleton, chain2, chain3, antichain2, vee, diamond]


def cone(poset, p):
    """The principal downset of point ``p``, by the public API."""
    return poset.downset([q for q in range(poset.n) if poset.leq(q, p)])


@st.composite
def posets(draw, max_n=4):
    """Random labeled posets: orient some index-increasing pairs, then
    scramble which label sits at which index via a permutation."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    labels = list(string.ascii_lowercase[:n])
    perm = draw(st.permutations(range(n)))
    relations = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                relations.append((labels[perm[i]], labels[perm[j]]))
    return build_poset(labels, relations)


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None)
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for line in results:
        terminalreporter.write_line(line)
