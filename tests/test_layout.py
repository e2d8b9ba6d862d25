"""The per-poset layout against a brute-force definition of each field.

Every table that the enumerators, the plane checks and the edge kernels
read off a poset is rebuilt here from the order relation alone: downsets
by filtering all 2**n masks, minimal points by scanning the relation,
and the plan each census search runs as the closed sets inside each cone.
The posets are every labeled poset with n <= 5, chain10, chain16,
antichain7, antichain12, boolean3 and seeded random posets with n <= 10.
"""

import random
from unittest import mock

import pytest

import triposet.poset
from triposet import build_poset, enumerate_posets
from triposet.nucleus import _nucleus_generators
from triposet.poset import _layout, _search_plan
from triposet.topology import _topology_generators


def chain(n):
    labels = [f"c{i}" for i in range(n)]
    return build_poset(labels, list(zip(labels, labels[1:])))


def boolean_lattice(k):
    labels = [format(m, f"0{k}b") for m in range(1 << k)]
    covers = [(labels[m], labels[m | 1 << b]) for m in range(1 << k) for b in range(k)
              if not m >> b & 1]
    return build_poset(labels, covers)


def random_poset(n, rng):
    labels = [f"p{i}" for i in range(n)]
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.3]
    return build_poset(labels, pairs)


def check_layout(poset):
    n = poset.n
    le = [[poset.leq(q, p) for p in range(n)] for q in range(n)]  # le[q][p]: q <= p
    down = [sum(1 << q for q in range(n) if le[q][p]) for p in range(n)]
    up = [sum(1 << q for q in range(n) if le[p][q]) for p in range(n)]
    points = [[q for q in range(n) if m >> q & 1] for m in range(1 << n)]

    def minimal_outside(s, within):
        """The points of ``within`` - s whose strict lower points all lie in s."""
        return [a for a in points[within & ~s]
                if all(s >> q & 1 for q in range(n) if q != a and le[q][a])]

    dmasks = sorted((m for m in range(1 << n) if all(not down[p] & ~m for p in points[m])),
                    key=lambda m: (bin(m).count("1"), m))
    rank = {m: i for i, m in enumerate(dmasks)}
    full = (1 << n) - 1
    sieves = [tuple(m for m in dmasks if not m & ~down[p]) for p in range(n)]
    planes = [(p, s) for p in range(n) for s in sieves[p]]
    plane = {key: t for t, key in enumerate(planes)}

    layout = _layout(poset)
    assert layout.poset is poset or layout.poset == poset
    assert poset.downset_masks() == tuple(dmasks)
    assert (layout.n, layout.d) == (n, len(dmasks))

    steps = []
    for i in range(len(dmasks) - 2, -1, -1):
        p = min(minimal_outside(dmasks[i], full))
        k = rank[dmasks[i] | 1 << p]
        assert k > i and dmasks[k] & ~up[p] == dmasks[i]  # S_i = S_k meet M_p
        steps.append((i, k, p))
    assert list(layout.steps) == steps
    assert list(layout.tops) == [rank[full & ~up[p]] * n for p in range(n)]
    assert list(layout.above) == [tuple(points[up[p]]) for p in range(n)]
    assert list(layout.cones) == [tuple(points[down[p]]) for p in range(n)]

    assert tuple(layout.sieves) == tuple(sieves)
    assert all(s[-1] == down[p] for p, s in enumerate(sieves))
    assert layout.size == len(planes)
    assert [list(at.items()) for at in layout.index] == [
        [(s, plane[p, s]) for s in sieves[p]] for p in range(n)]
    assert list(layout.ranges) == [
        range(plane[p, s[0]], plane[p, s[0]] + len(s)) for p, s in enumerate(sieves)]
    grow = []
    for p in range(n):
        for s in reversed(sieves[p][:-1]):
            a = min(minimal_outside(s, down[p]))
            grow.append((plane[p, s], plane[p, s | 1 << a], p * n + a))
    assert list(layout.grow) == grow

    assert list(layout.alt) == [(rank[down[p]] * n, rank[down[p] & ~(1 << p)] * n)
                                for p in range(n)]
    assert list(layout.push) == [rank[s] * n + p for p, s in planes]
    assert list(layout.pull) == [plane[p, m & down[p]] for m in dmasks for p in range(n)]

    # the plan each census search builds and runs: per point, smallest cone
    # first, its cone's points and the closed sets inside the cone in
    # canonical order of their downsets, the whole cone without its points
    plans = []

    def record(*args):
        plans.append(_search_plan(*args))
        return plans[-1]

    with mock.patch.object(triposet.poset, "_search_plan", record):
        # one topology and one nucleus per subset
        assert len(_topology_generators(poset)) == len(_nucleus_generators(poset)) == 1 << n
    assert len(plans) == 2
    for search, cones, closed, value in (
        (plans[0], down, dmasks, lambda g: g),
        (plans[1], up, [full ^ t for t in dmasks], lambda g: full ^ g),
    ):
        order = sorted(range(n), key=lambda p: (bin(cones[p]).count("1"), p))
        assert [tuple(step) for step in search] == [
            (p, tuple(points[cones[p]]),
             tuple((g, value(g), None if g == cones[p] else tuple(points[g]))
                   for g in closed if not g & ~cones[p]))
            for p in order]


@pytest.mark.parametrize("n", range(6))
def test_the_layout_of_every_labeled_poset(n):
    for poset in enumerate_posets(n, cap=5):
        check_layout(poset)


@pytest.mark.parametrize(
    "poset",
    [chain(10), chain(16), build_poset([f"a{i}" for i in range(7)]),
     build_poset([f"a{i}" for i in range(12)]), boolean_lattice(3)],
    ids=["chain10", "chain16", "antichain7", "antichain12", "boolean3"],
)
def test_the_layout_past_five_points(poset):
    check_layout(poset)


def test_the_layout_of_random_posets():
    rng = random.Random(21)
    for n in range(11):
        for _ in range(3):
            check_layout(random_poset(n, rng))
