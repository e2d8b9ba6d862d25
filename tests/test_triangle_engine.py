"""The memoized ``verify_triangle`` against the law-by-law reference.

The engine computes each edge once per distinct input and validates each
distinct nucleus table or topology once, on its masks.  These tests hold it
to the slow reference in ``reference_triangle.py``: same reports on a fixed
poset set, same failures when one edge is broken, and no edge or validator
core called twice on the same input.  An oversize job is refused before
anything is enumerated.
"""

from collections import Counter

import pytest

from reference_triangle import reference_verify_triangle
from triposet import Nucleus, Subset, build_poset, enumerate_posets, triangle
from triposet.errors import CapExceededError

EDGES = (
    "subset_to_nucleus",
    "nucleus_to_subset",
    "subset_to_topology",
    "topology_to_subset",
    "nucleus_to_topology",
    "topology_to_nucleus",
    "nucleus_to_subset_alt",
    "nucleus_to_subset_via_topology",
)


def chain(n):
    labels = [f"c{i}" for i in range(n)]
    return build_poset(labels, list(zip(labels, labels[1:])))


def report_bytes(report):
    data = report.to_jsonable()
    del data["elapsed_seconds"]
    return data


def reference_posets():
    """All labeled posets with n <= 4 and every 30th labeled n = 5 poset."""
    for n in range(5):
        yield from enumerate_posets(n)
    for i, poset in enumerate(enumerate_posets(5, cap=5)):
        if i % 30 == 0:
            yield poset


def test_engine_matches_reference_on_the_sample():
    checked = 0
    for poset in reference_posets():
        engine = triangle.verify_triangle(poset)
        assert engine.all_passed
        assert report_bytes(engine) == report_bytes(reference_verify_triangle(poset))
        checked += 1
    assert checked == 243 + 142


def _key(value):
    for attr in ("mask", "table", "families"):
        if hasattr(value, attr):
            return getattr(value, attr)
    raise TypeError(value)


def _break_nucleus_to_subset(poset, original):
    target = triangle.subset_to_nucleus(poset.subset(["a"])).table

    def broken(j):
        got = original(j)
        return Subset._wrap(poset, got.mask ^ 1) if j.table == target else got

    return broken


def _break_subset_to_topology(poset, original):
    target, other = poset.subset(["a"]).mask, poset.subset(["b"])

    def broken(x):
        return original(other if x.mask == target else x)

    return broken


def _break_topology_to_nucleus(poset, original):
    target = triangle.subset_to_topology(poset.subset(["a"])).families
    # everything to the empty downset: not inflationary, so not a nucleus
    bad = Nucleus(poset, [0] * len(poset.downset_masks()))

    def broken(J):
        return bad if J.families == target else original(J)

    return broken


@pytest.mark.parametrize(
    "edge, breaker, failing",
    [
        (
            "nucleus_to_subset",
            _break_nucleus_to_subset,
            ["subset_nucleus_roundtrip", "nucleus_roundtrip", "identity_composite", "identity_alt"],
        ),
        (
            "subset_to_topology",
            _break_subset_to_topology,
            [
                "subset_topology_roundtrip",
                "topology_roundtrip",
                "triangle_commutes_via_nucleus",
                "triangle_commutes_via_topology",
                "topology_bijection",
            ],
        ),
        (
            "topology_to_nucleus",
            _break_topology_to_nucleus,
            [
                "nucleus_topology_roundtrip",
                "topology_nucleus_roundtrip",
                "triangle_commutes_via_topology",
                "topology_to_nucleus_valid",
            ],
        ),
    ],
)
def test_a_broken_edge_fails_the_same_laws(diamond, monkeypatch, edge, breaker, failing):
    monkeypatch.setattr(triangle, edge, breaker(diamond, getattr(triangle, edge)))
    engine = triangle.verify_triangle(diamond)
    assert [law.name for law in engine.failures()] == failing
    assert report_bytes(engine) == report_bytes(reference_verify_triangle(diamond))


def test_each_edge_and_validator_runs_once_per_distinct_input(diamond, monkeypatch):
    calls = {name: Counter() for name in (*EDGES, "_check_nucleus", "_check_topology")}

    def counting(name, fn, key):
        def wrapper(*args):
            calls[name][key(*args)] += 1
            return fn(*args)

        return wrapper

    for name in EDGES:
        monkeypatch.setattr(triangle, name, counting(name, getattr(triangle, name), _key))
    monkeypatch.setattr(
        triangle,
        "_check_nucleus",
        counting("_check_nucleus", triangle._check_nucleus, lambda poset, images: tuple(images)),
    )
    monkeypatch.setattr(
        triangle,
        "_check_topology",
        counting("_check_topology", triangle._check_topology, lambda poset, fams: tuple(fams)),
    )
    assert triangle.verify_triangle(diamond).all_passed
    for name, counter in calls.items():
        assert counter, f"{name} was never called"
        key, most = counter.most_common(1)[0]
        assert most == 1, f"{name} ran {most} times on one input {key!r}"
    # 16 subsets, 16 nuclei and 16 topologies on the diamond
    assert len(calls["subset_to_nucleus"]) == 16
    assert len(calls["_check_nucleus"]) == 16
    assert len(calls["_check_topology"]) == 16


def test_oversize_jobs_are_refused_before_any_enumeration(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("enumerated before the caps were checked")

    monkeypatch.setattr(triangle, "enumerate_nuclei", never)
    monkeypatch.setattr(triangle, "enumerate_topologies", never)
    monkeypatch.setattr(triangle.Poset, "subsets", never)
    # 7 downsets fit the nucleus cap; 6 elements exceed the topology cap 5
    with pytest.raises(
        CapExceededError, match="6 elements exceeds the topology enumeration cap 5"
    ):
        triangle.verify_triangle(chain(6))
    with pytest.raises(
        CapExceededError, match="7 downsets exceeds the nucleus enumeration cap 6"
    ):
        triangle.verify_triangle(chain(6), nucleus_cap=6, topology_cap=4)
