"""The table-driven ``verify_triangle`` against the law-by-law reference.

The engine runs each edge kernel once per distinct input and validates each
distinct nucleus table or topology once, on its masks.  These tests hold it
to the slow reference in ``reference_triangle.py``: same reports on a fixed
poset set, same failures when one kernel is broken, and no kernel or
validator core called twice on the same input.  The sample's report bytes
are pinned by digest.  The kernels are held to the object-level edges they
replaced, each public edge to its wrapped kernel, and each kernel reads
only the edge table it is handed.  A broken kernel fails ``verify --max-n``
the same way, and a short enumeration fails the census laws.  A kernel
output outside the census reaches only the kernels and cores that a law
reads it through, a census that lists a nucleus twice is reported as the
reference reports it, and neither a run nor a poset stream leaves anything
for the cyclic collector.  An oversize job is refused before anything is
enumerated.
"""

import gc
import hashlib
import json
from collections import Counter

import pytest

import reference_triangle
from reference_triangle import REFERENCE_EDGES, reference_verify_triangle
from triposet import (
    GrothendieckTopology,
    Nucleus,
    Subset,
    build_poset,
    enumerate_nuclei,
    enumerate_posets,
    enumerate_topologies,
    cli,
    serialize,
    topology,
    triangle,
)
from triposet.errors import CapExceededError

# public edge -> (kernel, class of the argument, class of the result)
EDGES = {
    "subset_to_nucleus": ("_subset_to_table", Subset, Nucleus),
    "nucleus_to_subset": ("_table_to_subset", Nucleus, Subset),
    "subset_to_topology": ("_subset_to_families", Subset, GrothendieckTopology),
    "topology_to_subset": ("_families_to_subset", GrothendieckTopology, Subset),
    "nucleus_to_topology": ("_table_to_families", Nucleus, GrothendieckTopology),
    "topology_to_nucleus": ("_families_to_table", GrothendieckTopology, Nucleus),
    "nucleus_to_subset_alt": ("_table_to_subset_alt", Nucleus, Subset),
    "nucleus_to_subset_via_topology": ("_table_to_subset_via_topology", Nucleus, Subset),
}
KERNELS = tuple(kernel for kernel, _, _ in EDGES.values())
CORES = ("_check_nucleus", "_check_topology")


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


def test_the_sample_reports_are_pinned():
    """The report bytes over the sample, with ``elapsed_seconds`` set to 0."""
    digest = hashlib.sha256()
    for poset in reference_posets():
        report = triangle.verify_triangle(poset)
        report.elapsed_seconds = 0
        digest.update(serialize(report).encode())
    assert digest.hexdigest() == "7a0cf87ffc38322cd185aade4221c511b5f677d7f87829c21830c1a9f0fbeb3a"


def _inputs(poset):
    return {
        Subset: poset.subsets(),
        Nucleus: enumerate_nuclei(poset),
        GrothendieckTopology: enumerate_topologies(poset),
    }


def _raw(value):
    """What a kernel takes or returns: a mask, the image masks or the families."""
    if isinstance(value, Nucleus):
        return value.images
    return value.mask if isinstance(value, Subset) else value.families


def test_each_public_edge_is_its_wrapped_kernel(diamond):
    posets = [p for n in range(4) for p in enumerate_posets(n)] + [diamond]
    for poset in posets:
        inputs = _inputs(poset)
        r = triangle._edge_ranks(poset)
        for edge, (kernel, source, cls) in EDGES.items():
            for value in inputs[source]:
                got = getattr(triangle, edge)(value)
                assert type(got) is cls and got.poset is poset
                assert _raw(got) == getattr(triangle, kernel)(r, _raw(value))


def test_kernels_match_the_object_level_edges(diamond):
    posets = [p for n in range(5) for p in enumerate_posets(n)] + [diamond]
    for poset in posets:
        inputs = _inputs(poset)
        r = triangle._edge_ranks(poset)
        for edge, (kernel, source, _) in EDGES.items():
            reference = REFERENCE_EDGES[edge]
            for value in inputs[source]:
                want = _raw(reference(value))
                assert getattr(triangle, kernel)(r, _raw(value)) == want, edge


def test_kernels_match_the_object_level_edges_across_the_per_poset_memos(diamond):
    """Each kernel on A, then on B, equal to A but a distinct object, then on
    another poset, then on A again.  B reads the arrays and memos that A
    filled; A's second turn rebuilds them after the one-entry cache moved on."""
    twin = build_poset(diamond.labels, [(diamond.labels[p], diamond.labels[q])
                                        for p, q in diamond.covers()])
    assert twin == diamond and twin is not diamond
    for poset in (diamond, twin, chain(3), diamond):
        inputs = _inputs(poset)
        r = triangle._edge_ranks(poset)
        for edge, (kernel, source, _) in EDGES.items():
            reference = REFERENCE_EDGES[edge]
            for value in inputs[source]:
                want = _raw(reference(value))
                assert getattr(triangle, kernel)(r, _raw(value)) == want, edge


def test_the_kernels_never_look_up_their_table(diamond, monkeypatch):
    r = triangle._edge_ranks(diamond)
    inputs = _inputs(diamond)

    def never(poset):
        raise AssertionError("a kernel looked up its table")

    monkeypatch.setattr(triangle, "_edge_ranks", never)
    for kernel, source, _ in EDGES.values():
        for value in inputs[source]:
            getattr(triangle, kernel)(r, _raw(value))


def test_a_verify_reads_the_table_once(diamond, monkeypatch):
    looked_up = []
    original = triangle._edge_ranks

    def counting(poset):
        looked_up.append(poset)
        return original(poset)

    monkeypatch.setattr(triangle, "_edge_ranks", counting)
    assert triangle.verify_triangle(diamond).all_passed
    assert looked_up == [diamond]


def test_subset_to_families_returns_the_covering_tuples(diamond):
    r = triangle._edge_ranks(diamond)
    covering = topology._covering(diamond)
    for x in range(1 << diamond.n):
        for p, fam in enumerate(triangle._subset_to_families(r, x)):
            assert fam is covering[p][fam[0]]


def _break_nucleus_to_subset(poset, original):
    target = triangle._subset_to_table(triangle._edge_ranks(poset), poset.subset(["a"]).mask)

    def broken(p, table):
        got = original(p, table)
        return got ^ 1 if table == target else got

    return broken


def _break_subset_to_topology(poset, original):
    target, other = poset.subset(["a"]).mask, poset.subset(["b"]).mask

    def broken(p, x):
        return original(p, other if x == target else x)

    return broken


def _break_topology_to_nucleus(poset, original):
    target = triangle._subset_to_families(triangle._edge_ranks(poset), poset.subset(["a"]).mask)
    # everything to the empty downset: not inflationary, so not a nucleus
    bad = (0,) * len(poset.downset_masks())

    def broken(p, families):
        return bad if families == target else original(p, families)

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
    kernel = EDGES[edge][0]
    monkeypatch.setattr(triangle, kernel, breaker(diamond, getattr(triangle, kernel)))
    engine = triangle.verify_triangle(diamond)
    assert [law.name for law in engine.laws if not law.passed] == failing
    assert report_bytes(engine) == report_bytes(reference_verify_triangle(diamond))


def test_a_non_topology_from_an_edge_fails_its_laws(chain2, monkeypatch):
    # not a topology: {} covers b but not a, so j({}) = {b} is not a downset
    monkeypatch.setattr(triangle, "_subset_to_families", lambda r, x: ((1,), (0, 3)))
    report = triangle.verify_triangle(chain2)
    assert [law.name for law in report.laws if not law.passed] == [
        "subset_topology_roundtrip",
        "topology_roundtrip",
        "triangle_commutes_via_nucleus",
        "triangle_commutes_via_topology",
        "topology_bijection",
        "subset_to_topology_valid",
    ]
    witness = {law.name: law.witness for law in report.laws}["triangle_commutes_via_topology"]
    assert witness["via_topology"][0] == [[], ["b"]]


def test_a_non_downset_image_fails_the_nucleus_validity_law(chain2, monkeypatch):
    original = triangle._families_to_table
    target = triangle._subset_to_families(triangle._edge_ranks(chain2), chain2.full_mask)

    def broken(r, families):
        images = original(r, families)
        return (0b10, *images[1:]) if families == target else images

    monkeypatch.setattr(triangle, "_families_to_table", broken)
    report = triangle.verify_triangle(chain2)
    witness = {law.name: law.witness for law in report.laws}["topology_to_nucleus_valid"]
    assert witness["kind"] == "ImageNotDownsetError"
    assert witness["error"] == "image {b} of {} is not downward closed"


def test_a_passing_verify_builds_no_subsets(diamond, monkeypatch):
    def never(cls, poset, mask):
        raise AssertionError(f"built {cls.__name__} {mask:#x}")

    monkeypatch.setattr(Subset, "_wrap", classmethod(never))
    assert triangle.verify_triangle(diamond).all_passed


def test_a_passing_verify_wraps_each_enumerated_nucleus_once(diamond, monkeypatch):
    wrapped = []
    wrap = Nucleus._wrap

    def counting(cls, poset, images):
        wrapped.append(images)
        return wrap(poset, images)

    def never(self, poset, images):
        raise AssertionError(f"checked Nucleus {images}")

    monkeypatch.setattr(Nucleus, "_wrap", classmethod(counting))
    monkeypatch.setattr(Nucleus, "__init__", never)
    report = triangle.verify_triangle(diamond)
    assert report.all_passed
    assert len(wrapped) == report.counts["nuclei"]


def _break_nucleus_to_subset_on_two_points(monkeypatch):
    original = triangle._table_to_subset

    def broken(r, table):
        got = original(r, table)
        return got ^ 1 if r.poset.n == 2 and table == triangle._subset_to_table(r, 1) else got

    monkeypatch.setattr(triangle, "_table_to_subset", broken)


def test_a_failing_sweep_reports_each_failure_and_exits_1(monkeypatch, capsys):
    _break_nucleus_to_subset_on_two_points(monkeypatch)
    failing = ["subset_nucleus_roundtrip", "nucleus_roundtrip", "identity_composite", "identity_alt"]

    assert cli.main(["verify", "--max-n", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == [
        "n=0: 1 posets, 1 verified, 0 failed",
        "n=1: 1 posets, 1 verified, 0 failed",
        "n=2: 3 posets, 3 verified, 3 failed",
        "result: FAIL",
    ]
    fails = [line.split(":")[0] for line in lines if line.startswith("  FAIL ")]
    assert fails == [f"  FAIL {name}" for name in failing] * 3
    assert sum(line.startswith("result: FAIL (") for line in lines) == 3

    assert cli.main(["verify", "--max-n", "2", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is False
    assert [row["failed"] for row in data["sizes"]] == [0, 0, 3]
    for report in data["failures"]:
        del report["elapsed_seconds"]
    want = [report_bytes(triangle.verify_triangle(p)) for p in enumerate_posets(2)]
    assert data["failures"] == json.loads(json.dumps(want))


def test_a_short_nucleus_census_fails_the_count_and_the_bijection(diamond, monkeypatch):
    original = triangle.enumerate_nuclei

    def short(poset, cap):
        return original(poset, cap=cap)[:-1]

    monkeypatch.setattr(triangle, "enumerate_nuclei", short)
    monkeypatch.setattr(reference_triangle, "enumerate_nuclei", short)
    engine = triangle.verify_triangle(diamond)
    assert {law.name: law.witness for law in engine.laws if not law.passed} == {
        "nucleus_count": {"expected": 16, "got": 15},
        "nucleus_bijection": {"reason": "image differs from enumeration"},
    }
    assert report_bytes(engine) == report_bytes(reference_verify_triangle(diamond))


def _verify_recording_calls(poset, monkeypatch):
    """The engine's report, and how often it called each kernel and core on
    each input.  Later runs are not counted."""
    calls = Counter()
    for name in (*KERNELS, *CORES):
        def wrapper(p, value, name=name, fn=getattr(triangle, name)):
            calls[name, value] += 1
            return fn(p, value)

        monkeypatch.setattr(triangle, name, wrapper)
    report = triangle.verify_triangle(poset)
    return report, dict(calls)


def _failing(report):
    return [law.name for law in report.laws if not law.passed]


def test_a_non_nucleus_from_an_edge_is_read_only_by_the_laws_that_need_it(diamond, monkeypatch):
    x = diamond.subset(["a"]).mask
    bad = (0,) * len(diamond.downset_masks())  # not inflationary
    original = triangle._subset_to_table
    monkeypatch.setattr(
        triangle, "_subset_to_table", lambda p, v: bad if v == x else original(p, v)
    )
    engine, calls = _verify_recording_calls(diamond, monkeypatch)
    assert max(calls.values()) == 1
    assert {name for name, v in calls if v == bad} == {
        "_table_to_subset", "_table_to_families", "_check_nucleus"
    }
    assert _failing(engine) == [
        "subset_nucleus_roundtrip",
        "nucleus_roundtrip",
        "triangle_commutes_via_nucleus",
        "triangle_commutes_via_topology",
        "nucleus_bijection",
        "subset_to_nucleus_valid",
    ]
    assert report_bytes(engine) == report_bytes(reference_verify_triangle(diamond))


def test_a_non_topology_from_an_edge_is_read_only_by_the_laws_that_need_it(diamond, monkeypatch):
    target = triangle._subset_to_table(triangle._edge_ranks(diamond), diamond.subset(["a"]).mask)
    bad = ((),) * diamond.n  # no point has its principal downset as a cover
    original = triangle._table_to_families
    monkeypatch.setattr(
        triangle, "_table_to_families", lambda p, t: bad if t == target else original(p, t)
    )
    engine, calls = _verify_recording_calls(diamond, monkeypatch)
    assert max(calls.values()) == 1
    assert {name for name, v in calls if v == bad} == {
        "_families_to_table", "_families_to_subset", "_check_topology"
    }
    assert _failing(engine) == [
        "nucleus_topology_roundtrip",
        "topology_nucleus_roundtrip",
        "triangle_commutes_via_nucleus",
        "composite_cross_check",
        "nucleus_to_topology_valid",
    ]
    assert report_bytes(engine) == report_bytes(reference_verify_triangle(diamond))


@pytest.mark.parametrize(
    "census, failing",
    [
        (lambda found: [*found, found[5]], ["nucleus_count"]),
        (lambda found: [*found[:-1], found[5]], ["nucleus_bijection"]),
    ],
    ids=["added", "in_place_of_the_last"],
)
def test_a_nucleus_listed_twice_by_the_census(diamond, monkeypatch, census, failing):
    original = triangle.enumerate_nuclei

    def twice(poset, cap):
        return census(original(poset, cap=cap))

    monkeypatch.setattr(triangle, "enumerate_nuclei", twice)
    monkeypatch.setattr(reference_triangle, "enumerate_nuclei", twice)
    engine, calls = _verify_recording_calls(diamond, monkeypatch)
    assert max(calls.values()) == 1
    assert _failing(engine) == failing
    assert report_bytes(engine) == report_bytes(reference_verify_triangle(diamond))


def test_a_verify_leaves_no_reference_cycles():
    poset = build_poset(list("abcde"), [("a", "b"), ("b", "c"), ("a", "d")])
    # the one-entry per-poset caches move onto this poset first, so the
    # counted run frees nothing that an earlier poset left in them
    triangle.verify_triangle(poset)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert triangle.verify_triangle(poset).all_passed
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("take", [None, 2], ids=["full", "abandoned"])
def test_a_poset_stream_leaves_no_reference_cycles(take):
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        stream = enumerate_posets(3)
        if take is None:
            assert len(list(stream)) == 19
        else:
            assert len([next(stream) for _ in range(take)]) == take
        del stream
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_each_edge_and_validator_runs_once_per_distinct_input(diamond, monkeypatch):
    calls = {name: Counter() for name in (*KERNELS, "_check_nucleus", "_check_topology")}

    def counting(name, fn, key):
        def wrapper(r, value):
            calls[name][key(value)] += 1
            return fn(r, value)

        return wrapper

    for name in KERNELS:
        monkeypatch.setattr(triangle, name, counting(name, getattr(triangle, name), lambda v: v))
    for name in ("_check_nucleus", "_check_topology"):
        monkeypatch.setattr(triangle, name, counting(name, getattr(triangle, name), tuple))
    assert triangle.verify_triangle(diamond).all_passed
    for name, counter in calls.items():
        assert counter, f"{name} was never called"
        key, most = counter.most_common(1)[0]
        assert most == 1, f"{name} ran {most} times on one input {key!r}"
    # 16 subsets, 16 nuclei and 16 topologies on the diamond
    assert len(calls["_subset_to_table"]) == 16
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
