"""The plane engine of ``verify_triangle`` against the law-by-law reference.

The engine runs each edge kernel on batches of planes and validates each
census batch once.  These tests hold it to the slow reference in
``reference_triangle.py``: same reports on a fixed poset set, all decided
on planes, same failures when one kernel is broken, and no kernel run
twice on one batch.  The report bytes of the sample, of every fault case
and of two caps-lifted posets are pinned by digest.  The kernels are held
to the object-level edges they replaced, each public edge to its kernel on
a batch of one, and each kernel reads only the edge table it is handed.  A
fault is injected into a kernel by lowering its batch to values, changing
one value and lifting the batch again.  A fault in any kernel, on {a} or
on the whole carrier in the last lane, sends the poset to the law-by-law
path, and a broken kernel fails ``verify --max-n`` the same way.  A census
fault is injected as generator tuples through the engine's generator
globals, the reference reading the values they expand to: a short census
fails the census laws, generators that are not their value's own (out of
range, not monotone, without M_p, not a downset, an m_p that is not a
sieve on p) are not decided on planes, and a T_p with bits past n, which
no value reads, passes every law on the law-by-law path, which lists each
census off its planes.  A passing verify builds no census object.  The
law-by-law path runs no kernel: it reads every conversion from the batches
the plane check computed, so a kernel output outside the census travels
only in the batches of the laws that read it, and a non-nucleus that two
edges output is scanned once; a value a plane check flags but its
validator accepts is an error, not a pass.  A census that lists a
generator tuple twice, in a lane each, goes down the law-by-law path and is
reported as the reference reports it, and neither a run nor a poset stream
leaves anything for the cyclic collector.  Forced onto the law-by-law path,
a passing poset gets the plane decision's report, as both read one law
table, a caps-lifted poset its pinned report, and each census batch is
lowered to its columns once.  An oversize job is refused before anything is
enumerated.
"""

import gc
import hashlib
import inspect
import json
import textwrap
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
    nucleus,
    serialize,
    topology,
    triangle,
)
from triposet.errors import CapExceededError, ImageNotDownsetError
from triposet.poset import _Layout, _layout

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
PLANE_CHECKS = {"_nucleus_fails": Nucleus, "_topology_fails": GrothendieckTopology}
# class -> its corner, which lifts values to planes and decodes their columns
CORNERS = {c.cls: c for c in (triangle._SUBSET, triangle._NUCLEUS, triangle._TOPOLOGY)}


def lower(cls, r, planes, w):
    """The ``w`` values of class ``cls`` that a batch of planes holds."""
    return CORNERS[cls].decode(r, triangle._columns(planes, w))


def run_kernel(kernel, r, source, target, values):
    """``kernel`` on the batch of ``values``, lowered to values."""
    w = len(values)
    planes = getattr(triangle, kernel)(r, CORNERS[source].lift(r, values), (1 << w) - 1)
    return lower(target, r, planes, w)


def inject(monkeypatch, edge, fault):
    """Make the kernel of ``edge`` put ``fault(r, value, output)`` in place of
    its output on each value of a batch.  The batch is lowered to values and
    the outputs lifted back through the engine's own transposes."""
    kernel, source, target = EDGES[edge]
    original = getattr(triangle, kernel)

    def faulty(r, planes, ones):
        w = ones.bit_length()
        values = lower(source, r, planes, w)
        outputs = lower(target, r, original(r, planes, ones), w)
        return CORNERS[target].lift(r, [fault(r, v, out) for v, out in zip(values, outputs)])

    monkeypatch.setattr(triangle, kernel, faulty)


def chain(n):
    labels = [f"c{i}" for i in range(n)]
    return build_poset(labels, list(zip(labels, labels[1:])))


def report_bytes(report):
    data = report.to_jsonable()
    del data["elapsed_seconds"]
    return data


def boolean_lattice(k):
    labels = [format(m, f"0{k}b") for m in range(1 << k)]
    covers = [(labels[m], labels[m | 1 << b]) for m in range(1 << k) for b in range(k)
              if not m >> b & 1]
    return build_poset(labels, covers)


# sha256 of each fault case's report (and of two caps-lifted reports), with
# ``elapsed_seconds`` set to 0
PINNED = {
    "broken_nucleus_to_subset": "4e2b565b8dcbbc1be27a8c0eca48c4a75c8054d714a919550dbfdb1f0872adc2",
    "broken_subset_to_topology": "2e15ab11f8d51f10065da95b2d188d7a8370fa9516ec440a05cefab5cc4def01",
    "broken_topology_to_nucleus": "4732bd93ead8cdc81276c820c50118cbb83632276f9e249c1c6a8737d2fb83a3",
    "non_topology": "d232b15b17c3606dec90452a3f24c1d2dad7208913a98f0dd60add9a6a890ae2",
    "non_downset_image": "a822beb14031f4c9d95869473330f4a954e575fee2f7a3480bf577876b6285d4",
    "short_census": "55989fe1e15dc5f90b030fc0903806b9157abaac9045c6dc9b56c82d0b4e3477",
    "non_nucleus_output": "dcdf700018427e84f87ba89b099e23c6ecb16a968e93ea040c7f9ac517bd4823",
    "non_topology_output": "e09ac49857eef2d80e5311b82edb69757aee2b2b419cc91f81f154d77e7a4105",
    "nucleus_twice_nucleus_count": "34b7cee8bfa322e30e141921d2beab34853e74e9bdd25ad985d21ef0ca20bd3c",
    "nucleus_twice_nucleus_bijection": "be21ad9d56b74458079880a4cd5379105f24bc7fe42796d92df3111f8dbb1b1d",
    "topology_twice_topology_count": "140423973c9a2435eb029a3a167d63b6b7bf56ffc4859ca7ea6107b12cc4adbd",
    "topology_twice_topology_bijection": "29491b2ad9807889405574ed95479a3eb7e69884cb3d00aeaeed6b509810ad80",
    "chain10": "5f0c7f116f9b3d91e44254607af3ea79a1c3d919d69bd22754e4450a7b05b767",
    "boolean3": "4b8dc22cc6c24323d23b10273282fca52d8c31a219fab0f5f387bd9b13f5c4d8",
}


def assert_pinned(case, report):
    report.elapsed_seconds = 0
    assert hashlib.sha256(serialize(report).encode()).hexdigest() == PINNED[case], case


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


def test_every_sample_poset_is_decided_on_planes(monkeypatch):
    def never(*args):
        raise AssertionError("took the law-by-law path")

    monkeypatch.setattr(triangle, "_law_by_law", never)
    assert all(triangle.verify_triangle(poset).all_passed for poset in reference_posets())


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
        r = triangle._layout(poset)
        for edge, (kernel, source, cls) in EDGES.items():
            for value in inputs[source]:
                got = getattr(triangle, edge)(value)
                assert type(got) is cls and got.poset is poset
                assert [_raw(got)] == run_kernel(kernel, r, source, cls, [_raw(value)])


def _kernels_match_the_reference(poset, inputs):
    r = triangle._layout(poset)
    for edge, (kernel, source, target) in EDGES.items():
        reference = REFERENCE_EDGES[edge]
        values = inputs[source]
        want = [_raw(reference(value)) for value in values]
        assert run_kernel(kernel, r, source, target, [_raw(v) for v in values]) == want, edge


def test_kernels_match_the_object_level_edges(diamond):
    for poset in [*(p for n in range(5) for p in enumerate_posets(n)), diamond]:
        _kernels_match_the_reference(poset, _inputs(poset))


@pytest.mark.parametrize(
    "poset, nucleus_cap", [(chain(10), 11), (boolean_lattice(3), 20)], ids=["chain10", "boolean3"]
)
def test_kernels_match_the_object_level_edges_past_five_points(poset, nucleus_cap):
    _kernels_match_the_reference(poset, {
        Subset: poset.subsets(),
        Nucleus: enumerate_nuclei(poset, cap=nucleus_cap),
        GrothendieckTopology: enumerate_topologies(poset, cap=poset.n),
    })


def test_kernels_match_the_object_level_edges_across_the_per_poset_memos(diamond):
    """Each kernel on A, then on B, equal to A but a distinct object, then on
    another poset, then on A again.  B reads the layout built for A; A's
    second turn rebuilds it after the one-entry cache moved on."""
    twin = build_poset(diamond.labels, [(diamond.labels[p], diamond.labels[q])
                                        for p, q in diamond.covers()])
    assert twin == diamond and twin is not diamond
    for poset in (diamond, twin, chain(3), diamond):
        _kernels_match_the_reference(poset, _inputs(poset))


def test_the_kernels_never_look_up_their_table(diamond, monkeypatch):
    """Each kernel reads only the layout it is handed: with every lookup and
    every build of a layout raising, it still runs and lowers its batch."""
    r = _layout(diamond)
    inputs = _inputs(diamond)
    lifted = {kernel: CORNERS[source].lift(r, [_raw(v) for v in inputs[source]])
              for kernel, source, _ in EDGES.values()}

    def never(*args):
        raise AssertionError("a kernel looked up its table")

    for module in (nucleus, topology, triangle):
        monkeypatch.setattr(module, "_layout", never)
    monkeypatch.setattr(_Layout, "__init__", never)
    for kernel, source, target in EDGES.values():
        w = len(inputs[source])
        lower(target, r, getattr(triangle, kernel)(r, lifted[kernel], (1 << w) - 1), w)


def test_a_verify_builds_one_layout_shared_by_every_reader(diamond, monkeypatch):
    """Both enumerators, both plane checks and all eight kernels read one
    layout, and a verify builds it once."""
    built, looked_up, handed = [], set(), []
    build = _Layout.__init__

    def counting(layout, poset):
        built.append(layout)
        build(layout, poset)

    monkeypatch.setattr(_Layout, "__init__", counting)
    for module in (nucleus, topology, triangle):
        def lookup(poset, name=module.__name__):
            looked_up.add(name)
            return _layout(poset)

        monkeypatch.setattr(module, "_layout", lookup)
    for kernel in KERNELS:
        def recording(r, planes, ones, name=kernel, fn=getattr(triangle, kernel)):
            handed.append((name, r))
            return fn(r, planes, ones)

        monkeypatch.setattr(triangle, kernel, recording)
    _layout.cache_clear()
    assert triangle.verify_triangle(diamond).all_passed
    assert len(built) == 1 and _layout(diamond) is built[0]
    assert looked_up == {"triposet.nucleus", "triposet.topology", "triposet.triangle"}
    assert {name for name, _ in handed} == set(KERNELS)
    assert all(r is built[0] for _, r in handed)


def test_subset_to_families_returns_the_covering_tuples(diamond):
    """Each family is the sieves containing its least one."""
    r = triangle._layout(diamond)
    xs = list(range(1 << diamond.n))
    for families in run_kernel("_subset_to_families", r, Subset, GrothendieckTopology, xs):
        for p, fam in enumerate(families):
            assert fam == tuple(s for s in diamond.sieve_masks(p) if not fam[0] & ~s)


def _break_nucleus_to_subset(poset):
    target = triangle.subset_to_nucleus(poset.subset(["a"])).images
    return lambda r, table, got: got ^ 1 if table == target else got


def _break_subset_to_topology(poset):
    target = poset.subset(["a"]).mask
    other = triangle.subset_to_topology(poset.subset(["b"])).families
    return lambda r, x, got: other if x == target else got


def _break_topology_to_nucleus(poset):
    target = triangle.subset_to_topology(poset.subset(["a"])).families
    # everything to the empty downset: not inflationary, so not a nucleus
    bad = (0,) * len(poset.downset_masks())
    return lambda r, families, got: bad if families == target else got


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
    inject(monkeypatch, edge, breaker(diamond))
    engine = triangle.verify_triangle(diamond)
    assert [law.name for law in engine.laws if not law.passed] == failing
    assert report_bytes(engine) == report_bytes(reference_verify_triangle(diamond))
    assert_pinned(f"broken_{edge}", engine)


@pytest.mark.parametrize("poset_name", ["chain2", "diamond"])
@pytest.mark.parametrize("op", ["|", "^"])
@pytest.mark.parametrize("kernel", ["_families_to_subset", "_table_to_subset_via_topology"])
def test_a_kernel_output_past_the_batch_width_fails_laws(request, monkeypatch, poset_name,
                                                          op, kernel):
    """``& ~`` turned into ``| ~`` or ``^ ~`` gives output planes below 0,
    with bits past every lane.  The lanes are still values, so the run ends
    in a failing report equal to the reference's, not a traceback."""
    poset = request.getfixturevalue(poset_name)
    source = textwrap.dedent(inspect.getsource(getattr(triangle, kernel)))
    assert source.count("& ~reduce") == 1
    namespace = dict(vars(triangle))
    exec(source.replace("& ~reduce", f"{op} ~reduce"), namespace)
    mutant = namespace[kernel]
    [source_class] = [cls for name, cls, _ in EDGES.values() if name == kernel]
    values = [_raw(v) for v in _inputs(poset)[source_class]]
    r, ones = _layout(poset), (1 << len(values)) - 1
    assert min(mutant(r, CORNERS[source_class].lift(r, values), ones)) < 0
    monkeypatch.setattr(triangle, kernel, mutant)
    engine = triangle.verify_triangle(poset)
    assert not engine.all_passed
    assert report_bytes(engine) == report_bytes(reference_verify_triangle(poset))


def test_a_non_topology_from_an_edge_fails_its_laws(chain2, monkeypatch):
    # not a topology: {} covers b but not a, so j({}) = {b} is not a downset
    inject(monkeypatch, "subset_to_topology", lambda r, x, got: ((1,), (0, 3)))
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
    assert_pinned("non_topology", report)


def test_a_non_downset_image_fails_the_nucleus_validity_law(chain2, monkeypatch):
    target = triangle.subset_to_topology(Subset(chain2, chain2.full_mask)).families
    inject(monkeypatch, "topology_to_nucleus",
           lambda r, families, got: (0b10, *got[1:]) if families == target else got)
    report = triangle.verify_triangle(chain2)
    witness = {law.name: law.witness for law in report.laws}["topology_to_nucleus_valid"]
    assert witness["kind"] == "ImageNotDownsetError"
    assert witness["error"] == "image {b} of {} is not downward closed"
    assert_pinned("non_downset_image", report)


def test_a_passing_verify_builds_no_subsets(diamond, monkeypatch):
    def never(cls, poset, mask):
        raise AssertionError(f"built {cls.__name__} {mask:#x}")

    monkeypatch.setattr(Subset, "_wrap", classmethod(never))
    assert triangle.verify_triangle(diamond).all_passed


def test_a_passing_verify_builds_no_nucleus_and_no_topology(diamond, monkeypatch):
    """The censuses stay generator tuples: no value is expanded into an
    object, checked or trusted, on the way to an all-pass report."""
    def never(*args):
        raise AssertionError(f"built a census object from {args[-1]}")

    for cls in (Nucleus, GrothendieckTopology):
        monkeypatch.setattr(cls, "_wrap", classmethod(never))
        monkeypatch.setattr(cls, "__init__", never)
    report = triangle.verify_triangle(diamond)
    assert report.all_passed
    assert report.counts == {"subsets": 16, "nuclei": 16, "topologies": 16}


def _break_nucleus_to_subset_on_two_points(monkeypatch):
    def broken(r, table, got):
        if r.poset.n == 2 and table == triangle.subset_to_nucleus(Subset(r.poset, 1)).images:
            return got ^ 1
        return got

    inject(monkeypatch, "nucleus_to_subset", broken)


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


# census -> (generator global in ``triangle``, expansion in search order,
# canonical order, class, public enumerator the reference reads)
CENSUSES = {
    "nuclei": ("_nucleus_generators", nucleus._images, nucleus._in_order, Nucleus,
               "enumerate_nuclei"),
    "topologies": ("_topology_generators", topology._families, sorted, GrothendieckTopology,
                   "enumerate_topologies"),
}


def _census(monkeypatch, which, change):
    """Make the generator census of ``which`` list ``change(gens)``, ``gens``
    being its generator tuples in the canonical order of their values.  The
    engine reads it through its generator global, and the reference reads
    the values it expands to, in canonical order, as the public census."""
    search, expand, order, cls, public = CENSUSES[which]
    original = getattr(triangle, search)

    def census(poset):
        gens = original(poset)
        value = dict(zip(expand(poset, gens), gens))
        return change([value[v] for v in order(value)])

    def listed(poset, cap):
        return [cls._wrap(poset, v) for v in order(expand(poset, census(poset)))]

    monkeypatch.setattr(triangle, search, census)
    monkeypatch.setattr(reference_triangle, public, listed)


def test_a_short_nucleus_census_fails_the_count_and_the_bijection(diamond, monkeypatch):
    _census(monkeypatch, "nuclei", lambda gens: gens[:-1])
    engine = triangle.verify_triangle(diamond)
    assert {law.name: law.witness for law in engine.laws if not law.passed} == {
        "nucleus_count": {"expected": 16, "got": 15},
        "nucleus_bijection": {"reason": "image differs from enumeration"},
    }
    assert report_bytes(engine) == report_bytes(reference_verify_triangle(diamond))
    assert_pinned("short_census", engine)


def _in_census(monkeypatch, which, k, change):
    """Make the census of ``which`` list ``change`` of the k-th generator
    tuple in its place, for the engine and the reference alike."""
    _census(monkeypatch, which, lambda gens: [*gens[:k], change(gens[k]), *gens[k + 1:]])


def _law_by_law_runs(monkeypatch):
    """The posets the engine sends to the law-by-law path, as it does so."""
    runs, original = [], triangle._law_by_law

    def recorded(r, *rest):
        runs.append(r.poset)
        return original(r, *rest)

    monkeypatch.setattr(triangle, "_law_by_law", recorded)
    return runs


STRAYS = {"bit_n": 1 << 4, "bit_8": 1 << 8, "negative": -1}


def _first(which, test, change):
    """Change the first generator tuple (in the canonical order of the
    values) that passes ``test``."""
    def census(gens):
        k = next(k for k, g in enumerate(gens) if test(g))
        return [*gens[:k], change(gens[k]), *gens[k + 1:]]

    return lambda m: _census(m, which, census)


# name -> (poset, fault); on the diamond o < a, b < t, points 0..3, the
# meet-irreducibles are M_o = {}, M_a = {o, b}, M_b = {o, a} and M_t = {o, a, b}
GENERATOR_FAULTS = {
    # T_a = {} on the antichain a, b, without M_a = {b}; the meet at M_a is T_a
    "t_without_m": ("antichain2", _first("nuclei", lambda T: True, lambda T: (0, T[1]))),
    # T_a = P above T_t = M_t: the meet at M_a is M_t, not T_a
    "t_not_monotone": ("diamond", _first("nuclei", lambda T: T[3] == 0b0111 and T[1] != 0b1111,
                                         lambda T: (T[0], 0b1111, *T[2:]))),
    "t_bit_n": ("diamond", _first("nuclei", lambda T: True, lambda T: (T[0] | 1 << 4, *T[1:]))),
    "t_negative": ("diamond", _first("nuclei", lambda T: True, lambda T: (-1, *T[1:]))),
    # m_o = {o, a}, a downset outside down o = {o}; J(o) reads only {o}
    "m_outside_its_cone": ("diamond", _first("topologies", lambda m: m[0] == 0b0001,
                                             lambda m: (0b0011, *m[1:]))),
    # m_t = {a} in place of {o, a}: the same sieves on t contain both
    "m_not_a_downset": ("diamond", _first("topologies", lambda m: m[3] == 0b0011,
                                          lambda m: (*m[:3], 0b0010))),
}


@pytest.mark.parametrize("poset_name, case", GENERATOR_FAULTS.values(), ids=GENERATOR_FAULTS)
def test_a_census_generator_fault_is_not_decided_on_planes(request, monkeypatch, poset_name,
                                                           case):
    """Generator tuples that are not those of their values go to the
    law-by-law path, whose report is the reference's on the values they
    expand to."""
    poset = request.getfixturevalue(poset_name)
    case(monkeypatch)
    runs = _law_by_law_runs(monkeypatch)
    engine = triangle.verify_triangle(poset)
    assert runs == [poset]
    assert report_bytes(engine) == report_bytes(reference_verify_triangle(poset))


def test_a_generator_that_is_not_a_downset_is_not_decided_on_planes(diamond, monkeypatch):
    """T_a = {o, b, t} under T_t = P: t without a, and the meet at M_a is
    T_a, so only the downset check on the T_p flags it.  Its value has an
    image that is not a downset, which the reference cannot report: its
    topology -> nucleus edge raises on the nucleus roundtrip."""
    _first("nuclei", lambda T: T[3] == 0b1111, lambda T: (T[0], 0b1101, *T[2:]))(monkeypatch)
    runs = _law_by_law_runs(monkeypatch)
    engine = triangle.verify_triangle(diamond)
    assert runs == [diamond]
    assert _failing(engine) == ["nucleus_roundtrip", "nucleus_bijection",
                                "nucleus_to_topology_valid"]
    with pytest.raises(ImageNotDownsetError):
        reference_verify_triangle(diamond)


def _image_out_of_range(monkeypatch, stray):
    """T_o = j(M_o) of the 6th nucleus gets the bits of ``stray`` past n,
    which neither the planes nor the expansion read, so no value changes."""
    _in_census(monkeypatch, "nuclei", 5, lambda T: (T[0] | stray & ~0b1111, *T[1:]))


@pytest.mark.parametrize("stray", STRAYS.values(), ids=STRAYS)
def test_a_census_image_out_of_range_is_not_decided_on_planes(diamond, monkeypatch, stray):
    """The planes do not hold such a generator, so the verify goes down the
    law-by-law path, which lists the census off the planes: every law
    passes there, as the reference says on the values the tuples expand to."""
    _image_out_of_range(monkeypatch, stray)
    runs = _law_by_law_runs(monkeypatch)
    engine = triangle.verify_triangle(diamond)
    assert runs == [diamond]
    assert engine.all_passed
    assert report_bytes(engine) == report_bytes(reference_verify_triangle(diamond))


def _verify_recording_calls(poset, monkeypatch):
    """The engine's report, and how often it ran each kernel and plane check
    on each batch, keyed by the batch's values lowered from its planes, and
    each core on each value, keyed as a one-value tuple.  Both paths count:
    the plane decision and the law-by-law path's plane checks on the output
    batches and cores on flagged values.  Later runs are not counted."""
    calls = Counter()
    sources = {kernel: source for kernel, source, _ in EDGES.values()}
    for name, source in (*sources.items(), *PLANE_CHECKS.items()):
        def on_batch(r, planes, ones, *gens, name=name, fn=getattr(triangle, name),
                     source=source):
            table = r if isinstance(r, triangle._Layout) else triangle._layout(r)
            calls[name, tuple(lower(source, table, planes, ones.bit_length()))] += 1
            return fn(r, planes, ones, *gens)

        monkeypatch.setattr(triangle, name, on_batch)
    for name in CORES:
        def on_value(p, value, name=name, fn=getattr(triangle, name)):
            calls[name, (value,)] += 1
            return fn(p, value)

        monkeypatch.setattr(triangle, name, on_value)
    report = triangle.verify_triangle(poset)
    return report, dict(calls)


def _failing(report):
    return [law.name for law in report.laws if not law.passed]


def _non_nucleus_output(poset, monkeypatch):
    """subset -> nucleus sends {a} to a non-nucleus, which it returns."""
    x = poset.subset(["a"]).mask
    bad = (0,) * len(poset.downset_masks())  # not inflationary
    inject(monkeypatch, "subset_to_nucleus", lambda r, v, got: bad if v == x else got)
    return bad


def _non_topology_output(poset, monkeypatch):
    """nucleus -> topology sends the nucleus of {a} to a non-topology, which it returns."""
    target = triangle.subset_to_nucleus(poset.subset(["a"])).images
    bad = ((),) * poset.n  # no point has its principal downset as a cover
    inject(monkeypatch, "nucleus_to_topology", lambda r, t, got: bad if t == target else got)
    return bad


def test_a_non_nucleus_from_an_edge_is_read_only_by_the_laws_that_need_it(diamond, monkeypatch):
    # the batch holding it is subset -> nucleus, read by the subset roundtrip,
    # by the commutation through nuclei and by its validity law
    bad = _non_nucleus_output(diamond, monkeypatch)
    engine, calls = _verify_recording_calls(diamond, monkeypatch)
    assert max(calls.values()) == 1
    assert {name for name, values in calls if bad in values} == {
        "_table_to_subset", "_table_to_families", "_nucleus_fails", "_check_nucleus"
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
    assert_pinned("non_nucleus_output", engine)


def test_a_non_topology_from_an_edge_is_read_only_by_the_laws_that_need_it(diamond, monkeypatch):
    # the batch holding it is nucleus -> topology, read by the nucleus
    # roundtrip through topologies, by the composite cross-check and by its
    # validity law
    bad = _non_topology_output(diamond, monkeypatch)
    engine, calls = _verify_recording_calls(diamond, monkeypatch)
    assert max(calls.values()) == 1
    assert {name for name, values in calls if bad in values} == {
        "_families_to_table", "_families_to_subset", "_topology_fails", "_check_topology"
    }
    assert _failing(engine) == [
        "nucleus_topology_roundtrip",
        "topology_nucleus_roundtrip",
        "triangle_commutes_via_nucleus",
        "composite_cross_check",
        "nucleus_to_topology_valid",
    ]
    assert report_bytes(engine) == report_bytes(reference_verify_triangle(diamond))
    assert_pinned("non_topology_output", engine)


@pytest.mark.parametrize(
    "census, failing",
    [
        (lambda gens: [*gens, gens[5]], ["nucleus_count"]),
        (lambda gens: [*gens[:-1], gens[5]], ["nucleus_bijection"]),
    ],
    ids=["added", "in_place_of_the_last"],
)
def test_a_nucleus_listed_twice_by_the_census(diamond, monkeypatch, census, failing):
    _census(monkeypatch, "nuclei", census)
    runs = _law_by_law_runs(monkeypatch)
    engine, calls = _verify_recording_calls(diamond, monkeypatch)
    assert runs == [diamond] and max(calls.values()) == 1
    assert _failing(engine) == failing
    assert report_bytes(engine) == report_bytes(reference_verify_triangle(diamond))
    assert_pinned(f"nucleus_twice_{failing[0]}", engine)


@pytest.mark.parametrize(
    "census, failing",
    [
        (lambda gens: [*gens, gens[5]], ["topology_count"]),
        (lambda gens: [*gens[:-1], gens[5]], ["topology_bijection"]),
    ],
    ids=["added", "in_place_of_the_last"],
)
def test_a_topology_listed_twice_by_the_census(diamond, monkeypatch, census, failing):
    """In place of the last, only the check that no generator tuple repeats
    keeps the plane decision from passing: every lane holds a topology."""
    _census(monkeypatch, "topologies", census)
    runs = _law_by_law_runs(monkeypatch)
    engine, calls = _verify_recording_calls(diamond, monkeypatch)
    assert runs == [diamond] and max(calls.values()) == 1
    assert _failing(engine) == failing
    assert report_bytes(engine) == report_bytes(reference_verify_triangle(diamond))
    assert_pinned(f"topology_twice_{failing[0]}", engine)


# caps-lifted posets, each with the least nucleus cap that fits its downsets
LIFTED = {"chain10": (chain(10), 11), "boolean3": (boolean_lattice(3), 20)}


@pytest.mark.parametrize("poset, nucleus_cap", LIFTED.values(), ids=LIFTED)
def test_the_caps_lifted_reports_are_pinned(poset, nucleus_cap, request):
    report = triangle.verify_triangle(poset, nucleus_cap=nucleus_cap, topology_cap=poset.n)
    assert report.all_passed
    assert_pinned(request.node.callspec.id, report)


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
    report, calls = _verify_recording_calls(diamond, monkeypatch)
    assert report.all_passed
    assert max(calls.values()) == 1
    # 16 subsets, 16 nuclei and 16 topologies on the diamond, each batch all of one corner
    assert {len(values) for _, values in calls} == {16}
    # the direct edges, then each roundtrip and commutation once; no core runs
    assert Counter(name for name, _ in calls) == {
        "_subset_to_table": 2, "_subset_to_families": 2,
        "_table_to_subset": 2, "_families_to_subset": 3,
        "_table_to_families": 3, "_families_to_table": 3,
        "_table_to_subset_alt": 1, "_table_to_subset_via_topology": 1,
        "_nucleus_fails": 1, "_topology_fails": 1,
    }


def _one_value_fault(poset, monkeypatch, edge, members=("a",)):
    """The kernel of ``edge`` gives the value of the subset of ``members``
    the value of {b} (a subset gets bit 0 flipped)."""
    _, source, target = EDGES[edge]
    a, b = poset.subset(members), poset.subset(["b"])
    corners = {Subset: lambda x: x, Nucleus: triangle.subset_to_nucleus,
               GrothendieckTopology: triangle.subset_to_topology}
    picked = _raw(corners[source](a))
    wrong = None if target is Subset else _raw(corners[target](b))

    def fault(r, value, got):
        if value != picked:
            return got
        return got ^ 1 if wrong is None else wrong

    inject(monkeypatch, edge, fault)


# id -> (edge, members): on the diamond {a} is lane 1 of all subsets, and
# the whole carrier lane 15, in the second byte of each plane
ONE_VALUE_FAULTS = {**{edge: (edge, ("a",)) for edge in EDGES},
                    **{f"{edge}-carrier": (edge, ("o", "a", "b", "t")) for edge in EDGES}}


@pytest.mark.parametrize("edge, members", ONE_VALUE_FAULTS.values(), ids=ONE_VALUE_FAULTS)
def test_a_one_value_fault_in_any_kernel_takes_the_law_by_law_path(diamond, monkeypatch, edge,
                                                                   members):
    _one_value_fault(diamond, monkeypatch, edge, members)
    fallbacks = []
    original = triangle._law_by_law

    def spy(*args):
        fallbacks.append(args)
        return original(*args)

    monkeypatch.setattr(triangle, "_law_by_law", spy)
    engine = triangle.verify_triangle(diamond)
    assert len(fallbacks) == 1 and not engine.all_passed
    assert report_bytes(engine) == report_bytes(reference_verify_triangle(diamond))


FALLBACKS = {
    **{f"fault_{edge}": lambda p, m, edge=edge: _one_value_fault(p, m, edge) for edge in EDGES},
    "non_nucleus_output": _non_nucleus_output,
    "non_topology_output": _non_topology_output,
    **{f"image_{name}": lambda p, m, stray=stray: _image_out_of_range(m, stray)
       for name, stray in STRAYS.items()},
    "generator_t_not_monotone": lambda p, m: GENERATOR_FAULTS["t_not_monotone"][1](m),
}


@pytest.mark.parametrize("name, case", FALLBACKS.items(), ids=FALLBACKS)
def test_the_law_by_law_path_runs_no_kernel(diamond, monkeypatch, name, case):
    """It reads every conversion from the batches the plane check computed.
    A stray generator bit changes no value, so only its laws all pass."""
    case(diamond, monkeypatch)
    fallback, runs = triangle._law_by_law, []

    def never(*args):
        raise AssertionError("the law-by-law path ran a kernel")

    def guarded(*args):
        kernels = {name: getattr(triangle, name) for name in KERNELS}
        runs.append(args)
        for name in KERNELS:
            setattr(triangle, name, never)
        try:
            return fallback(*args)
        finally:
            for name, kernel in kernels.items():
                setattr(triangle, name, kernel)

    monkeypatch.setattr(triangle, "_law_by_law", guarded)
    engine = triangle.verify_triangle(diamond)
    assert len(runs) == 1 and engine.all_passed == name.startswith("image_")
    assert report_bytes(engine) == report_bytes(reference_verify_triangle(diamond))


def _force_law_by_law(monkeypatch):
    """Send every verify down the law-by-law path with every law still
    holding, and return the posets sent.  The nucleus plane check says value
    0 fails when it is handed generator planes, as only the decision hands
    them; the validity laws call it without them and get its real verdict."""
    fails = triangle._nucleus_fails
    monkeypatch.setattr(triangle, "_nucleus_fails", lambda poset, planes, ones, *gens:
                        1 if gens else fails(poset, planes, ones))
    return _law_by_law_runs(monkeypatch)


def test_the_law_by_law_path_agrees_with_the_plane_decision_on_passing_posets(monkeypatch):
    """Every labeled n <= 4 poset, sent down the law-by-law path with every
    law still holding, gets the report the plane decision gives it, and
    each caps-lifted poset its pinned report."""
    posets = [poset for n in range(5) for poset in enumerate_posets(n)]
    want = [report_bytes(triangle.verify_triangle(poset)) for poset in posets]
    runs = _force_law_by_law(monkeypatch)
    got = [report_bytes(triangle.verify_triangle(poset)) for poset in posets]
    assert len(posets) == 243 and runs == posets
    assert all(report["passed"] for report in want)
    assert got == want
    for case, (poset, nucleus_cap) in LIFTED.items():
        assert_pinned(case, triangle.verify_triangle(poset, nucleus_cap=nucleus_cap,
                                                     topology_cap=poset.n))
        assert runs[-1] is poset


def test_the_law_by_law_path_transposes_each_census_once(monkeypatch):
    """Forced onto the law-by-law path, a passing poset lowers four batches
    whole: each census once, to list it and to compare its columns with the
    image of its bijection law, and each bijection law's output batch."""
    poset = build_poset(["a", "b", "c"], [("a", "b")])
    runs, widths, columns = _force_law_by_law(monkeypatch), [], triangle._columns

    def counted(planes, w):
        widths.append(w)
        return columns(planes, w)

    monkeypatch.setattr(triangle, "_columns", counted)
    report = triangle.verify_triangle(poset)
    assert runs == [poset] and report.all_passed
    assert report.counts == {"subsets": 8, "nuclei": 8, "topologies": 8}
    assert widths == [8] * 4


def test_a_non_nucleus_two_edges_output_is_scanned_once(diamond, monkeypatch):
    # subset -> nucleus sends {a}, and topology -> nucleus the topology of
    # {b}, to the same non-nucleus; both validity laws report it
    target = triangle.subset_to_topology(diamond.subset(["b"])).families
    bad = _non_nucleus_output(diamond, monkeypatch)
    inject(monkeypatch, "topology_to_nucleus", lambda r, f, got: bad if f == target else got)
    engine, calls = _verify_recording_calls(diamond, monkeypatch)
    assert {"subset_to_nucleus_valid", "topology_to_nucleus_valid"} <= set(_failing(engine))
    assert calls["_check_nucleus", (bad,)] == 1
    assert report_bytes(engine) == report_bytes(reference_verify_triangle(diamond))


@pytest.mark.parametrize("check, corner", [("_nucleus_fails", "nucleus"),
                                           ("_topology_fails", "topology")])
def test_a_valid_value_the_plane_check_flags_is_an_error(diamond, monkeypatch, check, corner):
    # lane 0 of subset -> nucleus (or topology) holds the image of the empty
    # subset, which is valid, so its validity law has no witness to report
    original = getattr(triangle, check)
    monkeypatch.setattr(triangle, check, lambda *args: original(*args) | 1)
    with pytest.raises(AssertionError, match=rf"the {corner} plane check flagged .* from subset \[\]"):
        triangle.verify_triangle(diamond)


def test_oversize_jobs_are_refused_before_any_enumeration(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("enumerated before the caps were checked")

    for search in ("enumerate_nuclei", "enumerate_topologies", "_nucleus_generators",
                   "_topology_generators"):
        monkeypatch.setattr(triangle, search, never)
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
