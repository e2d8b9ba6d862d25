"""Slow references for :mod:`triposet.triangle`.

:func:`reference_verify_triangle` is the law suite written one law at a
time, each law recomputing the conversions it needs through the public
edges and validating every value it meets.  It is kept only so tests can
check that the table-driven engine reports the same laws, in the same
order, with the same witnesses.  Edges and validators are looked up on the
``triangle`` module at call time, and each public edge looks up its kernel
there, so a test that monkeypatches ``triangle.<kernel>`` changes this
reference and the engine alike.

:data:`REFERENCE_EDGES` holds the eight edges as they were before they
moved onto per-poset rank arrays: object in, object out, recomputing
every implication, rank and sieve list on each call.  Tests hold the
kernels to them.

Known gap: a census nucleus whose image is not a downset makes
:func:`reference_verify_triangle` raise ``ImageNotDownsetError``, because
its nucleus roundtrip goes through the checked ``topology_to_nucleus``;
the engine reports the failing laws instead.  The test that pins this is
``test_a_generator_that_is_not_a_downset_is_not_decided_on_planes`` in
``test_triangle_engine.py``.
"""

from __future__ import annotations

from time import perf_counter

from triposet import triangle as T
from triposet.errors import NucleusAxiomError, TopologyAxiomError, TriposetError
from triposet.heyting import implication_mask
from triposet.nucleus import DEFAULT_NUCLEUS_CAP, Nucleus, enumerate_nuclei
from triposet.poset import Subset
from triposet.topology import DEFAULT_TOPOLOGY_CAP, GrothendieckTopology, enumerate_topologies


def _subset_to_nucleus(x):
    poset = x.poset
    return Nucleus(poset, [implication_mask(poset, x.mask, s) for s in poset.downset_masks()])


def _image(j, s):
    return j.images[j.poset.downset_rank(s)]


def _nucleus_to_subset(j):
    poset = j.poset
    out = 0
    for p in range(poset.n):
        if not _image(j, poset._down[p] & ~(1 << p)) >> p & 1:
            out |= 1 << p
    return Subset._wrap(poset, out)


def _nucleus_to_subset_alt(j):
    poset = j.poset
    out = 0
    for p in range(poset.n):
        cone = poset._down[p]
        if _image(j, cone) != _image(j, cone & ~(1 << p)):
            out |= 1 << p
    return Subset._wrap(poset, out)


def _nucleus_to_subset_via_topology(j):
    poset = j.poset
    out = 0
    for p in range(poset.n):
        cone = poset._down[p]
        if all(
            bool(_image(j, s) >> p & 1) == (s == cone) for s in poset.sieve_masks(p)
        ):
            out |= 1 << p
    return Subset._wrap(poset, out)


def _subset_to_topology(x):
    poset = x.poset
    fams = []
    for p in range(poset.n):
        need = x.mask & poset._down[p]
        fams.append(tuple(s for s in poset.sieve_masks(p) if not need & ~s))
    return GrothendieckTopology._wrap(poset, tuple(fams))


def _topology_to_subset(J):
    poset = J.poset
    out = 0
    for p in range(poset.n):
        if J.families[p] == (poset._down[p],):
            out |= 1 << p
    return Subset._wrap(poset, out)


def _nucleus_to_topology(j):
    poset = j.poset
    fams = tuple(
        tuple(s for s in poset.sieve_masks(p) if _image(j, s) >> p & 1)
        for p in range(poset.n)
    )
    return GrothendieckTopology._wrap(poset, fams)


def _topology_to_nucleus(J):
    poset = J.poset
    images = []
    for s in poset.downset_masks():
        m = 0
        for p in range(poset.n):
            if s & poset._down[p] in J.families[p]:
                m |= 1 << p
        images.append(m)
    return Nucleus(poset, images)


REFERENCE_EDGES = {
    "subset_to_nucleus": _subset_to_nucleus,
    "nucleus_to_subset": _nucleus_to_subset,
    "subset_to_topology": _subset_to_topology,
    "topology_to_subset": _topology_to_subset,
    "nucleus_to_topology": _nucleus_to_topology,
    "topology_to_nucleus": _topology_to_nucleus,
    "nucleus_to_subset_alt": _nucleus_to_subset_alt,
    "nucleus_to_subset_via_topology": _nucleus_to_subset_via_topology,
}


def _law(name, finder):
    witness = finder()
    return T.LawResult(name, witness is None, witness)


def reference_verify_triangle(
    poset,
    *,
    nucleus_cap: int = DEFAULT_NUCLEUS_CAP,
    topology_cap: int = DEFAULT_TOPOLOGY_CAP,
):
    t0 = perf_counter()
    n = poset.n
    subsets = poset.subsets()
    nuclei = enumerate_nuclei(poset, cap=nucleus_cap)
    topologies = enumerate_topologies(poset, cap=topology_cap)
    counts = {
        "subsets": len(subsets),
        "nuclei": len(nuclei),
        "topologies": len(topologies),
    }

    def roundtrip_subset_nucleus():
        for x in subsets:
            got = T.nucleus_to_subset(T.subset_to_nucleus(x))
            if got != x:
                return {"subset": x.to_jsonable(), "got": got.to_jsonable()}
        return None

    def roundtrip_subset_topology():
        for x in subsets:
            got = T.topology_to_subset(T.subset_to_topology(x))
            if got != x:
                return {"subset": x.to_jsonable(), "got": got.to_jsonable()}
        return None

    def roundtrip_nucleus():
        for j in nuclei:
            got = T.subset_to_nucleus(T.nucleus_to_subset(j))
            if got != j:
                return {"nucleus": j.to_jsonable(), "got": got.to_jsonable()}
        return None

    def roundtrip_topology():
        for J in topologies:
            got = T.subset_to_topology(T.topology_to_subset(J))
            if got != J:
                return {"topology": J.to_jsonable(), "got": got.to_jsonable()}
        return None

    def roundtrip_nucleus_topology():
        for j in nuclei:
            got = T.topology_to_nucleus(T.nucleus_to_topology(j))
            if got != j:
                return {"nucleus": j.to_jsonable(), "got": got.to_jsonable()}
        return None

    def roundtrip_topology_nucleus():
        for J in topologies:
            got = T.nucleus_to_topology(T.topology_to_nucleus(J))
            if got != J:
                return {"topology": J.to_jsonable(), "got": got.to_jsonable()}
        return None

    def commute_via_nucleus():
        for x in subsets:
            got = T.nucleus_to_topology(T.subset_to_nucleus(x))
            want = T.subset_to_topology(x)
            if got != want:
                return {
                    "subset": x.to_jsonable(),
                    "via_nucleus": got.to_jsonable(),
                    "direct": want.to_jsonable(),
                }
        return None

    def commute_via_topology():
        for x in subsets:
            got = T.topology_to_nucleus(T.subset_to_topology(x))
            want = T.subset_to_nucleus(x)
            if got != want:
                return {
                    "subset": x.to_jsonable(),
                    "via_topology": got.to_jsonable(),
                    "direct": want.to_jsonable(),
                }
        return None

    def _extraction_agreement(other):
        for i, j in enumerate(nuclei):
            direct = T.nucleus_to_subset(j)
            got = other(j)
            if got != direct:
                diff = direct.mask ^ got.mask
                p = (diff & -diff).bit_length() - 1
                return {
                    "nucleus": j.to_jsonable(),
                    "direct": direct.to_jsonable(),
                    "other": got.to_jsonable(),
                    "first_difference": poset.labels[p],
                    "nucleus_index": i,
                }
        return None

    def identity_composite():
        return _extraction_agreement(T.nucleus_to_subset_via_topology)

    def identity_alt():
        return _extraction_agreement(T.nucleus_to_subset_alt)

    def composite_cross_check():
        for j in nuclei:
            literal = T.topology_to_subset(T.nucleus_to_topology(j))
            closed = T.nucleus_to_subset_via_topology(j)
            if literal != closed:
                return {
                    "nucleus": j.to_jsonable(),
                    "literal": literal.to_jsonable(),
                    "closed_form": closed.to_jsonable(),
                }
        return None

    def nucleus_count():
        if len(nuclei) != 1 << n:
            return {"expected": 1 << n, "got": len(nuclei)}
        return None

    def topology_count():
        if len(topologies) != 1 << n:
            return {"expected": 1 << n, "got": len(topologies)}
        return None

    def nucleus_bijection():
        image = {T.subset_to_nucleus(x) for x in subsets}
        if len(image) != len(subsets):
            return {"reason": "not injective", "image_size": len(image)}
        if image != set(nuclei):
            return {"reason": "image differs from enumeration"}
        return None

    def topology_bijection():
        image = {T.subset_to_topology(x) for x in subsets}
        if len(image) != len(subsets):
            return {"reason": "not injective", "image_size": len(image)}
        if image != set(topologies):
            return {"reason": "image differs from enumeration"}
        return None

    def _validity(values, validator, serialize):
        for v in values:
            try:
                validator(v)
            except (NucleusAxiomError, TopologyAxiomError, TriposetError) as exc:
                return {"input": serialize(v), "error": str(exc), "kind": type(exc).__name__}
        return None

    def subset_to_nucleus_valid():
        return _validity(
            subsets,
            lambda x: T.validate_nucleus(poset, dict(T.subset_to_nucleus(x).pairs())),
            lambda x: x.to_jsonable(),
        )

    def subset_to_topology_valid():
        return _validity(
            subsets,
            lambda x: T.validate_topology(
                poset, [T.subset_to_topology(x).sieves_at(p) for p in range(n)]
            ),
            lambda x: x.to_jsonable(),
        )

    def nucleus_to_topology_valid():
        return _validity(
            nuclei,
            lambda j: T.validate_topology(
                poset, [T.nucleus_to_topology(j).sieves_at(p) for p in range(n)]
            ),
            lambda j: j.to_jsonable(),
        )

    def topology_to_nucleus_valid():
        return _validity(
            topologies,
            lambda J: T.validate_nucleus(poset, dict(T.topology_to_nucleus(J).pairs())),
            lambda J: J.to_jsonable(),
        )

    laws = (
        _law("subset_nucleus_roundtrip", roundtrip_subset_nucleus),
        _law("subset_topology_roundtrip", roundtrip_subset_topology),
        _law("nucleus_roundtrip", roundtrip_nucleus),
        _law("topology_roundtrip", roundtrip_topology),
        _law("nucleus_topology_roundtrip", roundtrip_nucleus_topology),
        _law("topology_nucleus_roundtrip", roundtrip_topology_nucleus),
        _law("triangle_commutes_via_nucleus", commute_via_nucleus),
        _law("triangle_commutes_via_topology", commute_via_topology),
        _law("identity_composite", identity_composite),
        _law("identity_alt", identity_alt),
        _law("composite_cross_check", composite_cross_check),
        _law("nucleus_count", nucleus_count),
        _law("topology_count", topology_count),
        _law("nucleus_bijection", nucleus_bijection),
        _law("topology_bijection", topology_bijection),
        _law("subset_to_nucleus_valid", subset_to_nucleus_valid),
        _law("subset_to_topology_valid", subset_to_topology_valid),
        _law("nucleus_to_topology_valid", nucleus_to_topology_valid),
        _law("topology_to_nucleus_valid", topology_to_nucleus_valid),
    )
    return T.TriangleReport(
        poset=poset,
        directed=poset.is_downward_directed(),
        counts=counts,
        laws=laws,
        elapsed_seconds=perf_counter() - t0,
    )
