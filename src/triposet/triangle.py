"""Conversions tying subsets, nuclei, and Grothendieck topologies together.

For a finite poset the three collections are in bijection.  The six edges
of the triangle:

* subset -> nucleus: j_X(S) = X -> S (Heyting implication);
* nucleus -> subset: the points p outside j(strictly-below p);
* subset -> topology: p is covered by the sieves containing X restricted
  to the cone of p;
* topology -> subset: the points whose only cover is the principal downset;
* nucleus -> topology: p is covered by the sieves S with p in j(S);
* topology -> nucleus: j(S) collects the points where S pulls back to a
  cover.

Two further extractions of the subset from a nucleus are provided because
they are provably equal to the direct one and make good cross-checks: the
composite route through topologies in closed form (for every sieve S on p,
p lands in j(S) exactly when S is the whole cone) and an alternate form
comparing j on the cone of p with and without p.

:func:`verify_triangle` runs the whole law suite on one poset and returns a
:class:`TriangleReport`; counts come only from the independent enumerators,
never from the conversions under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from time import perf_counter
from typing import Any

from .errors import TriposetError
from .heyting import implication_mask
from .nucleus import (
    DEFAULT_NUCLEUS_CAP,
    Nucleus,
    _check_nucleus,
    _require_nucleus_cap,
    enumerate_nuclei,
    validate_nucleus,  # noqa: F401 -- looked up here by tests and perfbench
)
from .poset import Poset, Subset
from .topology import (
    DEFAULT_TOPOLOGY_CAP,
    GrothendieckTopology,
    _check_topology,
    _require_topology_cap,
    enumerate_topologies,
    validate_topology,  # noqa: F401 -- looked up here by tests and perfbench
)

__all__ = [
    "LawResult",
    "TriangleReport",
    "nucleus_to_subset",
    "nucleus_to_subset_alt",
    "nucleus_to_subset_via_topology",
    "nucleus_to_topology",
    "subset_to_nucleus",
    "subset_to_topology",
    "topology_to_nucleus",
    "topology_to_subset",
    "verify_triangle",
]


# -- the six edges ---------------------------------------------------------


def subset_to_nucleus(x: Subset) -> Nucleus:
    """The nucleus S |-> (x -> S)."""
    poset = x.poset
    dmasks = poset.downset_masks()
    rank = poset._dmask_pos
    table = tuple(rank[implication_mask(poset, x.mask, s)] for s in dmasks)
    return Nucleus._wrap(poset, table)


def nucleus_to_subset(j: Nucleus) -> Subset:
    """The points p not swallowed by j applied to everything strictly below p."""
    poset = j.poset
    dmasks = poset.downset_masks()
    rank = poset._dmask_pos
    out = 0
    for p in range(poset.n):
        punctured = poset._down[p] & ~(1 << p)
        if not dmasks[j.table[rank[punctured]]] >> p & 1:
            out |= 1 << p
    return Subset._wrap(poset, out)


def nucleus_to_subset_alt(j: Nucleus) -> Subset:
    """Alternate extraction: p where j separates the cone of p from the punctured cone."""
    poset = j.poset
    poset.downset_masks()  # fills poset._dmask_pos
    rank = poset._dmask_pos
    out = 0
    for p in range(poset.n):
        cone = poset._down[p]
        if j.table[rank[cone]] != j.table[rank[cone & ~(1 << p)]]:
            out |= 1 << p
    return Subset._wrap(poset, out)


def nucleus_to_subset_via_topology(j: Nucleus) -> Subset:
    """Composite extraction in closed form.

    Going nucleus -> topology -> subset asks, for each point p, that the
    principal downset be the only sieve S on p with p in j(S); this
    evaluates that condition directly.
    """
    poset = j.poset
    dmasks = poset.downset_masks()
    rank = poset._dmask_pos
    out = 0
    for p in range(poset.n):
        cone = poset._down[p]
        bit = 1 << p
        if all(
            bool(dmasks[j.table[rank[s]]] & bit) == (s == cone)
            for s in poset.sieve_masks(p)
        ):
            out |= bit
    return Subset._wrap(poset, out)


def subset_to_topology(x: Subset) -> GrothendieckTopology:
    """Covers at p are the sieves containing x cut down to the cone of p."""
    poset = x.poset
    fams = []
    for p in range(poset.n):
        need = x.mask & poset._down[p]
        fams.append(tuple(s for s in poset.sieve_masks(p) if not need & ~s))
    return GrothendieckTopology._wrap(poset, tuple(fams))


def topology_to_subset(J: GrothendieckTopology) -> Subset:
    """The points covered by nothing but their own principal downset."""
    poset = J.poset
    out = 0
    for p in range(poset.n):
        if J.families[p] == (poset._down[p],):
            out |= 1 << p
    return Subset._wrap(poset, out)


def nucleus_to_topology(j: Nucleus) -> GrothendieckTopology:
    """Covers at p are the sieves sent over p by the nucleus."""
    poset = j.poset
    dmasks = poset.downset_masks()
    rank = poset._dmask_pos
    fams = []
    for p in range(poset.n):
        bit = 1 << p
        fams.append(
            tuple(s for s in poset.sieve_masks(p) if dmasks[j.table[rank[s]]] & bit)
        )
    return GrothendieckTopology._wrap(poset, tuple(fams))


def topology_to_nucleus(J: GrothendieckTopology) -> Nucleus:
    """j(S) collects the points where S pulls back to a covering sieve."""
    poset = J.poset
    fam_sets = [set(f) for f in J.families]
    dmasks = poset.downset_masks()
    rank = poset._dmask_pos
    table = []
    for s in dmasks:
        m = 0
        for p in range(poset.n):
            if s & poset._down[p] in fam_sets[p]:
                m |= 1 << p
        table.append(rank[m])
    return Nucleus._wrap(poset, tuple(table))


# -- the verifier ----------------------------------------------------------


@dataclass(frozen=True)
class LawResult:
    name: str
    passed: bool
    witness: dict[str, Any] | None = None

    def to_jsonable(self) -> dict[str, Any]:
        return {"name": self.name, "passed": self.passed, "witness": self.witness}


@dataclass(frozen=True)
class TriangleReport:
    """Outcome of the full law suite on one poset."""

    poset: Poset
    directed: bool
    counts: dict[str, int]
    laws: tuple[LawResult, ...]
    elapsed_seconds: float

    @property
    def all_passed(self) -> bool:
        return all(law.passed for law in self.laws)

    def failures(self) -> tuple[LawResult, ...]:
        return tuple(law for law in self.laws if not law.passed)

    def to_jsonable(self) -> dict[str, Any]:
        poset = self.poset
        return {
            "poset": {
                "n": poset.n,
                "labels": list(poset.labels),
                "covers": [
                    [poset.labels[p], poset.labels[q]] for p, q in poset.covers()
                ],
            },
            "directed": self.directed,
            "counts": dict(self.counts),
            "laws": [law.to_jsonable() for law in self.laws],
            "passed": self.all_passed,
            "elapsed_seconds": self.elapsed_seconds,
        }


def _law(name: str, witness: dict[str, Any] | None) -> LawResult:
    return LawResult(name, witness is None, witness)


def _memo(compute, key):
    """``compute`` cached on ``key(value)``: each distinct key is computed once."""
    seen = {}

    def get(value):
        k = key(value)
        try:
            return seen[k]
        except KeyError:
            out = seen[k] = compute(value)
            return out

    return get


def verify_triangle(
    poset: Poset,
    *,
    nucleus_cap: int = DEFAULT_NUCLEUS_CAP,
    topology_cap: int = DEFAULT_TOPOLOGY_CAP,
) -> TriangleReport:
    """Exhaustively check every triangle law on one poset.

    Round trips and commutation are checked over all 2^n subsets; the
    identity laws over every enumerated nucleus; counts and bijections
    against the independent axiom-census enumerators.  A failing law
    records a minimal witness and the remaining laws still run.

    Within one call every edge runs at most once per distinct input and
    every distinct nucleus table or topology is validated at most once,
    on its masks; the laws read those results from per-call tables keyed
    by ``Subset.mask``, ``Nucleus.table`` and
    ``GrothendieckTopology.families``.  Both enumeration caps are checked
    before any work starts.
    """
    t0 = perf_counter()
    _require_nucleus_cap(poset, nucleus_cap)
    _require_topology_cap(poset, topology_cap)
    n = poset.n
    subsets = poset.subsets()
    nuclei = enumerate_nuclei(poset, cap=nucleus_cap)
    topologies = enumerate_topologies(poset, cap=topology_cap)
    counts = {
        "subsets": len(subsets),
        "nuclei": len(nuclei),
        "topologies": len(topologies),
    }

    mask = attrgetter("mask")
    table = attrgetter("table")
    families = attrgetter("families")
    s2n = _memo(subset_to_nucleus, mask)
    s2t = _memo(subset_to_topology, mask)
    n2s = _memo(nucleus_to_subset, table)
    n2t = _memo(nucleus_to_topology, table)
    t2s = _memo(topology_to_subset, families)
    t2n = _memo(topology_to_nucleus, families)
    alt = _memo(nucleus_to_subset_alt, table)
    via = _memo(nucleus_to_subset_via_topology, table)

    def checked(validate, arg):
        try:
            validate(poset, arg)
        except TriposetError as exc:
            return {"error": str(exc), "kind": type(exc).__name__}
        return None

    dmasks = poset.downset_masks()
    nucleus_failure = _memo(
        lambda j: checked(_check_nucleus, [dmasks[t] for t in j.table]), table
    )
    topology_failure = _memo(lambda J: checked(_check_topology, J.families), families)

    def roundtrip(values, there, back, key):
        for v in values:
            got = back(there(v))
            if got != v:
                return {key: v.to_jsonable(), "got": got.to_jsonable()}
        return None

    def agree(values, key, name_a, a, name_b, b):
        for v in values:
            got_a, got_b = a(v), b(v)
            if got_a != got_b:
                return {
                    key: v.to_jsonable(),
                    name_a: got_a.to_jsonable(),
                    name_b: got_b.to_jsonable(),
                }
        return None

    def extraction_agreement(other):
        for i, j in enumerate(nuclei):
            direct = n2s(j)
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

    def count(found):
        if found != 1 << n:
            return {"expected": 1 << n, "got": found}
        return None

    def bijection(edge, census):
        image = {edge(x) for x in subsets}
        if len(image) != len(subsets):
            return {"reason": "not injective", "image_size": len(image)}
        if image != set(census):
            return {"reason": "image differs from enumeration"}
        return None

    def validity(values, edge, failure):
        for v in values:
            witness = failure(edge(v))
            if witness is not None:
                return {"input": v.to_jsonable(), **witness}
        return None

    # evaluated in order: the tables fill as the laws run, so an edge or a
    # validator is first called by the same law as in a law-by-law check
    laws = (
        _law("subset_nucleus_roundtrip", roundtrip(subsets, s2n, n2s, "subset")),
        _law("subset_topology_roundtrip", roundtrip(subsets, s2t, t2s, "subset")),
        _law("nucleus_roundtrip", roundtrip(nuclei, n2s, s2n, "nucleus")),
        _law("topology_roundtrip", roundtrip(topologies, t2s, s2t, "topology")),
        _law("nucleus_topology_roundtrip", roundtrip(nuclei, n2t, t2n, "nucleus")),
        _law("topology_nucleus_roundtrip", roundtrip(topologies, t2n, n2t, "topology")),
        _law(
            "triangle_commutes_via_nucleus",
            agree(subsets, "subset", "via_nucleus", lambda x: n2t(s2n(x)), "direct", s2t),
        ),
        _law(
            "triangle_commutes_via_topology",
            agree(subsets, "subset", "via_topology", lambda x: t2n(s2t(x)), "direct", s2n),
        ),
        _law("identity_composite", extraction_agreement(via)),
        _law("identity_alt", extraction_agreement(alt)),
        _law(
            "composite_cross_check",
            agree(nuclei, "nucleus", "literal", lambda j: t2s(n2t(j)), "closed_form", via),
        ),
        _law("nucleus_count", count(len(nuclei))),
        _law("topology_count", count(len(topologies))),
        _law("nucleus_bijection", bijection(s2n, nuclei)),
        _law("topology_bijection", bijection(s2t, topologies)),
        _law("subset_to_nucleus_valid", validity(subsets, s2n, nucleus_failure)),
        _law("subset_to_topology_valid", validity(subsets, s2t, topology_failure)),
        _law("nucleus_to_topology_valid", validity(nuclei, n2t, topology_failure)),
        _law("topology_to_nucleus_valid", validity(topologies, t2n, nucleus_failure)),
    )
    return TriangleReport(
        poset=poset,
        directed=poset.is_downward_directed(),
        counts=counts,
        laws=laws,
        elapsed_seconds=perf_counter() - t0,
    )
