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

Each edge is one private kernel on a batch of values held as bit planes,
w-bit ints whose bit k is one bit of value k: n planes for subsets (plane
q holds point q), d * n for nuclei (plane i * n + p holds bit p of the
image of the i-th downset) and one membership plane per point p and sieve
on p for topologies (:class:`topology._Sieves`).  A kernel maps planes to
planes with a few ``&``, ``|`` and ``^`` each, given the poset's plane
index tables (:class:`_EdgeRanks`); it reads only what planes hold, the
bits below n of an image and the sieves of a family.  A public edge runs
its kernel on a batch of one.

:func:`verify_triangle` runs the whole law suite on one poset.  Counts come
only from the independent enumerators, never from the conversions under
test.  It runs the kernels on three batches (all subsets and the distinct
values of each census) and validates each census batch once with the
plane checks of :mod:`nucleus` and :mod:`topology`.  Every law passes when
the planes hold both censuses exactly, both counts are 2^n, neither census
repeats a value, both censuses validate and every roundtrip, commutation
and extraction law is a plane equality, because then the other laws follow:

* bijections: the subset roundtrip makes subset -> nucleus injective, the
  nucleus roundtrip puts every census value in its image, and the census
  holds 2^n distinct values, so the image is the census; likewise for
  topologies;
* validity of outputs: so the subset edges' images are the censuses, which
  validated, and by commutation the census of each corner maps onto the
  other's.

Otherwise :func:`_law_by_law` reads the kernels' values from the batches
and finds each law's witness, comparing census values as listed.
"""

from __future__ import annotations

from functools import lru_cache, partial, reduce
from operator import and_, or_, xor
from time import perf_counter
from typing import Any

from .errors import TriposetError
from .heyting import implication_mask  # noqa: F401 -- looked up here by perfbench
from .nucleus import (
    DEFAULT_NUCLEUS_CAP,
    Nucleus,
    _check_nucleus,
    _image_planes,
    _meet_steps,
    _nucleus_fails,
    _require_nucleus_cap,
    enumerate_nuclei,
    validate_nucleus,  # noqa: F401 -- looked up here by tests and perfbench
)
from .poset import Poset, Subset, _canonical, _columns, _pack, _planes
from .topology import (
    DEFAULT_TOPOLOGY_CAP,
    GrothendieckTopology,
    _check_topology,
    _family_planes,
    _require_topology_cap,
    _sieves,
    _topology_fails,
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

Table = tuple[int, ...]  # image masks in canonical downset order
Families = tuple[tuple[int, ...], ...]


class _EdgeRanks:
    """One poset's plane index tables: ``steps`` (i * n, k * n, p) per step
    S_i = S_k - p of :func:`_meet_steps`; ``alt[p]`` the first planes of the
    images of the cone of p and of the cone minus p; ``push`` the nucleus
    plane (p in j(s)) of each topology plane (p, s), and ``pull`` the
    topology plane (p, S & down p) of each nucleus plane (p in j(S))."""

    __slots__ = ("poset", "n", "d", "sieves", "steps", "alt", "push", "pull")

    def __init__(self, poset: Poset):
        self.poset, n, sieves = poset, poset.n, _sieves(poset)
        dmasks, rank, down = poset.downset_masks(), poset._downset_ranks(), poset._down
        self.n, self.d, self.sieves = n, len(dmasks), sieves
        self.steps = [(i * n, k * n, p) for i, p, k in _meet_steps(poset)]
        self.alt = [(rank[c] * n, rank[c & ~(1 << p)] * n) for p, c in enumerate(down)]
        self.push = [rank[s] * n + p for p, at in enumerate(sieves.index) for s in at]
        self.pull = [at[m & c] for m in dmasks for at, c in zip(sieves.index, down)]


# one entry, so the tables of a poset live only until the next poset's are built
_edge_ranks = lru_cache(maxsize=1)(_EdgeRanks)


# -- the edge kernels: planes in, planes out; ``ones`` is the batch's all-ones plane


def _subset_to_table(r: _EdgeRanks, planes: list[int], ones: int) -> list[int]:
    # q is in X -> S when no point of X lies in (down q) - S; a meet step
    # S_i = S_k - p adds p to that set for the points q above p
    n = r.n
    outside = [ones ^ x for x in planes]
    spread = [[outside[p] if above >> q & 1 else ones for q in range(n)]
              for p, above in enumerate(r.poset._up)]
    images = [ones] * (r.d * n)
    for i, k, p in r.steps:
        images[i : i + n] = map(and_, spread[p], images[k : k + n])
    return images


def _table_to_subset(r: _EdgeRanks, planes: list[int], ones: int) -> list[int]:
    return [ones ^ planes[less + p] for p, (_, less) in enumerate(r.alt)]


def _table_to_subset_alt(r: _EdgeRanks, planes: list[int], ones: int) -> list[int]:
    n = r.n
    return [reduce(or_, map(xor, planes[a : a + n], planes[b : b + n]), 0) for a, b in r.alt]


def _table_to_subset_via_topology(r: _EdgeRanks, planes: list[int], ones: int) -> list[int]:
    # the principal downset is the last sieve on p
    at = [planes[k] for k in r.push]
    return [at[span[-1]] & ~reduce(or_, at[span.start : span[-1]], 0) for span in r.sieves.ranges]


def _subset_to_families(r: _EdgeRanks, planes: list[int], ones: int) -> list[int]:
    # s covers p when no point of X lies in (down p) - s; s + a adds one point
    outside = [ones ^ x for x in planes]
    covers = [ones] * r.sieves.size
    for t, grown, a, _ in r.sieves.grow:
        covers[t] = covers[grown] & outside[a]
    return covers


def _families_to_subset(r: _EdgeRanks, planes: list[int], ones: int) -> list[int]:
    return [planes[span[-1]] & ~reduce(or_, planes[span.start : span[-1]], 0)
            for span in r.sieves.ranges]


def _table_to_families(r: _EdgeRanks, planes: list[int], ones: int) -> list[int]:
    return list(map(planes.__getitem__, r.push))


def _families_to_table(r: _EdgeRanks, planes: list[int], ones: int) -> list[int]:
    return list(map(planes.__getitem__, r.pull))


# -- each corner's (lift, lower): its values to planes, and a batch of w back


def _lower_tables(r: _EdgeRanks, planes: list[int], w: int) -> list[Table]:
    full, shifts = r.poset.full_mask, [i * r.n for i in range(r.d)]
    return [tuple([c >> s & full for s in shifts]) for c in _columns(planes, w)]


def _lower_families(r: _EdgeRanks, planes: list[int], w: int) -> list[Families]:
    points = [(span.start, tuple(at)) for span, at in zip(r.sieves.ranges, r.sieves.index)]
    return [tuple([tuple([s for j, s in enumerate(sieves) if c >> start + j & 1])
                   for start, sieves in points]) for c in _columns(planes, w)]


_SUBSETS = (lambda r, xs: _planes(_pack(reversed(xs), r.n), r.n),
            lambda r, planes, w: _columns(planes, w))
_TABLES = (lambda r, tables: _image_planes(r.poset, tables)[0], _lower_tables)
_FAMILIES = (lambda r, batch: _family_planes(r.poset, batch)[0], _lower_families)


def _on_one(kernel, source: tuple, target: tuple, poset: Poset, value):
    """``kernel`` on a batch of one ``source`` value, lowered to a ``target`` value."""
    r = _edge_ranks(poset)
    return target[1](r, kernel(r, source[0](r, [value]), 1), 1)[0]


# -- the public edges ------------------------------------------------------


def subset_to_nucleus(x: Subset) -> Nucleus:
    """The nucleus S |-> (x -> S)."""
    return Nucleus._wrap(x.poset, _on_one(_subset_to_table, _SUBSETS, _TABLES, x.poset, x.mask))


def nucleus_to_subset(j: Nucleus) -> Subset:
    """The points p not swallowed by j applied to everything strictly below p."""
    return Subset._wrap(j.poset, _on_one(_table_to_subset, _TABLES, _SUBSETS, j.poset, j.images))


def nucleus_to_subset_alt(j: Nucleus) -> Subset:
    """Alternate extraction: p where j separates the cone of p from the punctured cone."""
    return Subset._wrap(
        j.poset, _on_one(_table_to_subset_alt, _TABLES, _SUBSETS, j.poset, j.images)
    )


def nucleus_to_subset_via_topology(j: Nucleus) -> Subset:
    """Composite extraction in closed form.

    Going nucleus -> topology -> subset asks, for each point p, that the
    principal downset be the only sieve S on p with p in j(S); this
    evaluates that condition directly.
    """
    return Subset._wrap(
        j.poset, _on_one(_table_to_subset_via_topology, _TABLES, _SUBSETS, j.poset, j.images)
    )


def subset_to_topology(x: Subset) -> GrothendieckTopology:
    """Covers at p are the sieves containing x cut down to the cone of p."""
    return GrothendieckTopology._wrap(
        x.poset, _on_one(_subset_to_families, _SUBSETS, _FAMILIES, x.poset, x.mask)
    )


def topology_to_subset(J: GrothendieckTopology) -> Subset:
    """The points covered by nothing but their own principal downset."""
    return Subset._wrap(
        J.poset, _on_one(_families_to_subset, _FAMILIES, _SUBSETS, J.poset, J.families)
    )


def nucleus_to_topology(j: Nucleus) -> GrothendieckTopology:
    """Covers at p are the sieves sent over p by the nucleus."""
    return GrothendieckTopology._wrap(
        j.poset, _on_one(_table_to_families, _TABLES, _FAMILIES, j.poset, j.images)
    )


def topology_to_nucleus(J: GrothendieckTopology) -> Nucleus:
    """j(S) collects the points where S pulls back to a covering sieve."""
    return Nucleus(J.poset, _on_one(_families_to_table, _FAMILIES, _TABLES, J.poset, J.families))


# -- the verifier ----------------------------------------------------------


class LawResult:
    """One law's outcome; ``witness`` names a counterexample when it failed."""

    __slots__ = ("name", "passed", "witness")

    def __init__(self, name: str, passed: bool, witness: dict[str, Any] | None = None):
        self.name = name
        self.passed = passed
        self.witness = witness

    def to_jsonable(self) -> dict[str, Any]:
        return {"name": self.name, "passed": self.passed, "witness": self.witness}


class TriangleReport:
    """Outcome of the full law suite on one poset."""

    __slots__ = ("poset", "directed", "counts", "laws", "elapsed_seconds")

    def __init__(
        self,
        poset: Poset,
        directed: bool,
        counts: dict[str, int],
        laws: tuple[LawResult, ...],
        elapsed_seconds: float,
    ):
        self.poset = poset
        self.directed = directed
        self.counts = counts
        self.laws = laws
        self.elapsed_seconds = elapsed_seconds

    @property
    def all_passed(self) -> bool:
        return all(law.passed for law in self.laws)

    def to_jsonable(self) -> dict[str, Any]:
        poset = self.poset
        labels = poset.labels
        return {
            "poset": {"n": poset.n, "labels": list(labels),
                      "covers": [[labels[p], labels[q]] for p, q in poset.covers()]},
            "directed": self.directed,
            "counts": dict(self.counts),
            "laws": [law.to_jsonable() for law in self.laws],
            "passed": self.all_passed,
            "elapsed_seconds": self.elapsed_seconds,
        }


_LAWS = (
    "subset_nucleus_roundtrip", "subset_topology_roundtrip", "nucleus_roundtrip",
    "topology_roundtrip", "nucleus_topology_roundtrip", "topology_nucleus_roundtrip",
    "triangle_commutes_via_nucleus", "triangle_commutes_via_topology",
    "identity_composite", "identity_alt", "composite_cross_check",
    "nucleus_count", "topology_count", "nucleus_bijection", "topology_bijection",
    "subset_to_nucleus_valid", "subset_to_topology_valid",
    "nucleus_to_topology_valid", "topology_to_nucleus_valid",
)


def _law(name: str, witness: dict[str, Any] | None) -> LawResult:
    return LawResult(name, witness is None, witness)


def _failure(check, poset: Poset, value) -> dict[str, Any] | None:
    """The witness of a failed validator core, or None if ``value`` passes."""
    try:
        check(poset, value)
    except TriposetError as exc:
        return {"error": str(exc), "kind": type(exc).__name__}
    return None


class _Edge(dict):
    """An edge as a map from values to values: the census entries are read
    from a batch, and any other entry is computed the first time a law
    reads it."""

    __slots__ = ("entry",)

    def __init__(self, census, entry):
        super().__init__(census)
        self.entry = entry

    def __missing__(self, value):
        out = self[value] = self.entry(value)
        return out


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

    Every kernel runs once on each batch it reads, and each census batch
    is validated once.  When every law passes on planes (see the module
    docstring) the report is built directly; otherwise :func:`_law_by_law`
    finds the witnesses.  Both caps are checked before any work starts.
    """
    t0 = perf_counter()
    _require_nucleus_cap(poset, nucleus_cap)
    _require_topology_cap(poset, topology_cap)
    n = poset.n
    tables = [j.images for j in enumerate_nuclei(poset, cap=nucleus_cap)]
    fams = [J.families for J in enumerate_topologies(poset, cap=topology_cap)]
    counts = {"subsets": 1 << n, "nuclei": len(tables), "topologies": len(fams)}

    r = _edge_ranks(poset)
    nuclei, topologies = list(dict.fromkeys(tables)), list(dict.fromkeys(fams))
    xs = _SUBSETS[0](r, range(1 << n))
    (js, exact_js), (Js, exact_Js) = (_image_planes(poset, nuclei),
                                      _family_planes(poset, topologies))
    ones, on, ot = ((1 << w) - 1 for w in (1 << n, len(nuclei), len(topologies)))
    s2n, s2t = _subset_to_table(r, xs, ones), _subset_to_families(r, xs, ones)
    n2s, n2t = _table_to_subset(r, js, on), _table_to_families(r, js, on)
    alt, via = _table_to_subset_alt(r, js, on), _table_to_subset_via_topology(r, js, on)
    t2s, t2n = _families_to_subset(r, Js, ot), _families_to_table(r, Js, ot)
    fails = _nucleus_fails(poset, js, on), _topology_fails(poset, Js, ot)
    if (
        exact_js and exact_Js
        and len(tables) == len(nuclei) == len(fams) == len(topologies) == 1 << n
        and fails == (0, 0)
        and _table_to_subset(r, s2n, ones) == xs
        and _families_to_subset(r, s2t, ones) == xs
        and _subset_to_table(r, n2s, on) == js
        and _subset_to_families(r, t2s, ot) == Js
        and _families_to_table(r, n2t, on) == js
        and _table_to_families(r, t2n, ot) == Js
        and _table_to_families(r, s2n, ones) == s2t
        and _families_to_table(r, s2t, ones) == s2n
        and via == n2s == alt
        and _families_to_subset(r, n2t, on) == via
    ):
        laws = tuple(LawResult(name, True) for name in _LAWS)
    else:
        batches = (s2n, s2t, n2s, n2t, t2s, t2n, alt, via)
        laws = _law_by_law(r, tables, fams, (nuclei, topologies), batches, fails)
    return TriangleReport(
        poset=poset,
        directed=poset.is_downward_directed(),
        counts=counts,
        laws=laws,
        elapsed_seconds=perf_counter() - t0,
    )


def _law_by_law(r: _EdgeRanks, tables: list, fams: list, distinct: tuple, batches: tuple,
                fails: tuple):
    """Every law with its witness, value by value.  The kernels' values on
    the ``distinct`` values of each census are read from ``batches`` (in the
    order of ``specs``) and a census value whose ``fails`` bit is clear has no
    validity witness; any other value is computed on a batch of one, or
    scanned, when a law first reads it.  Laws read validity only of kernel
    outputs, which planes hold exactly."""
    poset, n = r.poset, r.n
    xs = _canonical(range(1 << n))
    census = (range(1 << n), *distinct)
    # a corner is (its key in a witness, the values the laws visit, its JSON)
    S = ("subset", xs, lambda x: Subset._wrap(poset, x).to_jsonable())
    N = ("nucleus", tables, lambda t: Nucleus._wrap(poset, t).to_jsonable())
    T = ("topology", fams, lambda f: GrothendieckTopology._wrap(poset, f).to_jsonable())
    kinds = (_SUBSETS, _TABLES, _FAMILIES)
    specs = ((_subset_to_table, 0, 1), (_subset_to_families, 0, 2), (_table_to_subset, 1, 0),
             (_table_to_families, 1, 2), (_families_to_subset, 2, 0), (_families_to_table, 2, 1),
             (_table_to_subset_alt, 1, 0), (_table_to_subset_via_topology, 1, 0))
    s2n, s2t, n2s, n2t, t2s, t2n, alt, via = (
        _Edge(zip(census[a], kinds[b][1](r, planes, len(census[a]))),
              partial(_on_one, kernel, kinds[a], kinds[b], poset))
        for planes, (kernel, a, b) in zip(batches, specs)
    )
    nucleus_failure, topology_failure = (
        _Edge(((v, None) for k, v in enumerate(census[c]) if not bad >> k & 1),
              partial(_failure, check, poset))
        for bad, check, c in zip(fails, (_check_nucleus, _check_topology), (1, 2))
    )

    def roundtrip(kind, there, back):
        key, scan, show = kind
        for v in scan:
            got = back[there[v]]
            if got != v:
                return {key: show(v), "got": show(got)}
        return None

    def agree(kind, target, name_a, first, then, name_b, direct):
        key, scan, show = kind
        for v in scan:
            got_a, got_b = then[first[v]], direct[v]
            if got_a != got_b:
                return {key: show(v), name_a: target[2](got_a), name_b: target[2](got_b)}
        return None

    def extraction_agreement(other):
        for i, j in enumerate(tables):
            direct, got = n2s[j], other[j]
            if got != direct:
                diff = direct ^ got
                p = (diff & -diff).bit_length() - 1
                return {
                    "nucleus": N[2](j),
                    "direct": S[2](direct),
                    "other": S[2](got),
                    "first_difference": poset.labels[p],
                    "nucleus_index": i,
                }
        return None

    def count(found):
        return None if found == 1 << n else {"expected": 1 << n, "got": found}

    def bijection(edge, values):
        image = {edge[x] for x in xs}
        if len(image) != len(xs):
            return {"reason": "not injective", "image_size": len(image)}
        if image != set(values):
            return {"reason": "image differs from enumeration"}
        return None

    def validity(kind, edge, failure):
        key, scan, show = kind
        for v in scan:
            witness = failure[edge[v]]
            if witness is not None:
                return {"input": show(v), **witness}
        return None

    witnesses = (
        roundtrip(S, s2n, n2s),
        roundtrip(S, s2t, t2s),
        roundtrip(N, n2s, s2n),
        roundtrip(T, t2s, s2t),
        roundtrip(N, n2t, t2n),
        roundtrip(T, t2n, n2t),
        agree(S, T, "via_nucleus", s2n, n2t, "direct", s2t),
        agree(S, N, "via_topology", s2t, t2n, "direct", s2n),
        extraction_agreement(via),
        extraction_agreement(alt),
        agree(N, S, "literal", n2t, t2s, "closed_form", via),
        count(len(tables)),
        count(len(fams)),
        bijection(s2n, tables),
        bijection(s2t, fams),
        validity(S, s2n, nucleus_failure),
        validity(S, s2t, topology_failure),
        validity(N, n2t, topology_failure),
        validity(T, t2n, nucleus_failure),
    )
    return tuple(map(_law, _LAWS, witnesses))
