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

Each edge is a private kernel on raw values -- a subset mask, a nucleus's
``images`` (one image mask per downset, in canonical order) or a
topology's ``families`` -- wrapped by a public function that takes and
returns objects.  A kernel takes the poset's edge table (:class:`_EdgeRanks`)
as its first argument and never looks it up.  :func:`_edge_ranks` builds
the table once per poset and keeps only the latest; each public function
reads it once per call, and :func:`verify_triangle` once per poset.

:func:`verify_triangle` runs the whole law suite on one poset and returns a
:class:`TriangleReport`.  It numbers the values of each corner once, runs
each kernel and validator core once per value into a list indexed by
number, and checks the laws on those ints.  Counts come only from the
independent enumerators, never from the conversions under test.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import repeat
from time import perf_counter
from typing import Any

from .errors import TriposetError
from .heyting import implication_mask  # noqa: F401 -- looked up here by perfbench
from .nucleus import (
    DEFAULT_NUCLEUS_CAP,
    Nucleus,
    _check_nucleus,
    _require_nucleus_cap,
    enumerate_nuclei,
    validate_nucleus,  # noqa: F401 -- looked up here by tests and perfbench
)
from .poset import Poset, Subset, _canonical
from .topology import (
    DEFAULT_TOPOLOGY_CAP,
    GrothendieckTopology,
    _check_topology,
    _covering,
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

Table = tuple[int, ...]  # image masks in canonical downset order
Families = tuple[tuple[int, ...], ...]


class _EdgeRanks:
    """One poset's arrays, the first argument of every edge kernel;
    downsets are named by rank."""

    __slots__ = ("poset", "down", "dmasks", "imp", "lower", "covering",
                 "cone", "punctured", "sieves", "cuts", "columns")

    def __init__(self, poset: Poset):
        self.poset = poset
        dmasks = self.dmasks = poset.downset_masks()
        rank = poset._downset_ranks()
        n = poset.n
        down = self.down = poset._down
        up = poset._up
        # imp[m] = m -> {}, so X -> S is imp[X & ~S]: the points whose cone
        # misses m, the meet over the bits b of m of the points outside up(b);
        # lower[m], the least downset containing m, is the union of the down(b)
        imp = self.imp = [poset.full_mask] * (1 << n)
        lower = self.lower = [0] * (1 << n)
        for m in range(1, 1 << n):
            low = m & -m
            b = low.bit_length() - 1
            imp[m] = imp[m ^ low] & ~up[b]
            lower[m] = lower[m ^ low] | down[b]
        # rank of the principal downset of p, and of it minus p
        self.cone = [rank[down[p]] for p in range(n)]
        self.punctured = [rank[down[p] & ~(1 << p)] for p in range(n)]
        # per point p, each sieve on p mapped to the sieves on p containing it,
        # and the (sieve mask, rank) pairs of the sieves on p
        covering = self.covering = _covering(poset)
        self.sieves = [tuple([(s, rank[s]) for s in c]) for c in covering]
        # cuts[p][i]: the i-th downset meet the cone of p
        self.cuts = [tuple([s & c for s in dmasks]) for c in down]
        # filled by _families_to_table: each family's column of bit p over the downsets
        self.columns = [{} for _ in range(n)]


# one entry, so the arrays of a poset live only until the next poset's are built
_edge_ranks = lru_cache(maxsize=1)(_EdgeRanks)


# -- the edge kernels ------------------------------------------------------


def _subset_to_table(r: _EdgeRanks, x: int) -> Table:
    imp = r.imp
    return tuple([imp[x & ~s] for s in r.dmasks])


def _table_to_subset(r: _EdgeRanks, table: Table) -> int:
    out = 0
    for p, k in enumerate(r.punctured):
        if not table[k] >> p & 1:
            out |= 1 << p
    return out


def _table_to_subset_alt(r: _EdgeRanks, table: Table) -> int:
    out = 0
    for p, k in enumerate(r.punctured):
        if table[r.cone[p]] != table[k]:
            out |= 1 << p
    return out


def _table_to_subset_via_topology(r: _EdgeRanks, table: Table) -> int:
    down = r.down
    out = 0
    for p, pairs in enumerate(r.sieves):
        bit = 1 << p
        if [s for s, k in pairs if table[k] & bit] == [down[p]]:
            out |= bit
    return out


def _subset_to_families(r: _EdgeRanks, x: int) -> Families:
    # a sieve on p contains X & (down p) exactly when it contains its down-closure
    lower = r.lower
    return tuple([cover[lower[x & d]] for cover, d in zip(r.covering, r.down)])


def _families_to_subset(r: _EdgeRanks, families: Families) -> int:
    down = r.down
    out = 0
    for p, fam in enumerate(families):
        if fam == (down[p],):
            out |= 1 << p
    return out


def _table_to_families(r: _EdgeRanks, table: Table) -> Families:
    fams = []
    for p, pairs in enumerate(r.sieves):
        bit = 1 << p
        fams.append(tuple([s for s, k in pairs if table[k] & bit]))
    return tuple(fams)


def _families_to_table(r: _EdgeRanks, families: Families) -> Table:
    cols = []
    for p, fam in enumerate(families):
        memo = r.columns[p]
        col = memo.get(fam)
        if col is None:
            # bit p at downset i when S_i meet the cone of p is in J(p)
            covers = set(fam)
            bit = 1 << p
            col = memo[fam] = tuple([bit if c in covers else 0 for c in r.cuts[p]])
        cols.append(col)
    # each column holds only its own bit, so the sum is the union; the list
    # sizes the tuple once (a tuple grown from an iterator is reallocated).
    # With n = 0 there are no columns, and the one downset's image is empty.
    return tuple([*map(sum, zip(*cols))]) or (0,)


# -- the public edges ------------------------------------------------------


def subset_to_nucleus(x: Subset) -> Nucleus:
    """The nucleus S |-> (x -> S)."""
    return Nucleus._wrap(x.poset, _subset_to_table(_edge_ranks(x.poset), x.mask))


def nucleus_to_subset(j: Nucleus) -> Subset:
    """The points p not swallowed by j applied to everything strictly below p."""
    return Subset._wrap(j.poset, _table_to_subset(_edge_ranks(j.poset), j.images))


def nucleus_to_subset_alt(j: Nucleus) -> Subset:
    """Alternate extraction: p where j separates the cone of p from the punctured cone."""
    return Subset._wrap(j.poset, _table_to_subset_alt(_edge_ranks(j.poset), j.images))


def nucleus_to_subset_via_topology(j: Nucleus) -> Subset:
    """Composite extraction in closed form.

    Going nucleus -> topology -> subset asks, for each point p, that the
    principal downset be the only sieve S on p with p in j(S); this
    evaluates that condition directly.
    """
    return Subset._wrap(
        j.poset, _table_to_subset_via_topology(_edge_ranks(j.poset), j.images)
    )


def subset_to_topology(x: Subset) -> GrothendieckTopology:
    """Covers at p are the sieves containing x cut down to the cone of p."""
    return GrothendieckTopology._wrap(
        x.poset, _subset_to_families(_edge_ranks(x.poset), x.mask)
    )


def topology_to_subset(J: GrothendieckTopology) -> Subset:
    """The points covered by nothing but their own principal downset."""
    return Subset._wrap(J.poset, _families_to_subset(_edge_ranks(J.poset), J.families))


def nucleus_to_topology(j: Nucleus) -> GrothendieckTopology:
    """Covers at p are the sieves sent over p by the nucleus."""
    return GrothendieckTopology._wrap(
        j.poset, _table_to_families(_edge_ranks(j.poset), j.images)
    )


def topology_to_nucleus(J: GrothendieckTopology) -> Nucleus:
    """j(S) collects the points where S pulls back to a covering sieve."""
    return Nucleus(J.poset, _families_to_table(_edge_ranks(J.poset), J.families))


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


def _law(name: str, witness: dict[str, Any] | None) -> LawResult:
    return LawResult(name, witness is None, witness)


def _failure(check, r: _EdgeRanks, value) -> dict[str, Any] | None:
    """The witness of a failed validator core, or None if ``value`` passes."""
    try:
        check(r.poset, value)
    except TriposetError as exc:
        return {"error": str(exc), "kind": type(exc).__name__}
    return None


class _Corner:
    """One corner of the triangle: ``values`` by number and ``number`` back.

    The first ``size`` numbers are the census, where the first occurrence
    of a value wins; a kernel output outside it takes the next number.
    ``scan`` lists the census numbers in the order the laws visit them.
    """

    __slots__ = ("values", "number", "size", "scan", "key", "show")

    def __init__(self, values, scan, key: str, show):
        number = self.number = dict.fromkeys(values)
        self.values = list(number)
        self.size = len(number)
        number.update(zip(self.values, range(self.size)))
        self.scan = [number[v] for v in scan]
        self.key, self.show = key, show

    def numbers(self, outputs: list) -> list[int]:
        got = list(map(self.number.get, outputs))
        if None in got:  # an output outside the corner so far
            got = [self.add(w) if k is None else k for k, w in zip(got, outputs)]
        return got

    def add(self, value) -> int:
        k = self.number.get(value)
        if k is None:
            k = self.number[value] = len(self.values)
            self.values.append(value)
        return k


class _Tail(dict):
    """An edge by source number once a corner has grown past its census:
    the census entries are copied in, and any other entry is computed the
    first time a law reads it."""

    __slots__ = ("entry",)

    def __init__(self, filled: list, entry):
        super().__init__(enumerate(filled))
        self.entry = entry

    def __missing__(self, k: int):
        value = self[k] = self.entry(k)
        return value


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

    Each corner of the triangle is numbered once: a subset by its mask, a
    nucleus (its image masks) or a topology (its family tuple) by its
    position in the census.  The poset's edge table is read once.  Each edge
    kernel and each validator core runs once per census value before the
    laws, into a list indexed by source number, so the laws compare ints.  A kernel output outside the census
    takes the next number, and its own entries are computed only when a law
    reads them; nothing runs twice on one input.  Apart from the enumerated
    values, objects are built only to serialize a witness.  Both
    enumeration caps are checked before any work starts.
    """
    t0 = perf_counter()
    _require_nucleus_cap(poset, nucleus_cap)
    _require_topology_cap(poset, topology_cap)
    n = poset.n
    xs = _canonical(range(1 << n))
    tables = [j.images for j in enumerate_nuclei(poset, cap=nucleus_cap)]
    fams = [J.families for J in enumerate_topologies(poset, cap=topology_cap)]
    counts = {"subsets": len(xs), "nuclei": len(tables), "topologies": len(fams)}

    # a corner shows a value as its object's JSON
    S = _Corner(range(1 << n), xs, "subset", lambda x: Subset._wrap(poset, x).to_jsonable())
    N = _Corner(tables, tables, "nucleus", lambda t: Nucleus._wrap(poset, t).to_jsonable())
    T = _Corner(fams, fams, "topology",
                lambda f: GrothendieckTopology._wrap(poset, f).to_jsonable())
    # (kernel, source, target) per edge; a validator maps to its witness
    specs = (
        (_subset_to_table, S, N),
        (_subset_to_families, S, T),
        (_table_to_subset, N, S),
        (_table_to_families, N, T),
        (_families_to_subset, T, S),
        (_families_to_table, T, N),
        (_table_to_subset_alt, N, S),
        (_table_to_subset_via_topology, N, S),
        (partial(_failure, _check_nucleus), N, None),
        (partial(_failure, _check_topology), T, None),
    )
    r = _edge_ranks(poset)
    # every census value runs before any output is numbered and appended
    outputs = [list(map(fn, repeat(r), source.values)) for fn, source, _ in specs]
    edges = [out if t is None else t.numbers(out) for out, (_, _, t) in zip(outputs, specs)]

    def entry(fn, source, target, k):
        got = fn(r, source.values[k])
        return got if target is None else target.add(got)

    if any(len(c.values) > c.size for c in (S, N, T)):
        edges = [_Tail(e, partial(entry, *spec)) for e, spec in zip(edges, specs)]
    s2n, s2t, n2s, n2t, t2s, t2n, alt, via, nucleus_failure, topology_failure = edges

    def roundtrip(kind, there, back):
        values, show = kind.values, kind.show
        for v in kind.scan:
            got = back[there[v]]
            if got != v:
                return {kind.key: show(values[v]), "got": show(values[got])}
        return None

    def agree(kind, target, name_a, first, then, name_b, direct):
        for v in kind.scan:
            got_a, got_b = then[first[v]], direct[v]
            if got_a != got_b:
                values, show = target.values, target.show
                return {kind.key: kind.show(kind.values[v]),
                        name_a: show(values[got_a]), name_b: show(values[got_b])}
        return None

    def extraction_agreement(other):
        for i, k in enumerate(N.scan):
            if other[k] != n2s[k]:
                direct, got = S.values[n2s[k]], S.values[other[k]]
                diff = direct ^ got
                p = (diff & -diff).bit_length() - 1
                return {
                    "nucleus": N.show(N.values[k]),
                    "direct": S.show(direct),
                    "other": S.show(got),
                    "first_difference": poset.labels[p],
                    "nucleus_index": i,
                }
        return None

    def count(found):
        return None if found == 1 << n else {"expected": 1 << n, "got": found}

    def bijection(edge, target):
        image = {edge[x] for x in xs}
        if len(image) != len(xs):
            return {"reason": "not injective", "image_size": len(image)}
        if image != set(target.scan):
            return {"reason": "image differs from enumeration"}
        return None

    def validity(kind, edge, failure):
        for v in kind.scan:
            witness = failure[edge[v]]
            if witness is not None:
                return {"input": kind.show(kind.values[v]), **witness}
        return None

    laws = (
        _law("subset_nucleus_roundtrip", roundtrip(S, s2n, n2s)),
        _law("subset_topology_roundtrip", roundtrip(S, s2t, t2s)),
        _law("nucleus_roundtrip", roundtrip(N, n2s, s2n)),
        _law("topology_roundtrip", roundtrip(T, t2s, s2t)),
        _law("nucleus_topology_roundtrip", roundtrip(N, n2t, t2n)),
        _law("topology_nucleus_roundtrip", roundtrip(T, t2n, n2t)),
        _law("triangle_commutes_via_nucleus",
             agree(S, T, "via_nucleus", s2n, n2t, "direct", s2t)),
        _law("triangle_commutes_via_topology",
             agree(S, N, "via_topology", s2t, t2n, "direct", s2n)),
        _law("identity_composite", extraction_agreement(via)),
        _law("identity_alt", extraction_agreement(alt)),
        _law("composite_cross_check", agree(N, S, "literal", n2t, t2s, "closed_form", via)),
        _law("nucleus_count", count(len(tables))),
        _law("topology_count", count(len(fams))),
        _law("nucleus_bijection", bijection(s2n, N)),
        _law("topology_bijection", bijection(s2t, T)),
        _law("subset_to_nucleus_valid", validity(S, s2n, nucleus_failure)),
        _law("subset_to_topology_valid", validity(S, s2t, topology_failure)),
        _law("nucleus_to_topology_valid", validity(N, n2t, topology_failure)),
        _law("topology_to_nucleus_valid", validity(T, t2n, nucleus_failure)),
    )
    return TriangleReport(
        poset=poset,
        directed=poset.is_downward_directed(),
        counts=counts,
        laws=laws,
        elapsed_seconds=perf_counter() - t0,
    )
