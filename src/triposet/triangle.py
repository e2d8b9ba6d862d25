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
w-bit ints whose bit k is one bit of value k: n planes for subsets (plane q
holds point q), d * n for nuclei (plane i * n + p holds bit p of the image
of the i-th downset) and one membership plane per point p and sieve on p for
topologies.  This module holds the whole encoding in three corner records
(subsets, nuclei, topologies), each holding its lift, its decoder, its value
class and its key in a witness.  One transpose lifts subsets and image masks
and, as :func:`_columns`, lowers every batch to its columns, one int per
lane, which the corner decodes to values; families are lifted sieve by
sieve.  A kernel maps planes to planes with a few ``&``, ``|`` and ``^``
each, given the layout the enumerators also read (:class:`poset._Layout`),
of which only the kernels read the plane index maps ``alt``, ``push`` and
``pull``; it reads only what planes hold, the bits below n of an image and
the sieves of a family.  A public edge runs its kernel on a batch of one.

:func:`verify_triangle` runs the whole law suite on one poset.  Counts come
only from the censuses, never from the conversions under test (the two
censuses run one search, so they are not independent of each other), and
each census stays in generators: T_p = j(M_p) of each nucleus and the least
covering sieves m_p of each topology, n masks per value.  A census batch has
one lane per generator tuple, in the order the search returns them: the
tuples are transposed once and lifted straight to planes, the images as the
meets of the T_p and the families as the sieves containing the m_p.  The
kernels run on three batches (all subsets and the two censuses), and the
plane checks of :mod:`nucleus` and :mod:`topology` validate each census
batch once, also flagging a value whose generators are not its own.  The
laws are one table, in report order, each row naming a law, the finder of
its witness and the batches it reads; the roundtrip, commutation and
extraction laws read two batches.  Every law passes when the planes hold
both generator censuses exactly, both counts are 2^n, neither census repeats
a generator tuple, both censuses validate and the two batches of every
two-batch law are equal, because then the other laws follow:

* distinct values: each validated value has its own generators, so T |-> j
  and m |-> J are one-to-one on the censuses, which hold 2^n values each;
* bijections: the subset roundtrip makes subset -> nucleus injective, the
  nucleus roundtrip puts every census value in its image, and the census
  holds 2^n distinct values, so the image is the census; likewise for
  topologies;
* validity of outputs: so the subset edges' images are the censuses, which
  validated, and by commutation the census of each corner maps onto the
  other's.

Then the report passes every row.  Otherwise :func:`_law_by_law` lowers each
census batch once to its columns and decodes them to list the census in
canonical order, so each listed value is what its lane holds, and hands each
row to its finder, which compares the row's batches on planes and lowers
only the lanes of the law's witness; it runs no kernel.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import cache, reduce
from itertools import chain
from operator import or_, xor
from time import perf_counter
from typing import Any

from .errors import TriposetError
from .heyting import implication_mask  # noqa: F401 -- looked up here by perfbench
from .nucleus import (
    DEFAULT_NUCLEUS_CAP,
    Nucleus,
    _check_nucleus,
    _in_order,
    _nucleus_fails,
    _nucleus_generators,
    _require_nucleus_cap,
    enumerate_nuclei,  # noqa: F401 -- looked up here by perfbench
    validate_nucleus,  # noqa: F401 -- looked up here by tests and perfbench
)
from .poset import Poset, Subset, _canonical, _Layout, _layout
from .topology import (
    DEFAULT_TOPOLOGY_CAP,
    GrothendieckTopology,
    _check_topology,
    _require_topology_cap,
    _topology_fails,
    _topology_generators,
    enumerate_topologies,  # noqa: F401 -- looked up here by perfbench
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


# -- the edge kernels: planes in, planes out; ``ones`` is the batch's all-ones plane


def _subset_to_table(r: _Layout, planes: list[int], ones: int) -> list[int]:
    # q is in X -> S when no point of X lies in (down q) - S; a meet step
    # S_i = S_k - p adds p to that set for the points q above p
    # plain loops: CPython 3.11 builds and calls a function for every comprehension
    spread = []
    for x, above in zip(planes, r.above):
        row, out = [ones] * r.n, ones ^ x
        for q in above:
            row[q] = out
        spread.append(row)
    return r.meets(spread, ones)


def _table_to_subset(r: _Layout, planes: list[int], ones: int) -> list[int]:
    return [ones ^ planes[less + p] for p, (_, less) in enumerate(r.alt)]


def _table_to_subset_alt(r: _Layout, planes: list[int], ones: int) -> list[int]:
    n = r.n
    return [reduce(or_, map(xor, planes[a : a + n], planes[b : b + n]), 0) for a, b in r.alt]


def _table_to_subset_via_topology(r: _Layout, planes: list[int], ones: int) -> list[int]:
    # the principal downset is the last sieve on p
    at = [planes[k] for k in r.push]
    return [at[span[-1]] & ~reduce(or_, at[span.start : span[-1]], 0) for span in r.ranges]


def _subset_to_families(r: _Layout, planes: list[int], ones: int) -> list[int]:
    # J(p) is the sieves on p containing X & (down p): m_p is X at every p
    return r.covering([ones ^ x for x in planes] * r.n, ones)


def _families_to_subset(r: _Layout, planes: list[int], ones: int) -> list[int]:
    return [planes[span[-1]] & ~reduce(or_, planes[span.start : span[-1]], 0)
            for span in r.ranges]


def _table_to_families(r: _Layout, planes: list[int], ones: int) -> list[int]:
    return list(map(planes.__getitem__, r.push))


def _families_to_table(r: _Layout, planes: list[int], ones: int) -> list[int]:
    return list(map(planes.__getitem__, r.pull))


# -- each corner: its values to planes, and a batch of w back


@cache
def _bit_tables() -> tuple[bytes, ...]:
    """Per bit b < 8, the translation of a byte to the digit of its bit b."""
    return tuple(bytes(b"01"[v >> b & 1] for v in range(256)) for b in range(8))


def _transpose(values: Iterable[int], width: int) -> list[int]:
    """The bit planes of a batch of ``values`` below 2**width, plane b an
    int whose bit k is bit b of value k; any other value raises ValueError
    or OverflowError.  Packed big-endian, (width + 7) // 8 bytes each (one
    when width <= 8), and reversed, the blob holds the values last first and
    little-endian; plane b is its column of bytes b // 8, cut out first and
    then translated to the digits of bit b % 8, so a plane reads one column."""
    size = max(1, (width + 7) >> 3)
    blob = (bytes(values) if size == 1
            else b"".join([v.to_bytes(size, "big") for v in values]))[::-1]
    if blob[size - 1 :: size].translate(None, bytes(range(1 << width + 8 - 8 * size))):
        raise ValueError(f"a value is not below 2**{width}")
    if not blob:
        return [0] * width
    return [int(blob[b >> 3 :: size].translate(_bit_tables()[b & 7]), 2) for b in range(width)]


def _columns(planes: Sequence[int], w: int) -> list[int]:
    """The ``w`` values of a batch: bit j of value k is bit k of ``planes[j]``,
    which is :func:`_transpose` with the planes as its values.  Bits past
    lane w - 1 are not read, so a plane below 0 or past the batch lowers too."""
    return _transpose(map(((1 << w) - 1).__and__, planes), w)


def _mask_planes(values: Sequence[Sequence[int]], width: int,
                 fields: int) -> tuple[list[int], bool]:
    """The planes of a batch of ``fields``-tuples of masks, plane f * width
    + b holding bit b of field f, no bit of a mask past ``width`` read, and
    whether they hold the batch exactly: every mask in 0..2**width - 1.
    The masks are transposed as one batch, field f of value k in lane
    f * w + k, whose planes are cut into the fields."""
    w, ones, flat = len(values), (1 << len(values)) - 1, list(chain.from_iterable(zip(*values)))
    try:
        planes, exact = _transpose(flat, width), True
    except (ValueError, OverflowError):  # a mask below 0 or past the width
        planes, exact = _transpose([m & (1 << width) - 1 for m in flat], width), False
    return [plane >> f * w & ones for f in range(fields) for plane in planes], exact


def _family_planes(r: _Layout, batch: Sequence[Sequence[tuple]]) -> list[int]:
    """The planes of a batch of families: the layout's plane ``index[p][s]``
    has bit k when s is in ``batch[k][p]``; other masks are not read.  Bit by
    bit, as a transpose would pack all ``r.size`` planes of each family."""
    planes = [0] * r.size
    for k, families in enumerate(batch):
        for at, fam in zip(r.index, families):
            for s in fam:
                if s in at:
                    planes[at[s]] |= 1 << k
    return planes


def _decode_tables(r: _Layout, columns: list[int]) -> list[Table]:
    full, shifts = r.poset.full_mask, [i * r.n for i in range(r.d)]
    return [tuple([c >> s & full for s in shifts]) for c in columns]


def _decode_families(r: _Layout, columns: list[int]) -> list[Families]:
    return [tuple([tuple([s for j, s in enumerate(sieves, span.start) if c >> j & 1])
                   for span, sieves in zip(r.ranges, r.sieves)]) for c in columns]


# one corner of the triangle: its key in a witness, the class of its values,
# lift(r, values) to planes and decode(r, columns), the values of the columns
# that _columns lowers a batch of its planes to
_Corner = namedtuple("_Corner", "key cls lift decode")


_SUBSET = _Corner("subset", Subset, lambda r, xs: _transpose(xs, r.n), lambda r, columns: columns)
_NUCLEUS = _Corner("nucleus", Nucleus, lambda r, tables: _mask_planes(tables, r.n, r.d)[0],
                   _decode_tables)
_TOPOLOGY = _Corner("topology", GrothendieckTopology, _family_planes, _decode_families)


def _all_subsets(n: int, ones: int) -> list[int]:
    """The planes of all 2^n subsets, subset k in lane k: 2^q 0s, 2^q 1s, ... in plane q."""
    return [ones // ((1 << (2 << q)) - 1) * (((1 << (1 << q)) - 1) << (1 << q)) for q in range(n)]


def _on_one(kernel, source: _Corner, target: _Corner, poset: Poset, value):
    """``kernel`` on a batch of one ``source`` value, as a ``target`` object."""
    r = _layout(poset)
    planes = kernel(r, source.lift(r, [value]), 1)
    return target.cls._wrap(poset, target.decode(r, _columns(planes, 1))[0])


# -- the public edges ------------------------------------------------------


def subset_to_nucleus(x: Subset) -> Nucleus:
    """The nucleus S |-> (x -> S)."""
    return _on_one(_subset_to_table, _SUBSET, _NUCLEUS, x.poset, x.mask)


def nucleus_to_subset(j: Nucleus) -> Subset:
    """The points p not swallowed by j applied to everything strictly below p."""
    return _on_one(_table_to_subset, _NUCLEUS, _SUBSET, j.poset, j.images)


def nucleus_to_subset_alt(j: Nucleus) -> Subset:
    """Alternate extraction: p where j separates the cone of p from the punctured cone."""
    return _on_one(_table_to_subset_alt, _NUCLEUS, _SUBSET, j.poset, j.images)


def nucleus_to_subset_via_topology(j: Nucleus) -> Subset:
    """Composite extraction in closed form.

    Going nucleus -> topology -> subset asks, for each point p, that the
    principal downset be the only sieve S on p with p in j(S); this
    evaluates that condition directly.
    """
    return _on_one(_table_to_subset_via_topology, _NUCLEUS, _SUBSET, j.poset, j.images)


def subset_to_topology(x: Subset) -> GrothendieckTopology:
    """Covers at p are the sieves containing x cut down to the cone of p."""
    return _on_one(_subset_to_families, _SUBSET, _TOPOLOGY, x.poset, x.mask)


def topology_to_subset(J: GrothendieckTopology) -> Subset:
    """The points covered by nothing but their own principal downset."""
    return _on_one(_families_to_subset, _TOPOLOGY, _SUBSET, J.poset, J.families)


def nucleus_to_topology(j: Nucleus) -> GrothendieckTopology:
    """Covers at p are the sieves sent over p by the nucleus."""
    return _on_one(_table_to_families, _NUCLEUS, _TOPOLOGY, j.poset, j.images)


def topology_to_nucleus(J: GrothendieckTopology) -> Nucleus:
    """j(S) collects the points where S pulls back to a covering sieve."""
    r = _layout(J.poset)
    planes = _families_to_table(r, _TOPOLOGY.lift(r, [J.families]), 1)
    return Nucleus(J.poset, _NUCLEUS.decode(r, _columns(planes, 1))[0])


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


def verify_triangle(
    poset: Poset,
    *,
    nucleus_cap: int = DEFAULT_NUCLEUS_CAP,
    topology_cap: int = DEFAULT_TOPOLOGY_CAP,
) -> TriangleReport:
    """Exhaustively check every triangle law on one poset.

    Round trips and commutation are checked over all 2^n subsets; the
    identity laws over every enumerated nucleus; counts and bijections
    against the conversion-free axiom censuses.  A failing law
    records a minimal witness and the remaining laws still run.

    Every kernel runs once on each batch it reads, and each census batch
    is validated once.  The laws are written once, in the table ``laws``,
    one row per law in report order: its name, the finder of its witness in
    :func:`_law_by_law`, the corner whose values it visits, the corner of
    its batches, its witness keys and its batches.  A census batch has one
    lane per generator tuple the search returned.  When every law passes on
    planes (see the module docstring) the report passes every row;
    otherwise :func:`_law_by_law` lists each census off its batch and finds
    the witnesses in the same batches.  Both caps are checked before any
    work starts.
    """
    t0 = perf_counter()
    _require_nucleus_cap(poset, nucleus_cap)
    _require_topology_cap(poset, topology_cap)
    n = poset.n
    Ts, ms = _nucleus_generators(poset), _topology_generators(poset)
    counts = {"subsets": 1 << n, "nuclei": len(Ts), "topologies": len(ms)}

    r = _layout(poset)
    (T, exact_T), (m, exact_m) = _mask_planes(Ts, n, n), _mask_planes(ms, n, n)
    ones, on, ot = ((1 << w) - 1 for w in (1 << n, len(Ts), len(ms)))
    xs = _all_subsets(n, ones)
    js = r.meets([T[p * n : p * n + n] for p in range(n)], on)
    Js = r.covering([ot ^ x for x in m], ot)
    s2n, s2t = _subset_to_table(r, xs, ones), _subset_to_families(r, xs, ones)
    n2s, n2t = _table_to_subset(r, js, on), _table_to_families(r, js, on)
    alt, via = _table_to_subset_alt(r, js, on), _table_to_subset_via_topology(r, js, on)
    t2s, t2n = _families_to_subset(r, Js, ot), _families_to_table(r, Js, ot)
    S, N, J, got = _SUBSET, _NUCLEUS, _TOPOLOGY, ("got",)
    laws = (
        ("subset_nucleus_roundtrip", "agree", S, S, got, (_table_to_subset(r, s2n, ones), xs)),
        ("subset_topology_roundtrip", "agree", S, S, got, (_families_to_subset(r, s2t, ones), xs)),
        ("nucleus_roundtrip", "agree", N, N, got, (_subset_to_table(r, n2s, on), js)),
        ("topology_roundtrip", "agree", J, J, got, (_subset_to_families(r, t2s, ot), Js)),
        ("nucleus_topology_roundtrip", "agree", N, N, got, (_families_to_table(r, n2t, on), js)),
        ("topology_nucleus_roundtrip", "agree", J, J, got, (_table_to_families(r, t2n, ot), Js)),
        ("triangle_commutes_via_nucleus", "agree", S, J, ("via_nucleus", "direct"),
         (_table_to_families(r, s2n, ones), s2t)),
        ("triangle_commutes_via_topology", "agree", S, N, ("via_topology", "direct"),
         (_families_to_table(r, s2t, ones), s2n)),
        ("identity_composite", "extraction", N, S, (), (via, n2s)),
        ("identity_alt", "extraction", N, S, (), (alt, n2s)),
        ("composite_cross_check", "agree", N, S, ("literal", "closed_form"),
         (_families_to_subset(r, n2t, on), via)),
        ("nucleus_count", "count", N, N, (), ()),
        ("topology_count", "count", J, J, (), ()),
        ("nucleus_bijection", "bijection", S, N, (), (s2n,)),
        ("topology_bijection", "bijection", S, J, (), (s2t,)),
        ("subset_to_nucleus_valid", "validity", S, N, (), (s2n,)),
        ("subset_to_topology_valid", "validity", S, J, (), (s2t,)),
        ("nucleus_to_topology_valid", "validity", N, J, (), (n2t,)),
        ("topology_to_nucleus_valid", "validity", J, N, (), (t2n,)),
    )
    if (
        exact_T and exact_m
        and len(Ts) == len(set(Ts)) == len(ms) == len(set(ms)) == 1 << n
        and not _nucleus_fails(poset, js, on, T) and not _topology_fails(poset, Js, ot, m)
        and all(len(batches) < 2 or batches[0] == batches[1] for _, _, _, _, _, batches in laws)
    ):
        results = tuple(LawResult(name, True) for name, _, _, _, _, _ in laws)
    else:
        results = _law_by_law(r, ((js, len(Ts)), (Js, len(ms))), laws)
    return TriangleReport(
        poset=poset,
        directed=poset.is_downward_directed(),
        counts=counts,
        laws=results,
        elapsed_seconds=perf_counter() - t0,
    )


def _law_by_law(r: _Layout, census: tuple, laws: tuple):
    """Every law with its witness: each row of ``laws``, the table
    :func:`verify_triangle` built, goes to the finder it names, which reads
    the row's corners, keys and batches.  A batch spans all subsets or the
    generator tuples of a census as searched, lane k holding the value of
    tuple k; ``census`` holds the planes and width of each census batch.
    Each is lowered once to its columns, which are decoded to list those
    values, and a census is visited in canonical order, one value per lane.
    A two-batch law ORs ``a ^ b`` over its planes, and its witness is the
    first value visited whose lane is set, each side lowered from that lane
    alone; a bijection compares the columns of its output batch with the
    census's, as decoding is one-to-one on columns.  A validity law flags
    its output batch on planes and runs the validator core on the first
    flagged value, lowered alone; the two laws that validate one corner
    share the core's witnesses, so no value is scanned twice."""
    poset, n = r.poset, r.n
    S, N, J = _SUBSET, _NUCLEUS, _TOPOLOGY
    columns = {c: _columns(planes, w) for c, (planes, w) in zip((N, J), census)}
    listed = {S: range(1 << n), N: N.decode(r, columns[N]), J: J.decode(r, columns[J])}
    visits = {S: _canonical(listed[S]), N: _in_order(listed[N]), J: sorted(listed[J])}
    lanes = {c: {v: k for k, v in enumerate(values)} for c, values in listed.items()}
    memo = {N: {}, J: {}}  # the validator core's witness of each value it ran on

    def shown(kind, v):
        return kind.cls._wrap(poset, v).to_jsonable()

    def at(target, planes, k):
        return target.decode(r, _columns([p >> k for p in planes], 1))[0]

    def differ(kind, target, a, b):
        """The first value of ``kind`` whose lanes in ``a`` and ``b`` differ:
        its index, it and both sides, each lowered from that lane alone."""
        diff, lane = reduce(or_, map(xor, a, b), 0), lanes[kind]
        for i, v in enumerate(visits[kind]):
            k = lane[v]
            if diff >> k & 1:
                return i, v, at(target, a, k), at(target, b, k)
        return None

    def agree(kind, target, keys, a, b):
        hit = differ(kind, target, a, b)
        return hit and {kind.key: shown(kind, hit[1]),
                        **{key: shown(target, side) for key, side in zip(keys, hit[2:])}}

    def extraction(kind, target, keys, other, direct):
        hit = differ(kind, target, other, direct)
        if hit is None:
            return None
        i, j, other, direct = hit
        diff = direct ^ other
        return {
            kind.key: shown(kind, j),
            "direct": shown(target, direct),
            "other": shown(target, other),
            "first_difference": poset.labels[(diff & -diff).bit_length() - 1],
            "nucleus_index": i,
        }

    def count(kind, target, keys):
        found = len(visits[kind])
        return None if found == 1 << n else {"expected": 1 << n, "got": found}

    def bijection(kind, target, keys, planes):
        image = set(_columns(planes, len(listed[kind])))
        if len(image) != 1 << n:
            return {"reason": "not injective", "image_size": len(image)}
        if image != set(columns[target]):
            return {"reason": "image differs from enumeration"}
        return None

    def validity(kind, target, keys, planes):
        fails, check = ((_nucleus_fails, _check_nucleus) if target is N
                        else (_topology_fails, _check_topology))
        bad = fails(poset, planes, (1 << len(listed[kind])) - 1)
        if not bad:
            return None
        # the laws visit every lane, and a flagged value fails its core
        v = next(v for v in visits[kind] if bad >> lanes[kind][v] & 1)
        out, seen = at(target, planes, lanes[kind][v]), memo[target]
        if out not in seen:
            try:
                check(poset, out)
            except TriposetError as exc:
                seen[out] = {"error": str(exc), "kind": type(exc).__name__}
            else:
                raise AssertionError(f"the {target.key} plane check flagged {shown(target, out)}"
                                     f" from {kind.key} {shown(kind, v)}, which its validator"
                                     " accepts")
        return {"input": shown(kind, v), **seen[out]}

    finders = {"agree": agree, "extraction": extraction, "count": count,
               "bijection": bijection, "validity": validity}
    results = []
    for name, finder, kind, target, keys, batches in laws:
        witness = finders[finder](kind, target, keys, *batches)
        results.append(LawResult(name, witness is None, witness))
    return tuple(results)
