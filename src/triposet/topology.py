"""Grothendieck topologies on a finite poset.

A topology assigns to every point ``p`` a family J(p) of sieves on ``p``
(downsets contained in the principal downset of ``p``) subject to:

* maximality: the principal downset itself is in J(p);
* stability: S in J(p) and q <= p imply S intersect (down q) in J(q);
* transitivity: if S in J(p) and R is a sieve on p whose pullback to every
  q in S lies in J(q), then R in J(p).

Families are stored per point as tuples of sieve masks in canonical order.
Covering sieves are closed under intersection, so J(p) is the sieves on p
above a least covering sieve m_p.  The census lists these generators of
each topology by the search the nucleus census also runs, here on the
downsets; :func:`_families` expands them.  The validator checks one value
sieve by sieve and names the first failure; :func:`_topology_fails`
decides a whole batch of families at once on bit planes, as the nucleus
check does: it reads each value's m_p off its planes and checks the value
against them.  The search, the expansion and the plane check read the
sieves off the poset's shared layout (:class:`poset._Layout`).  Like the
nucleus module, this works from the axioms alone and never reads the
conversions or their layout maps: the two censuses are independent of the
conversions, not of each other.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from functools import reduce
from itertools import chain
from operator import or_, xor

from .errors import (
    CapExceededError,
    MissingMaximalError,
    NotASieveError,
    PosetMismatchError,
    StabilityFailError,
    TransitivityFailError,
)
from .poset import DownSet, Poset, Subset, _bits, _canonical, _layout, _least_generators

__all__ = [
    "DEFAULT_TOPOLOGY_CAP",
    "GrothendieckTopology",
    "enumerate_topologies",
    "validate_topology",
]

DEFAULT_TOPOLOGY_CAP = 5  # poset size; the result holds 2**n topologies, one per subset


class GrothendieckTopology:
    """Per-point covering families over a fixed poset.

    ``families[p]`` holds the sieve masks covering point ``p``, canonically
    ordered.  The constructor normalizes them and rejects a mask as
    ``Subset(poset, mask)`` does; masks that are not sieves pass (the
    conversions read only sieves), and :func:`validate_topology` checks them.
    """

    __slots__ = ("poset", "families")

    def __init__(self, poset: Poset, families: Sequence[Iterable[int]]):
        if len(families) != poset.n:
            raise ValueError(
                f"{len(families)} families for a poset with {poset.n} elements"
            )
        self.poset = poset
        self.families = tuple(_canonical(Subset(poset, m).mask for m in f) for f in families)

    @classmethod
    def _wrap(cls, poset: Poset, families: tuple[tuple[int, ...], ...]):
        """Trusted constructor: ``families`` is already canonical."""
        obj = object.__new__(cls)
        obj.poset = poset
        obj.families = families
        return obj

    def sieves_at(self, p: int) -> tuple[DownSet, ...]:
        """The covering family at ``p`` in canonical order."""
        return tuple(DownSet._wrap(self.poset, m) for m in self.families[p])

    def to_jsonable(self) -> dict[str, list[list[str]]]:
        return {
            self.poset.labels[p]: [
                DownSet._wrap(self.poset, m).to_jsonable() for m in self.families[p]
            ]
            for p in range(self.poset.n)
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GrothendieckTopology):
            return NotImplemented
        return self.families == other.families and (
            self.poset is other.poset or self.poset == other.poset
        )

    def __hash__(self) -> int:
        return hash((self.poset, self.families))

    def __repr__(self) -> str:
        parts = []
        for p in range(self.poset.n):
            sieves = " ".join(str(s) for s in self.sieves_at(p))
            parts.append(f"{self.poset.labels[p]}: {sieves}")
        return f"GrothendieckTopology({'; '.join(parts)})"


def validate_topology(
    poset: Poset,
    families: Sequence[Iterable[Subset]] | Mapping[str, Iterable[Subset]],
) -> GrothendieckTopology:
    """Check covering families against the topology axioms and wrap them.

    ``families`` is indexed by element, either positionally or as a mapping
    from labels; every element must be present (``ValueError`` otherwise).
    Axioms are checked in the order: sieve-hood of every listed set,
    maximality, stability, transitivity; the first violation raises with
    point and sieve witnesses, scanning points ascending and sieves in
    canonical order.
    """
    if isinstance(families, Mapping):
        seq: list[Iterable[Subset]] = [None] * poset.n  # type: ignore[list-item]
        for label, fam in families.items():
            seq[poset.index(label)] = fam
        missing = [poset.labels[i] for i, f in enumerate(seq) if f is None]
        if missing:
            raise ValueError(f"no covering family for {missing[0]!r}")
        families = seq
    elif len(families) != poset.n:
        raise ValueError(
            f"{len(families)} families for a poset with {poset.n} elements"
        )

    def masks_at(p: int) -> tuple[int, ...]:
        entries = []
        for s in families[p]:
            if s.poset is not poset and s.poset != poset:
                raise PosetMismatchError("sieve belongs to a different poset")
            entries.append(s.mask)
        return _canonical(entries)

    # lazily, so a foreign sieve at one point is still reported after the
    # sieve checks of the points before it
    return GrothendieckTopology._wrap(
        poset, _check_topology(poset, (masks_at(p) for p in range(poset.n)))
    )


def _check_topology(
    poset: Poset, families: Iterable[tuple[int, ...]]
) -> tuple[tuple[int, ...], ...]:
    """The axiom checks of :func:`validate_topology` on sieve masks, one
    canonically ordered tuple per point, sieve by sieve in the order it
    states: raises the first violation with its witnesses, else returns
    the families as a tuple.  The families are read point by point, as the
    sieve check reaches them."""
    rank = poset._downset_ranks()
    down = poset._down
    cones = [tuple(_bits(c)) for c in down]
    fam_masks: list[tuple[int, ...]] = []
    for p, entries in enumerate(families):
        for m in entries:
            if m & ~down[p] or m not in rank:
                raise NotASieveError(poset.labels[p], Subset._wrap(poset, m))
        fam_masks.append(entries)

    fam_sets = [set(f) for f in fam_masks]
    for p in range(poset.n):
        if down[p] not in fam_sets[p]:
            raise MissingMaximalError(poset.labels[p])
    for p in range(poset.n):
        for s in fam_masks[p]:
            for q in cones[p]:
                if q != p and s & down[q] not in fam_sets[q]:
                    raise StabilityFailError(
                        poset.labels[p], poset.labels[q], DownSet._wrap(poset, s)
                    )
    for p in range(poset.n):
        for r in poset.sieve_masks(p):
            if r in fam_sets[p]:
                continue
            # the points where r pulls back to a cover: r breaks
            # transitivity exactly when some S in J(p) lies inside them
            covered = 0
            for q in cones[p]:
                if r & down[q] in fam_sets[q]:
                    covered |= 1 << q
            for s in fam_masks[p]:
                if not s & ~covered:
                    raise TransitivityFailError(
                        poset.labels[p],
                        DownSet._wrap(poset, s),
                        DownSet._wrap(poset, r),
                    )
    return tuple(fam_masks)


def _topology_fails(poset: Poset, planes: list[int], ones: int,
                    gens: list[int] | None = None) -> int:
    """Bit k set exactly when value k of a batch of families is not a
    topology; ``ones`` is the batch's all-ones plane.  With m_p the points b
    whose cut (down p) - (up b) is not in J(p), a value passes when each
    J(p) is the sieves containing m_p (along the layout's grow steps), m_a
    lies in m_b for each cover a < b, and each b in m_p lies in m_q for some
    q in m_p above b: the least-sieve form, stability and transitivity of
    :func:`_topology_generators`, exactly the topologies.  A read-off m_p is
    always a sieve on p.  With ``gens``, plane p * n + b holding bit b of
    m_p, the planes are the sieves containing the m_p, and a value passes
    only when each read-off m_p is the given one."""
    layout, up, n = _layout(poset), poset._up, poset.n
    # plain loops: CPython 3.11 builds and calls a function for every comprehension
    m = []
    for at, top, cone in zip(layout.index, poset._down, layout.cones):
        mp = [0] * n
        for b in cone:
            mp[b] = ones ^ planes[at[top & ~up[b]]]
        m.append(mp)
    flat = list(chain.from_iterable(m))
    fails = reduce(or_, map(xor, flat, gens) if gens is not None
                   else map(xor, planes, layout.covering([ones ^ x for x in flat], ones)), 0)
    for a, b in poset.covers():
        ma, mb = m[a], m[b]
        for q in layout.cones[a]:
            fails |= ma[q] & ~mb[q]
    for mp, cone in zip(m, layout.cones):
        for b in cone:
            kept, ub = mp[b], up[b]
            for q in cone:
                if ub >> q & 1:
                    kept &= ones ^ (mp[q] & m[q][b])
            fails |= kept
    return fails


def _require_topology_cap(poset: Poset, cap: int) -> None:
    if poset.n > cap:
        raise CapExceededError(
            f"{poset.n} elements exceeds the topology enumeration cap {cap}"
        )


def enumerate_topologies(
    poset: Poset, cap: int = DEFAULT_TOPOLOGY_CAP
) -> list[GrothendieckTopology]:
    """Every Grothendieck topology on the poset, in the order of its family
    tuples, each expanded from its generators (the least sieves m_p)."""
    _require_topology_cap(poset, cap)
    families = sorted(_families(poset, _topology_generators(poset)))
    return [GrothendieckTopology._wrap(poset, f) for f in families]


def _topology_generators(poset: Poset) -> list[tuple[int, ...]]:
    """The least covering sieves (m_p for each point p) of every topology,
    in search order.

    Covering sieves are closed under intersection: if R and S cover p, then
    for each q in R the pullback of R & S to q is that of S, which covers q
    by stability, so transitivity along R makes R & S cover p.  On a finite
    poset J(p) therefore has a least sieve m_p, and it is exactly the sieves
    on p that contain m_p: such a sieve pulls back to the whole principal
    downset of each q in m_p, which covers q.  So the search chooses one
    generator m_p per point and keeps it when

    * stability holds: m_q is inside m_p for every q < p, because m_p pulls
      back to m_p & (down q), which must contain m_q;
    * transitivity holds: m_p is the principal downset of p, or m_p lies in
      the union of the m_q over the points q of m_p.  That union is the
      least sieve whose pullback to every q in m_p covers q, so it must
      cover p.

    These are the conditions of :func:`poset._least_generators` on the
    sieves on each p, each recording itself: every leaf is a topology and
    each topology is reached once.  :func:`_families` expands the
    generators.
    """
    layout = _layout(poset)
    return _least_generators(poset._down, layout.cones, layout.sieves, 0)


def _families(poset: Poset, gens: Iterable[Sequence[int]]) -> list[tuple[tuple[int, ...], ...]]:
    """The families of each generator tuple, in order: J(p) the sieves on p
    containing m_p, of which only the bits in down p are read."""
    sieves, down = _layout(poset).sieves, poset._down
    return [tuple([tuple([s for s in at if not m & top & ~s])
                   for m, at, top in zip(g, sieves, down)]) for g in gens]
