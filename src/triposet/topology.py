"""Grothendieck topologies on a finite poset.

A topology assigns to every point ``p`` a family J(p) of sieves on ``p``
(downsets contained in the principal downset of ``p``) subject to:

* maximality: the principal downset itself is in J(p);
* stability: S in J(p) and q <= p imply S intersect (down q) in J(q);
* transitivity: if S in J(p) and R is a sieve on p whose pullback to every
  q in S lies in J(q), then R in J(p).

Families are stored per point as tuples of sieve masks in canonical order.
Like the nucleus module, the enumeration here works from the axioms alone
and is intentionally independent of any conversion routines.
"""

from __future__ import annotations

from collections.abc import Container, Iterable, Mapping, Sequence

from .errors import (
    CapExceededError,
    MissingMaximalError,
    NotASieveError,
    PosetMismatchError,
    StabilityFailError,
    TransitivityFailError,
)
from .poset import DownSet, Poset, Subset, _bits

__all__ = [
    "DEFAULT_TOPOLOGY_CAP",
    "GrothendieckTopology",
    "enumerate_topologies",
    "validate_topology",
]

DEFAULT_TOPOLOGY_CAP = 5  # poset size; the family product explodes beyond this


def _canon(masks: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(set(masks), key=lambda m: (m.bit_count(), m)))


def _covered(
    r: int, points: Iterable[int], down: Sequence[int], fams: Sequence[Container[int]]
) -> int:
    """The mask of the ``points`` q where the sieve ``r`` pulls back into ``fams[q]``.

    With the points of the cone of p, a sieve R on p outside J(p) breaks
    transitivity exactly when some S in J(p) lies inside this mask.
    """
    covered = 0
    for q in points:
        if r & down[q] in fams[q]:
            covered |= 1 << q
    return covered


class GrothendieckTopology:
    """Per-point covering families over a fixed poset.

    ``families[p]`` holds the sieve masks covering point ``p``, canonically
    ordered.  Instances are normalized on construction; axiom checking
    lives in :func:`validate_topology`.
    """

    __slots__ = ("poset", "families")

    def __init__(self, poset: Poset, families: Sequence[Iterable[int]]):
        if len(families) != poset.n:
            raise ValueError(
                f"{len(families)} families for a poset with {poset.n} elements"
            )
        self.poset = poset
        self.families = tuple(_canon(f) for f in families)

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
        return hash((self.poset._hash, self.families))

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
            i = poset.index(label)
            if seq[i] is not None:
                raise ValueError(f"family for {label!r} listed twice")
            seq[i] = fam
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
        return _canon(entries)

    # lazily, so a foreign sieve at one point is still reported after the
    # sieve checks of the points before it
    return GrothendieckTopology._wrap(
        poset, _check_topology(poset, (masks_at(p) for p in range(poset.n)))
    )


def _check_topology(
    poset: Poset, families: Iterable[tuple[int, ...]]
) -> tuple[tuple[int, ...], ...]:
    """The axiom checks of :func:`validate_topology` on sieve masks.

    ``families`` yields one canonically ordered tuple of masks per point.
    Raises what the public validator raises, with the same witnesses, and
    returns the families as a tuple.
    """
    poset.downset_masks()  # fills poset._dmask_pos
    rank = poset._dmask_pos
    down = poset._down
    cones = [tuple(_bits(m)) for m in down]
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
            covered = _covered(r, cones[p], down, fam_sets)
            for s in fam_masks[p]:
                if not s & ~covered:
                    raise TransitivityFailError(
                        poset.labels[p],
                        DownSet._wrap(poset, s),
                        DownSet._wrap(poset, r),
                    )
    return tuple(fam_masks)


def _require_topology_cap(poset: Poset, cap: int) -> None:
    if poset.n > cap:
        raise CapExceededError(
            f"{poset.n} elements exceeds the topology enumeration cap {cap}"
        )


def enumerate_topologies(
    poset: Poset, cap: int = DEFAULT_TOPOLOGY_CAP
) -> list[GrothendieckTopology]:
    """Every Grothendieck topology on the poset, in canonical order.

    Points are processed along a linear extension (everything below a point
    first), so when a family is chosen for ``p`` every J(q) with q < p is
    already fixed.  Stability and transitivity at ``p`` read only those
    families and J(p) itself (a witness sieve lies in the cone of ``p``, and
    its pullbacks land on points below ``p``), so both axioms are decided on
    the spot: only sieves whose pullbacks are all covered remain candidates,
    and only candidate families that are transitive at ``p`` are kept.
    Every assignment that reaches a leaf is therefore a topology.

    Within a point, families are the upward-closed subsets of the allowed
    sieves that contain the maximal sieve.  Upward closure is forced by the
    axioms (a superset of a covering sieve pulls back to whole principal
    downsets, which maximality covers), so restricting to it loses nothing;
    it just keeps the family count near the answer instead of near the
    powerset.  The families kept at ``p`` depend only on the families below
    it, and the same lower configuration recurs across branches, so the
    list is memoised within the call on that configuration.
    """
    _require_topology_cap(poset, cap)
    n = poset.n
    down = poset._down
    order = sorted(range(n), key=lambda p: (down[p].bit_count(), p))
    sieves = [poset.sieve_masks(p) for p in range(n)]
    fam: list[frozenset[int] | None] = [None] * n
    canon: list[tuple[int, ...]] = [()] * n
    memo: dict[tuple, list[tuple[frozenset[int], tuple[int, ...]]]] = {}
    results: list[GrothendieckTopology] = []

    def families_at(p: int) -> list[tuple[frozenset[int], tuple[int, ...]]]:
        full = down[p]
        below = full & ~(1 << p)
        lower = tuple(_bits(below))
        key = (p, *(fam[q] for q in lower))
        cached = memo.get(key)
        if cached is not None:
            return cached
        # points below p only: a sieve outside J(p) never pulls back into J(p)
        covered = {r: _covered(r, lower, down, fam) for r in sieves[p]}
        allowed = [s for s in sieves[p] if s == full or not below & ~covered[s]]
        # supersets first, so including a sieve can insist on its strict supersets
        elems = sorted(allowed, key=lambda m: (-m.bit_count(), m))
        m = len(elems)
        need = [
            [a for a in range(k) if elems[a] != elems[k] and not elems[k] & ~elems[a]]
            for k in range(m)
        ]
        chosen = [False] * m
        fams: list[tuple[frozenset[int], tuple[int, ...]]] = []

        def transitive(f: frozenset[int]) -> bool:
            for r in sieves[p]:
                if r not in f:
                    c = covered[r]
                    for s in f:
                        if not s & ~c:
                            return False
            return True

        def rec(k: int) -> None:
            if k == m:
                f = frozenset(e for e, c in zip(elems, chosen) if c)
                if transitive(f):
                    fams.append((f, tuple(s for s in sieves[p] if s in f)))
                return
            if all(chosen[a] for a in need[k]):
                chosen[k] = True
                rec(k + 1)
                chosen[k] = False
            if elems[k] != full:  # the maximal sieve is mandatory
                rec(k + 1)

        rec(0)
        memo[key] = fams
        return fams

    def rec_points(idx: int) -> None:
        if idx == n:
            results.append(GrothendieckTopology._wrap(poset, tuple(canon)))
            return
        p = order[idx]
        for f, c in families_at(p):
            fam[p] = f
            canon[p] = c
            rec_points(idx + 1)

    rec_points(0)
    results.sort(key=lambda t: t.families)
    return results
