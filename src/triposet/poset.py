"""Finite posets, their downsets, and exhaustive labeled-poset streams.

Elements carry dense integer indices ``0..n-1`` paired with distinct string
labels.  Subsets of the carrier live as bitmasks with element ``i`` at bit
``i``, so the set algebra is single integer instructions and every value has
exactly one encoding.  The canonical order on downsets (and on subsets,
where one is needed) is ascending by (cardinality, mask); every enumeration
in the package emits that order.

All objects here are immutable once built and safe to share across threads.
A poset computes its hash, the downset list and its ranks, and the covers
on first use and keeps them, so a streamed poset that is never read costs
only its rows.  The tables the engine reads off a poset, its cone point
lists among them, are one private :class:`_Layout`, kept for the latest
poset only.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from operator import and_

from .errors import (
    CapExceededError,
    CycleDetectedError,
    DuplicateLabelError,
    PosetMismatchError,
    UnknownLabelError,
)

__all__ = [
    "DownSet",
    "HARD_STREAM_CAP",
    "LATTICE_CAP",
    "Poset",
    "Subset",
    "build_poset",
    "enumerate_posets",
]

LATTICE_CAP = 16     # elements; 2**16 masks is the most the lattice ops will scan
HARD_STREAM_CAP = 5  # bounds the time a verify of every streamed poset takes


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _canonical(masks: Iterable[int]) -> tuple[int, ...]:
    """The distinct ``masks`` in canonical (cardinality, mask) order."""
    return tuple(sorted(set(masks), key=lambda m: (m.bit_count(), m)))


class Poset:
    """A finite partial order on labeled elements.

    ``down[p]`` is the bitmask of the principal downset of ``p`` (everything
    below-or-equal to ``p``); the whole relation is recoverable from it.  The
    constructor insists the data already is a partial order: reflexivity and
    transitivity failures are programming errors (``ValueError``), while a
    broken antisymmetry is reported as :class:`CycleDetectedError` because it
    is what a cyclic user relation closes into.  Use :func:`build_poset` to
    go from raw generating pairs to a poset.
    """

    __slots__ = (
        "n",
        "labels",
        "_down",
        "_up",
        "_index",
        "_hash",
        "_downsets",
        "_dmask_pos",
        "_covers",
    )

    def __init__(self, labels: Sequence[str], down: Sequence[int]):
        labels = tuple(labels)
        down = tuple(down)
        if len(labels) != len(down):
            raise ValueError("labels and relation rows disagree in length")
        index: dict[str, int] = {}
        for i, lab in enumerate(labels):
            if not isinstance(lab, str):
                raise TypeError(f"label {lab!r} is not a string")
            if lab in index:
                raise DuplicateLabelError(lab)
            index[lab] = i
        n = len(labels)
        full = (1 << n) - 1
        for p in range(n):
            row = down[p]
            if row & ~full:
                raise ValueError(f"relation row for {labels[p]!r} is out of range")
            if not row >> p & 1:
                raise ValueError(f"relation is not reflexive at {labels[p]!r}")
        up = [0] * n
        for p in range(n):
            for q in _bits(down[p]):
                if q != p and down[q] >> p & 1:
                    raise CycleDetectedError(labels[min(p, q)], labels[max(p, q)])
                if down[q] & ~down[p]:
                    raise ValueError(
                        f"relation is not transitive at {labels[q]!r} <= {labels[p]!r}"
                    )
                up[q] |= 1 << p
        self._fill(labels, index, down, tuple(up))

    @classmethod
    def _wrap(cls, labels: tuple, index: dict, down: tuple, up: tuple):
        """Trusted constructor: ``down`` is already a partial order, ``up``
        its transpose, ``index`` each label's."""
        obj = object.__new__(cls)
        obj._fill(labels, index, down, up)
        return obj

    def _fill(self, labels, index, down, up) -> None:
        self.n = len(labels)
        self.labels = labels
        self._down = down
        self._up = up
        self._index = index
        self._hash = None
        self._downsets = None
        self._dmask_pos = None
        self._covers = None

    # -- basic queries ----------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabelError(label) from None

    def leq(self, p: int, q: int) -> bool:
        """True iff element ``p`` is below-or-equal to element ``q``."""
        return bool(self._down[q] >> p & 1)

    def is_downward_directed(self) -> bool:
        """Nonempty, and every two elements share a lower bound."""
        if self.n == 0:
            return False
        down = self._down
        return all(
            down[p] & down[q]
            for p in range(self.n)
            for q in range(p + 1, self.n)
        )

    def is_downset_mask(self, mask: int) -> bool:
        m = mask
        while m:
            low = m & -m
            if self._down[low.bit_length() - 1] & ~mask:
                return False
            m ^= low
        return True

    # -- derived structure (cached) ---------------------------------------

    def _require_lattice_cap(self) -> None:
        if self.n > LATTICE_CAP:
            raise CapExceededError(
                f"{self.n} elements exceeds the lattice-operation cap {LATTICE_CAP}"
            )

    def downset_masks(self) -> tuple[int, ...]:
        """All downset bitmasks in canonical (cardinality, mask) order, by a
        walk of the ideals (Squire 1995): adding the points along a linear
        extension, each downset so far grows by q when it holds all below q."""
        if self._downsets is None:
            self._require_lattice_cap()
            down, found = self._down, [0]
            for q in sorted(range(self.n), key=lambda q: down[q].bit_count()):
                below = down[q] ^ 1 << q
                found += [s | 1 << q for s in found if not below & ~s]
            self._downsets = tuple(sorted(sorted(found), key=int.bit_count))
            self._dmask_pos = dict(zip(self._downsets, range(len(found))))
        return self._downsets

    def _downset_ranks(self) -> dict[int, int]:
        """Each downset mask's position in the canonical order."""
        self.downset_masks()
        return self._dmask_pos

    def downset_rank(self, mask: int) -> int:
        """Position of a downset mask in the canonical order."""
        return self._downset_ranks()[mask]

    def downsets(self) -> tuple[DownSet, ...]:
        return tuple(DownSet._wrap(self, m) for m in self.downset_masks())

    def sieve_masks(self, p: int) -> tuple[int, ...]:
        """Masks of the sieves on ``p``: downsets contained in its principal downset."""
        top = self._down[p]
        return tuple(m for m in self.downset_masks() if not m & ~top)

    def sieves(self, p: int) -> tuple[DownSet, ...]:
        return tuple(DownSet._wrap(self, m) for m in self.sieve_masks(p))

    def subsets(self) -> tuple[Subset, ...]:
        """Every subset of the carrier in canonical (cardinality, mask) order."""
        self._require_lattice_cap()
        return tuple(Subset._wrap(self, m) for m in _canonical(range(1 << self.n)))

    def covers(self) -> tuple[tuple[int, int], ...]:
        """The covering relation (transitive reduction) as index pairs (lower, upper)."""
        if self._covers is None:
            out = []
            for p in range(self.n):
                for q in range(self.n):
                    if p != q and self._down[q] >> p & 1:
                        if self._up[p] & self._down[q] == (1 << p) | (1 << q):
                            out.append((p, q))
            self._covers = tuple(out)
        return self._covers

    # -- member construction ----------------------------------------------

    def _resolve_mask(self, members: Iterable[str | int]) -> int:
        mask = 0
        for m in members:
            p = self._index.get(m) if isinstance(m, str) else m
            if p is None:
                raise UnknownLabelError(m)
            if not isinstance(p, int) or not 0 <= p < self.n:
                raise ValueError(f"element {m!r} out of range")
            mask |= 1 << p
        return mask

    def subset(self, members: Iterable[str | int] = ()) -> Subset:
        return Subset(self, self._resolve_mask(members))

    def downset(self, members: Iterable[str | int] = ()) -> DownSet:
        return DownSet(self, self._resolve_mask(members))

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Poset):
            return NotImplemented
        return self.labels == other.labels and self._down == other._down

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.labels, self._down))
        return self._hash

    def __repr__(self) -> str:
        rels = " ".join(
            f"{self.labels[p]}<{self.labels[q]}" for p, q in self.covers()
        )
        return f"Poset({' '.join(self.labels)}{'; ' + rels if rels else ''})"


class _Layout:
    """The tables every layer of the engine reads off one poset, built once
    by :func:`_layout`, which keeps only the latest poset's (a sweep holds
    many posets).

    * ``steps``: (i, k, p) for every downset S_i but P, p the least minimal
      point outside S_i and S_k = S_i + p, larger downsets first.  S_i is
      S_k meet M_p = P minus the up-set of p, so a meet-preserving j has
      j(S_i) = j(M_p) & j(S_k), and a map with j(P) = P satisfying every
      step is the meet of its values on the M_p.
    * Image planes, plane i * n + p holding bit p of j(S_i): ``tops[p]`` is
      the first plane of j(M_p); ``above[p]`` lists the points of the
      up-set of p and ``cones[p]`` those of its principal downset.
    * Topology planes, one per point p and sieve s on p, point after point:
      ``sieves[p]`` lists the sieves on p, ``index[p][s]`` is the plane,
      ``ranges[p]`` p's planes (the principal downset last), ``size`` their
      number.  ``grow`` holds (s, s + a, p * n + a) for each other s, a
      the least minimal point of (down p) - s, larger sieves first.
    * Conversions: ``alt[p]`` is the first image planes of the cone of p
      and of the cone minus p, ``push`` the image plane (p in j(s)) of each
      topology plane (p, s), ``pull`` the topology plane (p, S & down p) of
      each image plane (p in j(S)).
    * The census searches build their plans (:func:`_least_generators`)
      when they run, from ``sieves`` and ``above``.
    """

    __slots__ = ("poset", "n", "d", "steps", "tops", "above", "cones", "sieves", "size",
                 "index", "ranges", "grow", "alt", "push", "pull")

    def __init__(self, poset: Poset):
        n, down, up = poset.n, poset._down, poset._up
        dmasks, rank, full = poset.downset_masks(), poset._downset_ranks(), poset.full_mask
        strict = [row ^ 1 << q for q, row in enumerate(down)]
        self.poset, self.n, self.d = poset, n, len(dmasks)
        self.steps = []
        for i in range(len(dmasks) - 2, -1, -1):
            s, p = dmasks[i], 0
            while s >> p & 1 or strict[p] & ~s:  # up to the least minimal point outside s
                p += 1
            self.steps.append((i, rank[s | 1 << p], p))
        self.tops = [rank[full & ~u] * n for u in up]
        self.above = [tuple(_bits(u)) for u in up]
        self.cones = [tuple(_bits(c)) for c in down]
        self.sieves = tuple(map(poset.sieve_masks, range(n)))
        self.index, self.ranges, self.grow = [], [], []
        size = 0
        for p, sieves in enumerate(self.sieves):
            at = dict(zip(sieves, range(size, size + len(sieves))))
            self.index.append(at)
            self.ranges.append(range(size, size + len(sieves)))
            size += len(sieves)
            for s in reversed(sieves[:-1]):
                rest, a = down[p] & ~s, 0
                while not rest >> a & 1 or strict[a] & ~s:
                    a += 1
                self.grow.append((at[s], at[s | 1 << a], p * n + a))
        self.size = size
        self.alt = [(rank[c] * n, rank[c & ~(1 << p)] * n) for p, c in enumerate(down)]
        self.push = [rank[s] * n + p for p, at in enumerate(self.index) for s in at]
        self.pull = [at[m & c] for m in dmasks for at, c in zip(self.index, down)]

    def meets(self, gens: Sequence[Sequence[int]], ones: int) -> list[int]:
        """The image planes of j(S) = the meet of ``gens[p]`` over the points
        p outside S, each ``gens[p]`` n planes, along the meet steps."""
        n = self.n
        planes = [ones] * (self.d * n)
        for i, k, p in self.steps:
            planes[i * n : i * n + n] = map(and_, gens[p], planes[k * n : k * n + n])
        return planes

    def covering(self, outside: Sequence[int], ones: int) -> list[int]:
        """The topology planes of J(p) = the sieves on p containing m_p,
        ``outside[p * n + q]`` the plane of q not in m_p, along the grow
        steps: s is in J(p) when s + a is and a is not in m_p."""
        planes = [ones] * self.size
        for t, grown, a in self.grow:
            planes[t] = planes[grown] & outside[a]
        return planes


_layout = lru_cache(maxsize=1)(_Layout)


def _search_plan(cones: Sequence[int], points: Sequence[Sequence[int]],
                 closed: Sequence[Sequence[int]], flip: int) -> tuple:
    """Per point p, smallest cone first: p, the ``points`` of its cone (its
    principal downset or up-set) and (g, g ^ ``flip``, the points of g or
    None for the whole cone) for each closed set g in ``closed[p]``."""
    # plain loops: CPython 3.11 builds and calls a function for every comprehension
    plan = []
    for p in sorted(range(len(cones)), key=lambda p: cones[p].bit_count()):
        candidates, cone = [], cones[p]
        for g in closed[p]:
            candidates.append((g, g ^ flip, None if g == cone else tuple(_bits(g))))
        plan.append((p, points[p], tuple(candidates)))
    return tuple(plan)


def _least_generators(cones: Sequence[int], points: Sequence[Sequence[int]],
                      closed: Sequence[Sequence[int]], flip: int) -> list[tuple[int, ...]]:
    """Every choice of one closed set g_p in ``closed[p]`` inside the cone
    of each point p with g_q inside g_p for each q in the cone of p, and
    g_p the whole cone or inside the union of the g_q over the points q of
    g_p, in search order, as g_p ^ ``flip`` for each p.

    The search builds its :func:`_search_plan` and descends it: points are
    taken smallest cone first, so both conditions read only the g_q already
    chosen, every leaf satisfies them, and each such choice is reached once.
    """
    found: list[tuple[int, ...]] = []
    _descend(_search_plan(cones, points, closed, flip), 0, [0] * len(cones), [0] * len(cones),
             found)
    return found


def _descend(plan: Sequence[tuple], idx: int, gen: list[int], value: list[int],
             found: list[tuple[int, ...]]) -> None:
    """Append to ``found`` each leaf below the choices ``gen`` and ``value``
    made at the first ``idx`` steps of ``plan``."""
    if idx == len(plan):
        found.append(tuple(value))
        return
    p, cone, candidates = plan[idx]
    # the g_q of the cone (g_p is 0 until chosen) lie in g_p when their union does
    union = 0
    for q in cone:
        union |= gen[q]
    for g, v, points in candidates:
        if union & ~g:
            continue
        if points is not None:
            reach = 0
            for q in points:
                reach |= gen[q]
            if g & ~reach:
                continue
        gen[p], value[p] = g, v
        _descend(plan, idx + 1, gen, value, found)
    gen[p] = 0


class Subset:
    """A subset of a poset's carrier, stored as a bitmask.

    Equality is extensional: a :class:`Subset` and a :class:`DownSet` over
    the same poset with the same members compare equal.
    """

    __slots__ = ("poset", "mask")

    def __init__(self, poset: Poset, mask: int):
        if not isinstance(mask, int):
            raise TypeError(f"mask {mask!r} is not an int")
        if not 0 <= mask <= poset.full_mask:
            raise ValueError(f"mask {mask:#x} out of range for n={poset.n}")
        self.poset = poset
        self.mask = mask

    @classmethod
    def _wrap(cls, poset: Poset, mask: int):
        """Trusted constructor: skips validation."""
        obj = object.__new__(cls)
        obj.poset = poset
        obj.mask = mask
        return obj

    def _check(self, other: Subset) -> None:
        if self.poset is not other.poset and self.poset != other.poset:
            raise PosetMismatchError()

    def labels(self) -> tuple[str, ...]:
        """Member labels, sorted lexicographically."""
        return tuple(sorted(self.poset.labels[p] for p in _bits(self.mask)))

    def is_downset(self) -> bool:
        return self.poset.is_downset_mask(self.mask)

    def to_jsonable(self) -> list[str]:
        return list(self.labels())

    def __contains__(self, p: int) -> bool:
        return bool(self.mask >> p & 1)

    def __iter__(self) -> Iterator[int]:
        return _bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __and__(self, other: Subset) -> Subset:
        self._check(other)
        cls = DownSet if isinstance(self, DownSet) and isinstance(other, DownSet) else Subset
        return cls._wrap(self.poset, self.mask & other.mask)

    def __or__(self, other: Subset) -> Subset:
        self._check(other)
        cls = DownSet if isinstance(self, DownSet) and isinstance(other, DownSet) else Subset
        return cls._wrap(self.poset, self.mask | other.mask)

    def __le__(self, other: Subset) -> bool:
        self._check(other)
        return not self.mask & ~other.mask

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subset):
            return NotImplemented
        return self.mask == other.mask and (
            self.poset is other.poset or self.poset == other.poset
        )

    def __hash__(self) -> int:
        return hash((self.poset, self.mask))

    def __str__(self) -> str:
        return "{" + " ".join(self.labels()) + "}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class DownSet(Subset):
    """A downward closed subset; the constructor enforces closure."""

    __slots__ = ()

    def __init__(self, poset: Poset, mask: int):
        super().__init__(poset, mask)
        if not poset.is_downset_mask(mask):
            raise ValueError(f"{Subset._wrap(poset, mask)} is not downward closed")


def build_poset(
    labels: Iterable[str], relations: Iterable[tuple[str, str]] = ()
) -> Poset:
    """Build a poset from labels and generating pairs ``(x, y)`` meaning x <= y.

    The relation is closed reflexively and transitively; a pair of distinct
    elements that ends up below each other raises :class:`CycleDetectedError`.
    """
    labels = tuple(labels)
    index: dict[str, int] = {}
    for i, lab in enumerate(labels):
        if lab in index:
            raise DuplicateLabelError(lab)
        index[lab] = i
    n = len(labels)
    down = [1 << i for i in range(n)]
    for x, y in relations:
        try:
            i = index[x]
        except KeyError:
            raise UnknownLabelError(x) from None
        try:
            j = index[y]
        except KeyError:
            raise UnknownLabelError(y) from None
        down[j] |= 1 << i
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if down[i] & bit:
                down[i] |= down[k]
    return Poset(labels, down)


def enumerate_posets(n: int, cap: int = HARD_STREAM_CAP) -> Iterator[Poset]:
    """Stream every labeled poset on ``n`` elements exactly once.

    Each unordered pair of elements is independently incomparable, ordered
    one way, or ordered the other way, and a state is kept when it is
    transitive.  The 3**(n choose 2) states are walked depth first, pairs
    in lexicographic order and each pair's three choices in that order, so
    the stream is deterministic.  Transitivity holds exactly when it holds
    on every triple of elements, so each triple is checked as soon as its
    last pair is set, and a branch is cut on the first failure; the states
    come out in the order of the full product.  Labels are the first ``n``
    lowercase letters.

    A leaf is a partial order by construction (reflexive from the start,
    antisymmetric because each pair takes one of its three choices, and
    transitive by the triple checks), so its poset is built without the
    constructor's checks.  ``cap`` can only lower :data:`HARD_STREAM_CAP`,
    and both caps are checked at the call, before any work.
    """
    cap = min(cap, HARD_STREAM_CAP)
    if n < 0:
        raise ValueError("poset size must be nonnegative")
    if n > cap:
        raise CapExceededError(f"streaming posets on {n} elements exceeds the cap {cap}")
    labels = tuple("abcdefghijklmnopqrstuvwxyz"[:n])
    index = {lab: i for i, lab in enumerate(labels)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    down = [1 << i for i in range(n)]
    return _choose(labels, index, pairs, 0, down, down.copy())


def _choose(labels: tuple[str, ...], index: dict[str, int], pairs: Sequence[tuple[int, int]],
            k: int, down: list[int], up: list[int]) -> Iterator[Poset]:
    """The posets whose first ``k`` pairs are set as in the rows ``down`` and
    ``up``, in stream order."""
    if k == len(pairs):
        yield Poset._wrap(labels, index, tuple(down), tuple(up))
        return
    # the triples {a, b, c} with a < b are those whose last pair is (b, c)
    b, c = pairs[k]
    earlier = (1 << b) - 1
    db, ub = down[b] & earlier, up[b] & earlier
    dc, uc = down[c] & earlier, up[c] & earlier
    # incomparable: no a with b <= a <= c or c <= a <= b
    if not ub & dc and not uc & db:
        yield from _choose(labels, index, pairs, k + 1, down, up)
    # b below c: a <= b forces a <= c, and c <= a forces b <= a
    if not db & ~dc and not uc & ~ub:
        down[c] |= 1 << b
        up[b] |= 1 << c
        yield from _choose(labels, index, pairs, k + 1, down, up)
        down[c] ^= 1 << b
        up[b] ^= 1 << c
    # c below b: the same with b and c swapped
    if not dc & ~db and not ub & ~uc:
        down[b] |= 1 << c
        up[c] |= 1 << b
        yield from _choose(labels, index, pairs, k + 1, down, up)
        down[b] ^= 1 << c
        up[c] ^= 1 << b
