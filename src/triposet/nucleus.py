"""Nuclei on the downset lattice of a finite poset.

A nucleus is a self-map j of the downset lattice that is inflationary
(S <= j(S)), idempotent (j(j(S)) = j(S)), and preserves binary meets
(j(A & B) = j(A) & j(B)); monotonicity follows from meet preservation.
A nucleus is stored as its image masks, one per downset in the canonical
downset order, so "is p in j(S)?" is a bit test.

The downset lattice is distributive, and its meet-irreducibles are the n
downsets M_p = P minus the up-set of p; every downset S is the meet of the
M_p with p outside S.  A nucleus preserves meets, so it is fixed by its n
values T_p = j(M_p), and j(S) is the meet of the T_p with p outside S (the
empty meet being P).  The census lists those generators of each nucleus
by the topology census's search, run on the up-sets P - T_p;
:func:`_images` expands them.  The validator checks one table downset by
downset and names the first failure; :func:`_nucleus_fails` decides a
whole batch of tables at once on bit planes.  The search, the expansion and
the plane check read the poset's shared layout (:class:`poset._Layout`):
the points above each p and its meet steps.

This module knows nothing about subsets-as-parameters or covering
families: its census is independent of the conversions, not of the
topology census, and is an oracle against any conversion to nuclei.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from functools import reduce
from itertools import chain
from operator import or_, xor

from .errors import (
    CapExceededError,
    ImageNotDownsetError,
    NotIdempotentError,
    NotInflationaryError,
    NotMeetPreservingError,
    PosetMismatchError,
)
from .poset import DownSet, Poset, Subset, _layout, _least_generators

__all__ = ["DEFAULT_NUCLEUS_CAP", "Nucleus", "enumerate_nuclei", "validate_nucleus"]

DEFAULT_NUCLEUS_CAP = 32  # largest |D(P)| the enumerator will search


class Nucleus:
    """A nucleus as its image masks: ``images[i]`` is j of the ``i``-th
    downset in canonical order.  The constructor checks that there is one
    image per downset and that each is a downset mask, as the first axiom
    asks; :func:`validate_nucleus` checks the other axioms."""

    __slots__ = ("poset", "images")

    def __init__(self, poset: Poset, images: Sequence[int]):
        images = tuple(images)
        dmasks = poset.downset_masks()
        if len(images) != len(dmasks):
            raise ValueError(f"{len(images)} images, expected {len(dmasks)}")
        for m in images:
            Subset(poset, m)  # an int in range, with Subset's errors, before any rank lookup
        _require_downset_images(poset, images)
        self.poset = poset
        self.images = images

    @classmethod
    def _wrap(cls, poset: Poset, images: tuple[int, ...]):
        """Trusted constructor: every image is already a downset."""
        obj = object.__new__(cls)
        obj.poset = poset
        obj.images = images
        return obj

    def pairs(self) -> tuple[tuple[DownSet, DownSet], ...]:
        """(downset, image) rows in canonical order."""
        poset = self.poset
        return tuple(
            (s, DownSet._wrap(poset, m)) for s, m in zip(poset.downsets(), self.images)
        )

    def to_jsonable(self) -> list[list[list[str]]]:
        return [[s.to_jsonable(), img.to_jsonable()] for s, img in self.pairs()]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Nucleus):
            return NotImplemented
        return self.images == other.images and (
            self.poset is other.poset or self.poset == other.poset
        )

    def __hash__(self) -> int:
        return hash((self.poset, self.images))

    def __repr__(self) -> str:
        rows = ", ".join(f"{s}->{img}" for s, img in self.pairs())
        return f"Nucleus({rows})"


def validate_nucleus(
    poset: Poset,
    table: Mapping[Subset, Subset] | Iterable[tuple[Subset, Subset]],
) -> Nucleus:
    """Check a raw table against the nucleus axioms and wrap it.

    The table must assign exactly one image to every downset of the poset
    (a ``ValueError`` otherwise).  Axioms are checked one at a time in the
    order: images downward closed, inflationary, idempotent, meet
    preserving; the first violation raises with the offending downset (or
    pair) as witness, scanning in canonical order.
    """
    items = table.items() if isinstance(table, Mapping) else table
    masks = poset.downset_masks()
    rank = poset._downset_ranks()
    images: list[int | None] = [None] * len(masks)
    for key, value in items:
        if key.poset is not poset and key.poset != poset:
            raise PosetMismatchError("table key belongs to a different poset")
        if value.poset is not poset and value.poset != poset:
            raise PosetMismatchError("table image belongs to a different poset")
        i = rank.get(key.mask)
        if i is None:
            raise ValueError(f"table key {key} is not a downset")
        if images[i] is not None:
            raise ValueError(f"table lists {key} twice")
        images[i] = value.mask
    missing = [i for i, img in enumerate(images) if img is None]
    if missing:
        raise ValueError(
            f"table is missing {Subset._wrap(poset, masks[missing[0]])}"
            + (f" and {len(missing) - 1} more" if len(missing) > 1 else "")
        )
    return Nucleus._wrap(poset, _check_nucleus(poset, images))


def _check_nucleus(poset: Poset, images: Sequence[int]) -> tuple[int, ...]:
    """The axiom checks of :func:`validate_nucleus` on image masks, one per
    downset in canonical order, not necessarily downsets: raises the first
    violation in the order it states, else returns the images as a tuple."""
    masks = poset.downset_masks()
    rank = _require_downset_images(poset, images)
    d = len(masks)
    for i in range(d):
        if masks[i] & ~images[i]:
            raise NotInflationaryError(DownSet._wrap(poset, masks[i]))
    for i in range(d):
        if images[rank[images[i]]] != images[i]:
            raise NotIdempotentError(DownSet._wrap(poset, masks[i]))
    for i in range(d):
        for k in range(i):
            if images[rank[masks[i] & masks[k]]] != images[i] & images[k]:
                raise NotMeetPreservingError(
                    DownSet._wrap(poset, masks[k]), DownSet._wrap(poset, masks[i])
                )
    return tuple(images)


def _nucleus_fails(poset: Poset, planes: list[int], ones: int,
                   gens: list[int] | None = None) -> int:
    """Bit k set exactly when value k of a batch of image tuples is not a
    nucleus; ``ones`` is the batch's all-ones plane.  With T_p = j(M_p), j
    is a nucleus exactly when j(S) is the meet of the T_p with p outside S
    (along the layout's meet steps), each T_p is a downset containing M_p,
    and each T_q is a fixed point: each b outside T_q is outside some T_r,
    r outside T_q (both above q).  A nucleus passes; a map that passes has
    downset images, contains the meet of the M_p with p outside S, which is
    S, preserves meets, and has j(j(S)) = the meet of the j(T_q) = j(S).
    With ``gens``, plane p * n + q holding bit q of T_p, the planes are the
    meets of the T_p, and a value passes only when each j(M_p) is T_p."""
    n, layout, up, covers = poset.n, _layout(poset), poset._up, poset.covers()
    T = [planes[k : k + n] for k in layout.tops]
    fails = reduce(or_, map(xor, chain.from_iterable(T), gens) if gens is not None
                   else map(xor, planes, layout.meets(T, ones)), 0)
    # plain loops: CPython 3.11 builds and calls a function for every comprehension
    for t, u, above in zip(T, up, layout.above):
        for a, b in covers:
            fails |= t[b] & ~t[a]
        for q in range(n):
            if not u >> q & 1:
                fails |= ones ^ t[q]
        for b in above:
            kept = ones ^ t[b]
            for r in above:
                kept &= t[r] | T[r][b]
            fails |= kept
    return fails


def _require_downset_images(poset: Poset, images: Sequence[int]) -> dict[int, int]:
    """Raise on the first image that is not a downset; return the downset ranks."""
    rank = poset._downset_ranks()
    for s, m in zip(poset.downset_masks(), images):
        if m not in rank:
            raise ImageNotDownsetError(DownSet._wrap(poset, s), Subset._wrap(poset, m))
    return rank


def _require_nucleus_cap(poset: Poset, cap: int) -> None:
    d = len(poset.downset_masks())
    if d > cap:
        raise CapExceededError(
            f"{d} downsets exceeds the nucleus enumeration cap {cap}"
        )


def enumerate_nuclei(poset: Poset, cap: int = DEFAULT_NUCLEUS_CAP) -> list[Nucleus]:
    """Every nucleus on the downset lattice, in the lexicographic order of
    its images' downset ranks, each expanded from its generators (the T_p)."""
    _require_nucleus_cap(poset, cap)
    tables = _in_order(_images(poset, _nucleus_generators(poset)))
    return [Nucleus._wrap(poset, t) for t in tables]


def _nucleus_generators(poset: Poset) -> list[tuple[int, ...]]:
    """The generators (T_p = j(M_p) for each point p) of every nucleus, in
    search order.

    Any choice of downsets T_p containing M_p gives a map j(S) = meet of
    the T_p with p outside S that is inflationary and preserves meets by
    construction.  With C_p = P - T_p, an up-set inside up p, that map is
    a nucleus exactly when

    * it extends the choice, T_p <= T_q whenever p < q: C_q is inside C_p
      for every q above p;
    * it is idempotent, which holds once every T_p is a fixed point, the
      meet of the T_q with q outside T_p: C_p is the union of the C_q over
      q in C_p.  C_p = up p (T_p = M_p) always is; otherwise each such q
      lies strictly above p, so by the first condition C_p need only lie
      in the union.

    These are the conditions of :func:`poset._least_generators` on the
    up-sets P - T inside each up p, each C_p recording T_p, points tops
    first: every leaf is a nucleus and each nucleus is reached once.
    :func:`_images` expands the generators.
    """
    up, full, dmasks = poset._up, poset.full_mask, poset.downset_masks()
    return _least_generators(up, _layout(poset).above,
                             [[full ^ t for t in dmasks if t | u == full] for u in up], full)


def _images(poset: Poset, gens: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
    """The image tuple of each generator tuple, in order, filled in reverse
    canonical order from j(S) = T_p & j(S + p), with p a minimal point
    outside S and j(P) = P, along the layout's meet steps.  Only the bits
    below n of a T_p are read."""
    steps, d, full = _layout(poset).steps, len(poset.downset_masks()), poset.full_mask
    tables = []
    for T in gens:
        img = [full] * d
        for i, k, p in steps:
            img[i] = T[p] & img[k]
        tables.append(tuple(img))
    return tables


def _in_order(tables: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Image tuples in canonical order: lexicographic in the (cardinality,
    mask) order of their images, which on downsets is their rank order."""
    tables = list(tables)
    masks = sorted(set().union(*tables), key=lambda m: (m.bit_count(), m))
    place = {m: k for k, m in enumerate(masks)}
    return sorted(tables, key=lambda t: list(map(place.__getitem__, t)))
