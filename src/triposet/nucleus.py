"""Nuclei on the downset lattice of a finite poset.

A nucleus is a self-map j of the downset lattice that is inflationary
(S <= j(S)), idempotent (j(j(S)) = j(S)), and preserves binary meets
(j(A & B) = j(A) & j(B)); monotonicity follows from meet preservation.
Tables are stored as total maps over the canonical downset order, one
image index per downset.

This module deliberately knows nothing about subsets-as-parameters or
covering families; the enumeration here is an independent census of the
axioms, usable as an oracle against any other construction of nuclei.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from .errors import (
    CapExceededError,
    ImageNotDownsetError,
    NotIdempotentError,
    NotInflationaryError,
    NotMeetPreservingError,
    PosetMismatchError,
)
from .poset import DownSet, Poset, Subset

__all__ = ["DEFAULT_NUCLEUS_CAP", "Nucleus", "enumerate_nuclei", "validate_nucleus"]

DEFAULT_NUCLEUS_CAP = 32  # largest |D(P)| the enumerator will search


class Nucleus:
    """A validated-or-trusted nucleus table over the canonical downset order."""

    __slots__ = ("poset", "table")

    def __init__(self, poset: Poset, table: Sequence[int]):
        table = tuple(table)
        d = len(poset.downset_masks())
        if len(table) != d:
            raise ValueError(f"table has {len(table)} entries, expected {d}")
        for t in table:
            if not 0 <= t < d:
                raise ValueError(f"table entry {t} out of range")
        self.poset = poset
        self.table = table

    @classmethod
    def _wrap(cls, poset: Poset, table: tuple[int, ...]):
        """Trusted constructor: ``table`` is already a tuple of in-range ranks."""
        obj = object.__new__(cls)
        obj.poset = poset
        obj.table = table
        return obj

    def apply(self, s: DownSet) -> DownSet:
        if s.poset is not self.poset and s.poset != self.poset:
            raise PosetMismatchError()
        masks = self.poset.downset_masks()
        return DownSet._wrap(self.poset, masks[self.table[self.poset.downset_rank(s.mask)]])

    __call__ = apply

    def pairs(self) -> tuple[tuple[DownSet, DownSet], ...]:
        """(downset, image) rows in canonical order."""
        ds = self.poset.downsets()
        return tuple((ds[i], ds[t]) for i, t in enumerate(self.table))

    def to_jsonable(self) -> list[list[list[str]]]:
        return [[s.to_jsonable(), img.to_jsonable()] for s, img in self.pairs()]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Nucleus):
            return NotImplemented
        return self.table == other.table and (
            self.poset is other.poset or self.poset == other.poset
        )

    def __hash__(self) -> int:
        return hash((self.poset._hash, self.table))

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
    rank = poset._dmask_pos
    d = len(masks)
    images: list[int | None] = [None] * d
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

    downs = poset.downsets()
    for i in range(d):
        if images[i] not in rank:
            raise ImageNotDownsetError(downs[i], Subset._wrap(poset, images[i]))
    for i in range(d):
        if masks[i] & ~images[i]:
            raise NotInflationaryError(downs[i])
    for i in range(d):
        if images[rank[images[i]]] != images[i]:
            raise NotIdempotentError(downs[i])
    for i in range(d):
        for k in range(i):
            if images[rank[masks[i] & masks[k]]] != images[i] & images[k]:
                raise NotMeetPreservingError(downs[k], downs[i])
    return Nucleus._wrap(poset, tuple(rank[img] for img in images))


def enumerate_nuclei(poset: Poset, cap: int = DEFAULT_NUCLEUS_CAP) -> list[Nucleus]:
    """Every nucleus on the downset lattice, in canonical table order.

    Backtracking assigns images along the canonical (cardinality-ascending)
    downset order.  Candidates are the supersets of each downset, so the
    search never leaves inflationary territory.  Two facts keep the tree
    small:

    * in cardinality-ascending order the meet of any two already-assigned
      downsets is itself already assigned, so meet preservation can be
      checked exactly against every earlier entry (this subsumes the
      monotonicity pruning: A <= B forces j(A) = j(A) & j(B));
    * an assignment j(S) = T with T != S forces j(T) = T, and T always sits
      later in the order, so idempotence turns into forward constraints and
      never needs a leaf check.

    Both prunings are sound and complete for the axioms, so what falls out
    of the leaves is exactly the set of nuclei, each one once, emitted in
    lexicographic table order.
    """
    dmasks = poset.downset_masks()
    d = len(dmasks)
    if d > cap:
        raise CapExceededError(
            f"{d} downsets exceeds the nucleus enumeration cap {cap}"
        )
    rank = poset.downset_rank
    supersets = [
        tuple(t for t in range(d) if not dmasks[i] & ~dmasks[t]) for i in range(d)
    ]
    meet_at = [[rank(dmasks[i] & dmasks[k]) for k in range(i)] for i in range(d)]

    assigned = [0] * d
    fixed = bytearray(d)
    out: list[Nucleus] = []

    def rec(i: int) -> None:
        if i == d:
            out.append(Nucleus._wrap(poset, tuple(assigned)))
            return
        row = meet_at[i]
        for t in (i,) if fixed[i] else supersets[i]:
            tm = dmasks[t]
            ok = True
            for k in range(i):
                if dmasks[assigned[row[k]]] != tm & dmasks[assigned[k]]:
                    ok = False
                    break
            if not ok:
                continue
            did_fix = False
            if t != i and not fixed[t]:
                fixed[t] = 1
                did_fix = True
            assigned[i] = t
            rec(i + 1)
            if did_fix:
                fixed[t] = 0

    rec(0)
    return out
