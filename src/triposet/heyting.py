"""Heyting-algebra structure on the downsets of a finite poset.

Downsets ordered by inclusion form a complete lattice: ``a & b`` (or
:func:`meet`) is meet and ``a | b`` is join, with bottom ``poset.downset([])``
and top ``poset.downset(poset.labels)``.  Implication is pointwise:

    X -> S  =  {p : (principal downset of p) intersect X  is contained in S}

and the left argument may be an arbitrary subset, not just a downset.  The
result is always downward closed, and on downsets the operation satisfies
the adjunction  A & B <= C  iff  A <= (B -> C).
"""

from __future__ import annotations

from .poset import DownSet, Poset, Subset

__all__ = ["implication", "meet"]


def meet(a: DownSet, b: DownSet) -> DownSet:
    """Intersection of two downsets of the same poset."""
    if not isinstance(a, DownSet) or not isinstance(b, DownSet):
        raise TypeError("meet is defined on downsets")
    return a & b


def implication_mask(poset: Poset, x_mask: int, s_mask: int) -> int:
    """Mask-level implication; ``x_mask`` need not be downward closed."""
    blocked = x_mask & ~s_mask
    if not blocked:
        return poset.full_mask
    out = 0
    down = poset._down
    for p in range(poset.n):
        if not down[p] & blocked:
            out |= 1 << p
    return out


def implication(x: Subset, s: DownSet) -> DownSet:
    """The downset of points whose cone meets ``x`` only inside ``s``."""
    x._check(s)
    return DownSet._wrap(x.poset, implication_mask(x.poset, x.mask, s.mask))
