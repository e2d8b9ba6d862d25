"""Slow references for the oracle layer.

These are :func:`enumerate_topologies`, :func:`validate_topology` and
:func:`validate_nucleus` as they were before the mask rewrite: the
enumerator checks transitivity only on completed assignments, and the
validators test sieve-hood and downset-hood by walking bits and scan every
sieve of a witness for transitivity.  :func:`reference_enumerate_nuclei` is
the nucleus search as it was before it moved to the meet-irreducible
downsets: it assigns one image per downset in canonical order.
:func:`reference_enumerate_posets` is the labeled-poset stream as it was
before it pruned by triples: every state of the full product, filtered for
transitivity.  They are kept so tests can check that the optimised oracles
give the same lists, in the same order, and raise the same errors with the
same witnesses.
"""

from __future__ import annotations

import itertools
import string
from collections.abc import Mapping

from triposet.errors import (
    CapExceededError,
    ImageNotDownsetError,
    MissingMaximalError,
    NotASieveError,
    NotIdempotentError,
    NotInflationaryError,
    NotMeetPreservingError,
    PosetMismatchError,
    StabilityFailError,
    TransitivityFailError,
)
from triposet.nucleus import DEFAULT_NUCLEUS_CAP, Nucleus
from triposet.poset import DownSet, Poset, Subset, _bits
from triposet.topology import DEFAULT_TOPOLOGY_CAP, GrothendieckTopology


def _canon(masks):
    return tuple(sorted(set(masks), key=lambda m: (m.bit_count(), m)))


def reference_validate_nucleus(poset, table):
    items = table.items() if isinstance(table, Mapping) else table
    masks = poset.downset_masks()
    rank = poset._downset_ranks()
    d = len(masks)
    images = [None] * d
    for key, value in items:
        if key.poset is not poset and key.poset != poset:
            raise PosetMismatchError("table key belongs to a different poset")
        if value.poset is not poset and value.poset != poset:
            raise PosetMismatchError("table image belongs to a different poset")
        if not poset.is_downset_mask(key.mask):
            raise ValueError(f"table key {key} is not a downset")
        i = rank[key.mask]
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
        if not poset.is_downset_mask(images[i]):
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
    return Nucleus(poset, images)


def reference_validate_topology(poset, families):
    if isinstance(families, Mapping):
        seq = [None] * poset.n
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

    down = poset._down
    fam_masks = []
    for p in range(poset.n):
        entries = []
        for s in families[p]:
            if s.poset is not poset and s.poset != poset:
                raise PosetMismatchError("sieve belongs to a different poset")
            entries.append(s.mask)
        entries = _canon(entries)
        for m in entries:
            if m & ~down[p] or not poset.is_downset_mask(m):
                raise NotASieveError(poset.labels[p], Subset._wrap(poset, m))
        fam_masks.append(entries)

    fam_sets = [set(f) for f in fam_masks]
    for p in range(poset.n):
        if down[p] not in fam_sets[p]:
            raise MissingMaximalError(poset.labels[p])
    for p in range(poset.n):
        for s in fam_masks[p]:
            for q in _bits(down[p]):
                if q != p and s & down[q] not in fam_sets[q]:
                    raise StabilityFailError(
                        poset.labels[p], poset.labels[q], DownSet._wrap(poset, s)
                    )
    for p in range(poset.n):
        for r in poset.sieve_masks(p):
            if r in fam_sets[p]:
                continue
            for s in fam_masks[p]:
                if all(r & down[q] in fam_sets[q] for q in _bits(s)):
                    raise TransitivityFailError(
                        poset.labels[p],
                        DownSet._wrap(poset, s),
                        DownSet._wrap(poset, r),
                    )
    return GrothendieckTopology(poset, fam_masks)


def reference_enumerate_topologies(poset, cap=DEFAULT_TOPOLOGY_CAP):
    """Stability pruned per point, transitivity checked on each leaf."""
    n = poset.n
    if n > cap:
        raise CapExceededError(
            f"{n} elements exceeds the topology enumeration cap {cap}"
        )
    down = poset._down
    order = sorted(range(n), key=lambda p: (down[p].bit_count(), p))
    sieves = [poset.sieve_masks(p) for p in range(n)]
    fam = [None] * n
    results = []

    def families_at(p):
        full = down[p]
        below = [q for q in _bits(full) if q != p]
        allowed = [
            s
            for s in sieves[p]
            if s == full or all(s & down[q] in fam[q] for q in below)
        ]
        elems = sorted(allowed, key=lambda m: (-m.bit_count(), m))
        m = len(elems)
        need = [
            [a for a in range(k) if elems[a] != elems[k] and not elems[k] & ~elems[a]]
            for k in range(m)
        ]
        chosen = [False] * m
        fams = []

        def rec(k):
            if k == m:
                fams.append(frozenset(e for e, c in zip(elems, chosen) if c))
                return
            if all(chosen[a] for a in need[k]):
                chosen[k] = True
                rec(k + 1)
                chosen[k] = False
            if elems[k] != full:
                rec(k + 1)

        rec(0)
        return fams

    def transitive():
        for p in range(n):
            fp = fam[p]
            for r in sieves[p]:
                if r in fp:
                    continue
                for s in fp:
                    if all(r & down[q] in fam[q] for q in _bits(s)):
                        return False
        return True

    def rec_points(idx):
        if idx == n:
            if transitive():
                results.append(
                    GrothendieckTopology(poset, [tuple(fam[p]) for p in range(n)])
                )
            return
        p = order[idx]
        for f in families_at(p):
            fam[p] = f
            rec_points(idx + 1)
        fam[p] = None

    rec_points(0)
    results.sort(key=lambda t: t.families)
    return results


def reference_enumerate_nuclei(poset, cap=DEFAULT_NUCLEUS_CAP):
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
    out = []

    def rec(i):
        if i == d:
            out.append(Nucleus(poset, [dmasks[t] for t in assigned]))
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


def _is_transitive(down):
    for q in range(len(down)):
        m = down[q]
        t = m
        while t:
            low = t & -t
            if down[low.bit_length() - 1] & ~m:
                return False
            t ^= low
    return True


def reference_enumerate_posets(n):
    """Every labeled poset on ``n`` elements: all 3**(n choose 2) states, filtered."""
    labels = tuple(string.ascii_lowercase[:n])
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    base = [1 << i for i in range(n)]
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        down = base.copy()
        for (i, j), s in zip(pairs, states):
            if s == 1:
                down[j] |= 1 << i  # i below j
            elif s == 2:
                down[i] |= 1 << j  # j below i
        if _is_transitive(down):
            yield Poset(labels, down)
