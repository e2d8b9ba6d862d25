"""Naive reference implementations used as independent test oracles.

Everything here works on plain label-level data: a poset is a tuple of
labels plus a set of (x, y) pairs meaning x <= y, subsets are frozensets
of labels, nucleus tables are dicts from frozenset to frozenset, covering
families are dicts from label to a set of frozensets.  No bitmasks, no
carry-over from the package internals; definitions are transcribed
directly so a bug in the package cannot hide in its oracle.
"""

import itertools


def order_pairs(poset):
    """Extract (labels, le) from a package Poset via its public surface."""
    labels = tuple(poset.labels)
    le = frozenset(
        (labels[p], labels[q])
        for p in range(poset.n)
        for q in range(poset.n)
        if poset.leq(p, q)
    )
    return labels, le


def is_partial_order(labels, le):
    for x in labels:
        if (x, x) not in le:
            return False
    for x, y in le:
        if x != y and (y, x) in le:
            return False
    for x, y in le:
        for y2, z in le:
            if y == y2 and (x, z) not in le:
                return False
    return True


def count_posets_brute(n):
    """Count partial orders on n labeled points by filtering every relation.

    All 2^(n*(n-1)) assignments of the off-diagonal entries, reflexivity
    added for free.  Only meant for n <= 4.
    """
    labels = tuple(range(n))
    offdiag = [(i, j) for i in labels for j in labels if i != j]
    count = 0
    for bits in itertools.product((False, True), repeat=len(offdiag)):
        le = frozenset(p for p, b in zip(offdiag, bits) if b) | frozenset(
            (i, i) for i in labels
        )
        if is_partial_order(labels, le):
            count += 1
    return count


def down(labels, le, p):
    return frozenset(x for x in labels if (x, p) in le)


def is_downclosed(labels, le, s):
    return all(x in s for p in s for x in labels if (x, p) in le)


def powerset(labels):
    for r in range(len(labels) + 1):
        for combo in itertools.combinations(labels, r):
            yield frozenset(combo)


def sieves_in_cone(labels, le, p):
    """Sieves on p: the subsets of p's cone that are closed downward."""
    cone = sorted(down(labels, le, p))
    return set(s for s in powerset(cone) if is_downclosed(labels, le, s))


def downsets_by_filter(labels, le):
    return set(s for s in powerset(labels) if is_downclosed(labels, le, s))


def sieves_by_filter(labels, le, p):
    dp = down(labels, le, p)
    return set(s for s in downsets_by_filter(labels, le) if s <= dp)


def covers_by_filter(labels, le):
    """Pairs x < y with nothing strictly between them."""
    out = set()
    for x, y in le:
        if x == y:
            continue
        if any(z != x and z != y and (x, z) in le and (z, y) in le
               for z in labels):
            continue
        out.add((x, y))
    return out


def directed_by_scan(labels, le):
    if not labels:
        return False
    return all(
        any((z, x) in le and (z, y) in le for z in labels)
        for x in labels for y in labels
    )


def implication_pointwise(labels, le, x_set, s_set):
    return frozenset(
        p for p in labels if down(labels, le, p) & x_set <= s_set
    )


def is_nucleus(labels, le, table):
    """Check the three nucleus axioms on a dict {downset: image}."""
    ds = downsets_by_filter(labels, le)
    if set(table) != ds:
        return False
    if any(img not in ds for img in table.values()):
        return False
    if any(not s <= table[s] for s in ds):
        return False
    if any(table[table[s]] != table[s] for s in ds):
        return False
    for a in ds:
        for b in ds:
            if table[a & b] != table[a] & table[b]:
                return False
    return True


def all_nuclei_by_filter(labels, le):
    """Every nucleus table, by filtering all |D|^|D| maps.  Tiny posets only."""
    ds = sorted(downsets_by_filter(labels, le), key=lambda s: (len(s), sorted(s)))
    out = []
    for images in itertools.product(ds, repeat=len(ds)):
        table = dict(zip(ds, images))
        if is_nucleus(labels, le, table):
            out.append(table)
    return out


def is_topology(labels, le, families):
    """Check the covering-family axioms on a dict {label: set of sieves}."""
    if set(families) != set(labels):
        return False
    for p in labels:
        dp = down(labels, le, p)
        for s in families[p]:
            if not (s <= dp and is_downclosed(labels, le, s)):
                return False
        if dp not in families[p]:
            return False
    # stability: covers pull back along q <= p
    for p in labels:
        dp = down(labels, le, p)
        for s in families[p]:
            for q in dp:
                if s & down(labels, le, q) not in families[q]:
                    return False
    # transitivity: locally covered on a cover means covered
    for p in labels:
        for r in sieves_by_filter(labels, le, p):
            if r in families[p]:
                continue
            for s in families[p]:
                if all(r & down(labels, le, q) in families[q] for q in s):
                    return False
    return True


def all_topologies_by_filter(labels, le):
    """Every topology, by filtering the full product of per-point families."""
    per_point = []
    for p in labels:
        sieves = sorted(sieves_by_filter(labels, le, p),
                        key=lambda s: (len(s), sorted(s)))
        point_families = [
            frozenset(f) for r in range(len(sieves) + 1)
            for f in itertools.combinations(sieves, r)
        ]
        per_point.append(point_families)
    out = []
    for choice in itertools.product(*per_point):
        families = dict(zip(labels, choice))
        if is_topology(labels, le, families):
            out.append(families)
    return out
