"""The mask-based oracles against the slow references in ``reference_oracles.py``.

The nucleus enumerator searches the values on the meet-irreducible
downsets, the topology enumerator chooses the least covering sieve of each
point, and both validators test membership through the poset's rank dict.
Each search lists 2^n distinct generator tuples, each its value's own,
which expand in canonical order to the reference census, past the default
caps too.  These tests hold them to the pre-rewrite code: the same nucleus
and topology lists in the same order, and for every one-entry change of a
valid table or family set, the same exception with the same message and
witnesses, or the same accepted value.  The validators' mask cores, which
``verify_triangle`` calls, are held to the public validators on the same
changes, and both cores accept every census value, past the default caps
too.  The pruned labeled-poset stream is held to the filtered product, in
order, and the reference topologies are held to the one-generator form the
topology enumerator assumes.
"""

import pytest

from reference_oracles import (
    reference_enumerate_nuclei,
    reference_enumerate_posets,
    reference_enumerate_topologies,
    reference_validate_nucleus,
    reference_validate_topology,
)
from triposet import (
    DEFAULT_NUCLEUS_CAP,
    GrothendieckTopology,
    Nucleus,
    Poset,
    Subset,
    build_poset,
    enumerate_nuclei,
    enumerate_posets,
    enumerate_topologies,
    nucleus_to_topology,
    subset_to_nucleus,
    subset_to_topology,
    topology_to_nucleus,
    validate_nucleus,
    validate_topology,
)
from triposet.errors import NotMeetPreservingError, TriposetError
from triposet.nucleus import _check_nucleus, _images, _in_order, _nucleus_generators
from triposet.poset import _bits
from triposet.topology import _check_topology, _families, _topology_generators


def chain(n):
    labels = [f"c{i}" for i in range(n)]
    return build_poset(labels, list(zip(labels, labels[1:])))


def enumeration_posets():
    """All labeled posets with n <= 4 and every 30th labeled n = 5 poset."""
    for n in range(5):
        yield from enumerate_posets(n)
    for i, poset in enumerate(enumerate_posets(5, cap=5)):
        if i % 30 == 0:
            yield poset


def mutation_posets(diamond):
    for n in range(4):
        yield from enumerate_posets(n)
    yield diamond


def canon(sieves):
    """Masks of ``sieves`` in the canonical order the topology core takes."""
    return tuple(sorted({s.mask for s in sieves}, key=lambda m: (m.bit_count(), m)))


def outcome(validate, poset, value):
    """``("ok", value)`` or the raised error's type, message and witnesses."""
    try:
        return "ok", validate(poset, value)
    except (TriposetError, ValueError) as exc:
        return type(exc), str(exc), vars(exc)


def cube():
    labels = [format(i, "03b") for i in range(8)]
    return build_poset(
        labels,
        [(a, b) for a in labels for b in labels if a != b and all(x <= y for x, y in zip(a, b))],
    )


def _nucleus_lists_match(poset, cap=DEFAULT_NUCLEUS_CAP):
    """The same tables as the reference, in order, each a nucleus, none twice."""
    nuclei = enumerate_nuclei(poset, cap=cap)
    got = [j.images for j in nuclei]
    assert got == [j.images for j in reference_enumerate_nuclei(poset, cap=cap)]
    assert len(set(got)) == len(got)
    for j in nuclei:
        assert validate_nucleus(poset, dict(j.pairs())).images == j.images


def test_enumerated_nuclei_match_the_reference_in_order():
    checked = 0
    for poset in enumeration_posets():
        _nucleus_lists_match(poset)
        checked += 1
    assert checked == 243 + 142


@pytest.mark.parametrize(
    "poset, cap",
    [(build_poset([f"a{i}" for i in range(7)]), 128), (chain(10), 32), (cube(), 32)],
    ids=["antichain7", "chain10", "cube"],
)
def test_large_nucleus_lists_match_the_reference_in_order(poset, cap):
    _nucleus_lists_match(poset, cap)


def generator_posets():
    """All labeled posets with n <= 4, every 10th labeled n = 5 poset, and
    chain10, antichain7 and the cube, which are past the default caps."""
    for n in range(5):
        yield from enumerate_posets(n)
    for i, poset in enumerate(enumerate_posets(5, cap=5)):
        if i % 10 == 0:
            yield poset
    yield from (chain(10), build_poset([f"a{i}" for i in range(7)]), cube())


def test_the_generator_searches_expand_to_the_reference_censuses():
    """Each search lists 2^n distinct generator tuples, each that of its
    value (T_p = j(M_p), m_p the least sieve in J(p)), and expanding them
    in canonical order gives the reference's census.  The complements of
    the T_p are the least sieves of the opposite poset's topologies."""
    checked = 0
    for poset in generator_posets():
        n, full, up = poset.n, poset.full_mask, poset._up
        rank = poset._downset_ranks()
        Ts, ms = _nucleus_generators(poset), _topology_generators(poset)
        assert len(set(Ts)) == len(Ts) == 1 << n
        assert len(set(ms)) == len(ms) == 1 << n
        tables, fams = _images(poset, Ts), _families(poset, ms)
        assert all(t[rank[full & ~up[p]]] == T[p] for T, t in zip(Ts, tables) for p in range(n))
        assert all(f[p][0] == m[p] for m, f in zip(ms, fams) for p in range(n))
        cap = len(poset.downset_masks())
        assert _in_order(tables) == [j.images for j in reference_enumerate_nuclei(poset, cap=cap)]
        assert sorted(fams) == [J.families for J in reference_enumerate_topologies(poset, cap=n)]
        # one search: the nucleus search is the topology search on the up-sets
        dual = _topology_generators(Poset(poset.labels, up))
        assert set(Ts) == {tuple(full ^ g for g in m) for m in dual}
        checked += 1
    assert checked == 243 + 424 + 3


@pytest.mark.parametrize("n", range(6))
def test_poset_stream_matches_the_filtered_product_in_order(n):
    got = [(p.labels, p._down) for p in enumerate_posets(n, cap=5)]
    assert got == [(p.labels, p._down) for p in reference_enumerate_posets(n)]


def test_enumerated_topologies_match_the_reference_in_order():
    checked = 0
    for poset in enumeration_posets():
        got = [J.families for J in enumerate_topologies(poset)]
        assert got == [J.families for J in reference_enumerate_topologies(poset)]
        checked += 1
    assert checked == 243 + 142


@pytest.mark.parametrize(
    "poset, cap",
    [(chain(6), 6), (cube(), 8), (build_poset([f"a{i}" for i in range(7)]), 7), (chain(8), 8)],
    ids=["chain6", "cube", "antichain7", "chain8"],
)
def test_large_topology_lists_match_the_reference_in_order(poset, cap):
    got = [J.families for J in enumerate_topologies(poset, cap=cap)]
    assert got == [J.families for J in reference_enumerate_topologies(poset, cap=cap)]
    assert len(got) == 2**poset.n


def test_reference_topologies_are_generated_by_one_sieve_per_point():
    """J(p) is the sieves on p that contain its least sieve m_p, and the m_p
    meet the two conditions ``enumerate_topologies`` chooses them by."""
    checked = 0
    for poset in [*(p for n in range(5) for p in enumerate_posets(n)), cube()]:
        down = poset._down
        for J in reference_enumerate_topologies(poset, cap=8):
            gen = [f[0] for f in J.families]
            for p, m in enumerate(gen):
                assert J.families[p] == tuple(s for s in poset.sieve_masks(p) if not m & ~s)
                # stability: the generator of each point below p lies inside m_p
                assert all(not gen[q] & ~m for q in _bits(down[p]) if q != p)
                # transitivity: the generators of the points of m_p cover m_p
                reach = 0
                for q in _bits(m):
                    reach |= gen[q]
                assert m == down[p] or not m & ~reach
            checked += 1
    assert checked == 1 + 2 + 3 * 4 + 19 * 8 + 219 * 16 + 256


def test_topology_validators_agree_on_every_one_sieve_change(diamond):
    # every 8th labeled n = 4 poset too, so the least-covering-sieve accept
    # meets four-point cones other than the diamond's
    four = [p for i, p in enumerate(enumerate_posets(4)) if i % 8 == 0]
    accepted = rejected = 0
    for poset in [*mutation_posets(diamond), *four]:
        every = [Subset._wrap(poset, m) for m in range(1 << poset.n)]
        for J in enumerate_topologies(poset):
            sieves = [J.sieves_at(q) for q in range(poset.n)]
            for p in range(poset.n):
                for s in every:
                    families = [list(f) for f in sieves]
                    if s in families[p]:
                        families[p].remove(s)
                    else:
                        families[p].append(s)
                    masks = list(J.families)
                    masks[p] = canon(families[p])
                    got = outcome(validate_topology, poset, families)
                    want = outcome(reference_validate_topology, poset, families)
                    core = outcome(_check_topology, poset, masks)
                    assert got[0] == want[0] == core[0]
                    if got[0] == "ok":
                        assert got[1].families == want[1].families == core[1]
                        accepted += 1
                    else:
                        assert got == want == core
                        rejected += 1
    assert accepted and rejected


def test_the_validator_cores_accept_every_census_value():
    """Each core returns every value its enumerator lists unchanged, also
    on posets past the default caps, where the values are larger than any
    that the one-entry changes above reach."""
    small = [p for n in range(5) for p in enumerate_posets(n)]
    topologies = nuclei = 0
    for poset in [*small, chain(8), cube()]:
        for J in enumerate_topologies(poset, cap=poset.n):
            assert _check_topology(poset, J.families) == J.families
            topologies += 1
    for poset in [*small, chain(8), cube(), chain(10)]:
        for j in enumerate_nuclei(poset, cap=len(poset.downset_masks())):
            assert _check_nucleus(poset, j.images) == j.images
            nuclei += 1
    assert topologies == 1 + 2 + 3 * 4 + 19 * 8 + 219 * 16 + 2 * 256
    assert nuclei == topologies + 1024


def test_nucleus_validators_agree_on_every_one_entry_change(diamond):
    accepted = rejected = 0
    for poset in mutation_posets(diamond):
        every = [Subset._wrap(poset, m) for m in range(1 << poset.n)]
        for j in enumerate_nuclei(poset):
            rows = list(j.pairs())
            for key, image in rows:
                for other in every:
                    if other == image:
                        continue
                    table = dict(rows)
                    table[key] = other
                    got = outcome(validate_nucleus, poset, table)
                    want = outcome(reference_validate_nucleus, poset, table)
                    images = [table[s].mask for s in poset.downsets()]
                    core = outcome(_check_nucleus, poset, images)
                    assert got[0] == want[0] == core[0]
                    if got[0] == "ok":
                        assert got[1].images == want[1].images == core[1]
                        accepted += 1
                    else:
                        assert got == want == core
                        rejected += 1
    assert accepted and rejected


@pytest.mark.parametrize(
    "validate",
    [
        validate_nucleus,
        reference_validate_nucleus,
        lambda poset, table: _check_nucleus(poset, [table[s].mask for s in poset.downsets()]),
    ],
    ids=["public", "reference", "core"],
)
def test_inflationary_idempotent_map_that_breaks_meets(antichain2, validate):
    # j({}) = {} and everything else to P: j({a} & {b}) = {} but j({a}) & j({b}) = P
    full = antichain2.downset("ab")
    table = {d: d if not d else full for d in antichain2.downsets()}
    with pytest.raises(NotMeetPreservingError) as exc:
        validate(antichain2, table)
    assert exc.value.left == antichain2.downset("a")
    assert exc.value.right == antichain2.downset("b")


def test_trusted_values_equal_what_the_checking_constructors_build(diamond):
    """Enumerators and edges build trusted values; the public constructors agree."""
    for poset in mutation_posets(diamond):
        nuclei = enumerate_nuclei(poset)
        topologies = enumerate_topologies(poset)
        built_nuclei = [
            *nuclei,
            *(subset_to_nucleus(x) for x in poset.subsets()),
            *(topology_to_nucleus(J) for J in topologies),
        ]
        built_topologies = [
            *topologies,
            *(subset_to_topology(x) for x in poset.subsets()),
            *(nucleus_to_topology(j) for j in nuclei),
        ]
        for j in built_nuclei:
            assert Nucleus(poset, j.images) == j
        for J in built_topologies:
            assert GrothendieckTopology(poset, J.families) == J


@pytest.mark.parametrize("validate", [validate_nucleus, reference_validate_nucleus])
def test_open_key_is_rejected_by_both(chain2, validate):
    rows = dict(enumerate_nuclei(chain2)[0].pairs())
    rows[chain2.subset("b")] = rows.pop(chain2.downset("a"))
    with pytest.raises(ValueError, match="is not a downset"):
        validate(chain2, rows)
