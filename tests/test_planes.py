"""The bit-plane layer under the triangle engine.

A batch of values is held as planes, one int per bit of a value.  Each
corner's lift, and its decoder on the columns of those planes, round-trip
its values for every poset size from 0 to 10, lane k alone decoding to
value k, and a lift reads only the bits and sieves its planes hold (the
mask lift saying whether that is all of the batch); the family lift gives
the per-bit planes however the families of a batch repeat.  The plane
checks of ``nucleus.py`` and ``topology.py`` set bit k of their "fails"
mask exactly when the axiom-by-axiom witness scan raises on value k: on
random batches of broken values, on every one-entry change of the nuclei
and topologies of small posets, on every census value of the posets with
n <= 4, on every family tuple and generator tuple of the labeled posets
with n <= 3 and every image tuple of those with n <= 2, and on census
values and generator tuples with one entry changed on every 100th labeled
poset with n = 5.  The
closed-form planes of all 2**n subsets are their transpose for n <= 16.
The transpose inverts itself and refuses a value out of range at widths
from 0 to 200 bits, and a batch past 1,024 lanes lowers, whole and lane by
lane, and lifts back bit for bit.  The columns of the planes
``verify_triangle`` lifts from generator tuples decode to the values the
tuples expand to, and with the generator planes each check also flags a
value whose generators are not its own.
"""

import random
from collections import Counter
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import posets
from triposet import (
    build_poset, enumerate_nuclei, enumerate_posets, enumerate_topologies, triangle,
)
from triposet.errors import TriposetError
from triposet.nucleus import _check_nucleus, _images, _nucleus_fails, _nucleus_generators
from triposet.poset import _layout
from triposet.topology import _check_topology, _families, _topology_fails, _topology_generators
from triposet.triangle import _columns, _mask_planes, _transpose


def random_poset(n, rng):
    labels = [f"p{i}" for i in range(n)]
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.3]
    return build_poset(labels, pairs)


def chain(n):
    labels = [f"c{i}" for i in range(n)]
    return build_poset(labels, list(zip(labels, labels[1:])))


def _image_planes(poset, tables):
    """The image planes of a batch of image tuples, and whether they hold it exactly."""
    return _mask_planes(tables, poset.n, len(poset.downset_masks()))


def family_planes_by_bit(poset, batch):
    """Plane (p, s) has bit k when s is in ``batch[k][p]``; the planes hold
    the batch exactly when each family is its sieves in canonical order."""
    planes = [0] * _layout(poset).size
    for p, at in enumerate(_layout(poset).index):
        for m, t in at.items():
            planes[t] = sum((m in f[p]) << k for k, f in enumerate(batch))
    exact = all(f[p] == tuple(m for m in poset.sieve_masks(p) if m in f[p])
                for f in batch for p in range(poset.n))
    return planes, exact


@pytest.mark.parametrize("n", range(11))
def test_the_transposes_round_trip(n):
    rng = random.Random(n)
    for poset in (chain(n), random_poset(n, rng)):
        r = _layout(poset)
        dmasks = poset.downset_masks()
        for w in (0, 1, 2, 9, 40):
            xs = [rng.randrange(1 << n) for _ in range(w)]
            tables = [tuple(rng.randrange(1 << n) for _ in dmasks) for _ in range(w)]
            fams = [tuple(tuple(m for m in poset.sieve_masks(p) if rng.random() < 0.5)
                          for p in range(n)) for _ in range(w)]
            planes = triangle._SUBSET.lift(r, xs)
            assert planes == [sum((x >> q & 1) << k for k, x in enumerate(xs)) for q in range(n)]
            planes = triangle._NUCLEUS.lift(r, tables)
            assert planes == [sum((t[i] >> p & 1) << k for k, t in enumerate(tables))
                              for i in range(len(dmasks)) for p in range(n)]
            planes = triangle._TOPOLOGY.lift(r, fams)
            assert planes == family_planes_by_bit(poset, fams)[0]
            for corner, values in ((triangle._SUBSET, xs), (triangle._NUCLEUS, tables),
                                   (triangle._TOPOLOGY, fams)):
                planes = corner.lift(r, values)
                assert corner.decode(r, _columns(planes, w)) == values
                # lane k alone, shifted down to lane 0, is value k
                assert [corner.decode(r, _columns([p >> k for p in planes], 1))[0]
                        for k in range(w)] == values


@pytest.mark.parametrize("n", range(17))
def test_the_closed_form_planes_of_all_subsets_are_their_transpose(n):
    # the subset lift reads only n off the layout
    layout = SimpleNamespace(n=n)
    assert triangle._all_subsets(n, (1 << (1 << n)) - 1) == triangle._SUBSET.lift(
        layout, range(1 << n))


@pytest.mark.parametrize("w", [0, 1, 2, 9, 40])
@pytest.mark.parametrize("width", [*range(25), 63, 64, 65, 200])
def test_the_transpose_round_trips_and_refuses_a_value_out_of_range(width, w):
    """1-, 2-, 3-, 8-, 9- and 25-byte values: the transpose inverts itself,
    a value below 0 or past the width raises at any lane, and the mask lift
    reads such a batch as its masked values and says it is not exact."""
    rng = random.Random(width * 41 + w)
    values = [rng.randrange(1 << width) for _ in range(w)]
    planes = _transpose(values, width)
    assert planes == [sum((v >> b & 1) << k for k, v in enumerate(values)) for b in range(width)]
    assert _columns(planes, w) == values
    full = (1 << width) - 1
    for stray in (-1, 1 << width):
        at = rng.randrange(w + 1)
        batch = [*values[:at], stray, *values[at:]]
        with pytest.raises((ValueError, OverflowError)):
            _transpose(batch, width)
        pairs = list(zip(batch, reversed(batch)))
        masked = [m & full for m in batch]
        assert _mask_planes(pairs, width, 2) == (
            _transpose(masked, width) + _transpose(masked[::-1], width), False)


@pytest.mark.parametrize("w", [1025, 4096])
def test_a_batch_past_1024_lanes_lowers_and_lifts_bit_for_bit(w):
    """20 planes of w lanes, with bits past the last lane and below 0: bit j
    of value k is bit k of plane j, and the values lift back to the planes
    cut to the batch."""
    rng = random.Random(w)
    planes = [rng.getrandbits(w + 9) - (1 << w + 8) for _ in range(20)]
    values = _columns(planes, w)
    assert values == [sum((plane >> k & 1) << j for j, plane in enumerate(planes))
                      for k in range(w)]
    assert _transpose(values, len(planes)) == [plane & (1 << w) - 1 for plane in planes]
    # lane k alone: the planes shifted down keep their bits past lane 0
    assert [_columns([plane >> k for plane in planes], 1)[0] for k in range(w)] == values


@pytest.mark.parametrize("poset, cap", [(chain(4), 5), (chain(10), 11)], ids=["chain4", "chain10"])
def test_a_lift_reads_only_what_the_planes_hold_and_says_so(poset, cap):
    # past the packed bytes, inside them past bit n, and below 0
    full, n = poset.full_mask, poset.n
    nuclei = [j.images for j in enumerate_nuclei(poset, cap=cap)]
    assert _image_planes(poset, nuclei)[1]
    for stray in (1 << 16, 1 << n, -1):
        batch = [*nuclei[:2], (nuclei[2][0] | stray, *nuclei[2][1:]), *nuclei[3:]]
        planes, exact = _image_planes(poset, batch)
        assert not exact
        assert planes == _image_planes(poset, [tuple(m & full for m in t) for t in batch])[0]
    topologies = [J.families for J in enumerate_topologies(poset, cap=n)]
    sieves = [set(poset.sieve_masks(p)) for p in range(n)]
    for change in (
        lambda f: ((*f[0], full), *f[1:]),  # not a sieve on the least point
        lambda f: tuple(tuple(reversed(fam)) for fam in f),
        lambda f: tuple((*fam, fam[0]) for fam in f),
    ):
        batch = [*topologies[:2], change(topologies[2]), *topologies[3:]]
        held = [tuple(sorted(set(fam) & at, key=lambda m: (m.bit_count(), m)))
                for fam, at in zip(batch[2], sieves)]
        assert triangle._family_planes(_layout(poset), batch) == triangle._family_planes(
            _layout(poset), [*batch[:2], tuple(held), *batch[3:]])


ZIGZAG = build_poset("abcd", [("a", "c"), ("b", "c"), ("b", "d")])


@pytest.mark.parametrize("poset", [chain(4), ZIGZAG], ids=["chain4", "zigzag"])
def test_a_lift_reads_each_distinct_family_for_every_value_holding_it(poset):
    """Families repeat across values, as one tuple object and as equal but
    distinct tuples; the lift gives each value holding a family its bit, as
    the per-bit rule says."""
    topologies = [J.families for J in enumerate_topologies(poset)]
    first, second = topologies[0], max(topologies, key=lambda f: sum(map(len, f)))
    copy = tuple(tuple(list(fam)) for fam in second)
    assert copy == second and all(a is not b for a, b in zip(copy, second))
    mixed = tuple(first[p] if p % 2 else second[p] for p in range(poset.n))
    reversed_ = tuple(tuple(reversed(fam)) for fam in second)
    for batch in (
        [], [first], [copy], [reversed_],
        [first, first, first],
        [first, second, copy, first, mixed, second],
        [*topologies, *topologies[::-1]],
        [reversed_, first, reversed_, tuple(tuple(reversed(fam)) for fam in second)],
    ):
        assert triangle._family_planes(_layout(poset), batch) == family_planes_by_bit(
            poset, batch)[0]


def _raises(check, poset, value):
    try:
        check(poset, value)
    except TriposetError as exc:
        return type(exc).__name__
    return None


def _check_batch(fails_of, planes_of, check, poset, batch):
    """The plane check's mask against the core on each value; the core's error kinds."""
    planes, exact = planes_of(poset, batch)
    assert exact
    fails = fails_of(poset, planes, (1 << len(batch)) - 1)
    kinds = [_raises(check, poset, value) for value in batch]
    assert [bool(fails >> k & 1) for k in range(len(batch))] == [k is not None for k in kinds]
    assert fails >> len(batch) == 0
    return Counter(kinds)


def check_nuclei(poset, batch):
    return _check_batch(_nucleus_fails, _image_planes, _check_nucleus, poset, batch)


def check_topologies(poset, batch):
    def planes_of(poset, batch):
        return triangle._family_planes(_layout(poset), batch), family_planes_by_bit(
            poset, batch)[1]

    return _check_batch(_topology_fails, planes_of, _check_topology, poset, batch)


@st.composite
def image_batches(draw):
    """A poset and a batch of image tuples: nuclei, nuclei with one image
    changed to a downset or to any mask, and tuples of random downsets."""
    poset = draw(posets(max_n=4))
    dmasks = poset.downset_masks()
    nuclei = [j.images for j in enumerate_nuclei(poset)]
    batch = []
    for _ in range(draw(st.integers(1, 12))):
        images = list(draw(st.sampled_from(nuclei)))
        how = draw(st.sampled_from(["nucleus", "downset", "mask", "random"]))
        i = draw(st.integers(0, len(images) - 1))
        if how == "downset":
            images[i] = draw(st.sampled_from(dmasks))
        elif how == "mask":
            images[i] = draw(st.integers(0, poset.full_mask))
        elif how == "random":
            images = [draw(st.sampled_from(dmasks)) for _ in dmasks]
        batch.append(tuple(images))
    return poset, batch


@st.composite
def family_batches(draw):
    """A poset and a batch of families on sieves: topologies, topologies
    with one sieve added or dropped at one point, and random families."""
    poset = draw(posets(max_n=4))
    topologies = [J.families for J in enumerate_topologies(poset)]
    batch = []
    for _ in range(draw(st.integers(1, 12))):
        fams = list(draw(st.sampled_from(topologies)))
        how = draw(st.sampled_from(["topology", "toggle", "random"]))
        if poset.n and how == "toggle":
            p = draw(st.integers(0, poset.n - 1))
            s = draw(st.sampled_from(poset.sieve_masks(p)))
            fams[p] = tuple(m for m in poset.sieve_masks(p) if (m in fams[p]) != (m == s))
        elif how == "random":
            fams = [tuple(m for m in poset.sieve_masks(p) if draw(st.booleans()))
                    for p in range(poset.n)]
        batch.append(tuple(fams))
    return poset, batch


@given(image_batches())
@settings(max_examples=150, deadline=None)
def test_the_nucleus_plane_check_flags_exactly_what_the_scan_rejects(case):
    check_nuclei(*case)


@given(family_batches())
@settings(max_examples=150, deadline=None)
def test_the_topology_plane_check_flags_exactly_what_the_scan_rejects(case):
    check_topologies(*case)


def test_every_one_entry_change_is_flagged_exactly(diamond, vee, chain3, antichain2):
    """All one-entry changes of every nucleus and every topology, each
    poset's as one batch; every axiom the scans name fails somewhere."""
    nucleus_kinds, topology_kinds = Counter(), Counter()
    for poset in (diamond, vee, chain3, antichain2):
        every = range(1 << poset.n)
        batch = [(*j.images[:i], m, *j.images[i + 1:])
                 for j in enumerate_nuclei(poset) for i in range(len(j.images)) for m in every]
        nucleus_kinds += check_nuclei(poset, batch)
        batch = [(*J.families[:p],
                  tuple(m for m in poset.sieve_masks(p) if (m in J.families[p]) != (m == s)),
                  *J.families[p + 1:])
                 for J in enumerate_topologies(poset)
                 for p in range(poset.n) for s in poset.sieve_masks(p)]
        topology_kinds += check_topologies(poset, batch)
    assert set(nucleus_kinds) - {None} == {"ImageNotDownsetError", "NotInflationaryError",
                                           "NotIdempotentError", "NotMeetPreservingError"}
    assert set(topology_kinds) - {None} == {"MissingMaximalError", "StabilityFailError",
                                            "TransitivityFailError"}


def test_every_census_value_passes_both_plane_checks():
    for n in range(5):
        for poset in enumerate_posets(n):
            nuclei = [j.images for j in enumerate_nuclei(poset)]
            topologies = [J.families for J in enumerate_topologies(poset)]
            assert check_nuclei(poset, nuclei) == {None: 1 << n}
            assert check_topologies(poset, topologies) == {None: 1 << n}


def generator_planes(poset, gens, ones):
    """What ``verify_triangle`` lifts from a batch of generator tuples: the
    n * n generator planes, the meets of the T_p and the sieves containing
    the m_p."""
    r, n = _layout(poset), poset.n
    planes = _mask_planes(gens, n, n)[0]
    return (planes, r.meets([planes[p * n : p * n + n] for p in range(n)], ones),
            r.covering([ones ^ x for x in planes], ones))


@st.composite
def generator_batches(draw, stray=False):
    """A poset and a batch of generator tuples: those of the census values
    of either search, with one generator changed to any mask (any int with
    ``stray``), and random tuples."""
    poset = draw(posets(max_n=4))
    census = _nucleus_generators(poset) + _topology_generators(poset)
    masks = st.integers(-4, 1 << 9) if stray else st.integers(0, poset.full_mask)
    batch = []
    for _ in range(draw(st.integers(1, 12))):
        gens = list(draw(st.sampled_from(census)))
        how = draw(st.sampled_from(["census", "one", "random"]))
        if poset.n and how == "one":
            gens[draw(st.integers(0, poset.n - 1))] = draw(masks)
        elif how == "random":
            gens = [draw(masks) for _ in gens]
        batch.append(tuple(gens))
    return poset, batch


@given(generator_batches(stray=True))
@settings(max_examples=150, deadline=None)
def test_the_generator_planes_hold_what_the_expansions_list(case):
    """The image and family planes lifted from generator tuples lower to the
    values the tuples expand to, for any ints, so the law-by-law path lists
    each census off its planes."""
    poset, batch = case
    r, w = _layout(poset), len(batch)
    _, images, families = generator_planes(poset, batch, (1 << w) - 1)
    assert triangle._decode_tables(r, _columns(images, w)) == _images(poset, batch)
    assert triangle._decode_families(r, _columns(families, w)) == _families(poset, batch)


@given(generator_batches())
@settings(max_examples=150, deadline=None)
def test_the_plane_checks_on_generators_flag_what_is_not_a_value_s_generators(case):
    """With the generator planes, a value is flagged exactly when the scan
    rejects its expansion or its generators are not its own: j(M_p) is not
    T_p, or m_p is not a sieve on p (and so not the least sieve in J(p))."""
    check_generators(*case)


def check_generators(poset, batch):
    n, full, up, down = poset.n, poset.full_mask, poset._up, poset._down
    rank, dmasks = poset._downset_ranks(), set(poset.downset_masks())
    ones = (1 << len(batch)) - 1
    gens, images, families = generator_planes(poset, batch, ones)
    fails = _nucleus_fails(poset, images, ones, gens)
    for k, (T, table) in enumerate(zip(batch, _images(poset, batch))):
        own = all(table[rank[full & ~up[p]]] == T[p] for p in range(n))
        rejected = _raises(_check_nucleus, poset, table) is not None
        assert bool(fails >> k & 1) == (not own or rejected)
    fails = _topology_fails(poset, families, ones, gens)
    for k, (m, fams) in enumerate(zip(batch, _families(poset, batch))):
        own = all(m[p] in dmasks and not m[p] & ~down[p] for p in range(n))
        rejected = _raises(_check_topology, poset, fams) is not None
        assert bool(fails >> k & 1) == (not own or rejected)


def labeled_posets(top):
    return [poset for n in range(top + 1) for poset in enumerate_posets(n)]


def test_every_family_tuple_of_the_small_posets_is_flagged_exactly():
    """Each J(p) any set of sieves on p, on every labeled poset with n <= 3."""
    total, kinds = 0, Counter()
    for poset in labeled_posets(3):
        choices = [[tuple(s for k, s in enumerate(sieves) if pick >> k & 1)
                    for pick in range(1 << len(sieves))]
                   for sieves in map(poset.sieve_masks, range(poset.n))]
        batch = list(product(*choices))
        kinds += check_topologies(poset, batch)
        total += len(batch)
    assert total == 6293
    assert set(kinds) - {None} == {"MissingMaximalError", "StabilityFailError",
                                   "TransitivityFailError"}


def test_every_generator_tuple_of_the_small_posets_is_flagged_exactly():
    """Each of the n generators any mask below 2**n, on every labeled poset
    with n <= 3: flagged exactly when the tuple is not in the census."""
    total = 0
    for poset in labeled_posets(3):
        batch = list(product(range(1 << poset.n), repeat=poset.n))
        ones = (1 << len(batch)) - 1
        gens, images, families = generator_planes(poset, batch, ones)
        for fails, census in ((_nucleus_fails(poset, images, ones, gens),
                               set(_nucleus_generators(poset))),
                              (_topology_fails(poset, families, ones, gens),
                               set(_topology_generators(poset)))):
            assert [fails >> k & 1 for k in range(len(batch))] == [g not in census for g in batch]
        total += len(batch)
    assert total == 9779


def test_every_image_tuple_of_the_smallest_posets_is_flagged_exactly():
    """Each image any mask, on every labeled poset with n <= 2."""
    kinds = Counter()
    for poset in labeled_posets(2):
        kinds += check_nuclei(poset, list(product(range(1 << poset.n),
                                                  repeat=len(poset.downset_masks()))))
    assert set(kinds) - {None} == {"ImageNotDownsetError", "NotInflationaryError",
                                   "NotIdempotentError", "NotMeetPreservingError"}


def test_a_stride_of_the_five_point_stream_is_flagged_exactly():
    """Every 100th labeled poset with n = 5, among them the antichain and
    chains, so the checks meet the longest up-sets and cones a sweep runs:
    the census values, each with one image or one family entry changed, and
    the generator tuples, each with one generator changed."""
    chosen = list(enumerate_posets(5))[::100]
    assert max(max(map(int.bit_count, poset._up)) for poset in chosen) == 5
    assert max(max(map(int.bit_count, poset._down)) for poset in chosen) == 5
    nucleus_kinds, topology_kinds = Counter(), Counter()
    for at, poset in enumerate(chosen):
        rng = random.Random(at)
        dmasks = poset.downset_masks()
        nuclei = [j.images for j in enumerate_nuclei(poset)]
        batch = [*nuclei]
        for images in nuclei:
            i = rng.randrange(len(images))
            for m in (rng.choice(dmasks), rng.randrange(32)):
                batch.append((*images[:i], m, *images[i + 1:]))
        nucleus_kinds += check_nuclei(poset, batch)
        topologies = [J.families for J in enumerate_topologies(poset)]
        batch = [*topologies]
        for fams in topologies:
            p = rng.randrange(5)
            s = rng.choice(poset.sieve_masks(p))
            toggled = tuple(m for m in poset.sieve_masks(p) if (m in fams[p]) != (m == s))
            batch.append((*fams[:p], toggled, *fams[p + 1:]))
        topology_kinds += check_topologies(poset, batch)
        batch = []
        for gens in _nucleus_generators(poset) + _topology_generators(poset):
            p = rng.randrange(5)
            batch += [gens, (*gens[:p], rng.randrange(32), *gens[p + 1:])]
        check_generators(poset, batch)
    assert set(nucleus_kinds) - {None} == {"ImageNotDownsetError", "NotInflationaryError",
                                           "NotIdempotentError", "NotMeetPreservingError"}
    assert set(topology_kinds) - {None} == {"MissingMaximalError", "StabilityFailError",
                                            "TransitivityFailError"}
