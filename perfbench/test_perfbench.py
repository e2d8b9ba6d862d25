"""Tests of the benchmark's own logic.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
from itertools import count

import pytest

from speed import NOMINAL_S, WINDOW, Speedometer, reference_loop
from stats import tail
from tracing import WRAPS, Tracer
from workloads import LABELED_POSETS, SAMPLE_STRATA, SRC, Tally, load_triposet, stratified_sample

sys.path.insert(0, str(SRC))


def test_sweep_sample_is_fixed_by_the_seed():
    assert stratified_sample(7) == stratified_sample(7)
    assert len({stratified_sample(seed) for seed in range(20)}) == 20


def test_sweep_sample_takes_one_poset_per_stratum():
    sample = sorted(stratified_sample(3))
    assert len(sample) == SAMPLE_STRATA
    assert 0 <= sample[0] and sample[-1] < LABELED_POSETS[5]
    width = LABELED_POSETS[5] // SAMPLE_STRATA + 1
    assert all(b - a < 2 * width for a, b in zip(sample, sample[1:]))


@pytest.mark.parametrize(
    "n, index",
    [(100, 89), (21, 10), (20, 10), (11, 5), (1, 0)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, index):
    xs = [float(i) for i in reversed(range(n))]
    value, pct, beyond = tail(xs)
    assert value == index
    assert pct == 100 * (index + 1) / n
    assert beyond == n - 1 - index
    assert value >= sorted(xs)[n // 2]  # never below the median


def test_speedometer_runs_the_loop_for_its_share_of_the_work():
    ticks = count(0.0, 0.5)  # every loop run takes half a second on this clock
    speed = Speedometer(loop=lambda: None, clock=lambda: next(ticks), share=0.25)
    factor = NOMINAL_S / 0.5
    assert speed.after(4.0) == (1.0, factor)  # owes 1 s: two runs
    assert speed.after(1.0) == (0.5, factor)  # owes 0.25 s: one run, then 0.25 s ahead
    assert speed.after(1.0) == (0.0, factor)  # owes nothing
    assert speed.samples == [0.5, 0.5, 0.5]


def test_speed_reading_follows_the_latest_loop_runs():
    speed = Speedometer()
    speed.samples = [1.0] * WINDOW + [0.5] * WINDOW
    assert speed.scale(WINDOW) == NOMINAL_S / 0.5
    assert speed.scale() == NOMINAL_S / 0.75


def test_tally_scales_times_and_counts_the_loop_apart():
    tally = Tally(pace=lambda seconds: (0.1, 2.0))
    assert tally.scaled(3.0) == 6.0
    assert tally.paused == 0.1
    assert Tally().scaled(3.0) == 3.0


def test_reference_loop_does_fixed_work():
    assert reference_loop() == reference_loop() > 0


def test_self_time_is_a_span_minus_its_direct_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 6.0, 10.0, 12.0])
    tracer = Tracer(clock=lambda: next(ticks))
    outer = tracer.begin()                # 0
    child = tracer.begin()                # 1
    grandchild = tracer.begin()           # 3
    tracer.end("grandchild", grandchild)  # 4: 1 s
    tracer.end("child", child)            # 4.5: 3.5 s, 1 s of it in the grandchild
    sibling = tracer.begin()              # 6
    tracer.end("child", sibling)          # 10: 4 s
    tracer.end("outer", outer)            # 12: 12 s, 7.5 s of it in children
    assert tracer.seconds == {"outer": 12.0, "child": 7.5, "grandchild": 1.0}
    assert tracer.self_seconds == {"outer": 4.5, "child": 6.5, "grandchild": 1.0}
    assert tracer.calls == {"outer": 1, "child": 2, "grandchild": 1}


def _sites(mods):
    out = {}
    for _, _, sites, _ in WRAPS:
        for site in sites:
            *path, attr = site.split(".")
            owner = mods
            for part in path:
                owner = getattr(owner, part)
            out[site] = (owner, attr, vars(owner)[attr])
    return out


def test_traced_run_wraps_every_site_and_restores_it():
    mods = load_triposet()
    before = _sites(mods)
    tracer = Tracer()
    with tracer.installed(mods):
        for owner, attr, original in before.values():
            assert vars(owner)[attr] is not original
        for poset in mods.poset.enumerate_posets(3):
            mods.triangle.verify_triangle(poset)
    assert all(vars(o)[a] is f for o, a, f in before.values())
    assert tracer.found["poset.enumerate_posets"] == LABELED_POSETS[3]
    assert tracer.candidates["poset.enumerate_posets"] == 27
    assert tracer.calls["triangle.verify_triangle"] == LABELED_POSETS[3]
    assert tracer.found["triangle.verify_triangle"] == 8 * LABELED_POSETS[3]
    assert tracer.calls["triangle.subset_to_nucleus"] == 6 * 8 * LABELED_POSETS[3]
    assert tracer.calls["poset.downset_rank"] > 0


def test_wrappers_are_restored_when_the_traced_run_fails():
    mods = load_triposet()
    before = _sites(mods)
    with pytest.raises(RuntimeError), Tracer().installed(mods):
        raise RuntimeError("pass failed")
    assert all(vars(o)[a] is f for o, a, f in before.values())
