"""Run one workload of the triposet benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep|large|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout; triposet is imported from its ``src/``.
With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``,
with ``--trace 1`` the per-layer ones, from a separate traced run.  The last
line of stdout is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it holds the run's context, and the whole report is also
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from functools import partial
from pathlib import Path
from tempfile import TemporaryDirectory
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import Speedometer  # noqa: E402
from stats import mean, median, tail  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    ROOT,
    SRC,
    WORKLOADS,
    CliRunner,
    Tally,
    load_triposet,
    peak_rss_mb,
)

OUT = ROOT / "perfbench" / "out"
SETUPS_PER_PASS = 5
MIN_PASSES = 3
IMPORT_REPEATS = 7
STARTUP_REPEATS = 3


def measure(body, seconds: float, min_passes: int, between=None,
            speed: Speedometer | None = None) -> list[Tally]:
    """Run timed passes ``body(tally)`` until the next one would end after ``seconds``.

    ``between`` runs untimed after each pass and records into that pass's tally.
    With ``speed``, times are at the reference speed, and a pass's wall time
    leaves out the reference loop's runs.
    """
    passes = []
    start = perf_counter()
    while True:
        tally = Tally(pace=speed and speed.after)
        first = len(speed.samples) if speed else 0
        t0 = perf_counter()
        body(tally)
        tally.wall = perf_counter() - t0 - tally.paused
        if speed:
            tally.unscaled_wall = tally.wall
            tally.wall *= speed.scale(first)
        if between is not None:
            between(tally)
        passes.append(tally)
        lap = perf_counter() - t0
        if len(passes) >= min_passes and perf_counter() - start + lap > seconds:
            return passes


def total(tallies: list[Tally]) -> Tally:
    out = Tally()
    for t in tallies:
        out.add(t)
    return out


def percentiles(name: str, xs: list[float], metrics: dict, samples: dict) -> None:
    value, pct, beyond = tail(xs)
    metrics[f"{name}_p50"] = median(xs) * 1000
    metrics[f"{name}_tail"] = value * 1000
    samples[name] = {"n": len(xs), "tail_percentile": pct, "beyond_tail": beyond}


def set_up(name: str, seed: int, files: Path):
    """Import triposet afresh and build the workload's inputs; return both and the time."""
    t0 = perf_counter()
    workload = WORKLOADS[name](load_triposet(), seed, files)
    return workload, perf_counter() - t0


def untraced(workload, runner: CliRunner, seconds: float, set_up_again):
    """End-to-end metrics from timed passes, at the reference speed of ``speed.py``.

    After each pass, and outside its timing, a workload whose passes run no
    CLI command runs its cold starts, and every workload sets up again, so
    that these samples too are spread over the run.
    """
    speed = Speedometer()
    setups = []

    def between(tally: Tally) -> None:
        for _ in range(workload.probe_runs):
            for cmd in workload.commands:
                runner.run(cmd, tally)
        for _ in range(SETUPS_PER_PASS):
            setups.append(tally.scaled(set_up_again()[1]))

    body = partial(workload.run_pass, run_cli=runner.run)
    passes = measure(body, seconds, MIN_PASSES, between, speed)
    tally = total(passes)
    walls = [p.wall for p in passes]
    metrics = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "posets_per_s": median([len(p.verify) / p.wall for p in passes]),
        # The mean, not the median: process start-up time jumps between two
        # levels as the machine speeds up and slows down, and a median flips
        # between them while a mean follows the share of time spent slow.
        "cold_start_ms": mean(tally.cold) * 1000,
        "peak_rss_mb": peak_rss_mb(workload, runner),
    }
    samples = {"pass_walls": walls, "setups": len(setups), "cold_start_ms": {"n": len(tally.cold)},
               "speed": {"loop_ms_p50": median(speed.samples) * 1000, "n": len(speed.samples),
                         "run_scale": speed.scale(),
                         "unscaled_pass_walls": [p.unscaled_wall for p in passes]}}
    percentiles("verify_ms", tally.verify, metrics, samples)
    percentiles("cli_ms", tally.cli, metrics, samples)
    return metrics, tally, samples


def interpreter_ms(runner: CliRunner, code: str) -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=runner.env,
                   capture_output=True, timeout=60, check=True)
    return (perf_counter() - t0) * 1000


def traced(workload, runner: CliRunner, seconds: float, names: list[str]):
    """Per-layer metrics per pass, from in-process passes with every layer wrapped."""
    run_in_process = partial(runner.run, in_process=True)

    def body(tally: Tally) -> None:
        workload.run_pass(tally, run_in_process)
        if workload.probe_runs:
            for cmd in workload.commands:
                run_in_process(cmd, tally)

    start = perf_counter()
    base = measure(body, 0, 1)[0]
    tracer = Tracer()
    with tracer.installed(workload.mods):
        passes = measure(body, seconds - (perf_counter() - start), 1)

    extra = Tally()
    bare, imported = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(interpreter_ms(runner, "pass"))
        imported.append(interpreter_ms(runner, "import triposet.cli"))
    startup = []
    for cmd in workload.commands:
        sub = [runner.run(cmd, extra) for _ in range(STARTUP_REPEATS)]
        inproc = [runner.run(cmd, extra, in_process=True) for _ in range(STARTUP_REPEATS)]
        startup.append((median(sub) - median(inproc)) * 1000)

    n = len(passes)
    ratio = lambda a, b: a / b if b else 0.0
    metrics = {
        "poset.enumerate_posets.yield_ratio": ratio(
            tracer.found["poset.enumerate_posets"], tracer.candidates["poset.enumerate_posets"]
        ),
        "triangle.subset_to_nucleus.calls_per_subset": ratio(
            tracer.calls["triangle.subset_to_nucleus"], tracer.found["triangle.verify_triangle"]
        ),
        "nucleus.validate_nucleus.calls_per_nucleus": ratio(
            tracer.calls["nucleus.validate_nucleus"], tracer.found["nucleus.enumerate_nuclei"]
        ),
        "cli.import_ms": median(imported) - median(bare),
        "cli.startup_ms": median(startup),
        "trace.overhead_ratio": median([p.wall for p in passes]) / base.wall,
    }
    per_pass = {"s": tracer.seconds, "self_s": tracer.self_seconds,
                "calls": tracer.calls, "found": tracer.found}
    for key in names:
        if key not in metrics:
            layer, _, stat = key.rpartition(".")
            metrics[key] = per_pass[stat][layer] / n

    samples = {
        "passes": n,
        "yield_ratio": "posets yielded / sum over streams of 3^C(n,2) candidate relations",
        "import_ms": "python -c 'import triposet.cli' minus python -c 'pass', medians of "
                     f"{IMPORT_REPEATS}",
        "startup_ms": f"median over {len(startup)} commands of subprocess wall minus "
                      f"in-process cli.main, medians of {STARTUP_REPEATS}",
    }
    layers = {"seconds": dict(tracer.seconds), "self_seconds": dict(tracer.self_seconds),
              "calls": dict(tracer.calls), "found": dict(tracer.found)}
    return metrics, total([base, *passes, extra]), samples, layers


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "triposet" / "__init__.py").is_file():
        print(f"error: no triposet sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    # One CPU for the benchmark and the CLI processes it starts, so that the
    # reference loop (speed.py) runs where they run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    with TemporaryDirectory(dir=OUT) as tmp:
        set_up_again = partial(set_up, args.workload, args.seed, Path(tmp))
        workload, _ = set_up_again()
        runner = CliRunner(workload.mods)
        if args.trace:
            names = [m["name"] for m in wanted]
            measured, tally, samples, layers = traced(workload, runner, args.seconds, names)
        else:
            measured, tally, samples = untraced(workload, runner, args.seconds, set_up_again)
            layers = None

    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": tally.failed == 0, "attempted": tally.ops,
              "failed": tally.failed, "metrics": metrics}
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": nproc,
        "src_lines": src_lines(),
        "fail_ratio": tally.failed / tally.ops,
        "samples": samples,
    }
    report = {"context": context, "result": result, "layers": layers}
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
