"""The benchmark's workloads: inputs made from a seed, one pass, output checks.

Why each workload exists is written down in ``README.md`` next to this file.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
from collections.abc import Callable
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("poset", "heyting", "nucleus", "topology", "triangle", "formats", "cli")

LABELED_POSETS = (1, 1, 3, 19, 219, 4231)  # labeled posets on n = 0..5 points (OEIS A001035)
SAMPLE_STRATA = 141  # one n = 5 poset from each run of about 30 stream positions
PROBE_RUNS = 15  # cold starts after each pass of a workload whose passes run no CLI command
CLI_TIMEOUT_S = 120


def load_triposet() -> SimpleNamespace:
    """Import triposet and its CLI afresh from ``src/`` and return the layer modules."""
    for name in [m for m in sys.modules if m == "triposet" or m.startswith("triposet.")]:
        del sys.modules[name]
    importlib.import_module("triposet.cli")
    mods = SimpleNamespace(**{m: sys.modules[f"triposet.{m}"] for m in MODULES})
    if Path(mods.poset.__file__).resolve().parent != SRC / "triposet":
        raise RuntimeError(f"imported triposet from {mods.poset.__file__}, not {SRC}")
    return mods


@dataclass
class Tally:
    """What one pass did: latencies in seconds per kind of operation, and failures."""

    verify: list[float] = field(default_factory=list)
    cli: list[float] = field(default_factory=list)
    cold: list[float] = field(default_factory=list)
    ops: int = 0
    failed: int = 0
    wall: float = 0.0
    unscaled_wall: float = 0.0
    pace: Callable[[float], tuple[float, float]] | None = None  # ``Speedometer.after``
    paused: float = 0.0  # seconds spent in ``pace``

    def scaled(self, seconds: float) -> float:
        """A timed operation's ``seconds`` at the reference speed, if ``pace`` is set."""
        if self.pace is None:
            return seconds
        spent, factor = self.pace(seconds)
        self.paused += spent
        return seconds * factor

    def add(self, other: Tally) -> None:
        self.verify += other.verify
        self.cli += other.cli
        self.cold += other.cold
        self.ops += other.ops
        self.failed += other.failed


def report_ok(report) -> bool:
    want = 1 << report.poset.n
    return report.all_passed and all(
        report.counts[k] == want for k in ("subsets", "nuclei", "topologies")
    )


def verify_one(verify: Callable, poset, tally: Tally, **caps) -> None:
    t0 = perf_counter()
    report = verify(poset, **caps)
    tally.verify.append(tally.scaled(perf_counter() - t0))
    tally.ops += 1
    tally.failed += not report_ok(report)


# -- CLI commands -------------------------------------------------------------

COLD_START = "check-one"
# Runs the CLI as ``python -m triposet`` does, then prints its VmHWM line to stderr.
_PEAK_RSS = """
import runpy, sys
sys.argv[0] = "triposet"
try:
    runpy.run_module("triposet", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
with open("/proc/self/status") as status:
    print([line for line in status if line.startswith("VmHWM:")][0], file=sys.stderr)
"""
_ELAPSED = re.compile(rb'"elapsed_seconds":[-+0-9.eE]+')


@dataclass(frozen=True)
class Command:
    key: str
    argv: tuple[str, ...]
    check: Callable[[Any], bool]  # on the parsed JSON output

    @property
    def verifies(self) -> bool:
        return self.argv[0] == "verify"


class CliRunner:
    """Runs one CLI command at a time, as a subprocess or in-process.

    Every command must exit 0, print JSON that passes its check, and print
    the same bytes on every invocation, ``elapsed_seconds`` of ``verify``
    aside.  A miss counts as a failed operation.
    """

    def __init__(self, mods: SimpleNamespace):
        self.mods = mods
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self._first: dict[str, bytes] = {}

    def spawned(self, cmd: Command) -> tuple[float, int, bytes]:
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "triposet", *cmd.argv],
            cwd=ROOT, env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S,
        )
        return perf_counter() - t0, proc.returncode, proc.stdout

    def peak_rss_mb(self, cmd: Command) -> float:
        """Peak RSS of one CLI process, from its own ``VmHWM``.

        ``ru_maxrss`` of a child would also count the benchmark process's
        pages that the child shares until it calls exec.
        """
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, *cmd.argv],
            cwd=ROOT, env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S, check=True,
        )
        return int(proc.stderr.split()[-2]) / 1024

    def in_process(self, cmd: Command) -> tuple[float, int, bytes]:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            t0 = perf_counter()
            code = self.mods.cli.main(list(cmd.argv))
            dt = perf_counter() - t0
        return dt, code, out.getvalue().encode()

    def run(self, cmd: Command, tally: Tally, in_process: bool = False) -> float:
        dt, code, out = (self.in_process if in_process else self.spawned)(cmd)
        dt = tally.scaled(dt)
        tally.ops += 1
        tally.cli.append(dt)
        if cmd.key == COLD_START:
            tally.cold.append(dt)
        if cmd.verifies:
            tally.verify.append(dt)
        tally.failed += not self._output_ok(cmd, code, out)
        return dt

    def _output_ok(self, cmd: Command, code: int, out: bytes) -> bool:
        if code != 0:
            return False
        stable = _ELAPSED.sub(b"", out)
        if self._first.setdefault(cmd.key, stable) != stable:
            return False
        try:
            return bool(cmd.check(json.loads(out)))
        except (ValueError, KeyError, TypeError, IndexError):
            return False


def write_poset(path: Path, labels, relations) -> str:
    lines = ["poset v1", "elements " + " ".join(labels)]
    lines += [f"rel {x}<{y}" for x, y in relations]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def cold_start_command(files: Path) -> Command:
    one = write_poset(files / "one.poset", ["x"], [])
    return Command(COLD_START, ("check", one, "--json"), lambda d: d["n"] == 1)


def verified(n: int) -> Callable[[Any], bool]:
    return lambda d: d["passed"] is True and all(
        d["counts"][k] == 1 << n for k in ("subsets", "nuclei", "topologies")
    )


# -- workloads ----------------------------------------------------------------


def stratified_sample(seed: int) -> frozenset[int]:
    """Stream positions of the n = 5 posets to verify: one drawn from each stratum."""
    rng = random.Random(seed)
    total = LABELED_POSETS[5]
    bounds = [k * total // SAMPLE_STRATA for k in range(SAMPLE_STRATA + 1)]
    return frozenset(rng.randrange(lo, hi) for lo, hi in zip(bounds, bounds[1:]))


class Sweep:
    """All 243 labeled posets with n <= 4 and a seeded sample of the n = 5 stream.

    Each pass streams every size in full, then verifies the chosen posets in
    a seeded order that mixes the sizes, so that a slow phase of the machine
    does not fall on one size only.
    """

    probe_runs = PROBE_RUNS
    work_in_children = False

    def __init__(self, mods: SimpleNamespace, seed: int, files: Path):
        self.mods = mods
        self.sample = stratified_sample(seed)
        count = sum(LABELED_POSETS[:5]) + len(self.sample)
        self.order = random.Random(seed).sample(range(count), count)
        self.commands = (cold_start_command(files),)

    def run_pass(self, tally: Tally, run_cli: Callable) -> None:
        stream = self.mods.poset.enumerate_posets
        verify = self.mods.triangle.verify_triangle
        chosen = []
        for n, expected in enumerate(LABELED_POSETS):
            seen = 0
            for i, poset in enumerate(stream(n, cap=5)):
                seen += 1
                if n < 5 or i in self.sample:
                    chosen.append(poset)
            tally.failed += seen != expected
        for i in self.order:
            verify_one(verify, chosen[i], tally)


def _boolean_lattice(k: int):
    labels = [format(m, f"0{k}b") for m in range(1 << k)]
    covers = [(labels[m], labels[m | 1 << b]) for m in range(1 << k) for b in range(k)
              if not m >> b & 1]
    return labels, covers


# name, labels along a linear extension, generating relations, downset count (nucleus cap)
LARGE_POSETS = (
    ("chain10", [f"c{i}" for i in range(10)], [(f"c{i}", f"c{i + 1}") for i in range(9)], 11),
    ("antichain7", [f"a{i}" for i in range(7)], [], 128),
    ("boolean3", *_boolean_lattice(3), 20),
)


class Large:
    """chain10, antichain7 and 2^3, with seeded names in a fixed declaration order.

    The enumerators' work depends on the declaration order: over 24 random
    orders, 2^3 took from 1.05 s to 2.91 s.  A seeded order would make each
    seed a different workload, so the seed permutes the names instead, and
    every poset is declared along a linear extension.
    """

    probe_runs = PROBE_RUNS
    work_in_children = False

    def __init__(self, mods: SimpleNamespace, seed: int, files: Path):
        self.mods = mods
        rng = random.Random(seed)
        self.specs = []
        for _, labels, relations, downsets in LARGE_POSETS:
            name = dict(zip(labels, rng.sample(labels, len(labels))))
            self.specs.append(([name[x] for x in labels],
                               [(name[x], name[y]) for x, y in relations], downsets))
        self.commands = (cold_start_command(files),)

    def run_pass(self, tally: Tally, run_cli: Callable) -> None:
        build = self.mods.poset.build_poset
        verify = self.mods.triangle.verify_triangle
        for labels, relations, downsets in self.specs:
            poset = build(labels, relations)
            verify_one(verify, poset, tally, nucleus_cap=downsets, topology_cap=poset.n)


class Cli:
    """A seeded cycle of one-shot ``python -m triposet ... --json`` commands."""

    probe_runs = 0
    work_in_children = True

    def __init__(self, mods: SimpleNamespace, seed: int, files: Path):
        self.mods = mods
        rng = random.Random(seed)
        shuffled = lambda xs: rng.sample(xs, len(xs))
        diamond_labels = ["bot", "left", "right", "top"]
        diamond_relations = [("bot", "left"), ("bot", "right"), ("left", "top"), ("right", "top")]
        diamond = write_poset(files / "diamond.poset", shuffled(diamond_labels),
                              shuffled(diamond_relations))
        zigzag = write_poset(files / "zigzag.poset", shuffled(["a", "b", "c", "d"]),
                             shuffled([("a", "c"), ("b", "c"), ("b", "d")]))
        poset = mods.formats.load_poset(Path(diamond).read_text(encoding="utf-8"))
        subset = json.dumps(sorted(rng.sample(diamond_labels, 2)))
        nucleus = mods.formats.serialize(
            mods.triangle.subset_to_nucleus(poset.subset(rng.sample(diamond_labels, 2)))
        )
        commands = [
            cold_start_command(files),
            Command("check", ("check", diamond, "--json"),
                    lambda d: d["n"] == 4 and d["downset_count"] == 6),
            Command("downsets", ("downsets", diamond, "--json"), lambda d: len(d) == 6),
            Command("nuclei", ("enumerate", diamond, "--kind", "nuclei", "--json"),
                    lambda d: len(d) == 16),
            Command("topologies", ("enumerate", diamond, "--kind", "topologies", "--json"),
                    lambda d: len(d) == 16),
            Command("subset-to-nucleus",
                    ("convert", diamond, "--from", "subset", "--to", "nucleus",
                     "--input", subset, "--json"),
                    lambda d: len(d) == 6),
            Command("nucleus-to-topology",
                    ("convert", diamond, "--from", "nucleus", "--to", "topology",
                     "--input", nucleus, "--json"),
                    lambda d: sorted(d) == sorted(diamond_labels)),
            Command("verify-diamond", ("verify", diamond, "--json"), verified(4)),
            Command("verify-zigzag", ("verify", zigzag, "--json"), verified(4)),
        ]
        rng.shuffle(commands)
        self.commands = tuple(commands)

    def run_pass(self, tally: Tally, run_cli: Callable) -> None:
        for cmd in self.commands:
            run_cli(cmd, tally)


WORKLOADS = {"sweep": Sweep, "large": Large, "cli": Cli}


def peak_rss_mb(workload, runner: CliRunner) -> float:
    """Peak RSS of the process doing the work (Linux reports KiB)."""
    if workload.work_in_children:
        return max(runner.peak_rss_mb(cmd) for cmd in workload.commands)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
