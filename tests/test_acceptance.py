"""Acceptance gate: the eight package-level criteria, one test each.

Each test records a one-line PASS/FAIL verdict; the conftest terminal
summary prints the collected lines at the end of the run so the gate is
readable straight off the pytest output.
"""

import ast
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracles
import triposet
from triposet import (
    enumerate_nuclei,
    enumerate_posets,
    enumerate_topologies,
    implication,
    meet,
    nucleus_to_subset,
    nucleus_to_subset_alt,
    nucleus_to_subset_via_topology,
    verify_triangle,
)

RESULTS = []

SIZE_COUNTS = [1, 1, 3, 19, 219]


def record(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)
    return ok


@pytest.fixture(scope="module")
def exhaustive_run():
    """Verify every labeled poset with at most 4 elements, once, timed."""
    started = time.perf_counter()
    reports = []
    per_size = []
    for n in range(5):
        count = 0
        for poset in enumerate_posets(n):
            count += 1
            reports.append(verify_triangle(poset))
        per_size.append(count)
    elapsed = time.perf_counter() - started
    return {"reports": reports, "per_size": per_size, "elapsed": elapsed}


def test_criterion_1_exhaustive_law_verification(exhaustive_run):
    per_size = exhaustive_run["per_size"]
    reports = exhaustive_run["reports"]
    elapsed = exhaustive_run["elapsed"]
    brute = [oracles.count_posets_brute(n) for n in range(5)]
    failures = [r for r in reports if not r.all_passed]
    ok = (
        per_size == SIZE_COUNTS
        and brute == SIZE_COUNTS
        and sum(per_size) == 243
        and not failures
        and elapsed < 120.0
    )
    detail = (
        f"{sum(per_size)} posets sized 0..4 ({per_size} vs brute-force "
        f"{brute}), {len(failures)} law failures, {elapsed:.1f}s (limit 120s)"
    )
    assert record(1, ok, detail), detail


def test_criterion_2_counts_are_two_to_the_n(exhaustive_run):
    bad = [
        r for r in exhaustive_run["reports"]
        if not (
            r.counts["nuclei"] == r.counts["topologies"]
            == r.counts["subsets"] == 2 ** r.poset.n
        )
    ]
    ok = not bad
    detail = (
        f"independent enumerations match 2^|P| on all "
        f"{len(exhaustive_run['reports'])} posets"
        if ok else f"{len(bad)} posets off the 2^|P| count"
    )
    assert record(2, ok, detail), detail


def _law(report, name):
    return next(law for law in report.laws if law.name == name)


def test_criterion_3_composite_extraction_identity(exhaustive_run):
    checked = 0
    bad = 0
    for report in exhaustive_run["reports"]:
        for j in enumerate_nuclei(report.poset):
            checked += 1
            if nucleus_to_subset_via_topology(j) != nucleus_to_subset(j):
                bad += 1
        if not _law(report, "identity_composite").passed:
            bad += 1
    ok = bad == 0
    detail = f"{checked} nuclei: extraction via covering families agrees, {bad} mismatches"
    assert record(3, ok, detail), detail


def test_criterion_4_alternate_extraction_identity(exhaustive_run):
    checked = 0
    bad = 0
    for report in exhaustive_run["reports"]:
        for j in enumerate_nuclei(report.poset):
            checked += 1
            if nucleus_to_subset_alt(j) != nucleus_to_subset(j):
                bad += 1
        if not _law(report, "identity_alt").passed:
            bad += 1
    ok = bad == 0
    detail = f"{checked} nuclei: boundary-comparison extraction agrees, {bad} mismatches"
    assert record(4, ok, detail), detail


def test_criterion_5_enumerators_do_not_call_the_conversions():
    package_dir = Path(triposet.__file__).parent
    conversion_names = {
        "subset_to_nucleus", "nucleus_to_subset", "subset_to_topology",
        "topology_to_subset", "nucleus_to_topology", "topology_to_nucleus",
        "nucleus_to_subset_alt", "nucleus_to_subset_via_topology",
        "verify_triangle",
    }
    offenses = []
    for name in ("nucleus.py", "topology.py"):
        tree = ast.parse((package_dir / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if "triangle" in alias.name:
                        offenses.append(f"{name}: import {alias.name}")
            elif isinstance(node, ast.ImportFrom):
                if node.module and "triangle" in node.module:
                    offenses.append(f"{name}: from {node.module} import ...")
            elif isinstance(node, ast.Name) and node.id in conversion_names:
                offenses.append(f"{name}: reference to {node.id}")
            elif isinstance(node, ast.Attribute) and node.attr in conversion_names:
                offenses.append(f"{name}: reference to .{node.attr}")
    ok = not offenses
    detail = (
        "nucleus.py and topology.py import nothing from the conversion module"
        if ok else "; ".join(offenses)
    )
    assert record(5, ok, detail), detail


def test_criterion_6_adjunction_exhaustive():
    triples = 0
    bad = 0
    for n in range(5):
        for poset in enumerate_posets(n):
            ds = poset.downsets()
            for a in ds:
                for b in ds:
                    for c in ds:
                        triples += 1
                        if (meet(a, b) <= c) != (a <= implication(b, c)):
                            bad += 1
    ok = bad == 0
    detail = f"{triples} downset triples across 243 posets, {bad} adjunction violations"
    assert record(6, ok, detail), detail


def _is_chain(poset):
    return all(
        poset.leq(p, q) or poset.leq(q, p)
        for p in range(poset.n) for q in range(poset.n)
    )


def _is_antichain(poset):
    return all(
        not poset.leq(p, q)
        for p in range(poset.n) for q in range(poset.n) if p != q
    )


def test_criterion_7_five_element_spot_check():
    started = time.perf_counter()
    sample = []
    chains = antichains = total = 0
    for i, poset in enumerate(enumerate_posets(5, cap=5)):
        total += 1
        chain = _is_chain(poset)
        anti = _is_antichain(poset)
        if chain or anti or i % 30 == 0:
            sample.append(poset)
            chains += chain
            antichains += anti
    bad = 0
    for poset in sample:
        nuclei = enumerate_nuclei(poset)
        if len(nuclei) != 32 or len(enumerate_topologies(poset)) != 32:
            bad += 1
            continue
        for j in nuclei:
            direct = nucleus_to_subset(j)
            if (nucleus_to_subset_via_topology(j) != direct
                    or nucleus_to_subset_alt(j) != direct):
                bad += 1
    elapsed = time.perf_counter() - started
    ok = (
        total == 4231
        and len(sample) >= 100
        and chains == 120
        and antichains == 1
        and bad == 0
        and elapsed < 600.0
    )
    detail = (
        f"{len(sample)} of {total} posets sampled ({chains} chains, "
        f"{antichains} antichain), counts and identities: {bad} failures, "
        f"{elapsed:.1f}s (limit 600s)"
    )
    assert record(7, ok, detail), detail


def test_criterion_8_byte_identical_enumeration(tmp_path):
    # a four-element poset whose declaration order fights alphabetical order
    path = tmp_path / "scrambled.poset"
    path.write_text(
        "poset v1\nelements d b a c\nrel b<d\nrel a<d\nrel c<b\nrel c<a\n",
        encoding="utf-8",
    )
    src = str(Path(triposet.__file__).resolve().parent.parent)
    ok = True
    for kind in ("subsets", "nuclei", "topologies"):
        runs = []
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "triposet", "enumerate", str(path),
                 "--kind", kind, "--json"],
                capture_output=True, env=env,
            )
            ok = ok and proc.returncode == 0
            runs.append(proc.stdout)
        ok = ok and runs[0] == runs[1] and len(runs[0]) > 0
    detail = (
        "repeated runs byte-identical for subsets, nuclei, and topologies"
        if ok else "outputs differ between runs or a run failed"
    )
    assert record(8, ok, detail), detail
