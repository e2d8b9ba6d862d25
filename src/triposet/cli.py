"""Command-line interface.

Exit codes: 0 success, 1 a verification or validation law failed, 2 usage
or parse error.  Human-readable tables are the default; ``--json`` switches
every command that has machine-readable output to canonical JSON on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import (
    NucleusAxiomError,
    TopologyAxiomError,
    TriposetError,
)
from .formats import (
    _canonical_json,
    export_hasse_dot,
    load_poset,
    nucleus_from_jsonable,
    serialize,
    subset_from_jsonable,
    to_jsonable,
    topology_from_jsonable,
)
from .nucleus import enumerate_nuclei
from .poset import LATTICE_CAP, Poset, enumerate_posets
from .topology import enumerate_topologies
from .triangle import (
    nucleus_to_subset,
    nucleus_to_subset_alt,
    nucleus_to_topology,
    subset_to_nucleus,
    subset_to_topology,
    topology_to_nucleus,
    topology_to_subset,
    verify_triangle,
)

_LAW_ERRORS = (NucleusAxiomError, TopologyAxiomError)
# caught after _LAW_ERRORS, which subclass TriposetError;
# json.JSONDecodeError is a ValueError
_USAGE_ERRORS = (TriposetError, ValueError, OSError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triposet",
        description="Finite posets, downset nuclei, Grothendieck topologies, "
        "and the bijections between them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, help_, file_=True):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(run=run)
        if file_:
            p.add_argument("file", help="poset v1 file")
        return p

    p = add("check", _cmd_check, "parse a poset file and report basic facts")
    p.add_argument("--json", action="store_true")

    p = add("downsets", _cmd_downsets, "list every downset in canonical order")
    p.add_argument("--json", action="store_true")

    p = add("sieves", _cmd_sieves, "list the sieves on one element")
    p.add_argument("-p", "--point", required=True, metavar="LABEL")
    p.add_argument("--json", action="store_true")

    p = add("enumerate", _cmd_enumerate, "enumerate subsets, nuclei, or topologies")
    p.add_argument("--kind", required=True, choices=tuple(_ENUMERATIONS))
    p.add_argument("--json", action="store_true")

    p = add("convert", _cmd_convert, "convert between subset, nucleus, and topology")
    p.add_argument("--from", dest="source", required=True, choices=tuple(_KINDS))
    p.add_argument("--to", dest="target", required=True, choices=tuple(_KINDS))
    p.add_argument("--input", required=True, metavar="JSON",
                   help="the value to convert, in canonical JSON")
    p.add_argument("--alt", action="store_true",
                   help="use the alternate nucleus-to-subset extraction")
    p.add_argument("--json", action="store_true")

    p = add("verify", _cmd_verify, "run the triangle law suite", file_=False)
    p.add_argument("file", nargs="?", help="poset v1 file")
    p.add_argument("--max-n", type=int, metavar="N",
                   help="verify every labeled poset with at most N elements")
    p.add_argument("--directed-only", action="store_true",
                   help="skip posets that are not downward directed")
    p.add_argument("--json", action="store_true")

    p = add("hasse", _cmd_hasse, "emit the covering relation as DOT")
    p.add_argument("--format", choices=("dot",), default="dot")
    return parser


def _read_poset(path: str) -> Poset:
    return load_poset(Path(path).read_text(encoding="utf-8"))


def _print_json(data, out) -> None:
    print(_canonical_json(data), file=out)


def _print_nucleus(j, out) -> None:
    for s, img in j.pairs():
        print(f"  {s} -> {img}", file=out)


def _print_topology(J, out) -> None:
    poset = J.poset
    for p in range(poset.n):
        sieves = " ".join(str(s) for s in J.sieves_at(p))
        print(f"  {poset.labels[p]}: {sieves}", file=out)


# kind: (parse its canonical JSON on a poset, print one value for humans)
_KINDS = {
    "subset": (subset_from_jsonable, lambda x, out: print(x, file=out)),
    "nucleus": (nucleus_from_jsonable, _print_nucleus),
    "topology": (topology_from_jsonable, _print_topology),
}


def _print_poset(heading: str, poset: Poset, out) -> None:
    print(f"{heading}: n={poset.n}, labels: {' '.join(poset.labels) or '(none)'}", file=out)
    covers = " ".join(f"{poset.labels[p]}<{poset.labels[q]}" for p, q in poset.covers())
    print(f"covers: {covers or '(none)'}", file=out)


def _cmd_check(args, out, parser) -> int:
    poset = _read_poset(args.file)
    directed = poset.is_downward_directed()
    downset_count = len(poset.downset_masks()) if poset.n <= LATTICE_CAP else None
    if args.json:
        _print_json(
            {
                "n": poset.n,
                "labels": list(poset.labels),
                "covers": [[poset.labels[p], poset.labels[q]] for p, q in poset.covers()],
                "directed": directed,
                "downset_count": downset_count,
            },
            out,
        )
    else:
        _print_poset("ok", poset, out)
        if downset_count is not None:
            print(f"downsets: {downset_count}", file=out)
        print(f"downward-directed: {'yes' if directed else 'no'}", file=out)
        if not directed:
            print("warning: poset is not downward directed", file=out)
    return 0


def _print_downsets(values, args, out) -> int:
    if args.json:
        _print_json([v.to_jsonable() for v in values], out)
    else:
        for v in values:
            print(v, file=out)
    return 0


def _cmd_downsets(args, out, parser) -> int:
    return _print_downsets(_read_poset(args.file).downsets(), args, out)


def _cmd_sieves(args, out, parser) -> int:
    poset = _read_poset(args.file)
    return _print_downsets(poset.sieves(poset.index(args.point)), args, out)


# kind: (values of a poset, kind of each value, whether each gets a heading);
# the enumerators are looked up when called, so a wrapped cli.enumerate_* is seen
_ENUMERATIONS = {
    "subsets": (lambda poset: poset.subsets(), "subset", False),
    "nuclei": (lambda poset: enumerate_nuclei(poset), "nucleus", True),
    "topologies": (lambda poset: enumerate_topologies(poset), "topology", True),
}


def _cmd_enumerate(args, out, parser) -> int:
    values_of, kind, headed = _ENUMERATIONS[args.kind]
    values = values_of(_read_poset(args.file))
    if args.json:
        _print_json([to_jsonable(v) for v in values], out)
        return 0
    print_value = _KINDS[kind][1]
    for i, v in enumerate(values):
        if headed:
            print(f"{kind} {i}:", file=out)
        print_value(v, out)
    return 0


_CONVERTERS = {
    ("subset", "subset"): lambda x: x,
    ("subset", "nucleus"): subset_to_nucleus,
    ("subset", "topology"): subset_to_topology,
    ("nucleus", "subset"): nucleus_to_subset,
    ("nucleus", "nucleus"): lambda j: j,
    ("nucleus", "topology"): nucleus_to_topology,
    ("topology", "subset"): topology_to_subset,
    ("topology", "nucleus"): topology_to_nucleus,
    ("topology", "topology"): lambda J: J,
}


def _cmd_convert(args, out, parser) -> int:
    if args.alt and (args.source, args.target) != ("nucleus", "subset"):
        parser.error("--alt only applies to --from nucleus --to subset")
    poset = _read_poset(args.file)
    value = _KINDS[args.source][0](poset, json.loads(args.input))
    convert = nucleus_to_subset_alt if args.alt else _CONVERTERS[(args.source, args.target)]
    result = convert(value)
    if args.json:
        print(serialize(result), file=out)
    else:
        _KINDS[args.target][1](result, out)
    return 0


def _print_report(report, out) -> None:
    _print_poset("poset", report.poset, out)
    print(f"downward-directed: {'yes' if report.directed else 'no'}", file=out)
    c = report.counts
    print(f"counts: subsets={c['subsets']} nuclei={c['nuclei']} "
          f"topologies={c['topologies']}", file=out)
    for law in report.laws:
        if law.passed:
            print(f"  PASS {law.name}", file=out)
        else:
            print(f"  FAIL {law.name}: {json.dumps(law.witness, sort_keys=True)}", file=out)
    verdict = "PASS" if report.all_passed else "FAIL"
    print(f"result: {verdict} ({report.elapsed_seconds:.3f}s)", file=out)


def _cmd_verify(args, out, parser) -> int:
    if (args.file is None) == (args.max_n is None):
        parser.error("verify needs a FILE or --max-n N (not both)")
    if args.file is not None:
        if args.directed_only:
            parser.error("--directed-only only applies to --max-n")
        report = verify_triangle(_read_poset(args.file))
        if args.json:
            print(serialize(report), file=out)
        else:
            _print_report(report, out)
        return 0 if report.all_passed else 1

    if args.max_n < 0:
        parser.error("--max-n must be nonnegative")
    # a size past the stream cap is refused here, before any poset is verified
    streams = [enumerate_posets(n) for n in range(args.max_n + 1)]
    sizes = []
    failures = []
    for n, stream in enumerate(streams):
        total = verified = 0
        for poset in stream:
            total += 1
            if args.directed_only and not poset.is_downward_directed():
                continue
            verified += 1
            report = verify_triangle(poset)
            if not report.all_passed:
                failures.append(report)
        sizes.append({"n": n, "posets": total, "verified": verified,
                      "failed": sum(1 for r in failures if r.poset.n == n)})
    passed = not failures
    if args.json:
        _print_json(
            {
                "max_n": args.max_n,
                "directed_only": args.directed_only,
                "sizes": sizes,
                "failures": [r.to_jsonable() for r in failures],
                "passed": passed,
            },
            out,
        )
    else:
        for row in sizes:
            skipped = row["posets"] - row["verified"]
            note = f", {skipped} skipped" if skipped else ""
            print(f"n={row['n']}: {row['posets']} posets, "
                  f"{row['verified']} verified{note}, {row['failed']} failed", file=out)
        print(f"result: {'PASS' if passed else 'FAIL'}", file=out)
        for r in failures:
            _print_report(r, out)
    return 0 if passed else 1


def _cmd_hasse(args, out, parser) -> int:
    print(export_hasse_dot(_read_poset(args.file)), end="", file=out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.run(args, sys.stdout, parser)
    except SystemExit as exc:  # parser.error inside a command
        return exc.code if isinstance(exc.code, int) else 2
    except _LAW_ERRORS as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
