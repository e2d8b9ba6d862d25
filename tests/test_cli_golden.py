"""The CLI's output bytes, pinned.

``cli_golden.json`` holds, for each command line, the exit code and the
exact stdout (or its sha256, for the long ``verify --max-n 4 --json``).
Timings are masked: ``elapsed_seconds`` reads 0 and ``result: … (0.003s)``
reads ``result: … (TIME)``.  Placeholders such as ``{diamond}`` name the
poset files in ``POSETS``.  To rewrite the file after an intended change
of output, run ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import hashlib
import io
import json
import re
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from triposet.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

POSETS = {
    "point": "poset v1\nelements a\n",
    "diamond": "poset v1\nelements o a b t\nrel o<a\nrel o<b\nrel a<t\nrel b<t\n",
    "vee": "poset v1\nelements a b c\nrel a<b\nrel c<b\n",
    "five": "poset v1\nelements a b c d e\nrel a<c\nrel b<c\nrel b<d\nrel d<e\n",
}

# one value of each kind on the diamond, in canonical JSON: {a}, and the
# nucleus of {a} and the topology of {b}
_INPUTS = {
    "subset": '["a"]',
    "nucleus": '[[[],["b","o"]],[["o"],["b","o"]],[["a","o"],["a","b","o","t"]],'
               '[["b","o"],["b","o"]],[["a","b","o"],["a","b","o","t"]],'
               '[["a","b","o","t"],["a","b","o","t"]]]',
    "topology": '{"a":[[],["o"],["a","o"]],"b":[["b","o"]],"o":[[],["o"]],'
                '"t":[["b","o"],["a","b","o"],["a","b","o","t"]]}',
}


def _cases():
    """(id, argv, hashed) for every pinned command line."""
    yield "verify-max-n-3", ["verify", "--max-n", "3"], False
    yield "verify-max-n-4-json", ["verify", "--max-n", "4", "--json"], True
    for name in ("point", "diamond", "five"):
        yield f"check-{name}", ["check", f"{{{name}}}"], False
    for name in ("diamond", "five"):
        yield f"verify-{name}", ["verify", f"{{{name}}}"], False
        yield f"verify-{name}-json", ["verify", f"{{{name}}}", "--json"], False
    for kind in ("nuclei", "topologies"):
        for name in ("diamond", "vee"):
            argv = ["enumerate", f"{{{name}}}", "--kind", kind]
            yield f"enumerate-{kind}-{name}", argv, False
            yield f"enumerate-{kind}-{name}-json", [*argv, "--json"], False
    for source, value in _INPUTS.items():
        for target in _INPUTS:
            argv = ["convert", "{diamond}", "--from", source, "--to", target, "--input", value]
            yield f"convert-{source}-{target}", argv, False
            yield f"convert-{source}-{target}-json", [*argv, "--json"], False
    argv = ["convert", "{diamond}", "--from", "nucleus", "--to", "subset",
            "--input", _INPUTS["nucleus"]]
    yield "convert-alt", [*argv, "--alt"], False
    yield "convert-alt-json", [*argv, "--alt", "--json"], False


CASES = list(_cases())


def _mask(out: str) -> str:
    out = re.sub(r'"elapsed_seconds":[-+0-9.eE]+', '"elapsed_seconds":0', out)
    return re.sub(r"^(result: \w+) \(\d+\.\d+s\)$", r"\1 (TIME)", out, flags=re.M)


def _write_posets(directory: Path) -> dict[str, str]:
    """Each poset file written to ``directory``, by its placeholder."""
    files = {}
    for name, text in POSETS.items():
        path = directory / f"{name}.poset"
        path.write_text(text, encoding="utf-8")
        files[f"{{{name}}}"] = str(path)
    return files


def _record(argv, files, hashed):
    with redirect_stdout(io.StringIO()) as buffer:
        code = main([files.get(arg, arg) for arg in argv])
    out = _mask(buffer.getvalue())
    if hashed:
        return {"exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()}
    return {"exit": code, "out": out}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case, argv, hashed", CASES, ids=[c[0] for c in CASES])
def test_cli_output_is_pinned(golden, tmp_path, case, argv, hashed):
    assert _record(argv, _write_posets(tmp_path), hashed) == golden[case]


def test_every_pinned_output_has_a_case(golden):
    assert sorted(golden) == sorted(case for case, _, _ in CASES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        files = _write_posets(Path(tmp))
        data = {case: _record(argv, files, hashed) for case, argv, hashed in CASES}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(data)} cases to {GOLDEN}")
