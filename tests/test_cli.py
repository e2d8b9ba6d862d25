import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from triposet import cli
from triposet.cli import main

CHAIN2 = "poset v1\nelements a b\nrel a<b\n"
ANTICHAIN17 = "poset v1\nelements " + " ".join("abcdefghijklmnopq") + "\n"


@pytest.fixture
def chain2_file(tmp_path):
    path = tmp_path / "chain2.poset"
    path.write_text(CHAIN2, encoding="utf-8")
    return str(path)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestCheck:
    def test_human_output(self, chain2_file, capsys):
        assert main(["check", chain2_file]) == 0
        out = capsys.readouterr().out
        assert "n=2" in out
        assert "a<b" in out
        assert "downsets: 3" in out
        assert "downward-directed: yes" in out

    def test_json_output(self, chain2_file, capsys):
        assert main(["check", chain2_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {
            "n": 2,
            "labels": ["a", "b"],
            "covers": [["a", "b"]],
            "directed": True,
            "downset_count": 3,
        }

    def test_undirected_poset_warns(self, tmp_path, capsys):
        path = write(tmp_path, "anti.poset", "poset v1\nelements a b\n")
        assert main(["check", path]) == 0
        assert "warning" in capsys.readouterr().out

    def test_cycle_is_a_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "cycle.poset", "poset v1\nelements a b\nrel a<b\nrel b<a\n")
        assert main(["check", path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_syntax_error_names_the_line(self, tmp_path, capsys):
        path = write(tmp_path, "bad.poset", "poset v1\nelements a b\nrel a<c\n")
        assert main(["check", path]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope.poset")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_past_the_lattice_cap_the_downset_count_is_null(self, tmp_path, capsys):
        path = write(tmp_path, "anti17.poset", ANTICHAIN17)
        assert main(["check", path, "--json"]) == 0
        assert '"downset_count":null' in capsys.readouterr().out


class TestListing:
    def test_downsets_human(self, chain2_file, capsys):
        assert main(["downsets", chain2_file]) == 0
        assert capsys.readouterr().out.splitlines() == ["{}", "{a}", "{a b}"]

    def test_downsets_json(self, chain2_file, capsys):
        assert main(["downsets", chain2_file, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == [[], ["a"], ["a", "b"]]

    def test_sieves(self, chain2_file, capsys):
        assert main(["sieves", chain2_file, "-p", "b", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == [[], ["a"], ["a", "b"]]

    def test_downsets_past_the_lattice_cap_are_refused(self, tmp_path, capsys):
        path = write(tmp_path, "anti17.poset", ANTICHAIN17)
        assert main(["downsets", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 17 elements exceeds the lattice-operation cap 16\n"

    def test_sieves_unknown_point(self, chain2_file, capsys):
        assert main(["sieves", chain2_file, "-p", "z"]) == 2
        assert "error:" in capsys.readouterr().err


class TestEnumerate:
    def test_subsets_json(self, chain2_file, capsys):
        assert main(["enumerate", chain2_file, "--kind", "subsets", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == [[], ["a"], ["b"], ["a", "b"]]

    def test_nuclei_json(self, chain2_file, capsys):
        assert main(["enumerate", chain2_file, "--kind", "nuclei", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data) == 4
        assert all(len(table) == 3 for table in data)

    def test_topologies_json(self, chain2_file, capsys):
        assert main(["enumerate", chain2_file, "--kind", "topologies", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data) == 4
        assert all(set(t) == {"a", "b"} for t in data)

    def test_nuclei_human(self, chain2_file, capsys):
        assert main(["enumerate", chain2_file, "--kind", "nuclei"]) == 0
        out = capsys.readouterr().out
        assert "nucleus 0:" in out
        assert "->" in out

    def test_topologies_human(self, chain2_file, capsys):
        assert main(["enumerate", chain2_file, "--kind", "topologies"]) == 0
        assert capsys.readouterr().out == (
            "topology 0:\n  a: {} {a}\n  b: {} {a} {a b}\n"
            "topology 1:\n  a: {} {a}\n  b: {a b}\n"
            "topology 2:\n  a: {a}\n  b: {a} {a b}\n"
            "topology 3:\n  a: {a}\n  b: {a b}\n"
        )

    def test_kind_is_required(self, chain2_file, capsys):
        assert main(["enumerate", chain2_file]) == 2


class TestConvert:
    def test_subset_to_nucleus(self, chain2_file, capsys):
        assert main([
            "convert", chain2_file, "--from", "subset", "--to", "nucleus",
            "--input", '["b"]', "--json",
        ]) == 0
        out = capsys.readouterr().out.strip()
        assert out == '[[[],["a"]],[["a"],["a"]],[["a","b"],["a","b"]]]'

    def test_subset_to_topology(self, chain2_file, capsys):
        assert main([
            "convert", chain2_file, "--from", "subset", "--to", "topology",
            "--input", '["b"]', "--json",
        ]) == 0
        out = capsys.readouterr().out.strip()
        assert out == '{"a":[[],["a"]],"b":[["a","b"]]}'

    def test_nucleus_to_subset(self, chain2_file, capsys):
        table = '[[[],["a"]],[["a"],["a"]],[["a","b"],["a","b"]]]'
        assert main([
            "convert", chain2_file, "--from", "nucleus", "--to", "subset",
            "--input", table, "--json",
        ]) == 0
        assert capsys.readouterr().out.strip() == '["b"]'

    def test_nucleus_to_subset_alt(self, chain2_file, capsys):
        table = '[[[],["a"]],[["a"],["a"]],[["a","b"],["a","b"]]]'
        assert main([
            "convert", chain2_file, "--from", "nucleus", "--to", "subset",
            "--input", table, "--alt", "--json",
        ]) == 0
        assert capsys.readouterr().out.strip() == '["b"]'

    def test_topology_to_subset(self, chain2_file, capsys):
        families = '{"a":[[],["a"]],"b":[["a","b"]]}'
        assert main([
            "convert", chain2_file, "--from", "topology", "--to", "subset",
            "--input", families, "--json",
        ]) == 0
        assert capsys.readouterr().out.strip() == '["b"]'

    def test_identity_conversion(self, chain2_file, capsys):
        assert main([
            "convert", chain2_file, "--from", "subset", "--to", "subset",
            "--input", '["a"]', "--json",
        ]) == 0
        assert capsys.readouterr().out.strip() == '["a"]'

    def test_human_output_for_subsets(self, chain2_file, capsys):
        assert main([
            "convert", chain2_file, "--from", "subset", "--to", "subset",
            "--input", '["b"]',
        ]) == 0
        assert capsys.readouterr().out.strip() == "{b}"

    def test_human_output_for_topologies(self, chain2_file, capsys):
        assert main([
            "convert", chain2_file, "--from", "subset", "--to", "topology",
            "--input", '["b"]',
        ]) == 0
        assert capsys.readouterr().out == "  a: {} {a}\n  b: {a b}\n"

    def test_alt_requires_nucleus_to_subset(self, chain2_file, capsys):
        assert main([
            "convert", chain2_file, "--from", "subset", "--to", "nucleus",
            "--input", '["b"]', "--alt",
        ]) == 2

    def test_invalid_table_is_a_law_failure(self, chain2_file, capsys):
        # shrinking table: the empty downset may not map below itself
        table = '[[[],[]],[["a"],[]],[["a","b"],["a","b"]]]'
        assert main([
            "convert", chain2_file, "--from", "nucleus", "--to", "subset",
            "--input", table,
        ]) == 1
        assert "invalid:" in capsys.readouterr().err

    def test_invalid_families_are_a_law_failure(self, chain2_file, capsys):
        families = '{"a":[["a"]],"b":[[],["a","b"]]}'
        assert main([
            "convert", chain2_file, "--from", "topology", "--to", "subset",
            "--input", families,
        ]) == 1
        assert "invalid:" in capsys.readouterr().err

    def test_unparsable_input_is_a_usage_error(self, chain2_file, capsys):
        assert main([
            "convert", chain2_file, "--from", "subset", "--to", "subset",
            "--input", "not json",
        ]) == 2

    def test_wrong_shape_is_a_usage_error(self, chain2_file, capsys):
        assert main([
            "convert", chain2_file, "--from", "subset", "--to", "subset",
            "--input", '{"a":1}',
        ]) == 2


class TestVerify:
    def test_file_passes(self, chain2_file, capsys):
        assert main(["verify", chain2_file]) == 0
        out = capsys.readouterr().out
        assert "counts: subsets=4 nuclei=4 topologies=4" in out
        assert "result: PASS" in out
        assert "FAIL" not in out.replace("result: PASS", "")

    def test_file_json(self, chain2_file, capsys):
        assert main(["verify", chain2_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True
        assert data["counts"] == {"subsets": 4, "nuclei": 4, "topologies": 4}

    def test_sweep(self, capsys):
        assert main(["verify", "--max-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "n=0: 1 posets" in out
        assert "n=2: 3 posets" in out
        assert "result: PASS" in out

    def test_sweep_json(self, capsys):
        assert main(["verify", "--max-n", "1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True
        assert [row["posets"] for row in data["sizes"]] == [1, 1]

    def test_sweep_directed_only_skips(self, capsys):
        assert main(["verify", "--max-n", "2", "--directed-only"]) == 0
        out = capsys.readouterr().out
        assert "1 skipped" in out

    def test_directed_only_is_refused_with_a_file(self, tmp_path, monkeypatch, capsys):
        # a non-directed poset: the flag must not pass it silently
        antichain2 = write(tmp_path, "antichain2.poset", "poset v1\nelements a b\n")
        calls = []
        monkeypatch.setattr(cli, "verify_triangle", lambda poset: calls.append(poset))
        assert main(["verify", antichain2, "--directed-only"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--directed-only only applies to --max-n" in captured.err
        assert calls == []

    def test_file_and_sweep_are_exclusive(self, chain2_file, capsys):
        assert main(["verify", chain2_file, "--max-n", "2"]) == 2
        assert main(["verify"]) == 2

    def test_negative_sweep_rejected(self, capsys):
        assert main(["verify", "--max-n", "-1"]) == 2

    def test_sweep_past_the_stream_cap_is_refused_before_any_work(
        self, monkeypatch, capsys
    ):
        calls = []
        monkeypatch.setattr(cli, "verify_triangle", lambda poset: calls.append(poset))
        assert main(["verify", "--max-n", "6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert calls == []


class TestHasse:
    def test_dot_output(self, chain2_file, capsys):
        assert main(["hasse", chain2_file, "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out == 'digraph hasse {\n  rankdir=BT;\n  "a";\n  "b";\n  "a" -> "b";\n}\n'

    def test_format_defaults_to_dot(self, chain2_file, capsys):
        assert main(["hasse", chain2_file]) == 0
        assert "digraph hasse" in capsys.readouterr().out

    def test_unknown_format(self, chain2_file, capsys):
        assert main(["hasse", chain2_file, "--format", "png"]) == 2


class TestSurface:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_module_entry_point(self, chain2_file):
        src = Path(cli.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "triposet", "check", chain2_file],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0
        assert "n=2" in proc.stdout

    def test_console_script_installed(self, chain2_file):
        exe = shutil.which("triposet")
        assert exe, "console script should be on PATH after an editable install"
        proc = subprocess.run(
            [exe, "downsets", chain2_file, "--json"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == [[], ["a"], ["a", "b"]]
