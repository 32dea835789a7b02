"""Command-line front end: schemas, text output, determinism, exit codes."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from propmod import cli
from propmod.cli import build_parser, main
from propmod.core import ModularInequality, sort_points
from propmod.frobenius import FrobeniusReport
from propmod.general import construction_trace
from propmod.oracle import Window, brute_members, closure_in_window
from propmod.plane import GeneratorSet

from conftest import ALLTRUE_GENS, WORKED_GENS

ROOT = Path(__file__).resolve().parent.parent

def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def with_input_file(tmp_path, argv):
    """``argv`` with each dict or list item replaced by the path of a JSON
    file holding it."""
    path = tmp_path / "input.json"
    for item in argv:
        if isinstance(item, (dict, list)):
            path.write_text(json.dumps(item))
    return [str(path) if isinstance(item, (dict, list)) else item for item in argv]


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestGens:
    def test_worked_example_json(self, capsys):
        data = run_json(capsys, "gens", "--f", "3,-2", "--g", "1,-3", "--b", "11",
                        "--format", "json")
        assert data["trivial"] is False
        assert {tuple(p) for p in data["generators"]} == WORKED_GENS

    def test_alltrue_json(self, capsys):
        data = run_json(capsys, "gens", "--f", "7,-1", "--g", "1,-14", "--b", "5",
                        "--format", "json")
        assert {tuple(p) for p in data["generators"]} == ALLTRUE_GENS

    def test_trivial_schema(self, capsys):
        data = run_json(capsys, "gens", "--f", "1,1", "--g", "-1,-1", "--b", "7",
                        "--format", "json")
        assert data == {"trivial": True, "generators": []}

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "gens", "--f", "7,-1", "--g", "1,-14", "--b", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "trivial: false"
        assert lines[1].startswith("generators: (3, 0) (4, 0) (5, 0)")

    def test_byte_identical_runs(self, capsys):
        args = ("gens", "--f", "3,-2", "--g", "1,-3", "--b", "11", "--format", "json")
        first = run(capsys, *args)
        second = run(capsys, *args)
        assert first == second

    def test_general_method_matches(self, capsys):
        a = run_json(capsys, "gens", "--f", "3,-2", "--g", "1,-3", "--b", "11",
                     "--format", "json")
        b = run_json(capsys, "gens", "--f", "3,-2", "--g", "1,-3", "--b", "11",
                     "--method", "general", "--format", "json")
        assert a == b

    def test_three_dims_with_general(self, capsys):
        data = run_json(capsys, "gens", "--f", "5,2,1", "--g", "3,1,-4", "--b", "4",
                        "--method", "general", "--format", "json")
        assert len(data["generators"]) == 16

    def test_trace_serialization(self, capsys):
        data = run_json(capsys, "gens", "--f", "3,-2", "--g", "1,-3", "--b", "11",
                        "--method", "general", "--trace", "--format", "json")
        trace = data["trace"]
        assert set(trace) == {"cone_basis", "multiples", "cell_members", "generators"}
        assert trace["cone_basis"] == [[1, 0], [3, 1]]
        assert [33, 11] in trace["multiples"]
        assert ({tuple(x) for x in data["generators"]}
                <= {tuple(x) for x in trace["cell_members"] + trace["multiples"]})
        assert trace["generators"]["generators"] == data["generators"]

    def test_trace_lists_cell_members_in_grlex_order(self, capsys):
        # the construction keeps its walk order; the output is sorted where it is printed
        ineq = ModularInequality((3, -2), (1, -3), 11)
        walked = construction_trace(ineq).cell_members
        assert list(walked) != list(sort_points(walked))
        data = run_json(capsys, "gens", "--f", "3,-2", "--g", "1,-3", "--b", "11",
                        "--method", "general", "--trace", "--format", "json")
        assert data["trace"]["cell_members"] == [list(x) for x in sort_points(walked)]

    def test_rational_flags_normalize(self, capsys):
        a = run_json(capsys, "gens", "--f", "3/2,-1", "--g", "1/2,-3/2",
                     "--b", "11/2", "--format", "json")
        b = run_json(capsys, "gens", "--f", "3,-2", "--g", "1,-3", "--b", "11",
                     "--format", "json")
        assert a == b

    def test_input_file(self, capsys, tmp_path):
        path = tmp_path / "ineq.json"
        path.write_text(json.dumps({"f": [3, -2], "g": [1, -3], "b": 11}))
        data = run_json(capsys, "gens", "--input", str(path), "--format", "json")
        assert {tuple(p) for p in data["generators"]} == WORKED_GENS


class TestOtherVerbs:
    def test_membership(self, capsys):
        data = run_json(capsys, "membership", "--f", "3,2", "--g", "1,-1",
                        "--b", "10", "--point", "9,1", "--format", "json")
        assert data == {"point": [9, 1], "member": False}

    def test_frobenius_schema(self, capsys):
        data = run_json(capsys, "frobenius", "--f", "3,2", "--g", "1,-1",
                        "--b", "10", "--format", "json")
        assert data["minimal"] == [[9, 1]]
        assert data["all_in_delta"] == [[9, 1]]
        assert data["delta_size"] == 13

    @pytest.mark.parametrize("argv", [("--f", "3,2", "--g", "1,-1", "--b", "10"),
                                      ("--f", "-2,3", "--g", "-3,1", "--b", "11"),
                                      ("--f", "7,5", "--g", "5,7", "--b", "50")])
    def test_frobenius_makes_no_point_of_delta(self, capsys, monkeypatch, argv):
        # the verb prints delta's size, counted on the gap rows
        expected = run(capsys, "frobenius", *argv)

        def refuse(report):
            raise AssertionError("the frobenius verb expanded delta into points")
        monkeypatch.setattr(FrobeniusReport, "delta", property(refuse))
        assert expected[0] == 0 and run(capsys, "frobenius", *argv) == expected

    def test_apery(self, capsys):
        data = run_json(capsys, "apery", "--f", "3,2", "--g", "1,-1", "--b", "10",
                        "--format", "json")
        assert data["maximal"] == [[13, 1]]
        assert data["period"] == [2, 2]

    def test_properties(self, capsys):
        data = run_json(capsys, "properties", "--f", "7,-1", "--g", "1,-14",
                        "--b", "5", "--format", "json")
        assert data["cohen_macaulay"] is True
        assert data["gorenstein"] is True
        assert data["buchsbaum"] is True

    def test_properties_text_says_not_determined(self, capsys):
        code, out, _ = run(capsys, "properties", "--f", "1,2", "--g", "1,1", "--b", "3")
        assert code == 0
        assert "buchsbaum: not determined" in out

    def test_solve(self, capsys, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({
            "p": 2,
            "equalities": [[[1, -3], 0]],
            "congruences": [[[3, -2], 0, 11]],
        }))
        data = run_json(capsys, "solve", "--input", str(path), "--format", "json")
        assert data == {"solutions": [[33, 11]], "homogeneous": True}

    def test_oracle_members(self, capsys):
        data = run_json(capsys, "oracle", "members", "--f", "3,2", "--g", "1,-1",
                        "--b", "10", "--window", "6,6", "--format", "json")
        assert [0, 0] in data["members"]
        assert [1, 0] not in data["members"]

    def test_oracle_frobenius(self, capsys):
        data = run_json(capsys, "oracle", "frobenius", "--f", "3,2", "--g", "1,-1",
                        "--b", "10", "--window", "40,40", "--format", "json")
        assert data["minimal"] == [[9, 1]]

    def test_oracle_gens_agreement(self, capsys):
        data = run_json(capsys, "oracle", "gens", "--f", "3,-2", "--g", "1,-3",
                        "--b", "11", "--window", "50,25", "--format", "json")
        assert data["agree"] is True
        assert data["missing"] == [] and data["extra"] == []


class TestTextOutput:
    """The full text output of every verb, and the README examples."""

    SYSTEM = {"p": 2, "equalities": [[[1, -3], 0]], "congruences": [[[3, -2], 0, 11]]}
    WORKED_LINE = ("generators: (4, 0) (5, 0) (5, 1) (8, 1) (9, 2) (11, 0) (13, 3) (14, 4)"
                   " (18, 5) (19, 6) (23, 7) (28, 9) (33, 11)")

    @pytest.mark.parametrize("argv,lines", [
        ("gens --f 3,-2 --g 1,-3 --b 11", ["trivial: false", WORKED_LINE]),
        ("gens --f 3,-2 --g 1,-3 --b 11 --method general --trace",
         ["trivial: false", WORKED_LINE, "trace: use --format json to serialize the trace"]),
        ("gens --f 3 --g 1 --b 5 --method general", ["trivial: false", "generators: (2,) (5,)"]),
        ("gens --f 1,1 --g -1,-1 --b 7", ["trivial: true", "generators: "]),
        ("membership --f 3,2 --g 1,-1 --b 10 --point 9,1", ["member: false"]),
        ("frobenius --f 3,2 --g 1,-1 --b 10",
         ["delta size: 13", "frobenius vectors: (9, 1)", "minimal: (9, 1)"]),
        ("apery --f 3,2 --g 1,-1 --b 10",
         ["period: (2, 2)", "axis generator: (4, 0)",
          "elements: (0, 0) (3, 1) (5, 0) (6, 1) (7, 0) (8, 1) (10, 0) (13, 1)",
          "maximal: (13, 1)"]),
        ("properties --f 3,-2 --g 1,-3 --b 11",
         ["cohen_macaulay: true", "gorenstein: false", "buchsbaum: true"]),
        ("properties --f 1,2 --g 1,1 --b 3",
         ["cohen_macaulay: false", "gorenstein: false", "buchsbaum: not determined"]),
        ("solve --input {system}", ["solutions: (33, 11)"]),
        ("oracle members --f 3,2 --g 1,-1 --b 10 --window 4,4",
         ["members: (0, 0) (2, 2) (3, 1) (4, 0) (4, 4)"]),
        ("oracle members --f 5,2,1 --g 3,1,-4 --b 4 --window 3,2,2 --format json",
         ['{"members":[[0,0,0],[1,0,0],[0,2,0],[1,1,0],[2,0,0],[1,1,1],[1,2,0],[2,1,0],'
          '[3,0,0],[2,1,1],[2,2,0],[3,0,1],[3,1,0],[2,2,1],[3,0,2],[3,1,1],[3,2,0],[2,2,2],'
          '[3,2,1],[3,2,2]]}']),
        ("oracle frobenius --f 3,2 --g 1,-1 --b 10 --window 40,40", ["minimal: (9, 1)"]),
        ("oracle gens --f 3,-2 --g 1,-3 --b 11 --window 50,25", ["agree: true"]),
        ("gens --f 499,5 --g 1,1 --b 40",
         ["trivial: false", "generators: (2, 1) (4, 1) (1, 5) (0, 8) (3, 5) (0, 9) (0, 10)"
          " (5, 5) (11, 0) (10, 2) (13, 0) (15, 0) (17, 0) (19, 0) (20, 0) (25, 1)"]),
        # the one oracle check of a generator set with p >= 3
        ("oracle gens --f 5,2,1 --g 3,1,-4 --b 4 --window 6,6,6 --method general",
         ["agree: true"]),
    ])
    def test_full_text_output(self, capsys, tmp_path, argv, lines):
        system = tmp_path / "sys.json"
        system.write_text(json.dumps(self.SYSTEM))
        code, out, err = run(capsys, *argv.format(system=system).split())
        assert (code, err) == (0, "")
        assert out == "".join(line + "\n" for line in lines)

    @staticmethod
    def _readme_sessions():
        """Each ``$ command`` line of the README's code blocks, with the
        lines printed below it."""
        sessions, current = [], None
        for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
            if line.startswith("$ "):
                current = (line[2:], [])
                sessions.append(current)
            elif current and line and not line.startswith("```"):
                current[1].append(line)
            else:
                current = None  # a blank line or a fence ends the output
        return sessions

    def test_readme_examples(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        sessions = self._readme_sessions()
        assert sum(cmd.startswith("propmod ") for cmd, _ in sessions) >= 6
        for cmd, lines in sessions:
            words = shlex.split(cmd)
            if words[0] == "cat":  # the README shows the file that a later example reads
                Path(words[1]).write_text("\n".join(lines) + "\n")
                continue
            assert words[0] == "propmod", cmd
            code, out, err = run(capsys, *words[1:])
            assert (code, err) == (0, ""), cmd
            assert out.splitlines() == lines, cmd

    def test_readme_library_block(self):
        """The README's Library block runs, and each ``expression  # shown``
        line shows the repr of that expression, ``...`` standing for any text."""
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        namespace = {}
        exec(block, namespace)
        shown = [line.split("  # ") for line in block.splitlines() if "  # " in line]
        assert len(shown) == 4
        for expression, text in shown:
            pattern = ".*".join(map(re.escape, text.split("...")))
            assert re.fullmatch(pattern, repr(eval(expression, namespace))), expression
        fig2 = namespace["fig2"]
        assert namespace["frobenius_vectors"](fig2).minimal == ((9, 1),)
        assert repr(namespace["property_report"](fig2)).startswith(
            "PropertyReport(cohen_macaulay=True, gorenstein=True")


class TestOracleComparison:
    """``oracle gens`` compares two window bitmaps; a wrong generator set
    must show up in ``missing`` or ``extra``, exactly."""

    ARGV = ("oracle", "gens", "--f", "3,-2", "--g", "1,-3", "--b", "11",
            "--window", "50,25", "--format", "json")
    WORKED = ModularInequality((3, -2), (1, -3), 11)

    def _run_with(self, capsys, monkeypatch, points):
        monkeypatch.setattr(cli, "minimal_generators",
                            lambda ineq: GeneratorSet(tuple(points)))
        data = run_json(capsys, *self.ARGV)
        window = Window((50, 25))
        members = brute_members(self.WORKED, window)
        reach = closure_in_window(points, window)
        assert data["agree"] is False
        assert data["missing"] == [list(x) for x in sort_points(members - reach)]
        assert data["extra"] == [list(x) for x in sort_points(reach - members)]
        return data

    def test_dropped_generator_is_missing(self, capsys, monkeypatch):
        points = sorted(WORKED_GENS)
        dropped = points.pop()
        data = self._run_with(capsys, monkeypatch, points)
        assert list(dropped) in data["missing"] and data["extra"] == []

    def test_added_non_member_is_extra(self, capsys, monkeypatch):
        assert not self.WORKED.member((1, 0))
        data = self._run_with(capsys, monkeypatch, sorted(WORKED_GENS) + [(1, 0)])
        assert [1, 0] in data["extra"] and data["missing"] == []


class TestParserReuse:
    """``main`` builds its parser once per process; the parser keeps no
    state between calls."""

    SEQUENCE = [
        ("gens", "--f", "3,-2", "--g", "1,-3", "--b", "11", "--method", "general",
         "--trace", "--format", "json"),
        ("gens", "--f", "3,-2", "--g", "1,-3", "--b", "11"),
        ("membership", "--f", "3,2", "--g", "1,-1", "--b", "10", "--point", "9,1"),
        ("gens", "--f", "3,x", "--g", "1,-1", "--b", "10"),
        ("gens", "--f", "3,2", "--g", "1,-1", "--b", "10", "--bogus"),
        ("nonsense",),
        ("gens", "--help"),
        ("oracle", "gens", "--f", "3,-2", "--g", "1,-3", "--b", "11", "--window", "50,25"),
    ]

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_reuse_matches_fresh_parsers(self, capsys, monkeypatch):
        reused = [run(capsys, *argv) for argv in self.SEQUENCE]
        assert [rc for rc, _, _ in reused] == [0, 0, 0, 2, 2, 2, 0, 0]
        monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
        assert [run(capsys, *argv) for argv in self.SEQUENCE] == reused


class TestFreshProcess:
    def test_set_up_imports_no_dataclasses(self):
        """A fresh interpreter that imports the CLI and builds its parser
        loads neither ``dataclasses`` nor ``inspect``: that import and the
        code it generates per class were about 40% of this set-up."""
        child = ("import sys; before = set(sys.modules); from propmod import cli; "
                 "cli.build_parser(); print(*sorted(set(sys.modules) - before))")
        done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                              timeout=60, check=True)
        added = set(done.stdout.split())
        assert "propmod.cli" in added
        assert not added & {"dataclasses", "inspect"}


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ("gens",),
        ("gens", "--f", "3,x", "--g", "1,-1", "--b", "10"),
        ("gens", "--f", "3,2", "--g", "1,-1", "--b", "0"),
        ("gens", "--f", "3,2,1", "--g", "1,-1", "--b", "10"),
        ("gens", "--f", "5,2,1", "--g", "3,1,-4", "--b", "4"),  # p=3 needs --method general
        ("gens", "--f", "3,2", "--g", "1,-1", "--b", "10", "--trace"),
        ("membership", "--f", "3,2", "--g", "1,-1", "--b", "10"),
        ("membership", "--f", "3,2", "--g", "1,-1", "--b", "10", "--point", "1,2,3"),
        ("solve",),
        ("oracle", "members", "--f", "3,2", "--g", "1,-1", "--b", "10"),
        ("nonsense",),
        ("membership", "--f", "3,2", "--g", "1,-1", "--b", "10", "--point", "1/2,19"),
        ("oracle", "members", "--f", "3,2", "--g", "1,-1", "--b", "10",
         "--window", "100000,100000"),
        ("oracle", "members", "--f", "3,2", "--g", "1,-1", "--b", "10", "--window", "-1,3"),
        # a dict or a list stands for a JSON input file holding it
        ("solve", "--input", {"p": 2, "equalities": [[[1.5, 2], 3]]}),
        ("solve", "--input", {"p": 2, "equalities": [[["a", 2], 3]]}),
        ("solve", "--input", {"p": 2, "equalities": [[[True, 2], 3]]}),
        ("solve", "--input", {"p": 7, "equalities": [[[1, 1, 1, 1, 1, 1, 1], 0]]}),
        ("solve", "--input", {"p": 2, "equalities": [[[1, 2, 3], 0]]}),
        ("solve", "--input", {"p": 2, "congruences": [[[1, 2], 0, 0]]}),
        ("solve", "--input", {"p": 2}),
        ("solve", "--input", {"p": 2, "equalities": [[[1, -3], 0]],
                              "congruence": [[[3, -2], 0, 11]]}),
        ("frobenius", "--f", "5,2,1", "--g", "3,1,-4", "--b", "4"),
        ("apery", "--f", "5,2,1", "--g", "3,1,-4", "--b", "4"),
        ("properties", "--f", "5,2,1", "--g", "3,1,-4", "--b", "4"),
        ("oracle", "members", "--f", "3,2", "--g", "1,-1", "--b", "10", "--window", "5,5,5"),
        ("gens", "--input", {"f": [True, 2], "g": [1, -1], "b": 10}),
        ("gens", "--input", {"f": [3, 2], "g": [1, -1], "b": 10, "modulus": 5}),
        ("gens", "--input", [1, 2]),
        ("gens", "--input", {"f": 3, "g": [1, -1], "b": 10}),
        ("gens", "--input", {"f": "3,2", "g": [1, -1], "b": 10}),
        ("gens", "--input", {"f": ["a", 2], "g": [1, -1], "b": 10}),
        ("solve", "--input", []),
        ("solve", "--input", {"p": 2, "equalities": [[[1, -1]]]}),
        ("oracle", "frobenius", "--f", "5,2,1", "--g", "3,1,-4", "--b", "4",
         "--window", "3,3,3"),
        # the default geometric method is a plane method
        ("oracle", "gens", "--f", "5,2,1", "--g", "3,1,-4", "--b", "4", "--window", "6,6,6"),
    ])
    def test_usage_errors(self, capsys, tmp_path, argv):
        code, _, _ = run(capsys, *with_input_file(tmp_path, argv))
        assert code == 2

    @pytest.mark.parametrize("argv,entry", [
        (("--f", "3,2", "--g", "1,-1", "--b", "0"), "got 0"),
        (("--f", "3,2", "--g", "1,-1", "--b", "-2/3"), "got -2/3"),
        (("--f", "3,2", "--g", "1,-1", "--b", "1/0"), "'1/0'"),
        (("--f", "3,x", "--g", "1,-1", "--b", "10"), "'x'"),
        (("--input", {"f": ["a", 2], "g": [1, -1], "b": 10}), "'a'"),
        (("--input", {"f": [3, 2], "g": [1, -1], "b": 10, "modulus": 5}), "'modulus'"),
        (("--input", [1, 2]), "got list"),
        (("--input", {"f": 3, "g": [1, -1], "b": 10}), "f must be a list, got 3"),
    ])
    def test_diagnostic_names_the_entry(self, capsys, tmp_path, argv, entry):
        code, out, err = run(capsys, "gens", *with_input_file(tmp_path, argv))
        assert (code, out) == (2, "")
        assert err.startswith("usage error: ") and entry in err
        assert "Fraction(" not in err

    @pytest.mark.parametrize("system,text", [
        ([], "must be a JSON object, got list"),
        ({"p": 2, "equalities": [[[1, -1]]]}, "each equalities row is [coeffs, c], got [[1, -1]]"),
        ({"p": 2, "congruences": [[[1, -1], 0]]}, "each congruences row is [coeffs, k, m]"),
        ({"equalities": [[[1, -3], 0]]}, "missing key 'p'"),
        ({"p": 2, "equalities": 5}, "equalities must be a list of rows, got 5"),
        ({"p": 2, "equalities": {"a": 1}}, "equalities must be a list of rows, got {'a': 1}"),
        ({"p": 2, "equalities": [[5, 0]]}, "coeffs of each equalities row are a list, got [5, 0]"),
    ])
    def test_solve_diagnostic_names_the_row(self, capsys, tmp_path, system, text):
        code, _, err = run(capsys, "solve", *with_input_file(tmp_path, ["--input", system]))
        assert code == 2 and text in err
        assert "iterable" not in err

    @pytest.mark.parametrize("argv,text", [
        (("membership", "--f", "3,2", "--g", "1,-1", "--b", "10", "--point", "1.0,2"),
         "point entries must be integers, got '1.0,2'"),
        (("membership", "--f", "3,2", "--g", "1,-1", "--b", "10", "--point", "2/2,2"),
         "point entries must be integers, got '2/2,2'"),
        (("oracle", "members", "--f", "3,2", "--g", "1,-1", "--b", "10", "--window", "1.0,2"),
         "window entries must be integers, got '1.0,2'"),
        (("gens", "--input", {"f": [3, 2], "g": [1, -1], "b": 10}, "--f", "9,9"), "not both"),
        (("gens", "--input", {"f": [3, 2], "g": [1, -1], "b": 10}, "--b", "7"), "not both"),
        (("gens", "--input", {"f": [3, 2], "g": [1, -1], "b": 10},
          "--f", "3,2", "--g", "1,-1", "--b", "10"), "not both"),
    ])
    def test_rejected_not_coerced(self, capsys, tmp_path, argv, text):
        # a non-integer coordinate is not rounded, and flags beside --input
        # are not dropped
        code, out, err = run(capsys, *with_input_file(tmp_path, argv))
        assert (code, out) == (2, "")
        assert err.startswith("usage error: ") and text in err

    @pytest.mark.parametrize("argv,flag", [
        (("membership", "--f", "3,2", "--g", "1,-1", "--b", "10"), "--point"),
        (("oracle", "members", "--f", "3,2", "--g", "1,-1", "--b", "10"), "--window"),
        (("solve", "--format", "json"), "--input"),
    ])
    def test_missing_required_flag(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"the following arguments are required: {flag}" in err

    def test_dimension_diagnostic_names_the_task(self, capsys):
        # only generators have a general method to point to
        argv = ("--f", "5,2,1", "--g", "3,1,-4", "--b", "4")
        code, _, err = run(capsys, "frobenius", *argv)
        assert code == 2 and "Frobenius vectors" in err and "general method" not in err
        code, _, err = run(capsys, "gens", *argv)
        assert code == 2 and "general method" in err

    def test_apery_diagnostic_names_the_verb(self, capsys):
        code, _, err = run(capsys, "apery", "--f", "1,2,3", "--g", "1,1,1", "--b", "5")
        assert code == 2
        assert "Apery intersections need a plane inequality" in err
        assert "simplicial" not in err
        for g in ("0,-1", "-1,-1"):  # a ray, then the trivial semigroup
            code, _, err = run(capsys, "apery", "--f", "1,1", "--g", g, "--b", "7")
            assert code == 1
            assert "Apery intersections need a positive g coefficient" in err
        # the other property verbs keep their own wording
        code, _, err = run(capsys, "properties", "--f", "1,2,3", "--g", "1,1,1", "--b", "5")
        assert code == 2 and "the simplicial property criteria need" in err

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "gens", "--input", str(tmp_path / "none.json"))
        assert code == 2
        # every verb reads its file through the same reader
        code, _, err = run(capsys, "solve", "--input", str(tmp_path / "none.json"))
        assert code == 2 and f"cannot read system from {tmp_path / 'none.json'}: " in err

    def test_broken_input_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(capsys, "gens", "--input", str(path))[0] == 2
        # a file that is not UTF-8 is a usage error too, for every verb
        path.write_bytes(b"\xff{}")
        for verb, what in (("gens", "inequality"), ("solve", "system")):
            code, _, err = run(capsys, verb, "--input", str(path))
            assert code == 2 and f"cannot read {what} from {path}: " in err

    def test_malformed_cap(self, capsys, monkeypatch):
        for cap in ("abc", "0", "-5"):
            monkeypatch.setenv("PROPMOD_CAP", cap)
            code, _, err = run(capsys, "gens", "--f", "3,-2", "--g", "1,-3", "--b", "11",
                               "--method", "general")
            assert code == 2 and "PROPMOD_CAP" in err
            # the geometric verbs run under the same budget
            code, _, err = run(capsys, "gens", "--f", "3,-2", "--g", "1,-3", "--b", "11")
            assert code == 2 and "PROPMOD_CAP" in err

    def test_plane_cells_honour_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("PROPMOD_CAP", "1000")
        code, out, err = run(capsys, "properties", "--f", "3,-2", "--g", "1,-3", "--b", "200")
        assert code == 1 and out == "" and "plane rows pass 1000 runs and points" in err

    def test_plane_rows_honour_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("PROPMOD_CAP", "300")
        code, out, err = run(capsys, "gens", "--f", "7,5", "--g", "5,7", "--b", "500")
        assert code == 1 and out == "" and "plane rows pass 300 runs and points" in err

    def test_gap_cell_honours_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("PROPMOD_CAP", "1000")
        code, out, err = run(capsys, "properties", "--f", "7,5", "--g", "5,7", "--b", "500")
        assert code == 1 and out == "" and "plane rows pass 1000 runs and points" in err

    def test_nonpositive_gens_read_no_cell(self, capsys, monkeypatch):
        # the trivial and ray regimes are closed forms, with nothing to count
        monkeypatch.setenv("PROPMOD_CAP", "1")
        for g, line in (("-1,-1", "generators: "), ("0,-5", "generators: (2, 0)"),
                        ("-3,0", "generators: (0, 1)")):
            code, out, _ = run(capsys, "gens", "--f", "2,0", "--g", g, "--b", "4")
            assert code == 0 and out.splitlines()[-1] == line

    def test_cone_cell_honours_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("PROPMOD_CAP", "1000")
        code, out, err = run(capsys, "gens", "--f", "5,2,1", "--g", "3,1,-4", "--b", "16",
                             "--method", "general")
        assert code == 1 and out == "" and "general cone cell" in err

    def test_solve_honours_cap(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({
            "p": 3,
            "congruences": [[[5, 2, 1], 0, 17]],
            "inequalities": [[[3, 1, -4], 2]],
        }))
        monkeypatch.setenv("PROPMOD_CAP", "3")
        code, _, err = run(capsys, "solve", "--input", str(path))
        assert code == 1 and "cap" in err

    def test_computational_errors_exit_one(self, capsys, monkeypatch):
        # an unsupported Frobenius case
        code, _, err = run(capsys, "frobenius", "--f", "1,1", "--g", "-1,-1", "--b", "7")
        assert code == 1 and "error" in err
        # a cap violation
        monkeypatch.setenv("PROPMOD_CAP", "4")
        code, _, _ = run(capsys, "gens", "--f", "3,-2", "--g", "1,-3", "--b", "11",
                         "--method", "general")
        assert code == 1
        monkeypatch.delenv("PROPMOD_CAP")
        # a window visibly too small for the Frobenius oracle
        code, _, _ = run(capsys, "oracle", "frobenius", "--f", "3,2", "--g", "1,-1",
                         "--b", "10", "--window", "8,8")
        assert code == 1
        # and one that holds no gap: it certifies nothing, so prints no answer
        code, out, err = run(capsys, "oracle", "frobenius", "--f", "3,2", "--g", "1,-1",
                             "--b", "10", "--window", "0,0")
        assert code == 1 and out == "" and "no nonzero member" in err
