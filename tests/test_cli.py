"""Command-line front end: schemas, determinism, exit codes."""

import json

import pytest

from propmod import cli
from propmod.cli import build_parser, main
from propmod.core import ModularInequality, sort_points
from propmod.oracle import Window, brute_members, closure_in_window
from propmod.plane import GeneratorSet

from conftest import ALLTRUE_GENS, WORKED_GENS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        # a dict stands for a JSON input file holding it
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
        ("oracle", "frobenius", "--f", "5,2,1", "--g", "3,1,-4", "--b", "4",
         "--window", "3,3,3"),
    ])
    def test_usage_errors(self, capsys, tmp_path, argv):
        path = tmp_path / "input.json"
        for item in argv:
            if isinstance(item, dict):
                path.write_text(json.dumps(item))
        argv = [str(path) if isinstance(item, dict) else item for item in argv]
        code, _, _ = run(capsys, *argv)
        assert code == 2

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

    def test_broken_input_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(capsys, "gens", "--input", str(path))[0] == 2

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
        assert code == 1 and out == "" and "plane strip cell" in err

    def test_gap_cell_honours_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("PROPMOD_CAP", "1000")
        code, out, err = run(capsys, "properties", "--f", "7,5", "--g", "5,7", "--b", "500")
        assert code == 1 and out == "" and "plane gap cell" in err

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
