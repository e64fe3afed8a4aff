import gc
import itertools
import json

import numpy as np
import pytest

import ultrawave.solver as solver_module
from conftest import random_table_symbol
from ultrawave import cli
from ultrawave import io as io_module
from ultrawave.cli import build_parser, main
from ultrawave.io import fmt17, load_problem, load_solution, load_space, operator_to_obj
from ultrawave.operators import HomogeneousSymbol, operator_matrix, spectrum
from ultrawave.distributions import eval_on_char_nd
from ultrawave.products import MultiOperator
from ultrawave.solver import characteristics, solve
from ultrawave.trees import build_padic_tree
from ultrawave.wavelets import evaluate, tree_wavelets


WAVE_PROBLEM = {
    "spaces": ["padic(2,2)", "padic(2,2)"],
    "operator": {
        "factors": [
            {"kind": "table", "entries": [
                {"ball": 0, "re": 1.0, "im": 0.0},
                {"ball": 1, "re": 2.0, "im": 0.0},
                {"ball": 2, "re": 5.0, "im": 0.0},
            ]},
            {"kind": "table", "entries": [
                {"ball": 0, "re": 1.0, "im": 0.0},
                {"ball": 1, "re": 2.0, "im": 0.0},
                {"ball": 2, "re": 5.0, "im": 0.0},
            ]},
        ],
        "terms": [
            {"indices": [1], "re": 1.0, "im": 0.0},
            {"indices": [2], "re": -1.0, "im": 0.0},
        ],
    },
    "rhs": {"mean": [0.0, 0.0], "coeffs": []},
    "anchor": {"vertex": [3, 3], "value": [0.0, 0.0]},
    "boundary": [],
    "epsilon": 1e-9,
    "free_params": {"seed": 11},
}


def write_wave_problem(tmp_path, rhs_coeffs=()):
    obj = json.loads(json.dumps(WAVE_PROBLEM))
    obj["rhs"]["coeffs"] = list(rhs_coeffs)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(obj))
    return str(path)


class TestValidate:
    def test_ok_space(self, capsys):
        assert main(["validate", "--space", "padic(2,2)"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] and report["vertices"] == 7

    def test_inconsistent_tree_names_ball(self, tmp_path, capsys):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({
            "kind": "explicit",
            "vertices": [
                {"id": 0, "parent": None, "measure": 1.0, "diameter": 1.0},
                {"id": 1, "parent": 0, "measure": 0.7, "diameter": 0.5},
                {"id": 2, "parent": 0, "measure": 0.7, "diameter": 0.5},
            ],
        }))
        assert main(["validate", str(path)]) == 2
        assert "ball 0" in capsys.readouterr().err

    @pytest.mark.parametrize("ball,diameter", [(0, float("nan")), (2, -0.5)])
    def test_invalid_diameter_names_ball(self, tmp_path, capsys, ball, diameter):
        vertices = [{"id": 0, "parent": None, "measure": 1.0, "diameter": 1.0},
                    {"id": 1, "parent": 0, "measure": 0.5, "diameter": 0.5},
                    {"id": 2, "parent": 0, "measure": 0.5, "diameter": 0.5}]
        vertices[ball]["diameter"] = diameter
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"kind": "explicit", "vertices": vertices}))  # NaN is written as NaN
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == f"error: ball {ball} has invalid diameter {diameter}\n"


class TestSpectrum:
    def test_seven_positive_rows_cross_checked(self, capsys):
        assert main(["spectrum", "--space", "padic(2,3)", "--symbol", "homog(beta=0.5)"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 7
        assert all(r["re"] > 0 and r["im"] == 0 for r in rows)
        # dense oracle: apply the kernel matrix to each wavelet
        t = build_padic_tree(2, 3)
        M = operator_matrix(t, HomogeneousSymbol(beta=0.5))
        by_ball = {r["ball"]: complex(r["re"], r["im"]) for r in rows}
        for w in tree_wavelets(t):
            vec = np.array([evaluate(t, w, x) for x in t.leaves])
            err = np.abs(M @ vec - by_ball[w.ball] * vec).max()
            assert err < 1e-10 * abs(by_ball[w.ball])

    def test_csv_format(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main([
            "spectrum", "--space", "padic(2,1)", "--symbol", "homog(beta=1)",
            "--format", "csv", "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "ball,re,im"
        assert len(lines) == 2  # single non-leaf ball


class TestWaveletsCommand:
    def test_listing(self, capsys):
        assert main(["wavelets", "--space", "padic(3,1)"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 6  # 2 wavelets x 3 subballs
        assert {r["j"] for r in rows} == {1, 2}


class TestCharacteristics:
    def test_wave_diagonal(self, tmp_path, capsys):
        op_path = tmp_path / "op.json"
        op_path.write_text(json.dumps(WAVE_PROBLEM["operator"]))
        code = main([
            "characteristics",
            "--operator", str(op_path),
            "--space", "padic(2,2)", "--space", "padic(2,2)",
        ])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["vertex"] for r in rows] == [[0, 0], [1, 1], [2, 2]]
        assert all(r["abs"] == 0.0 for r in rows)

    @pytest.mark.parametrize("epsilon", ["nan", "-1", "inf"])
    def test_bad_epsilon_exit_two(self, tmp_path, capsys, epsilon):
        op_path = tmp_path / "op.json"
        op_path.write_text(json.dumps(WAVE_PROBLEM["operator"]))
        assert main(["characteristics", "--operator", str(op_path), "--space", "padic(2,2)",
                     "--space", "padic(2,2)", "--epsilon", epsilon]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: epsilon must be finite and non-negative")


class TestSolve:
    def test_wave_example_exit_zero_with_free_params(self, tmp_path, capsys):
        path = write_wave_problem(tmp_path)
        out = tmp_path / "solution.json"
        assert main(["solve", path, "--out", str(out)]) == 0
        sol = json.loads(out.read_text())
        vertices = {tuple(fp["vertex"]) for fp in sol["free_params"]}
        assert vertices == {(0, 0), (1, 1), (2, 2)}
        assert sol["residual"]["max_rel"] == 0.0

    def test_solvability_violation_exit_three(self, tmp_path, capsys):
        path = write_wave_problem(
            tmp_path, [{"vertex": [1, 1], "j": [1, 1], "re": 1.0, "im": 0.0}]
        )
        assert main(["solve", path]) == 3
        err = capsys.readouterr().err
        assert "(1, 1)" in err  # the exact violating index is reported

    @pytest.mark.parametrize("stray", [[0, 1], [99, 99]])
    def test_explicit_free_value_off_the_free_keys_exit_two(self, tmp_path, capsys, stray):
        """A ``free_params`` entry at a key that is not free, off the characteristics or in no tree, is refused."""
        obj = json.loads(json.dumps(WAVE_PROBLEM))
        obj["rhs"]["coeffs"] = [{"vertex": [0, 1], "j": [1, 1], "re": 1.0, "im": 0.0}]
        obj["free_params"] = [{"vertex": [1, 1], "j": [1, 1], "re": 4.0, "im": 0.0},
                              {"vertex": stray, "j": [1, 1], "re": 1.0, "im": 0.0}]
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / "solution.json"
        assert main(["solve", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: free value index (({stray[0]}, {stray[1]}), (1, 1)) "
                                             "is not a free parameter"]
        assert not out.exists()

    def test_epsilon_and_seed_overrides(self, tmp_path):
        path = write_wave_problem(tmp_path)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["solve", path, "--seed", "1", "--out", str(out_a)]) == 0
        assert main(["solve", path, "--seed", "2", "--out", str(out_b)]) == 0
        assert out_a.read_text() != out_b.read_text()


    @pytest.mark.parametrize("field, value", [
        ("rhs", float("nan")),
        ("boundary", float("inf")),
        ("anchor", float("nan")),
        ("free_params", float("-inf")),
        ("epsilon", float("nan")),
        ("epsilon", -1e-9),
        ("epsilon", float("inf")),
    ])
    def test_non_finite_problem_data_exit_two(self, tmp_path, capsys, field, value):
        """A NaN or infinite value anywhere in the problem is refused with exit 2."""
        obj = json.loads(json.dumps(WAVE_PROBLEM))
        entry = {"vertex": [1, 2], "j": [1, 1], "re": 1.0, "im": 0.0}
        obj["rhs"]["coeffs"] = [dict(entry)]
        if field == "rhs":
            obj["rhs"]["coeffs"][0]["re"] = value
        elif field == "boundary":
            obj["boundary"] = [{"vertex": [3, 0], "j": [0, 1], "re": 0.5, "im": value}]
        elif field == "anchor":
            obj["anchor"]["value"] = [value, 0.0]
        elif field == "free_params":
            obj["free_params"] = [{"vertex": [0, 0], "j": [1, 1], "re": value, "im": 0.0}]
        else:
            obj["epsilon"] = value
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(obj))  # NaN / Infinity tokens, which json.load accepts
        out = tmp_path / "solution.json"
        assert main(["solve", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ("not finite" in err or "non-negative" in err)
        assert not out.exists()

    @pytest.mark.parametrize("flag, message", [
        ("--epsilon=nan", "epsilon must be finite and non-negative"),
        ("--epsilon=inf", "epsilon must be finite and non-negative"),
        ("--epsilon=-1e-3", "epsilon must be finite and non-negative"),
        ("--seed=-1", "seed must be non-negative"),
    ])
    def test_bad_override_exit_two(self, tmp_path, capsys, flag, message):
        path = write_wave_problem(tmp_path)
        assert main(["solve", path, flag]) == 2
        assert message in capsys.readouterr().err

    def test_epsilon_override_reaches_solve(self, tmp_path, capsys):
        # eigenvalues 1, 1.5, 3 per factor: |1 - 1.5| <= 0.5 * 1.5, so eps = 0.5 adds (0, 1) and (1, 0)
        path = write_wave_problem(tmp_path)
        assert main(["solve", path, "--epsilon", "0.5"]) == 0
        sol = json.loads(capsys.readouterr().out)
        vertices = {tuple(fp["vertex"]) for fp in sol["free_params"]}
        assert {(0, 1), (1, 0)} <= vertices


class TestEvalRoundTrip:
    def test_bit_for_bit(self, tmp_path, capsys):
        path = write_wave_problem(tmp_path)
        out = tmp_path / "solution.json"
        assert main(["solve", path, "--out", str(out)]) == 0
        capsys.readouterr()

        problem, trees = load_problem(path)
        sol = solve(problem)
        targets = [[0, 0], [1, 2], [3, 3], [6, 4]]
        expected = {tuple(v): eval_on_char_nd(sol.u, tuple(v)) for v in targets}

        code = main([
            "eval", str(out),
            "--space", "padic(2,2)", "--space", "padic(2,2)",
            "--at", json.dumps(targets),
        ])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert [tuple(r["vertex"]) for r in rows] == sorted(expected)
        for r in rows:
            v = expected[tuple(r["vertex"])]
            assert r["re"] == v.real and r["im"] == v.imag  # bit-for-bit

    def test_deterministic_ordering_across_runs(self, tmp_path, capsys):
        path = write_wave_problem(tmp_path)
        out = tmp_path / "solution.json"
        main(["solve", path, "--out", str(out)])
        capsys.readouterr()
        args = [
            "eval", str(out),
            "--space", "padic(2,2)", "--space", "padic(2,2)",
            "--at", "[[3,3],[0,0],[1,2]]",
        ]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second
        rows = json.loads(first)
        assert [r["vertex"] for r in rows] == sorted(r["vertex"] for r in rows)


class TestCsvVariants:
    def test_wavelets_csv(self, capsys):
        assert main(["wavelets", "--space", "padic(2,1)", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "ball,j,subball,re,im"
        assert len(lines) == 3  # one wavelet, two subballs

    def test_characteristics_csv(self, tmp_path, capsys):
        op_path = tmp_path / "op.json"
        op_path.write_text(json.dumps(WAVE_PROBLEM["operator"]))
        assert main([
            "characteristics", "--operator", str(op_path),
            "--space", "padic(2,2)", "--space", "padic(2,2)", "--format", "csv",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "vertex_1,vertex_2,abs,re,im"
        assert [l.split(",")[:2] for l in lines[1:]] == [["0", "0"], ["1", "1"], ["2", "2"]]

    def test_eval_csv(self, tmp_path, capsys):
        path = write_wave_problem(tmp_path)
        out = tmp_path / "solution.json"
        main(["solve", path, "--out", str(out)])
        capsys.readouterr()
        args = ["eval", str(out), "--space", "padic(2,2)", "--space", "padic(2,2)",
                "--at", "[[3,3],[0,0],[1,2],[0,4]]"]
        assert main(args) == 0
        rows = json.loads(capsys.readouterr().out)
        assert main(args + ["--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "vertex_1,vertex_2,re,im"
        assert lines[1:] == [
            f"{r['vertex'][0]},{r['vertex'][1]},{fmt17(r['re'])},{fmt17(r['im'])}" for r in rows
        ]
        assert any(r["re"] != 0.0 for r in rows)

    def test_eval_at_file(self, tmp_path, capsys):
        path = write_wave_problem(tmp_path)
        out = tmp_path / "solution.json"
        main(["solve", path, "--out", str(out)])
        capsys.readouterr()
        at = tmp_path / "vertices.json"
        at.write_text("[[0,0],[3,3]]")
        assert main([
            "eval", str(out),
            "--space", "padic(2,2)", "--space", "padic(2,2)", "--at", str(at),
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["vertex"] for r in rows] == [[0, 0], [3, 3]]


class TestErrorPaths:
    def test_missing_file_exit_two(self, capsys):
        assert main(["validate", "no-such-file.json"]) == 2

    @pytest.mark.parametrize("solution,message", [
        ({"anchor": {"value": [1.0, 0.0]}, "coeffs": []}, "no 'vertex'"),
        ([{"anchor": {"vertex": [3, 3]}}], "JSON object"),
        ({"anchor": {"vertex": [3, 3]}, "coeffs": [{"vertex": [3.7, 0], "j": [1, 1]}]}, "non-integral"),
        ({"anchor": {"vertex": [3, 3]}, "coeffs": [{"vertex": [1, 0], "j": [1, 1.5]}]}, "non-integral"),
    ])
    def test_malformed_solution_exit_two(self, tmp_path, capsys, solution, message):
        path = tmp_path / "solution.json"
        path.write_text(json.dumps(solution))
        assert main([
            "eval", str(path), "--space", "padic(2,2)", "--space", "padic(2,2)", "--at", "[[0,0]]",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("at,message", [
        ("[[3.7, 0], [3, 0]]", "non-integral id or index 3.7"),
        ('[["x", 0]]', "bad vertex ['x', 0]"),
        ("[null]", "bad vertex None"),
        ("[3.5]", "bad vertex 3.5"),
        ('[{"vertex": [0, 0]}]', "bad vertex"),
        ('{"at": [[0, 0]]}', "a JSON list of vertices"),
    ])
    def test_bad_at_exit_two(self, tmp_path, capsys, at, message):
        path = write_wave_problem(tmp_path)
        out = tmp_path / "solution.json"
        main(["solve", path, "--out", str(out)])
        capsys.readouterr()
        assert main([
            "eval", str(out), "--space", "padic(2,2)", "--space", "padic(2,2)", "--at", at,
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_integral_at_items_load_as_before(self, tmp_path, capsys):
        path = write_wave_problem(tmp_path)
        out = tmp_path / "solution.json"
        main(["solve", path, "--out", str(out)])
        capsys.readouterr()
        spaces = ["--space", "padic(2,2)", "--space", "padic(2,2)"]
        assert main(["eval", str(out), *spaces, "--at", "[[3.0, 0], [1, 2.0]]"]) == 0
        floats = capsys.readouterr().out
        assert main(["eval", str(out), *spaces, "--at", "[[3, 0], [1, 2]]"]) == 0
        assert floats == capsys.readouterr().out
        one = tmp_path / "one.json"
        one.write_text(json.dumps({
            "anchor": {"vertex": [3], "value": [0.0, 0.0]},
            "coeffs": [{"vertex": [0], "j": [1], "re": 1.0, "im": 0.0}],
        }))
        assert main(["eval", str(one), "--space", "padic(2,2)", "--at", "[5, 2]"]) == 0
        assert [r["vertex"] for r in json.loads(capsys.readouterr().out)] == [[2], [5]]

    @pytest.mark.parametrize("at", ['[[true, 0]]', '[["3", 0]]', '[true]', '[[0, " 7 "]]'])
    def test_string_and_boolean_at_items_exit_two(self, tmp_path, capsys, at):
        path = write_wave_problem(tmp_path)
        out = tmp_path / "solution.json"
        main(["solve", path, "--out", str(out)])
        capsys.readouterr()
        assert main([
            "eval", str(out), "--space", "padic(2,2)", "--space", "padic(2,2)", "--at", at,
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --at: bad vertex") and "is not a number" in err

    @pytest.mark.parametrize("ids", [{"vertex": ["3", 0]}, {"j": [1, True]}])
    def test_string_and_boolean_ids_in_files_exit_two(self, tmp_path, capsys, ids):
        entry = {"vertex": [3, 0], "j": [1, 1], "re": 1.0, "im": 0.0, **ids}
        solution = tmp_path / "solution.json"
        solution.write_text(json.dumps({"anchor": {"vertex": [3, 3]}, "coeffs": [entry]}))
        assert main(["eval", str(solution), "--space", "padic(2,2)", "--space", "padic(2,2)",
                     "--at", "[[0, 0]]"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {solution}: bad coefficient entry")
        obj = json.loads(json.dumps(WAVE_PROBLEM))
        obj["boundary"] = [entry]
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps(obj))
        out = tmp_path / "out.json"
        assert main(["solve", str(problem), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {problem}: bad coefficient entry") and "is not a number" in err
        assert not out.exists()

    @pytest.mark.parametrize("symbol", ["homog(beta=nan)", "homog(beta=inf)", "homog(beta=1, c=nan)"])
    def test_non_finite_homogeneous_symbol_exit_two(self, capsys, symbol):
        assert main(["spectrum", "--space", "padic(2,2)", "--symbol", symbol]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: homogeneous symbol needs a finite")

    def test_non_finite_json_output_exit_four(self, tmp_path, capsys):
        symbol = tmp_path / "symbol.json"
        # finite symbol values and a finite tail (0.85e308) whose sum at the root overflows
        symbol.write_text('{"kind": "homogeneous", "c": [1.7e308, 0.0], "beta": 2.0, "tail": true}')
        out = tmp_path / "spectrum.json"
        assert main(["spectrum", "--space", "padic(2,1)", "--symbol", str(symbol), "--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith("numeric failure: cannot write a non-finite value")
        assert not out.exists()
        assert main(["spectrum", "--space", "padic(2,1)", "--symbol", str(symbol)]) == 4
        assert capsys.readouterr().out == ""

    def test_overflowing_quotient_exit_four(self, tmp_path, capsys):
        """1e300 over an eigenvalue near 1e-300 is infinite: the solution cannot be written, and no file is made."""
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({
            "spaces": ["padic(2,2)"],
            "operator": {"factors": ["homog(beta=1)"], "terms": [{"indices": [1], "re": 1e-300, "im": 0.0}]},
            "rhs": {"mean": [0.0, 0.0], "coeffs": [{"ball": 0, "j": 1, "re": 1e300, "im": 0.0}]},
            "anchor": {"vertex": [3], "value": [1.0, 0.0]},
        }))
        out = tmp_path / "solution.json"
        assert main(["solve", str(problem), "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("numeric failure: cannot write a non-finite value")
        assert captured.out == "" and not out.exists()

    def test_missing_required_flag_exit_two(self, capsys):
        assert main(["spectrum", "--space", "padic(2,1)"]) == 2

    def test_homog_shorthand_argument_without_value_exit_two(self, capsys):
        assert main(["spectrum", "--space", "padic(2,1)", "--symbol", "homog(beta)"]) == 2
        assert capsys.readouterr().err == "error: homog(beta): bad homog() argument 'beta'\n"

    @pytest.mark.parametrize("boundary,message", [
        ({"vertex": [1, 2], "j": [1, 1], "re": 1.0}, "boundary index ((1, 2), (1, 1)) has no j = 0 component"),
        ({"vertex": [3, 3], "j": [0, 0], "re": 1.0}, "the pure anchor index is set through anchor_value"),
    ])
    def test_boundary_index_the_solver_cannot_take_exit_two(self, tmp_path, capsys, boundary, message):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({**WAVE_PROBLEM, "boundary": [boundary]}))
        assert main(["solve", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_zero_symbol_has_a_zero_tail(self, capsys):
        """c = 0 needs no convergent tail: the symbol and its upward extension vanish."""
        assert main(["spectrum", "--space", "padic(2,2)", "--symbol", "homog(beta=2,c=0,tail=true)"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["ball"] for r in rows] == [0, 1, 2] and {(r["re"], r["im"]) for r in rows} == {(0.0, 0.0)}

    def test_divergent_tail_exit_four(self, capsys):
        assert main([
            "spectrum", "--space", "padic(2,2)", "--symbol", "homog(beta=0.5, tail=true)",
        ]) == 4

    def test_convergent_tail_shifts_spectrum(self, capsys):
        assert main(["spectrum", "--space", "padic(2,2)", "--symbol", "homog(beta=2)"]) == 0
        plain = {r["ball"]: r["re"] for r in json.loads(capsys.readouterr().out)}
        assert main([
            "spectrum", "--space", "padic(2,2)", "--symbol", "homog(beta=2, tail=true)",
        ]) == 0
        tailed = {r["ball"]: r["re"] for r in json.loads(capsys.readouterr().out)}
        # the upward tail adds the same convergent sum to every eigenvalue
        shifts = {b: tailed[b] - plain[b] for b in plain}
        assert all(abs(s - 0.5) < 1e-12 for s in shifts.values())


class TestMergedErrorPaths:
    def test_solve_into_missing_directory_exit_two(self, tmp_path, capsys):
        path = write_wave_problem(tmp_path)
        out = tmp_path / "missing" / "solution.json"
        assert main(["solve", path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "No such file or directory" in captured.err
        assert "Traceback" not in captured.err and not out.exists()

    def test_unknown_command_is_argparse_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("symbol,message", [
        ("homog(beta=2000)", "numeric failure: symbol value at ball 1 overflows"),
        ("homog(beta=-2000,tail=1)", "numeric failure: upward extension diverges"),
    ])
    def test_overflow_exit_four(self, capsys, symbol, message):
        assert main(["spectrum", "--space", "padic(2,2)", "--symbol", symbol]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(message)

    @pytest.mark.parametrize("space,message", [
        ({"kind": "padic", "p": 2}, "padic space has no 'depth'"),
        ({"kind": "padic", "p": "x", "depth": 2}, "'p' must be an integer"),
        ({"kind": "padic", "p": 2, "depth": 2.7}, "'depth' must be an integer, got 2.7"),
        ({"kind": "padic", "p": 2, "depth": 40}, "padic(2,40) has more than the 4194304 vertices allowed"),
        ({"kind": "padic", "p": 1, "depth": 2}, "p must be an integer >= 2, got 1"),
        ({"kind": "padic", "p": 2, "depth": 0}, "depth must be an integer >= 1, got 0"),
        ({"kind": "explicit", "vertices": [{"id": 0, "parent": None, "diameter": 1.0}]},
         "vertex record 0 has no 'measure'"),
        ({"kind": "explicit", "vertices": [{"id": 0, "measure": "1.0", "diameter": 1.0}]},
         "'measure' must be a number"),
        ([1, 2], "a space must be a JSON object"),
    ])
    @pytest.mark.parametrize("command", ["validate", "spectrum"])
    def test_space_schema_errors_exit_two(self, tmp_path, capsys, space, message, command):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(space))
        assert main([command, str(path), *(["--symbol", "homog(beta=1)"] if command == "spectrum" else [])]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err

    @pytest.mark.parametrize("value", ['"1.5"', "true"])
    def test_string_and_boolean_values_exit_two(self, tmp_path, capsys, value):
        solution = tmp_path / "solution.json"
        solution.write_text('{"anchor": {"vertex": [3, 3]}, "coeffs": '
                            '[{"vertex": [0, 0], "j": [1, 1], "re": %s, "im": 0.0}]}' % value)
        assert main(["eval", str(solution), "--space", "padic(2,2)", "--space", "padic(2,2)",
                     "--at", "[[0, 0]]"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {solution}: bad complex entry")
        solution.write_text('{"anchor": {"vertex": [3, 3], "value": [0.0, %s]}, "coeffs": []}' % value)
        assert main(["eval", str(solution), "--space", "padic(2,2)", "--space", "padic(2,2)",
                     "--at", "[[0, 0]]"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {solution}: expected [re, im]")


# -- each subcommand accepts --out and the options it reads; any other option is a usage error --

_READS = {
    "validate": ("input", "--space"),
    "wavelets": ("input", "--space", "--format"),
    "spectrum": ("input", "--space", "--symbol", "--format"),
    "characteristics": ("--space", "--operator", "--epsilon", "--format"),
    "solve": ("input", "--epsilon", "--seed"),
    "eval": ("input", "--space", "--at", "--format"),
}
# every option a subcommand ever took: its tokens, the namespace attribute and the parsed value
_ALL_OPTIONS = {
    "input": (["in.json"], "input", "in.json"),
    "--space": (["--space", "padic(2,1)"], "space", ["padic(2,1)"]),
    "--symbol": (["--symbol", "homog(beta=1)"], "symbol", "homog(beta=1)"),
    "--operator": (["--operator", "op.json"], "operator", "op.json"),
    "--problem": (["--problem", "problem.json"], "problem", "problem.json"),
    "--at": (["--at", "[[0, 0]]"], "at", "[[0, 0]]"),
    "--out": (["--out", "out.json"], "out", "out.json"),
    "--format": (["--format", "csv"], "format", "csv"),
    "--epsilon": (["--epsilon", "1e-3"], "epsilon", 1e-3),
    "--seed": (["--seed", "5"], "seed", 5),
}


@pytest.mark.parametrize("option", _ALL_OPTIONS)
@pytest.mark.parametrize("command", _READS)
def test_subcommand_accepts_only_the_options_it_reads(capsys, command, option):
    tokens, attribute, value = _ALL_OPTIONS[option]
    if option in (*_READS[command], "--out"):
        assert getattr(build_parser().parse_args([command, *tokens]), attribute) == value
    else:
        with pytest.raises(SystemExit) as exc:
            main([command, *tokens])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and "error: unrecognized arguments" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["validate", "padic(2,1)", "--space", "padic(2,1)"],
    ["wavelets", "--space", "padic(2,1)", "--space", "padic(2,1)"],
    ["spectrum", "padic(2,1)", "--space", "padic(2,1)", "--symbol", "homog(beta=1)"],
    ["validate"],
])
def test_one_space_command_takes_exactly_one_space(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: this command requires exactly one space file or --space\n"


@pytest.mark.parametrize("space", ["padic(2,40)", "padic(2,1000000000)", '{"kind": "padic", "p": 2, "depth": 40}'])
def test_padic_vertex_cap_exit_two(tmp_path, capsys, space):
    if space.startswith("{"):
        path = tmp_path / "space.json"
        path.write_text(space)
        space = str(path)
    assert main(["validate", space]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "has more than the 4194304 vertices allowed" in captured.err


def test_padic_shorthand_over_the_cap_names_the_shorthand(capsys):
    assert main(["validate", "padic(2,40)"]) == 2
    assert capsys.readouterr().err == "error: padic(2,40) has more than the 4194304 vertices allowed\n"


class TestInlinePartLocations:
    """An inline part of a problem file reports its errors under the problem's path."""

    @pytest.mark.parametrize("part,value,message", [
        ("symbol", {"kind": "homogeneous", "tail": "false"}, "homogeneous symbol: 'tail' must be true or false"),
        ("symbol", {"kind": "nope"}, "unknown symbol kind 'nope'"),
        ("operator", {"factors": ["homog(beta=1)"], "terms": [7]}, "an operator term must be a JSON object"),
        ("space", {"kind": "padic", "p": 2}, "padic space has no 'depth'"),
        ("space", {"kind": "padic", "p": 2, "depth": 40}, "padic(2,40) has more than the 4194304 vertices allowed"),
        ("space", {"kind": "padic", "p": 1, "depth": 2}, "p must be an integer >= 2, got 1"),
        ("space", {"kind": "padic", "p": 2, "depth": 0}, "depth must be an integer >= 1, got 0"),
        ("rhs", {"coeffs": [{"vertex": [1], "j": [1], "re": "x"}]}, "bad complex entry"),
    ])
    def test_inline_part_error_names_the_problem_file(self, tmp_path, capsys, part, value, message):
        problem = {"spaces": ["padic(2,2)"],
                   "operator": {"factors": ["homog(beta=1)"], "terms": [{"indices": [1], "re": 1.0}]},
                   "anchor": {"vertex": [3]}}
        if part == "symbol":
            problem["operator"]["factors"] = [value]
        elif part == "space":
            problem["spaces"] = [value]
        else:
            problem[part] = value
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        assert main(["solve", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err

    def test_symbol_inline_in_an_operator_file_names_that_file(self, tmp_path, capsys):
        op = tmp_path / "op.json"
        op.write_text(json.dumps({"factors": [{"kind": "homogeneous", "tail": 1}],
                                  "terms": [{"indices": [1], "re": 1.0}]}))
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"spaces": ["padic(2,2)"], "operator": "op.json", "anchor": {"vertex": [3]}}))
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {op}: homogeneous symbol: 'tail'")


class TestNonFiniteData:
    """Non-finite operator data and solution values are refused, not classified or paired as if finite."""

    @staticmethod
    def run(argv, code, capsys):
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        return captured.err

    @staticmethod
    def characteristics(op_path, depth=2, fmt="json"):
        space = f"padic(2,{depth})"
        return ["characteristics", "--space", space, "--space", space, "--operator", str(op_path), "--format", fmt]

    def test_table_symbol_entry_exit_two(self, tmp_path, capsys):
        table = ('{"kind": "table", "entries": [{"ball": 0, "re": 1e400}, '
                 '{"ball": 1, "re": 1.0}, {"ball": 2, "re": 1.0}]}')
        op = tmp_path / "op.json"
        op.write_text('{"factors": [%s, %s], "terms": [{"indices": [1], "re": 1.0}, {"indices": [2], "re": -1.0}]}'
                      % (table, table))
        err = self.run(self.characteristics(op), 2, capsys)
        assert err.startswith("error: table symbol needs finite values, got (inf+0j) at ball 0")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_homogeneous_factor_exit_four(self, tmp_path, capsys, fmt):
        op = tmp_path / "op.json"
        op.write_text(json.dumps(_with(_WAVE_OPERATOR, ("factors",), ["homog(beta=2,c=1e308)"] * 2)))
        err = self.run(self.characteristics(op, depth=3, fmt=fmt), 4, capsys)
        assert err.startswith("numeric failure: symbol value at ball 1 overflows")

    def test_term_coefficient_exit_two(self, tmp_path, capsys):
        op = tmp_path / "op.json"
        op.write_text(json.dumps(_WAVE_OPERATOR).replace('"re": -1.0', '"re": 1e400'))
        err = self.run(self.characteristics(op), 2, capsys)
        assert err.startswith("error: operator terms need finite coefficients, got (inf+0j)")

    def test_homog_shorthand_tail_typo_exit_two(self, capsys):
        err = self.run(["spectrum", "--space", "padic(2,2)", "--symbol", "homog(beta=0.5,tail=ture)"], 2, capsys)
        assert err.startswith("error: homog(beta=0.5,tail=ture): bad homog() value 'tail=ture'")

    @pytest.mark.parametrize("at,fmt", [("[[0, 1]]", "json"), ("[[3, 3]]", "json"), ("[[0, 1]]", "csv")])
    def test_solution_coefficient_exit_two(self, tmp_path, capsys, at, fmt):
        """Whether or not the pairing reaches the key, and in either format."""
        path = tmp_path / "solution.json"
        path.write_text(json.dumps(_TWO_FACTOR_SOLUTION).replace('"re": 1.0', '"re": 1e400'))
        err = self.run(["eval", str(path), "--space", "padic(2,2)", "--space", "padic(2,2)", "--at", at,
                        "--format", fmt], 2, capsys)
        assert err.startswith(f"error: {path}: coefficient (inf+0j) at ((0, 1), (1, 1)) is not finite")

    def test_solution_anchor_value_exit_two(self, tmp_path, capsys):
        path = tmp_path / "solution.json"
        path.write_text(json.dumps(_with(_TWO_FACTOR_SOLUTION, ("anchor", "value"), [0.0, "@"])).replace('"@"', "NaN"))
        err = self.run(["eval", str(path), "--space", "padic(2,2)", "--space", "padic(2,2)", "--at", "[[3, 3]]"],
                       2, capsys)
        assert err.startswith(f"error: {path}: the anchor value")

    _OVERFLOW = {"factors": ["homog(beta=0.5,c=2)"] * 2, "terms": [{"indices": [1], "re": 1e308}]}
    _OVERFLOW_MESSAGE = "numeric failure: the eigenvalue (inf+0j) (term scale inf) at vertex (0, 0) is not finite"

    @pytest.mark.parametrize("extra", [
        {"rhs": {"mean": [0.0, 0.0], "coeffs": [{"vertex": [0, 0], "j": [1, 1], "re": 1.0, "im": 0.0}]}},
        {"free_params": {"seed": 3}},
    ], ids=["rhs on the vertex", "seeded free values"])
    def test_overflowing_eigenvalue_in_solve_exit_four(self, tmp_path, capsys, extra):
        """The rhs entry's own classification and the grid's both refuse the overflow (exits 3 and 0 before)."""
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({"spaces": ["padic(2,1)"] * 2, "operator": self._OVERFLOW,
                                       "anchor": {"vertex": [1, 2]}, **extra}))
        out = tmp_path / "solution.json"
        err = self.run(["solve", str(problem), "--out", str(out)], 4, capsys)
        assert err == self._OVERFLOW_MESSAGE + "\n" and not out.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("listing", ["spectrum", "characteristics"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "--out"])
    def test_non_finite_listing_value_exit_four(self, tmp_path, capsys, fmt, listing, to_file):
        """Neither format writes a NaN or an infinity; CSV printed ``0,inf,0`` and ``0,0,inf,inf,0`` before."""
        op = tmp_path / "op.json"
        op.write_text(json.dumps(self._OVERFLOW))
        argv = {"spectrum": ["spectrum", "--space", "padic(2,1)", "--symbol", "homog(beta=2,c=1.7e308,tail=true)",
                             "--format", fmt],
                "characteristics": self.characteristics(op, depth=1, fmt=fmt)}[listing]
        out = tmp_path / "listing.txt"
        err = self.run(argv + (["--out", str(out)] if to_file else []), 4, capsys)
        assert not out.exists()
        if listing == "spectrum":  # finite symbol values and a finite tail whose sum at the root overflows
            assert err == f"numeric failure: cannot write a non-finite value as {fmt.upper()}: re inf in record 0\n"
        else:  # 2e308 overflows at (0, 0), and so does its term scale: |lambda| <= epsilon * scale held there
            assert err == self._OVERFLOW_MESSAGE + "\n"


class TestGridCap:
    """The generic grid is capped as a whole, checked from the axis lengths before any eigenvalue."""

    @pytest.fixture(autouse=True)
    def cap(self, monkeypatch):
        monkeypatch.setattr(solver_module, "MAX_GRID_POINTS", 49)  # padic(2,3)**2 has 7 x 7 points

    def test_characteristics_at_and_above_the_cap(self, tmp_path, capsys):
        op = tmp_path / "op.json"
        op.write_text(json.dumps(_WAVE_OPERATOR))
        argv = ["characteristics", "--operator", str(op), "--space", "padic(2,3)"]
        assert main(argv + ["--space", "padic(2,3)"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 1 + 2**2 + 4**2  # equal-level pairs
        assert main(argv + ["--space", "padic(2,4)"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the generic grid 7 x 15 has 105 points, more than the 49 allowed\n"

    @pytest.mark.parametrize("spaces,code", [(["padic(2,3)", "padic(2,3)"], 0), (["padic(2,3)", "padic(2,4)"], 2)])
    def test_solve(self, tmp_path, capsys, spaces, code):
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({"spaces": spaces, "operator": _WAVE_OPERATOR, "anchor": {"vertex": [7, 7]}}))
        out = tmp_path / "solution.json"
        assert main(["solve", str(problem), "--out", str(out)]) == code
        assert out.exists() is (code == 0)
        if code:
            assert capsys.readouterr().err.startswith("error: the generic grid 7 x 15 has 105 points")


    def test_solve_refuses_more_free_keys_than_the_cap(self, tmp_path, capsys):
        """padic(3,2)**2 without terms has 16 grid points (under the cap of 49) but 64 free keys."""
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({"spaces": ["padic(3,2)", "padic(3,2)"], "anchor": {"vertex": [4, 4]},
                                       "operator": {"factors": ["homog(beta=1)", "homog(beta=1)"], "terms": []}}))
        out = tmp_path / "solution.json"
        assert main(["solve", str(problem), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == ("error: the 16 characteristic vertices carry 64 free parameters, "
                                           "more than the 49 allowed\n")


class TestSharedTrees:
    """Equal string specs of a command or a problem file build one tree, shared by their factors."""

    @pytest.fixture
    def builds(self, monkeypatch):
        count = []
        build = io_module.build_padic_tree
        monkeypatch.setattr(io_module, "build_padic_tree", lambda p, depth: count.append((p, depth)) or build(p, depth))
        return count

    def test_eval_and_characteristics(self, tmp_path, capsys, builds):
        op = tmp_path / "op.json"
        op.write_text(json.dumps(_WAVE_OPERATOR))
        spaces = ["--space", "padic(2,3)", "--space", "padic(2,3)"]
        assert main(["characteristics", "--operator", str(op), *spaces]) == 0
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({"anchor": {"vertex": [7, 7]}, "coeffs": [{"vertex": [1, 2], "j": [1, 1], "re": 1.0}]}))
        assert main(["eval", str(sol), *spaces, "--at", "[[1, 2]]"]) == 0
        assert builds == [(2, 3), (2, 3)]
        capsys.readouterr()

    def test_problem_file(self, tmp_path, builds):
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({"spaces": ["padic(2,3)", {"kind": "padic", "p": 2, "depth": 3}, "padic(2,3)"],
                                       "operator": {"factors": ["homog(beta=1)"] * 3}, "anchor": {"vertex": [7, 7, 7]}}))
        _, trees = load_problem(str(problem))
        assert trees[0] is trees[2] and trees[1] is not trees[0]
        assert builds == [(2, 3), (2, 3)]

    def test_first_bad_spec_named(self, tmp_path, capsys, builds):
        op = tmp_path / "op.json"
        op.write_text(json.dumps(_WAVE_OPERATOR))
        argv = ["characteristics", "--operator", str(op), "--space", "padic(2,3)"]
        assert main(argv + ["--space", "missing1.json", "--space", "missing2.json"]) == 2
        err = capsys.readouterr().err
        assert "missing1.json" in err and "missing2.json" not in err
        assert main(argv + ["--space", "padic(1,3)"] * 2) == 2
        assert capsys.readouterr().err == "error: p must be an integer >= 2, got 1\n"
        assert builds == [(2, 3), (2, 3), (1, 3)]


# -- listings: the bytes of the per-row dict writers the record encoder replaced --


def _reference_rows(rows, columns, fmt):
    """The per-row writer of listings before the record encoder, kept as the oracle of its bytes."""
    if fmt == "json":
        return json.dumps(rows) + "\n"
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(fmt17(row[c]) if isinstance(row[c], float) else str(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _reference_vertex_rows(rows, n, columns, fmt):
    """``vertex`` spread over vertex_1..vertex_n in CSV."""
    if fmt == "json":
        return _reference_rows(rows, [], fmt)
    names = [f"vertex_{i + 1}" for i in range(n)]
    flat = [{**dict(zip(names, row["vertex"])), **{c: row[c] for c in columns}} for row in rows]
    return _reference_rows(flat, names + columns, fmt)


_ZERO_LEAF_SPACE = {"kind": "explicit", "vertices": [
    {"id": 0, "parent": None, "measure": 1.0, "diameter": 1.0},
    {"id": 1, "parent": 0, "measure": 0.6, "diameter": 0.5},
    {"id": 2, "parent": 0, "measure": 0.4, "diameter": 0.5},
    {"id": 3, "parent": 0, "measure": 0.0, "diameter": 0.5},
    {"id": 4, "parent": 1, "measure": 0.1, "diameter": 0.25},
    {"id": 5, "parent": 1, "measure": 0.5, "diameter": 0.25},
    {"id": 6, "parent": 2, "measure": 0.4, "diameter": 0.2},
    {"id": 7, "parent": 2, "measure": 0.0, "diameter": 0.2},
]}


@pytest.mark.parametrize("fmt", ["json", "csv"])
class TestListingBytes:
    """Each listing, in each format, is byte for byte what the per-row writer printed."""

    @pytest.fixture
    def space(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(_ZERO_LEAF_SPACE))
        return str(path)

    @staticmethod
    def listing(argv, capsys):
        assert main(argv) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("which", ["zero-measure leaf", "padic(3,2)"])
    def test_wavelets_and_spectrum(self, space, capsys, fmt, which):
        space = space if which == "zero-measure leaf" else which
        tree = load_space(space)
        rows = [{"ball": w.ball, "j": w.j, "subball": sub, "re": complex(w.values[sub]).real,
                 "im": complex(w.values[sub]).imag} for w in tree_wavelets(tree) for sub in tree.children[w.ball]]
        assert len(rows) > 4
        assert self.listing(["wavelets", "--space", space, "--format", fmt], capsys) == \
            _reference_rows(rows, ["ball", "j", "subball", "re", "im"], fmt)
        symbol = "homog(beta=0.7,c=1-2j)"
        rows = [{"ball": b, "re": lam.real, "im": lam.imag}
                for b, lam in spectrum(tree, HomogeneousSymbol(beta=0.7, c=1 - 2j)).items()]
        assert self.listing(["spectrum", "--space", space, "--symbol", symbol, "--format", fmt], capsys) == \
            _reference_rows(rows, ["ball", "re", "im"], fmt)

    @pytest.mark.parametrize("epsilon", [1e-9, 2.0])
    def test_characteristics_of_a_complex_three_factor_operator(self, tmp_path, capsys, fmt, epsilon):
        rng = np.random.default_rng(5)
        trees = [build_padic_tree(2, 3), build_padic_tree(3, 2), build_padic_tree(2, 2)]
        symbols = [random_table_symbol(rng, tree) for tree in trees]
        terms = [((0, 1), 1 + 0.5j), ((2,), -0.25 + 0j), ((0,), -1j), ((), 0.5 + 0.5j)]
        op = MultiOperator(list(zip(trees, symbols)), terms)
        path = tmp_path / "op.json"
        path.write_text(json.dumps(operator_to_obj(op)))
        rows = [{"vertex": list(c.vertex), "abs": abs(c.eigenvalue), "re": c.eigenvalue.real,
                 "im": c.eigenvalue.imag} for c in characteristics(op, epsilon)]
        assert bool(rows) is (epsilon == 2.0)
        argv = ["characteristics", "--operator", str(path), "--epsilon", str(epsilon), "--format", fmt,
                "--space", "padic(2,3)", "--space", "padic(3,2)", "--space", "padic(2,2)"]
        assert self.listing(argv, capsys) == _reference_vertex_rows(rows, 3, ["abs", "re", "im"], fmt)

    @pytest.mark.parametrize("n", [1, 2])
    def test_eval(self, tmp_path, capsys, fmt, n):
        """One factor gives ``vertex_1`` in CSV and one-element vertex lists in JSON."""
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({
            "spaces": ["padic(3,2)"] * n,
            "operator": {"factors": ["homog(beta=0.7,c=1-2j)"] * n,
                         "terms": [{"indices": [1], "re": 1.0}, {"indices": [], "re": -0.5, "im": 0.1}]},
            "rhs": {"mean": [0.0, 0.0], "coeffs": [{"vertex": [b] * n, "j": [j] * n, "re": 0.1 * b + 0.3, "im": -j}
                                                   for b in range(4) for j in (1, 2)]},
            "anchor": {"vertex": [5] * n, "value": [1.0, 0.5]},
        }))
        solution = tmp_path / "solution.json"
        assert main(["solve", str(problem), "--out", str(solution)]) == 0
        capsys.readouterr()
        trees = [build_padic_tree(3, 2)] * n
        u = load_solution(str(solution), trees)
        vertices = sorted({tuple(int(x) for x in v) for v in itertools.product([0, 2, 5, 12], repeat=n)})
        rows = [{"vertex": list(v), "re": eval_on_char_nd(u, v).real, "im": eval_on_char_nd(u, v).imag}
                for v in vertices]
        assert any(r["re"] for r in rows)
        argv = ["eval", str(solution), *itertools.chain.from_iterable(["--space", "padic(3,2)"] for _ in trees),
                "--at", json.dumps([list(v) for v in reversed(vertices)]), "--format", fmt]
        assert self.listing(argv, capsys) == _reference_vertex_rows(rows, n, ["re", "im"], fmt)


# -- junk input: every subcommand exits 0, 2, 3 or 4 and never prints a traceback --

_NUMBERS = {"nan": "NaN", "inf": "1e400", "big": str(10**30)}
_TWO_FACTOR_SOLUTION = {"anchor": {"vertex": [3, 3], "value": [1.0, 0.0]},
                        "coeffs": [{"vertex": [0, 1], "j": [1, 1], "re": 1.0, "im": 0.0}]}
_WAVE_OPERATOR = {"factors": ["homog(beta=1)", "homog(beta=1)"],
                  "terms": [{"indices": [1], "re": 1.0, "im": 0.0}, {"indices": [2], "re": -1.0, "im": 0.0}]}


def _with(obj, path, value):
    """A JSON copy of ``obj`` with the item at ``path`` set to ``value``."""
    obj = json.loads(json.dumps(obj))
    *head, last = path
    target = obj
    for key in head:
        target = target[key]
    target[last] = value
    return obj


# per file slot, objects holding "@" where each of _NUMBERS goes; never a padic p or depth,
# where 10**30 would ask for a tree of that many balls
_NUMBER_SLOTS = {
    "space": [
        {"kind": "explicit", "vertices": [{"id": 0, "parent": None, "measure": "@", "diameter": 1.0}]},
        {"kind": "explicit", "vertices": [{"id": 0, "parent": None, "measure": 1.0, "diameter": 1.0},
                                          {"id": "@", "parent": 0, "measure": 1.0, "diameter": 0.5}]},
        {"kind": "explicit", "vertices": [{"id": 0, "parent": "@", "measure": 1.0, "diameter": 1.0}]},
    ],
    "symbol": [
        {"kind": "homogeneous", "beta": "@"},
        {"kind": "homogeneous", "beta": 1.0, "c": ["@", 0.0]},
        {"kind": "table", "entries": [{"ball": "@", "re": 1.0, "im": 0.0}]},
        {"kind": "table", "entries": [{"ball": 0, "re": "@", "im": 0.0}]},
    ],
    "operator": [
        _with(_WAVE_OPERATOR, ("terms", 0, "indices"), ["@"]),
        _with(_WAVE_OPERATOR, ("terms", 0, "re"), "@"),
        _with(_WAVE_OPERATOR, ("factors", 0), {"kind": "homogeneous", "beta": "@"}),
    ],
    "problem": [_with(WAVE_PROBLEM, path, value) for path, value in [
        (("epsilon",), "@"),
        (("anchor", "vertex"), ["@", 3]),
        (("anchor", "value"), ["@", 0.0]),
        (("operator", "terms", 0, "indices"), ["@"]),
        (("rhs", "coeffs"), [{"vertex": ["@", 1], "j": [1, 1], "re": 1.0, "im": 0.0}]),
        (("rhs", "coeffs"), [{"vertex": [1, 2], "j": [1, "@"], "re": 1.0, "im": 0.0}]),
        (("rhs", "coeffs"), [{"vertex": [1, 2], "j": [1, 1], "re": "@", "im": 0.0}]),
        (("boundary",), [{"vertex": ["@", 3], "j": [1, 0], "re": 1.0, "im": 0.0}]),
        (("boundary",), [{"vertex": [0, 3], "j": [1, 0], "re": "@", "im": 0.0}]),
        (("free_params",), {"seed": "@"}),
        (("free_params",), [{"vertex": ["@", 0], "j": [1, 1], "re": 1.0, "im": 0.0}]),
        (("free_params",), [{"vertex": [0, 0], "j": [1, 1], "re": "@", "im": 0.0}]),
    ]],
    "solution": [_with(_TWO_FACTOR_SOLUTION, path, value) for path, value in [
        (("anchor", "vertex"), ["@", 3]),
        (("anchor", "value"), ["@", 0.0]),
        (("coeffs", 0, "vertex"), ["@", 1]),
        (("coeffs", 0, "j"), ["@", 1]),
        (("coeffs", 0, "re"), "@"),
    ]],
    "at": [["@"], [["@", 0]]],
}
_JUNK_FILES = {"empty": b"", "bad_utf8": b"\xff\xfe{\x80}", "list": b"[1, 2]", "number": b"42",
               "string": b'"padic(2,2)"', "null": b"null"}
_FILES = {
    "operator": json.dumps(_WAVE_OPERATOR).encode(),
    "problem": json.dumps(WAVE_PROBLEM).encode(),
    "solution": json.dumps(_TWO_FACTOR_SOLUTION).encode(),
    "steep_operator": json.dumps(_with(_WAVE_OPERATOR, ("factors",), ["homog(beta=2000)"] * 2)).encode(),
    "padic_nan": b'{"kind": "padic", "p": 2, "depth": NaN}',
    "padic_inf": b'{"kind": "padic", "p": 1e400, "depth": 2}',
    **_JUNK_FILES,
    **{f"{slot}{i}_{name}": json.dumps(obj).replace('"@"', text).encode()
       for slot, objs in _NUMBER_SLOTS.items() for i, obj in enumerate(objs) for name, text in _NUMBERS.items()},
}
_COMMANDS = {
    "validate": ["validate", "<space>"],
    "wavelets": ["wavelets", "<space>"],
    "spectrum": ["spectrum", "--space", "<space>", "--symbol", "<symbol>"],
    "characteristics": ["characteristics", "--space", "<space>", "--space", "<space>", "--operator", "<operator>"],
    "solve": ["solve", "<problem>"],
    "eval": ["eval", "<solution>", "--space", "<space>", "--space", "<space>", "--at", "<at>"],
}
_VALID = {"<space>": "padic(2,2)", "<symbol>": "homog(beta=1)", "<operator>": "@operator",
          "<problem>": "@problem", "<solution>": "@solution", "<at>": "[[0, 1]]"}
# junk for one slot: files (``@name``) and inline values
_SLOT_JUNK = {
    "space": ["@padic_nan", "@padic_inf", "padic(1,2)", "padic(2,0)"],
    "symbol": ["homog(beta=2000)", "homog(beta=-2000)", "homog(beta=2000, tail=true)", "homog(beta=1e400)"],
    "operator": ["@steep_operator"],
    "problem": [],
    "solution": [],
    "at": ["", "nan", "[]", "[[]]", "[[0, 0, 0]]", "[[99, 0]]", "{}", '"x"', "[[1e400, 0]]", f"[[{10**30}, 0]]"],
}
_FLAG_JUNK = [
    *(["characteristics", "--space", "padic(2,2)", "--space", "padic(2,2)", "--operator", "@operator",
       "--epsilon", e] for e in ("nan", "-1", "inf", "x")),
    *(["solve", "@problem", "--epsilon", e] for e in ("nan", "-1", "inf", "x")),
    *(["solve", "@problem", "--seed", s] for s in ("-5", "x", str(10**30))),
]


def _junk_argvs():
    for template in _COMMANDS.values():
        for slot in dict.fromkeys(a[1:-1] for a in template if a.startswith("<")):
            files = [*_JUNK_FILES, *(f"{slot}{i}_{name}" for i in range(len(_NUMBER_SLOTS[slot]))
                                     for name in _NUMBERS)]
            for junk in [f"@{name}" for name in files] + _SLOT_JUNK[slot]:
                yield [junk if a == f"<{slot}>" else _VALID.get(a, a) for a in template]
    yield from _FLAG_JUNK


@pytest.fixture(scope="module")
def junk_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("junk")
    for name, data in _FILES.items():
        (root / f"{name}.json").write_bytes(data)
    return {f"@{name}": str(root / f"{name}.json") for name in _FILES}


@pytest.mark.parametrize("argv", list(_junk_argvs()), ids=" ".join)
def test_junk_input_exits_with_a_documented_code(junk_paths, capsys, argv):
    argv = [junk_paths.get(a, a) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the flag value
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4) and "Traceback" not in err, (argv, code, err)


class TestCollectorState:
    """A command pauses the cyclic collector and leaves it as the caller had it."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collecting(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("code,argv", [
        (0, ["validate", "padic(2,2)"]),
        (2, ["validate", "padic(1,2)"]),
        (3, ["solve", "<unsolvable>"]),
        (4, ["spectrum", "--space", "padic(2,2)", "--symbol", "homog(beta=0.5, tail=true)"]),
    ])
    def test_state_after_each_exit_code(self, tmp_path, capsys, collecting, code, argv):
        unsolvable = write_wave_problem(tmp_path, [{"vertex": [1, 1], "j": [1, 1], "re": 1.0, "im": 0.0}])
        assert main([unsolvable if arg == "<unsolvable>" else arg for arg in argv]) == code
        assert gc.isenabled() is collecting

    def test_state_after_an_escaping_exception(self, monkeypatch, collecting):
        def handler(args):
            assert not gc.isenabled()
            raise RuntimeError("handler failed")

        monkeypatch.setitem(cli._COMMANDS, "validate", (handler, *cli._COMMANDS["validate"][1:]))
        with pytest.raises(RuntimeError, match="handler failed"):
            main(["validate", "padic(2,2)"])
        assert gc.isenabled() is collecting
