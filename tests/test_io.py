import itertools
import json
import operator
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_measured_tree
from ultrawave.distributions import GeneralizedFunction, LizorkinSeries
from ultrawave.cli import main
from ultrawave.errors import FileFormatError, NonFiniteError, ParameterError, SpaceValidationError, UltrawaveError
from ultrawave.io import (
    _coeff_records,
    _complex_of,
    _fast_coeff_records,
    _pair_of,
    _strict_coeff_records,
    encode_records,
    fmt17,
    genfun_to_obj,
    lizorkin_to_obj,
    load_lizorkin,
    load_operator,
    load_problem,
    load_solution,
    load_space,
    load_symbol,
    operator_to_obj,
    solution_to_obj,
    space_to_obj,
    symbol_to_obj,
    write_json,
)
from ultrawave.operators import HomogeneousSymbol, TableSymbol
from ultrawave.products import MultiOperator
from ultrawave.solver import CauchyProblem, ResidualReport, Solution, solve
from ultrawave.trees import BallTree, build_padic_tree


class TestSpaceFiles:
    def test_padic_shorthand(self):
        t = load_space("padic(2,3)")
        assert t.n_vertices == 15 and t.padic == (2, 3)

    def test_padic_object_roundtrip(self):
        t = build_padic_tree(3, 2)
        assert space_to_obj(t) == {"kind": "padic", "p": 3, "depth": 2}

    def test_explicit_roundtrip(self):
        rng = np.random.default_rng(2)
        t = random_measured_tree(rng, max_depth=3)
        obj = space_to_obj(t)
        t2 = load_space(obj)
        assert t2.parent == t.parent
        assert t2.measure == t.measure
        assert t2.diameter == t.diameter

    def test_explicit_additivity_checked_on_load(self):
        obj = {
            "kind": "explicit",
            "vertices": [
                {"id": 0, "parent": None, "measure": 1.0, "diameter": 1.0},
                {"id": 1, "parent": 0, "measure": 0.7, "diameter": 0.5},
                {"id": 2, "parent": 0, "measure": 0.7, "diameter": 0.5},
            ],
        }
        with pytest.raises(SpaceValidationError) as err:
            load_space(obj)
        assert err.value.ball == 0

    def test_bad_kind(self):
        with pytest.raises(FileFormatError):
            load_space({"kind": "mystery"})

    def test_file_reference(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"kind": "padic", "p": 2, "depth": 1}))
        t = load_space(str(path))
        assert t.n_vertices == 3


class TestSymbolFiles:
    def test_table_roundtrip(self):
        sym = TableSymbol({0: 1.0 + 2.0j, 1: -0.5})
        obj = symbol_to_obj(sym)
        back = load_symbol(obj)
        assert back.entries == sym.entries

    def test_homogeneous_roundtrip(self):
        sym = HomogeneousSymbol(c=2.0 - 1.0j, beta=1.5, tail=True)
        assert load_symbol(symbol_to_obj(sym)) == sym

    def test_homog_shorthand(self):
        sym = load_symbol("homog(beta=0.5)")
        assert sym == HomogeneousSymbol(beta=0.5)
        sym = load_symbol("homog(beta=2, c=3, tail=true)")
        assert sym == HomogeneousSymbol(c=3.0, beta=2.0, tail=True)
        for text, tail in [("TRUE", True), ("Yes", True), ("1", True), ("False", False), ("no", False), ("0", False)]:
            assert load_symbol(f"homog(beta=2, tail={text})").tail is tail

    def test_shorthand_requires_beta(self):
        with pytest.raises(FileFormatError):
            load_symbol("homog(c=1)")


class TestOperatorFiles:
    def test_inline_and_referenced_symbols(self, tmp_path):
        (tmp_path / "s1.json").write_text(json.dumps(symbol_to_obj(TableSymbol({0: 2.0}))))
        obj = {
            "factors": ["s1.json", {"kind": "homogeneous", "c": [1, 0], "beta": 0.5, "tail": False}],
            "terms": [{"indices": [1, 2], "re": 1.0, "im": 0.0}, {"indices": [], "re": -4.0, "im": 0.0}],
        }
        trees = [build_padic_tree(2, 1), build_padic_tree(2, 1)]
        op = load_operator(obj, trees, str(tmp_path))
        assert op.terms == (((0, 1), 1.0 + 0.0j), ((), -4.0 + 0.0j))
        back = operator_to_obj(op)
        assert back["terms"] == obj["terms"]

    def test_factor_count_mismatch(self):
        with pytest.raises(FileFormatError):
            load_operator({"factors": [], "terms": []}, [build_padic_tree(2, 1)])


class TestCoefficientFiles:
    def test_lizorkin_roundtrip_nd(self):
        s = LizorkinSeries(2, {((0, 0), (1, 1)): 2.0 + 1.0j})
        back = load_lizorkin(lizorkin_to_obj(s), 2)
        assert back.coeffs == s.coeffs

    def test_lizorkin_rejects_nonzero_mean(self):
        with pytest.raises(FileFormatError):
            load_lizorkin({"mean": [1.0, 0.0], "coeffs": []}, 1)

    def test_genfun_roundtrip(self):
        t1, t2 = build_padic_tree(2, 2), build_padic_tree(2, 1)
        u = GeneralizedFunction(
            [t1, t2],
            (3, 1),
            coeffs={((1, 0), (1, 1)): 2.0 - 0.5j, ((3, 1), (0, 0)): 0.0},
            anchor_value=1.25,
        )
        obj = genfun_to_obj(u)
        back = load_solution(obj, [t1, t2])
        assert back.anchor == u.anchor
        assert back.anchor_value == u.anchor_value
        assert back.coefficient((1, 0), (1, 1)) == 2.0 - 0.5j

    def test_j_zero_encodes_anchor_components(self):
        t = build_padic_tree(2, 2)
        u = GeneralizedFunction([t], (1,), {(0, 1): 1.0}, 2.0)
        obj = genfun_to_obj(u)
        assert obj["anchor"] == {"vertex": [1], "value": [2.0, 0.0]}
        assert obj["coeffs"] == [{"ball": 0, "j": 1, "re": 1.0, "im": 0.0}]


def written(obj):
    """``obj`` after a trip through the file writer; every id must come back a JSON integer."""
    text = write_json(obj, None)
    assert "true" not in text and "false" not in text
    return json.loads(text)


class TestIdsWrittenAsJsonIntegers:
    """Numpy and bool ids are library ids; files get plain JSON integers, which every loader takes back."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_genfun_roundtrip(self, n):
        trees = [build_padic_tree(2, 2)] * n
        anchor = (np.int64(1), 2)[:n]
        coeffs = {((np.int64(0), 1)[:n], (True, np.int32(1))[:n]): 2.0 - 1.0j,
                  ((2, np.uint8(0))[:n], (np.int64(1), 1)[:n]): 0.5,
                  ((np.int16(1), 2)[:n], (False, 0)[:n]): 1.5}
        u = GeneralizedFunction(trees, anchor, coeffs, anchor_value=0.25)
        back = load_solution(written(genfun_to_obj(u)), trees)
        assert back.anchor == (1, 2)[:n] and back.coeffs == u.coeffs

    def test_lizorkin_roundtrip(self):
        s = LizorkinSeries(2, {((np.int64(0), True), (True, np.int32(2))): 2.0, ((1, 2), (1, 1)): 1j})
        back = load_lizorkin(written(lizorkin_to_obj(s)), 2)
        assert back.coeffs == s.coeffs == {((0, 1), (1, 2)): 2.0, ((1, 2), (1, 1)): 1j}

    def test_space_and_table_symbol_roundtrip(self):
        t = BallTree([None, np.int64(0), np.int32(0)], [1.0, 0.5, 0.5], [1.0, 0.5, 0.5])
        assert load_space(written(space_to_obj(t))).parent == (None, 0, 0)
        table = TableSymbol({np.int64(0): 1.0, True: 2.0})
        assert load_symbol(written(symbol_to_obj(table))).entries == {0: 1.0, 1: 2.0}

    def test_solution_with_numpy_boundary_ids(self):
        tree = build_padic_tree(2, 2)
        symbol = HomogeneousSymbol(beta=0.5)
        op = MultiOperator([(tree, symbol), (tree, symbol)], [((0,), 1.0), ((1,), -1.0)])
        rhs = LizorkinSeries(2, {((np.int64(0), np.int64(1)), (1, np.int64(1))): 1.0})
        boundary = {((np.int64(0), np.int64(3)), (np.int64(1), 0)): 0.5}
        sol = solve(CauchyProblem(op, rhs, anchor=(3, np.int64(3)), boundary=boundary, free_values=7))
        obj = written(solution_to_obj(sol))
        back = load_solution(obj, [tree, tree])
        assert back.anchor == (3, 3) and back.coeffs == sol.u.coeffs
        assert len(obj["free_params"]) == len(sol.free_params) > 0


class TestSolutionFreeParams:
    """``free_params`` lists the free keys in solve order; each value is read from ``coeffs``."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_records_are_keys_of_written_coeffs(self, n, tmp_path):
        tree = build_padic_tree(2, 3)
        symbol = HomogeneousSymbol(beta=0.5)
        if n == 1:  # T - lambda(1): every ball of ball 1's level is characteristic
            lam = MultiOperator.single(tree, symbol).factor_eigenvalue(0, 1)
            op = MultiOperator([(tree, symbol)], [((0,), 1.0), ((), -lam)])
            rhs, anchor, fields = LizorkinSeries(1, {((0,), (1,)): 1.0}), (7,), {"ball", "j"}
        else:
            op = MultiOperator([(tree, symbol), (tree, symbol)], [((0,), 1.0), ((1,), -1.0)])
            rhs, anchor, fields = LizorkinSeries(2, {((0, 1), (1, 1)): 1.0}), (7, 7), {"vertex", "j"}
        sol = solve(CauchyProblem(op, rhs, anchor=anchor, free_values=5))
        assert len(sol.free_params) > 1
        path = str(tmp_path / "solution.json")
        write_json(solution_to_obj(sol), path)
        with open(path, encoding="utf-8") as fh:
            records = json.load(fh)["free_params"]
        back = load_solution(path, [tree] * n)
        assert all(set(rec) == fields for rec in records)
        if n == 1:
            keys = [((rec["ball"],), (rec["j"],)) for rec in records]
        else:
            keys = [(tuple(rec["vertex"]), tuple(rec["j"])) for rec in records]
        assert keys == list(sol.free_params)
        assert any(sol.u.coeffs[key] for key in keys)
        assert all(back.coeffs[key] == sol.u.coeffs[key] for key in keys)


class TestProblemFiles:
    def test_full_problem_load(self, tmp_path):
        problem_obj = {
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
            "rhs": {"mean": [0.0, 0.0], "coeffs": [
                {"vertex": [1, 2], "j": [1, 1], "re": 1.0, "im": 0.0},
            ]},
            "anchor": {"vertex": [3, 3], "value": [0.5, 0.0]},
            "boundary": [{"vertex": [0, 3], "j": [1, 0], "re": 0.25, "im": 0.0}],
            "epsilon": 1e-9,
            "free_params": {"seed": 7},
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem_obj))
        problem, trees = load_problem(str(path))
        assert problem.operator.n == 2
        assert problem.rhs.coefficient((1, 2), (1, 1)) == 1.0
        assert problem.anchor == (3, 3)
        assert problem.anchor_value == 0.5
        assert problem.boundary == {((0, 3), (1, 0)): 0.25}
        assert problem.free_values == 7
        assert len(trees) == 2

    def test_missing_spaces_rejected(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"operator": {}, "anchor": {"vertex": [0]}}))
        with pytest.raises(FileFormatError):
            load_problem(str(path))

    def test_bad_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(FileFormatError) as err:
            load_problem(str(path))
        assert "broken.json" in str(err.value)


class TestNonIntegralIds:
    @pytest.mark.parametrize("entry", [
        {"ball": 3.7, "j": 1, "re": 1.0},
        {"ball": 3, "j": 1.5, "re": 1.0},
        {"vertex": [3, 0.5], "j": [1, 1], "re": 1.0},
        {"vertex": [3, 0], "j": [1, 1.25], "re": 1.0},
        {"vertex": [3, float("nan")], "j": [1, 1], "re": 1.0},
        {"vertex": [3, float("inf")], "j": [1, 1], "re": 1.0},
        {"vertex": [3, "1.5"], "j": [1, 1], "re": 1.0},
    ])
    def test_coefficient_entry_rejected_with_location(self, entry):
        trees = [build_padic_tree(2, 2)] * (1 if "ball" in entry else 2)
        obj = {"anchor": {"vertex": [3] * len(trees)}, "coeffs": [entry]}
        with pytest.raises(FileFormatError, match="^function: ") as err:
            load_solution(obj, trees)
        assert err.value.location == "function"

    def test_every_coefficient_loader_rejects_them(self):
        bad = [{"ball": 1, "j": 1.5, "re": 1.0}]
        with pytest.raises(FileFormatError, match="non-integral"):
            load_solution({"anchor": {"vertex": [3]}, "coeffs": bad}, [build_padic_tree(2, 2)])
        with pytest.raises(FileFormatError, match="non-integral"):
            load_lizorkin({"mean": 0.0, "coeffs": bad}, 1)

    @pytest.mark.parametrize("vertex", [[3.5, 3], [3, "x"], 3, None])
    def test_anchor_vertex_rejected(self, vertex, tmp_path):
        trees = [build_padic_tree(2, 2)] * 2
        with pytest.raises(FileFormatError, match="anchor vertex"):
            load_solution({"anchor": {"vertex": vertex}, "coeffs": []}, trees)
        problem = {"spaces": ["padic(2,2)"] * 2, "operator": {"factors": ["homog(beta=1)"] * 2},
                   "anchor": {"vertex": vertex}}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        with pytest.raises(FileFormatError, match="anchor vertex"):
            load_problem(str(path))

    def test_integral_floats_load_as_ints(self):
        trees = [build_padic_tree(2, 2)] * 2
        as_ints = {"anchor": {"vertex": [3, 4]},
                   "coeffs": [{"vertex": [0, 1], "j": [1, 1], "re": 2.0}, {"vertex": [3, 2], "j": [0, 1]}]}
        as_floats = {"anchor": {"vertex": [3.0, 4.0]},
                     "coeffs": [{"vertex": [0.0, 1.0], "j": [1.0, 1], "re": 2.0},
                                {"vertex": [3, 2.0], "j": [0.0, 1.0]}]}
        u, v = load_solution(as_ints, trees), load_solution(as_floats, trees)
        assert repr(v.anchor) == repr(u.anchor) == "(3, 4)"
        assert repr(list(v.coeffs.items())) == repr(list(u.coeffs.items()))
        one = load_solution({"anchor": {"vertex": [3.0]}, "coeffs": [{"ball": 1.0, "j": 1.0}]}, trees[:1])
        assert repr(list(one.coeffs)) == "[((1,), (1,)), ((3,), (0,))]"


class TestStringAndBooleanIds:
    """JSON strings and booleans are not ids or indices, whatever they spell."""

    @pytest.mark.parametrize("entry", [
        {"ball": "3", "j": 1, "re": 1.0, "im": 0.0},
        {"ball": 3, "j": True, "re": 1.0, "im": 0.0},
        {"vertex": ["3", 0], "j": [1, 1], "re": 1.0, "im": 0.0},
        {"vertex": [" 7 ", True], "j": [1, 1], "re": 1.0, "im": 0.0},
        {"vertex": [3, 0], "j": [1, False], "re": 1.0, "im": 0.0},
        {"vertex": [3, 0], "j": ["1", 1], "re": 1.0, "im": 0.0},
    ])
    def test_every_coefficient_loader_rejects_them(self, entry, tmp_path):
        ball_form = "ball" in entry
        trees = [build_padic_tree(2, 2)] * (1 if ball_form else 2)
        with pytest.raises(FileFormatError, match="^function: bad coefficient entry .* is not a number"):
            load_solution({"anchor": {"vertex": [3] * len(trees)}, "coeffs": [entry]}, trees)
        with pytest.raises(FileFormatError, match="is not a number"):
            load_lizorkin({"mean": 0.0, "coeffs": [entry]}, len(trees))
        if ball_form:
            return
        for part in ("boundary", "free_params"):
            problem = {"spaces": ["padic(2,2)"] * 2, "operator": {"factors": ["homog(beta=1)"] * 2},
                       "anchor": {"vertex": [3, 3]}, part: [entry]}
            path = tmp_path / "problem.json"
            path.write_text(json.dumps(problem))
            with pytest.raises(FileFormatError, match=f"^{path}: .* is not a number"):
                load_problem(str(path))

    @pytest.mark.parametrize("vertex", [["3", 4], [3, True], [False, 4]])
    def test_anchor_vertex_rejected(self, vertex):
        trees = [build_padic_tree(2, 2)] * 2
        with pytest.raises(FileFormatError, match="anchor vertex .* is not a number"):
            load_solution({"anchor": {"vertex": vertex}, "coeffs": []}, trees)


class TestRecordLoaderPaths:
    VERTEX = [{"vertex": [0, 1], "j": [1, 1], "re": 1.0, "im": -0.0},
              {"vertex": [3, 2], "j": [0, 1], "re": 0.5, "im": -1.0},
              {"vertex": [0, 1], "j": [1, 1], "re": 2.0, "im": 0.0}]
    BALL = [{"ball": 1, "j": 1, "re": 2.0, "im": 0.0}, {"ball": 0, "j": 1, "re": -0.0, "im": 3.0}]

    @pytest.mark.parametrize("records", [VERTEX, BALL, []])
    def test_exact_types_take_the_fast_path(self, records):
        fast = _fast_coeff_records(records)
        assert fast is not None
        assert repr(list(fast.items())) == repr(list(_strict_coeff_records(records, "f").items()))

    @pytest.mark.parametrize("change", [
        lambda r: r[0].update(re=1),  # an int value
        lambda r: r[0].pop("im"),  # a missing value part
        lambda r: r[0].update(ball=0),  # a ball-form record among vertex-form ones
        lambda r: r[1]["vertex"].__setitem__(0, 3.0),  # a float id
        lambda r: r[1]["j"].__setitem__(1, True),  # a boolean index
        lambda r: r[2].update(vertex=(0, 1)),  # not a JSON list
        lambda r: r.append({"ball": 1, "j": 1, "re": 2.0, "im": 0.0}),  # mixed forms
        lambda r: r.append([0, 1]),  # not an object
    ])
    def test_any_miss_declines(self, change):
        records = json.loads(json.dumps(self.VERTEX))
        change(records)
        assert _fast_coeff_records(records) is None

    def test_ball_wins_over_vertex_as_in_the_strict_loader(self):
        records = [dict(rec, vertex=[5, 5]) for rec in self.BALL]
        fast = _fast_coeff_records(records)
        assert list(fast) == [((1,), (1,)), ((0,), (1,))]
        assert repr(list(fast.items())) == repr(list(_strict_coeff_records(records, "f").items()))


class TestNonFiniteOutput:
    @pytest.mark.parametrize("beta,c", [(float("nan"), 1.0), (float("inf"), 1.0), (1.0, complex("nan")),
                                        (1.0, float("-inf")), (0.5, complex(1.0, float("inf")))])
    def test_homogeneous_symbol_rejects_non_finite_parameters(self, beta, c):
        with pytest.raises(ParameterError, match="finite beta and c"):
            HomogeneousSymbol(c=c, beta=beta)

    def test_write_json_refuses_nan_and_writes_nothing(self, tmp_path):
        path = tmp_path / "out.json"
        for bad in (float("nan"), float("inf"), [1.0, {"x": float("-inf")}]):
            with pytest.raises(NonFiniteError):
                write_json({"value": bad}, str(path))
            assert not path.exists()

    def test_write_json_text_is_the_default_encoding(self, tmp_path):
        obj = {"a": [1.0, -0.0, 1e-300, 2.5e300], "b": {"c": None, "d": True}, "e": "x\u00e9"}
        path = tmp_path / "out.json"
        assert write_json(obj, str(path)) == json.dumps(obj)
        assert path.read_text(encoding="utf-8") == json.dumps(obj) + "\n"


def _reference_entry_objs(pairs, n):
    """The per-record dict writer the record encoder replaced, kept as the oracle of its bytes."""
    pairs = list(pairs)
    if not set(map(type, itertools.chain.from_iterable(itertools.chain.from_iterable(
            map(operator.itemgetter(0), pairs))))) <= {int}:
        pairs = [((tuple(map(operator.index, vertex)), tuple(map(operator.index, j))), c) for (vertex, j), c in pairs]
    if n == 1:
        return [{"ball": b, "j": j, "re": c.real, "im": c.imag} for ((b,), (j,)), c in pairs]
    return [{"vertex": list(vertex), "j": list(j), "re": c.real, "im": c.imag} for (vertex, j), c in pairs]


def _reference_genfun_obj(u):
    items = [(key, c) for key, c in u.items() if key != u.anchor_key]
    return {"anchor": {"vertex": list(map(operator.index, u.anchor)),
                       "value": [u.anchor_value.real, u.anchor_value.imag]},
            "coeffs": _reference_entry_objs(items, u.n)}


def _reference_solution_text(sol):
    obj = _reference_genfun_obj(sol.u)
    keys = _reference_entry_objs(((key, 0j) for key in sol.free_params), sol.u.n)
    obj["free_params"] = [{name: v for name, v in rec.items() if name not in ("re", "im")} for rec in keys]
    obj["residual"] = {"max_rel": sol.residual.max_rel, "max_abs": sol.residual.max_abs,
                       "warnings": list(sol.residual.warnings)}
    return json.dumps(obj, check_circular=False, allow_nan=False)


_AWKWARD_VALUES = [complex(-0.0, 5e-324), complex(1e300, -0.0), complex(0.1, -1e300), complex(-5e-324, 1 / 3),
                   complex(0.0, 0.0), complex(-2.5e-7, 123456789.0)]


def _awkward_solution(n):
    """A solution on padic(3,2)**n whose ids are in part numpy integers and bools, with extreme values."""
    tree = build_padic_tree(3, 2)  # non-leaf balls 0..3 with wavelets j = 1, 2; ball 4 is a leaf
    components = [(b, j) for b in range(4) for j in (1, 2)] + [(4, 0)]
    id_types = [int, np.int64, np.int32, bool, np.uint8]
    coeffs, free = {}, []
    for k, parts in enumerate(itertools.product(components, repeat=n)):
        if all(j == 0 for _, j in parts):
            continue  # the anchor key, set through anchor_value
        cast = id_types[k % len(id_types)]
        if cast is bool:  # True stands for 1, False for 0
            cast = (lambda x: bool(x) if x < 2 else x)
        key = (tuple(cast(b) for b, _ in parts), tuple(cast(j) for _, j in parts))
        coeffs[key] = _AWKWARD_VALUES[k % len(_AWKWARD_VALUES)]
        if k % 3 == 0:
            free.append(key)
    u = GeneralizedFunction([tree] * n, (np.int64(4),) * n, coeffs, anchor_value=complex(-0.0, 1e300))
    warnings = ('near "characteristic" eigenvalue \\ at ball 1', "r\u00e9sidu \u2248 0 \u4e2d\n\tend")
    return Solution(u, tuple(free), ResidualReport(5e-324, -0.0, warnings), ())


class TestSolutionRoundTrip:
    """``load_solution`` of a written solution gives back ``u``'s keys, value bits and anchor."""

    @staticmethod
    def exact(u):
        return ([(tuple(map(operator.index, v)), tuple(map(operator.index, j)), c.real.hex(), c.imag.hex())
                 for (v, j), c in u.items()], tuple(map(operator.index, u.anchor)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_awkward_ids_and_values(self, n, tmp_path):
        sol = _awkward_solution(n)
        path = str(tmp_path / "sol.json")
        write_json(solution_to_obj(sol), path)
        back = load_solution(path, list(sol.u.factors))
        assert self.exact(back) == self.exact(sol.u)
        assert any(re == "-0x0.0p+0" for _, _, re, _ in self.exact(back)[0])

    def test_solved_problem(self, tmp_path):
        tree = build_padic_tree(2, 4)
        symbol = HomogeneousSymbol(beta=0.5)
        op = MultiOperator([(tree, symbol), (tree, symbol)], [((0,), 1.0), ((1,), -1.0)])
        rng = np.random.default_rng(9)
        off = [(a, b) for a in range(15) for b in range(15) if (a + 1).bit_length() != (b + 1).bit_length()]
        picks = rng.permutation(len(off))[:60]
        rhs = LizorkinSeries(2, {(off[int(k)], (1, 1)): complex(*rng.standard_normal(2)) for k in picks})
        boundary = {((15, 3), (0, 1)): -0.0j, ((4, 20), (1, 0)): 0.5}
        sol = solve(CauchyProblem(op, rhs, anchor=(15, 20), anchor_value=-0.0, boundary=boundary, free_values=3))
        path = str(tmp_path / "sol.json")
        write_json(solution_to_obj(sol), path)
        back = load_solution(path, [tree, tree])
        assert self.exact(back) == self.exact(sol.u)
        assert len(back.coeffs) == 60 + 2 + 1 + sum(4**k for k in range(4))  # rhs, boundary, anchor, free keys


class TestRecordEncoder:
    """One encoder writes every coefficient record: the bytes of the per-record dict writer it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_solution_text_equals_the_dict_writer(self, n):
        sol = _awkward_solution(n)
        assert {type(b) for (vertex, _), _ in sol.u.items() for b in vertex} >= {int, np.int64, bool}
        assert write_json(solution_to_obj(sol), None) == _reference_solution_text(sol)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_to_obj_values_equal_the_dict_writer(self, n):
        u = _awkward_solution(n).u
        series = LizorkinSeries(n, {key: c for key, c in u.items() if all(j >= 1 for j in key[1])})
        cases = [(genfun_to_obj(u), _reference_genfun_obj(u)),
                 (lizorkin_to_obj(series), {"mean": [0.0, 0.0], "coeffs": _reference_entry_objs(series.items(), n)})]
        for got, want in cases:
            assert got == want
            assert json.dumps(got) == json.dumps(want)  # also the sign of zero, and ints that are not bools

    def test_empty_records(self):
        u = GeneralizedFunction([build_padic_tree(2, 1)], (1,), {}, anchor_value=1.0)
        sol = Solution(u, (), ResidualReport(0.0, 0.0), ())
        assert write_json(solution_to_obj(sol), None) == _reference_solution_text(sol)
        assert genfun_to_obj(u)["coeffs"] == []

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), complex(0.0, float("-inf"))])
    def test_non_finite_coefficient_raises(self, bad):
        tree = build_padic_tree(2, 2)
        u = GeneralizedFunction([tree] * 2, (3, 3), {((0, 1), (1, 1)): 1.0, ((1, 2), (1, 1)): bad})
        with pytest.raises(NonFiniteError, match=r"^cannot write a non-finite value as JSON"):
            solution_to_obj(Solution(u, (), ResidualReport(0.0, 0.0), ()))

    def test_listing_columns_equal_the_row_dicts(self):
        """Scalar and n-column id fields of any integer type, and awkward floats, in both formats."""
        ids = {"ball": [np.int64(3), True, 5], "vertex": ([1, 2, 3], [np.int32(4), 5, np.uint8(6)])}
        floats = {"abs": [-0.0, 5e-324, 1e300], "re": [1 / 3, -2.5e-7, 0.0]}
        rows = [{"ball": b, "vertex": [v1, v2], "abs": a, "re": r}
                for b, v1, v2, a, r in zip([3, 1, 5], [1, 2, 3], [4, 5, 6], *floats.values())]
        assert encode_records(ids, floats) == json.dumps(rows)
        lines = [f"{r['ball']},{r['vertex'][0]},{r['vertex'][1]},{fmt17(r['abs'])},{fmt17(r['re'])}" for r in rows]
        assert encode_records(ids, floats, "csv") == "\n".join(["ball,vertex_1,vertex_2,abs,re", *lines]) + "\n"
        assert encode_records({"ball": []}, {"re": []}, "csv") == "ball,re\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_first_non_finite_record_is_named(self, fmt):
        floats = {"re": [1.0, 2.0, float("inf")], "im": [0.0, float("nan"), 0.0]}
        with pytest.raises(NonFiniteError, match=rf"^cannot write a non-finite value as {fmt.upper()}: im nan in record 1$"):
            encode_records({"ball": [0, 1, 2]}, floats, fmt)

    def test_non_finite_coefficient_message(self):
        u = GeneralizedFunction([build_padic_tree(2, 2)] * 2, (3, 3),
                                {((0, 1), (1, 1)): complex(1.0, float("nan")), ((0, 0), (1, 1)): float("inf")})
        with pytest.raises(NonFiniteError, match=r"^cannot write a non-finite value as JSON: "
                                                 r"coefficient \(inf\+0j\) at \(\(0, 0\), \(1, 1\)\)$"):
            solution_to_obj(Solution(u, (), ResidualReport(0.0, 0.0), ()))


class TestMalformedSolutions:
    @pytest.mark.parametrize("obj,message", [
        ([], "JSON object"),
        ({"anchor": {"value": [1.0, 0.0]}, "coeffs": []}, "no 'vertex'"),
        ({"anchor": [0, 0]}, "missing 'anchor'"),
        ({"anchor": {"vertex": [0, 0]}, "coeffs": {"ball": 1}}, "must be a list"),
        ({"anchor": {"vertex": [0, 0]}, "coeffs": None}, "must be a list"),
        ({"anchor": {"vertex": [0, 0]}, "coeffs": [[0, 1]]}, "bad coefficient entry"),
        ({"anchor": {"vertex": [0, 0]}, "coeffs": [7]}, "bad coefficient entry"),
        ({"anchor": {"vertex": [0, 0]}, "coeffs": [{"vertex": [0, 0]}]}, "bad coefficient entry"),
        ({"anchor": {"vertex": [0, 0]}, "coeffs": [{"ball": 0}]}, "bad coefficient entry"),
        ({"anchor": {"vertex": [0, 0], "value": "ab"}}, "expected"),
        ({"anchor": {"vertex": [0, 0], "value": [1, None]}}, "expected"),
        ({"anchor": {"vertex": [0, 0]}, "coeffs": [{"vertex": [1, 1], "j": [1, 1], "re": 10**400}]},
         "bad complex entry"),
        ({"anchor": {"vertex": [0, 0]}, "coeffs": [{"vertex": [1, 1], "j": [1, 1], "re": 1.0},
                                                   {"vertex": [0, 1], "j": [1, 1], "re": float("inf")}]},
         re.escape("coefficient (inf+0j) at ((0, 1), (1, 1)) is not finite")),
        ({"anchor": {"vertex": [0, 0]}, "coeffs": [{"vertex": [1, 1], "j": [1, 1], "im": float("nan")}]},
         "is not finite"),
        ({"anchor": {"vertex": [0, 0]}, "coeffs": [{"vertex": [1, 0], "j": [1, 1], "re": 2, "im": float("-inf")}]},
         "is not finite"),  # an int ``re``: the strict record loader
        ({"anchor": {"vertex": [0, 0], "value": [float("inf"), 0.0]}, "coeffs": []}, "the anchor value .* is not finite"),
        ({"anchor": {"vertex": [0, 0], "value": float("nan")}, "coeffs": []}, "the anchor value .* is not finite"),
    ])
    def test_schema_errors_name_the_location(self, obj, message):
        trees = [build_padic_tree(2, 2)] * 2
        with pytest.raises(FileFormatError, match=message) as err:
            load_solution(obj, trees)
        assert err.value.location == "function"


JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 20) | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=3)
)
SOLUTION_KEYS = st.sampled_from(["anchor", "vertex", "value", "coeffs", "ball", "j", "re", "im"])
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(SOLUTION_KEYS, children, max_size=4),
    max_leaves=12,
)


@st.composite
def solution_objects(draw):
    """A valid two-factor solution on padic(2,2)**2 with random parts replaced by junk."""
    obj = {
        "anchor": {"vertex": [3, 4], "value": [0.5, 0.0]},
        "coeffs": [
            {"vertex": [0, 1], "j": [1, 1], "re": 1.0, "im": 0.0},
            {"vertex": [3, 2], "j": [0, 1], "re": 0.5, "im": -1.0},
            {"ball": 1, "j": 1, "re": 2.0},
        ],
    }
    if draw(st.booleans()):
        return draw(JSON_VALUES)
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from(["top", "anchor", "vertex", "value", "coeffs", "entry", "field"]))
        junk = draw(JSON_VALUES)
        entries = obj["coeffs"] if isinstance(obj.get("coeffs"), list) else []
        anchor = obj["anchor"] if isinstance(obj.get("anchor"), dict) else {}
        if target == "top":
            obj[draw(SOLUTION_KEYS)] = junk
        elif target == "anchor":
            obj["anchor"] = junk
        elif target in ("vertex", "value"):
            anchor[target] = junk
        elif target == "coeffs":
            obj["coeffs"] = junk
        elif entries and target == "entry":
            entries[draw(st.integers(0, len(entries) - 1))] = junk
        elif entries:
            entry = entries[draw(st.integers(0, len(entries) - 1))]
            if isinstance(entry, dict):
                entry[draw(SOLUTION_KEYS)] = junk
    return obj


@settings(max_examples=300)
@given(obj=solution_objects())
def test_malformed_solutions_raise_only_library_errors(obj):
    trees = [build_padic_tree(2, 2)] * 2
    try:
        load_solution(obj, trees)
    except UltrawaveError:
        pass


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(obj=solution_objects())
def test_eval_exits_two_on_malformed_solutions(obj):
    trees = [build_padic_tree(2, 2)] * 2
    try:
        load_solution(obj, trees)
        expected = 0
    except UltrawaveError:
        expected = 2
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sol.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        argv = ["eval", path, "--space", "padic(2,2)", "--space", "padic(2,2)",
                "--at", "[[0, 0]]", "--out", os.path.join(tmp, "out.json")]
        assert main(argv) == expected


ID = st.integers(0, 6)


@st.composite
def coefficient_records(draw):
    """A list of valid vertex- and ball-form records with junk mixed in.

    Small id ranges make repeated keys common.
    """
    form = draw(st.sampled_from(["vertex", "ball", "mixed"]))
    records = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["vertex", "ball"])) if form == "mixed" else form
        if kind == "vertex":
            k = draw(st.integers(1, 3))
            rec = {"vertex": draw(st.lists(ID, min_size=k, max_size=k)),
                   "j": draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))}
        else:
            rec = {"ball": draw(ID), "j": draw(st.integers(0, 3))}
        rec["re"], rec["im"] = draw(st.floats()), draw(st.floats())
        records.append(rec)
    for _ in range(draw(st.integers(0, 2))):
        if not records:
            break
        i = draw(st.integers(0, len(records) - 1))
        rec = records[i]
        how = draw(st.sampled_from(["record", "field", "drop", "id", "both forms"]))
        if how == "record" or not isinstance(rec, dict):
            records[i] = draw(JSON_VALUES)
        elif how == "field":
            rec[draw(st.sampled_from(["vertex", "ball", "j", "re", "im"]))] = draw(JSON_VALUES)
        elif how == "drop" and rec:
            rec.pop(draw(st.sampled_from(sorted(rec))))
        elif how == "both forms" and draw(st.booleans()):
            rec.update(ball=1, vertex=[1])
        elif how == "both forms":
            rec.update(ball=[1], vertex=1)
        else:
            ids = rec.get("vertex", rec.get("j"))
            junk = draw(st.sampled_from(["3", True, False, 2.0, 2.5, float("nan"), None, 10**30, [1]]))
            if isinstance(ids, list) and ids:
                ids[draw(st.integers(0, len(ids) - 1))] = junk
            else:
                rec["j"] = junk
    return records


def loader_outcome(load):
    """("ok", repr of the items, id and value types included) or the exception type and message."""
    try:
        return "ok", repr(list(load().items()))
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)


@settings(max_examples=300)
@given(records=coefficient_records())
def test_fast_and_strict_record_loaders_agree(records):
    fast = loader_outcome(lambda: _coeff_records(records, "f.json"))
    assert fast == loader_outcome(lambda: _strict_coeff_records(records, "f.json"))
    if fast[0] != "ok":
        assert fast[0] is FileFormatError and fast[1].startswith("f.json: ")


class TestStringAndBooleanNumbers:
    """JSON strings and booleans are not numbers either: values, pairs and measures."""

    @pytest.mark.parametrize("entry", [
        {"ball": 0, "j": 1, "re": "1.5", "im": 0.0},
        {"ball": 0, "j": 1, "re": 1.5, "im": True},
        {"ball": 0, "j": 1, "re": False},
    ])
    def test_coefficient_values_rejected(self, entry):
        with pytest.raises(FileFormatError, match="^series: bad complex entry"):
            load_lizorkin({"mean": 0.0, "coeffs": [entry]}, 1)
        with pytest.raises(FileFormatError, match="^f: bad complex entry"):
            _complex_of(entry, "f")

    @pytest.mark.parametrize("value", [["1", True], ["1", 0.0], [0.0, False], True, "2", None])
    def test_pairs_rejected(self, value):
        with pytest.raises(FileFormatError, match=r"^f: expected \[re, im\]"):
            _pair_of(value, "f")

    def test_json_ints_stay_numbers(self):
        assert _pair_of([1, 2], "f") == 1 + 2j and _pair_of(3, "f") == 3
        assert _complex_of({"re": 1, "im": -2}, "f") == 1 - 2j
        series = load_lizorkin({"mean": 0, "coeffs": [{"ball": 0, "j": 1, "re": 1, "im": 2}]}, 1)
        assert series.coeffs == {((0,), (1,)): 1 + 2j}

    @pytest.mark.parametrize("field", ["measure", "diameter"])
    @pytest.mark.parametrize("value", ["1.0", True])
    def test_explicit_measures_rejected(self, field, value):
        obj = {"kind": "explicit", "vertices": [
            {"id": i, "parent": [None, 0, 0][i], "measure": [1.0, 0.5, 0.5][i], "diameter": [1.0, 0.5, 0.5][i]}
            for i in range(3)
        ]}
        assert load_space(obj).n_vertices == 3
        obj["vertices"][0][field] = value
        with pytest.raises(FileFormatError, match=f"^s: vertex record 0: '{field}' must be a number"):
            load_space(obj, location="s")


EXPLICIT_ROOT = {"id": 0, "parent": None, "measure": 1.0, "diameter": 1.0}


class TestSpaceSchema:
    @pytest.mark.parametrize("obj,message", [
        ({"kind": "padic", "p": 2}, "padic space has no 'depth'"),
        ({"kind": "padic", "depth": 2}, "padic space has no 'p'"),
        ({"kind": "padic", "p": "x", "depth": 2}, "'p' must be an integer, got 'x'"),
        ({"kind": "padic", "p": 2, "depth": 2.7}, "'depth' must be an integer, got 2.7"),
        ({"kind": "padic", "p": 2, "depth": True}, "'depth' must be an integer, got True"),
        ({"kind": "padic", "p": 2, "depth": None}, "'depth' must be an integer, got None"),
        ({"kind": "explicit", "vertices": [{"id": 0, "parent": None, "diameter": 1.0}]},
         "vertex record 0 has no 'measure'"),
        ({"kind": "explicit", "vertices": [{"id": 0, "measure": 1.0}]}, "vertex record 0 has no 'diameter'"),
        ({"kind": "explicit", "vertices": [{"parent": None, "measure": 1.0, "diameter": 1.0}]},
         "vertex record has no 'id'"),
        ({"kind": "explicit", "vertices": [{**EXPLICIT_ROOT, "id": 0.5}]}, "'id' must be an integer"),
        ({"kind": "explicit", "vertices": [{**EXPLICIT_ROOT, "id": "0"}]}, "'id' must be an integer"),
        ({"kind": "explicit", "vertices": [EXPLICIT_ROOT, {**EXPLICIT_ROOT, "id": 1, "parent": 0.5}]},
         "vertex record 1: 'parent' must be an integer, got 0.5"),
        ({"kind": "explicit", "vertices": [7]}, "vertex record must be a JSON object, got 7"),
        ([{"kind": "padic", "p": 2, "depth": 2}], "a space must be a JSON object"),
        ("padic(2,2)", "a space must be a JSON object"),
    ])
    def test_schema_errors_name_the_location(self, obj, message, tmp_path):
        (tmp_path / "space.json").write_text(json.dumps(obj))
        loads = [(lambda: load_space("space.json", str(tmp_path)), str(tmp_path / "space.json"))]
        if not isinstance(obj, str):  # an inline string is a file name or a shorthand
            loads.append((lambda: load_space(obj, location="space.json"), "space.json"))
        for load, location in loads:
            with pytest.raises(FileFormatError, match=f"^{re.escape(location)}: .*{re.escape(message)}") as err:
                load()
            assert err.value.location == location

    def test_integral_floats_load_as_ints(self):
        assert load_space({"kind": "padic", "p": 2.0, "depth": 2.0}).n_vertices == 7
        t = load_space({"kind": "explicit", "vertices": [
            {"id": 0.0, "measure": 1, "diameter": 1},
            {"id": 1, "parent": 0.0, "measure": 0.5, "diameter": 0.5},
            {"id": 2.0, "parent": 0, "measure": 0.5, "diameter": 0.5},
        ]})
        assert list(t.parent) == [None, 0, 0] and type(t.parent[1]) is int
        assert list(t.measure) == [1.0, 0.5, 0.5]


# -- problems, operators and symbols: one number rule and a located error for every schema fault

SYMBOL_TABLE = {"kind": "table", "entries": [{"ball": 0, "re": 1.0}, {"ball": 1, "re": 2.0, "im": 0.5},
                                             {"ball": 2, "re": 5.0}]}
SYMBOL_HOMOG = {"kind": "homogeneous", "c": [1, 0], "beta": 0.5, "tail": False}
OPERATOR = {"factors": [SYMBOL_TABLE, "homog(beta=0.5)"],
            "terms": [{"indices": [1], "re": 1.0, "im": 0.0}, {"indices": [2], "re": -1.0}]}
EXPLICIT_SPACE = {"kind": "explicit", "vertices": [
    EXPLICIT_ROOT,
    {"id": 1, "parent": 0, "measure": 0.5, "diameter": 0.5},
    {"id": 2, "parent": 0, "measure": 0.5, "diameter": 0.5},
]}
PROBLEM = {
    "spaces": ["padic(2,2)", EXPLICIT_SPACE],
    "operator": {**OPERATOR, "factors": [SYMBOL_TABLE, SYMBOL_HOMOG]},
    "rhs": {"mean": [0.0, 0.0], "coeffs": [{"vertex": [1, 0], "j": [1, 1], "re": 1.0, "im": 0.0}]},
    "anchor": {"vertex": [3, 1], "value": [0.5, 0.0]},
    "boundary": [{"vertex": [0, 1], "j": [1, 0], "re": 0.25, "im": 0.0}],
    "epsilon": 1e-9,
    "free_params": {"seed": 7},
}


class TestProblemSchema:
    @pytest.mark.parametrize("obj,message", [
        ([], "a problem must be a JSON object, got []"),
        ({k: v for k, v in PROBLEM.items() if k != "operator"}, "problem has no 'operator'"),
        ({**PROBLEM, "spaces": [7]}, "a space must be a string or a JSON object, got 7"),
        ({**PROBLEM, "operator": 7}, "the operator must be a string or a JSON object, got 7"),
        ({**PROBLEM, "rhs": [1]}, "the rhs must be a string or a JSON object, got [1]"),
        ({**PROBLEM, "free_params": {"seed": "7"}}, "free_params: 'seed' must be an integer, got '7'"),
        ({**PROBLEM, "free_params": {"seed": 7.5}}, "free_params: 'seed' must be an integer, got 7.5"),
        ({**PROBLEM, "epsilon": "1e-3"}, "problem: 'epsilon' must be a number, got '1e-3'"),
        ({**PROBLEM, "epsilon": True}, "problem: 'epsilon' must be a number, got True"),
        ({**PROBLEM, "boundary": 5}, "coefficient records must be a list, got 5"),
    ])
    def test_problem_errors_name_the_file(self, obj, message, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
            load_problem(str(path))

    @pytest.mark.parametrize("obj,message", [
        ({**PROBLEM, "spaces": [7]}, "a space must be a string or a JSON object"),
        ([], "a problem must be a JSON object"),
        ({k: v for k, v in PROBLEM.items() if k != "operator"}, "problem has no 'operator'"),
        ({**PROBLEM, "free_params": {"seed": "7"}}, "'seed' must be an integer"),
        ({**PROBLEM, "operator": {**OPERATOR, "factors": [SYMBOL_TABLE, {**SYMBOL_HOMOG, "tail": "false"}]}},
         "'tail' must be true or false, got 'false'"),
    ])
    def test_solve_exits_two(self, obj, message, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(obj))
        assert main(["solve", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err

    def test_valid_problem_still_loads(self):
        problem, trees = load_problem(PROBLEM)
        assert problem.free_values == 7 and problem.epsilon == 1e-9 and len(trees) == 2
        assert type(problem.free_values) is int
        problem, _ = load_problem({**PROBLEM, "free_params": {"seed": 7.0}, "epsilon": 0})
        assert problem.free_values == 7 and type(problem.free_values) is int and problem.epsilon == 0.0

    @pytest.mark.parametrize("obj,message", [
        ({**SYMBOL_HOMOG, "tail": "false"}, "'tail' must be true or false, got 'false'"),
        ({**SYMBOL_HOMOG, "tail": 1}, "'tail' must be true or false, got 1"),
        ({**SYMBOL_HOMOG, "beta": "2"}, "'beta' must be a number, got '2'"),
        ({**SYMBOL_HOMOG, "beta": None}, "'beta' must be a number, got None"),
        ({"kind": "table", "entries": [{"ball": 2.7, "re": 1.0}]}, "table entry: 'ball' must be an integer, got 2.7"),
        ({"kind": "table", "entries": [{"ball": "1", "re": 1.0}]}, "'ball' must be an integer, got '1'"),
        ({"kind": "table", "entries": [{"re": 1.0}]}, "table entry has no 'ball'"),
        ({"kind": "table", "entries": [3]}, "table entry must be a JSON object, got 3"),
        ({"kind": "table", "entries": {"ball": 1}}, "'entries' must be a list"),
        ([SYMBOL_HOMOG], "a symbol must be a JSON object"),
    ])
    def test_symbol_errors(self, obj, message):
        with pytest.raises(FileFormatError, match=f"^s.json: .*{re.escape(message)}"):
            load_symbol(obj, location="s.json")

    def test_symbol_numbers(self):
        assert load_symbol({"kind": "table", "entries": [{"ball": 1.0, "re": 2.0}]}).entries == {1: 2.0}
        assert load_symbol({**SYMBOL_HOMOG, "beta": 2, "tail": True}) == HomogeneousSymbol(1.0, 2.0, True)
        assert load_symbol({"kind": "homogeneous"}) == HomogeneousSymbol()

    @pytest.mark.parametrize("text,message", [
        ("homog(beta=x)", "bad homog() value 'beta=x'"),
        ("homog(beta=1, c=2+)", "bad homog() value 'c=2+'"),
        ("homog(beta=1, gamma=2)", "unknown homog() key 'gamma'"),
        ("homog(beta=0.5,tail=ture)", "bad homog() value 'tail=ture'"),
        ("homog(beta=2, tail=)", "bad homog() value 'tail='"),
        ("homog(beta=2, tail=on)", "bad homog() value 'tail=on'"),
    ])
    def test_bad_shorthand_values(self, text, message):
        with pytest.raises(FileFormatError, match=re.escape(message)):
            load_symbol(text)

    @pytest.mark.parametrize("term,message", [
        ({"indices": [1.7]}, "non-integral id or index 1.7 in operator term"),
        ({"indices": ["1"]}, "bad operator term {'indices': ['1']}: id or index '1' is not a number"),
        ({"indices": [True]}, "bad operator term {'indices': [True]}: id or index True is not a number"),
        ({"indices": [None]}, "bad operator term {'indices': [None]}: id or index None is not a number"),
        ({"indices": 1}, "bad operator term {'indices': 1}"),
        ([1], "an operator term must be a JSON object, got [1]"),
    ])
    def test_operator_term_indices(self, term, message):
        with pytest.raises(FileFormatError, match=f"^op.json: {re.escape(message)}"):
            load_operator({**OPERATOR, "terms": [term]}, [build_padic_tree(2, 2)] * 2, location="op.json")

    def test_operator_shape_errors(self):
        trees = [build_padic_tree(2, 2)] * 2
        for obj, message in [
            ([OPERATOR], "an operator must be a JSON object"),
            ({**OPERATOR, "factors": [SYMBOL_TABLE, 7]}, "a factor symbol must be a string or a JSON object"),
            ({**OPERATOR, "factors": 7}, "operator needs 2 factor symbols, got 7"),
            ({**OPERATOR, "terms": {}}, "'terms' must be a list"),
        ]:
            with pytest.raises(FileFormatError, match=f"^op.json: {re.escape(message)}"):
                load_operator(obj, trees, location="op.json")
        op = load_operator({**OPERATOR, "terms": [{"indices": [2.0, 1], "re": 1.0}]}, trees)
        assert op.terms == (((1, 0), 1.0 + 0.0j),)


FUZZ_KEYS = st.sampled_from([
    "spaces", "operator", "factors", "terms", "indices", "kind", "entries", "ball", "beta", "c", "tail",
    "rhs", "mean", "coeffs", "anchor", "vertex", "value", "boundary", "j", "re", "im", "epsilon",
    "free_params", "seed", "vertices", "id", "parent", "measure", "diameter",
])
# No "padic" kind and no integer p or depth anywhere: a p-adic space is only ever
# the fixed shorthand, so no example can ask for a tree too large to build.
FUZZ_SCALARS = (
    st.none() | st.booleans() | st.integers(-2, 4) | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(alphabet="abcz.\x00 ", max_size=3)
    | st.sampled_from(["table", "homogeneous", "explicit", "zero", "padic(2,1)", "homog(beta=x)",
                       "homog(beta=2,tail=1)", "homog(c=1)", "homog(beta=nan)"])
)
FUZZ_VALUES = st.recursive(
    FUZZ_SCALARS,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(FUZZ_KEYS, children, max_size=4),
    max_leaves=10,
)


@st.composite
def mutated(draw, base):
    """``base`` with one to three random nodes replaced, deleted or given a junk sibling; sometimes all junk."""
    if draw(st.integers(0, 9)) == 0:
        return draw(FUZZ_VALUES)
    obj = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 3))):
        node = obj
        while isinstance(node, (dict, list)) and node:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
                node = node[key]
                continue
            action = draw(st.sampled_from(["replace", "delete", "add"]))
            if action == "replace":
                node[key] = draw(FUZZ_VALUES)
            elif action == "delete":
                del node[key]
            elif isinstance(node, dict):
                node[draw(FUZZ_KEYS)] = draw(FUZZ_VALUES)
            else:
                node.append(draw(FUZZ_VALUES))
            break
    return obj


def only_library_errors(load):
    try:
        load()
    except UltrawaveError:
        pass


@settings(max_examples=300)
@given(obj=mutated(SYMBOL_TABLE) | mutated(SYMBOL_HOMOG))
def test_fuzzed_symbols_raise_only_library_errors(obj):
    with tempfile.TemporaryDirectory() as tmp:  # a junk string names a file that is not there
        only_library_errors(lambda: load_symbol(obj, tmp))


@settings(max_examples=300)
@given(obj=mutated(OPERATOR))
def test_fuzzed_operators_raise_only_library_errors(obj):
    with tempfile.TemporaryDirectory() as tmp:
        only_library_errors(lambda: load_operator(obj, [build_padic_tree(2, 2)] * 2, tmp))


@settings(max_examples=300)
@given(obj=mutated(PROBLEM))
def test_fuzzed_problems_raise_only_library_errors(obj):
    with tempfile.TemporaryDirectory() as tmp:  # from a file, so that junk strings name files in ``tmp``
        path = os.path.join(tmp, "problem.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        only_library_errors(lambda: load_problem(path))


SERIES = {"mean": [0.0, 0.0], "coeffs": [{"vertex": [1, 0], "j": [1, 1], "re": 1.0, "im": 0.0},
                                         {"vertex": [2, 1], "j": [2, 1], "re": -0.5}, {"ball": 3, "j": 1, "im": 2.0}]}
# Only small p and depth: junk must not ask for a tree too large to build.
SMALL_INTEGRAL = st.integers(-1, 4) | st.sampled_from([2.0, 3.0, 2.5, float("nan"), True, None, "2", [2]])
PADIC_SPACES = st.fixed_dictionaries({"kind": st.just("padic")},
                                     optional={"p": SMALL_INTEGRAL, "depth": SMALL_INTEGRAL, "vertices": FUZZ_VALUES})


@settings(max_examples=300)
@given(obj=mutated(SERIES), n=st.integers(1, 3))
def test_fuzzed_series_raise_only_library_errors(obj, n):
    with tempfile.TemporaryDirectory() as tmp:
        only_library_errors(lambda: load_lizorkin(obj, n, tmp))


@settings(max_examples=300)
@given(obj=mutated(EXPLICIT_SPACE) | PADIC_SPACES)
def test_fuzzed_spaces_raise_only_library_errors(obj):
    with tempfile.TemporaryDirectory() as tmp:
        only_library_errors(lambda: load_space(obj, tmp))


@pytest.mark.parametrize("what,load", [
    ("a symbol", lambda path: load_symbol(path)),
    ("an operator", lambda path: load_operator(path, [build_padic_tree(2, 2)] * 2)),
    ("a series", lambda path: load_lizorkin(path, 2)),
    ("a generalized function", lambda path: load_solution(path, [build_padic_tree(2, 2)] * 2)),
    ("a problem", load_problem),
])
def test_a_json_string_read_from_a_file_is_rejected(what, load, tmp_path):
    """A string names a file only as the argument: a string read from the file is not an object."""
    path = tmp_path / "x.json"
    path.write_text(json.dumps("homog(beta=1)"))
    with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: {what} must be a JSON object") as err:
        load(str(path))
    assert err.value.location == str(path)
