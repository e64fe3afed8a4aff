"""Machine-independent work counts: calls counted on padic(2,6) and padic(2,8).

A count fixed by the tree (one symbol value or one basis per non-leaf ball)
or one that must not grow with the number of stored coefficients pins the
complexity a change keeps, whatever the host's speed.  The acceptance
oracles' work is counted on their own inputs, in place of a time bound.
"""

import numpy as np
import pytest

import test_acceptance
import test_products
import ultrawave.distributions as distributions_module
import ultrawave.io as io_module
import ultrawave.solver as solver_module
import ultrawave.wavelets as wavelets_module
from conftest import random_leaf_function, random_measured_tree
from ultrawave.cli import main
from ultrawave.distributions import GeneralizedFunction, LizorkinSeries, eval_extended, eval_on_product
from ultrawave.errors import UnsolvableError
from ultrawave.io import load_solution, solution_to_obj, write_json
from ultrawave.operators import HomogeneousSymbol, TableSymbol, spectrum
from ultrawave.products import MultiOperator, MultiWavelet
from ultrawave.solver import CauchyProblem, characteristic_columns, check_solvability, solve
from ultrawave.trees import BallTree, build_padic_tree
from ultrawave.wavelets import analyze, basis_sizes, tree_wavelets


@pytest.fixture
def calls(monkeypatch):
    """``count(owner, name)`` wraps ``owner.name`` to count its calls in ``counts[name]``."""
    counts = {}

    def count(owner, name):
        fn = getattr(owner, name)
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    count.counts = counts
    return count


@pytest.mark.parametrize("depth", [6, 8])
def test_spectrum_takes_one_symbol_value_per_non_leaf_ball(depth, calls):
    tree = build_padic_tree(2, depth)
    calls(HomogeneousSymbol, "value")
    spectrum(tree, HomogeneousSymbol(beta=0.5))
    assert calls.counts == {"value": 2**depth - 1} == {"value": len(tree.non_leaf_balls())}


@pytest.mark.parametrize("depth", [6, 8])
def test_analyze_builds_one_basis_per_non_leaf_ball(depth, calls):
    tree = build_padic_tree(2, depth)
    f = random_leaf_function(np.random.default_rng(depth), tree)
    calls(wavelets_module, "wavelet_basis")
    calls(wavelets_module, "_character_rows")
    calls(wavelets_module, "_haar_rows")
    analyze(tree, f)
    n = len(tree.non_leaf_balls())
    assert calls.counts == {"wavelet_basis": n, "_character_rows": n, "_haar_rows": 0}


def stored_functions(depth):
    """Two functions on padic(2,depth)**2 that store 1k and 4k random extended coefficients."""
    rng = np.random.default_rng(depth)
    trees = [build_padic_tree(2, depth), build_padic_tree(2, depth)]
    anchor = (2**(depth - 1), 2**depth - 3)
    families = [[(a0, 0)] + [(w.ball, w.j) for w in tree_wavelets(t)] for t, a0 in zip(trees, anchor)]
    all_keys = [((a, b), (ja, jb)) for a, ja in families[0] for b, jb in families[1]]
    picks = rng.permutation(len(all_keys))
    return [
        GeneralizedFunction(trees, anchor, {all_keys[int(i)]: complex(rng.standard_normal(), 1.0) for i in picks[:k]})
        for k in (1000, 4000)
    ]


@pytest.mark.parametrize("depth", [6, 8])
def test_eval_on_product_work_does_not_grow_with_stored_coefficients(depth, calls):
    functions = stored_functions(depth)
    trees = functions[0].factors
    rng = np.random.default_rng(depth)
    values = [{x: complex(rng.standard_normal(), 1.0) for x in t.leaves} for t in trees]
    calls(wavelets_module, "wavelet_basis")
    calls(distributions_module, "wavelet_basis")  # shares the count
    calls(BallTree, "leaves_under")
    counts = []
    for u in functions:
        calls.counts.update(wavelet_basis=0, leaves_under=0)
        eval_on_product(u, values)
        counts.append(dict(calls.counts))
    n = len(trees[0].non_leaf_balls())
    assert counts == [{"wavelet_basis": 2 * n, "leaves_under": 0}] * 2


@pytest.mark.parametrize("depth", [6, 8])
def test_eval_extended_integrates_nothing(depth, calls):
    """One ``coeffs`` probe: no ball integrals, no leaf lists, one basis size check per wavelet component."""
    calls(distributions_module, "ball_integrals")
    calls(BallTree, "leaves_under")
    calls(distributions_module, "wavelet_basis")
    counts = []
    for u in stored_functions(depth):
        calls.counts.update(ball_integrals=0, leaves_under=0, wavelet_basis=0)
        eval_extended(u, (1, 2), (1, 1))
        eval_extended(u, u.anchor, (0, 0))
        counts.append(dict(calls.counts))
    assert counts == [{"ball_integrals": 0, "leaves_under": 0, "wavelet_basis": 2}] * 2


def test_solve_builds_no_characteristic_and_draws_free_values_once(calls, monkeypatch):
    """A seeded solve on padic(2,5)**2: the characteristic set stays columns, the draws one call."""
    tree = build_padic_tree(2, 5)
    symbol = HomogeneousSymbol(beta=0.5)
    op = MultiOperator([(tree, symbol), (tree, symbol)], [((0,), 1.0), ((1,), -1.0)])
    rhs = LizorkinSeries(2, {((1, 3), (1, 1)): 1.0, ((0, 5), (1, 1)): 2j, ((9, 2), (1, 1)): -1.0})
    problem = CauchyProblem(op, rhs, anchor=(31, 40), free_values=7)
    draws = []
    default_rng = np.random.default_rng

    class CountingGenerator:
        def __init__(self, seed):
            self._rng = default_rng(seed)

        def standard_normal(self, *args, **kwargs):
            draws.append((args, kwargs))
            return self._rng.standard_normal(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
    calls(solver_module, "Characteristic")
    sol = solve(problem)
    n_char = sum(4**k for k in range(5))  # the pairs of equal-level non-leaf balls
    assert len(sol.characteristic_vertices) == len(sol.free_params) == n_char == 341
    assert calls.counts == {"Characteristic": 0}
    assert draws == [((2 * n_char,), {})]


def test_characteristics_command_builds_no_characteristic(calls, tmp_path, capsys):
    """``ultrawave characteristics`` lists padic(2,5)**2 from the classification's columns."""
    op = tmp_path / "op.json"
    op.write_text('{"factors": ["homog(beta=0.5)", "homog(beta=0.5)"], '
                  '"terms": [{"indices": [1], "re": 1.0}, {"indices": [2], "re": -1.0}]}')
    calls(solver_module, "Characteristic")
    calls(solver_module, "_classify")
    for fmt in ("json", "csv"):
        assert main(["characteristics", "--operator", str(op), "--space", "padic(2,5)", "--space", "padic(2,5)",
                     "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert (out.count('{"vertex"') if fmt == "json" else out.count("\n") - 1) == 341
    assert calls.counts == {"Characteristic": 0, "_classify": 2}


@pytest.mark.parametrize("depth", range(3, 8))
def test_the_operator_is_evaluated_once_on_the_distinct_eigenvalues(depth, monkeypatch):
    """T1 - T2 on padic(2,d)**2 has d distinct eigenvalues per axis: one ``form_arrays`` call over d**2
    points per ``solve``, ``check_solvability`` or ``characteristic_columns``, whatever the rhs."""
    tree = build_padic_tree(2, depth)
    symbol = HomogeneousSymbol(beta=0.5)
    op = MultiOperator([(tree, symbol), (tree, symbol)], [((0,), 1.0), ((1,), -1.0)])
    balls = tree.non_leaf_balls()
    off_char = [(a, b) for a in balls for b in balls if op.factor_eigenvalue(0, a) != op.factor_eigenvalue(1, b)]
    points = []
    form_arrays = MultiOperator.form_arrays

    def counting(self, re, im):
        out = form_arrays(self, re, im)
        points.append(out[0].size)
        return out

    monkeypatch.setattr(MultiOperator, "form_arrays", counting)
    for terms in (1, 10, len(off_char)):
        rhs = LizorkinSeries(2, {(v, (1, 1)): 1.0 for v in off_char[:terms]})
        problem = CauchyProblem(op, rhs, anchor=(2**depth - 1, 2**depth))
        for fn, arg in ((solve, problem), (check_solvability, problem), (characteristic_columns, op)):
            points.clear()
            fn(arg)
            assert points == [depth**2]


def test_only_the_free_keys_classify_the_grid(calls):
    """The rhs checks classify each rhs entry by its own eigenvalue; only a passing solve walks the grid."""
    tree = build_padic_tree(2, 3)
    symbol = HomogeneousSymbol(beta=0.5)
    op = MultiOperator([(tree, symbol), (tree, symbol)], [((0,), 1.0), ((1,), -1.0)])
    on_char = CauchyProblem(op, LizorkinSeries(2, {((1, 1), (1, 1)): 1.0}), anchor=(7, 9))
    off_char = CauchyProblem(op, LizorkinSeries(2, {((1, 3), (1, 1)): 1.0}), anchor=(7, 9))
    calls(solver_module, "_classify")
    assert not check_solvability(on_char) and check_solvability(off_char)
    with pytest.raises(UnsolvableError):
        solve(on_char)
    assert calls.counts == {"_classify": 0}
    solve(off_char)
    assert calls.counts == {"_classify": 1}


@pytest.mark.parametrize("ids", ["int", "numpy", "bool j"])
def test_construction_checks_id_columns_and_builds_no_basis(ids, calls):
    """Valid series of 1k and 4k keys on padic(2,7)**2: no key-by-key or per-component check and no
    wavelet basis, whatever integer type the ids have.

    The first 127 keys put every non-leaf ball in both columns.
    """
    rng = np.random.default_rng(3)
    trees = [build_padic_tree(2, 7)] * 2
    ball = {"int": int, "numpy": np.int64, "bool j": int}[ids]
    j = {"int": (1, 1), "numpy": (np.int64(1), np.int32(1)), "bool j": (True, True)}[ids]
    pairs = [(a, a) for a in range(127)] + [(a, b) for a in range(127) for b in range(127) if a != b]
    picks = [pairs[int(i)] for i in rng.permutation(len(pairs) - 127)[:3873] + 127]
    calls(GeneralizedFunction, "_check_key")
    calls(LizorkinSeries, "_check_key")
    calls(GeneralizedFunction, "_check_component")
    calls(distributions_module, "wavelet_basis")
    counts = []
    for k in (1000, 4000):
        keys = [((ball(a), ball(b)), j) for a, b in pairs[:127] + picks[:k - 127]]
        coeffs = {key: complex(rng.standard_normal(), 1.0) for key in keys}
        calls.counts.update(dict.fromkeys(calls.counts, 0))
        u = GeneralizedFunction(trees, (127, 200), coeffs)
        series = LizorkinSeries(2, coeffs)
        assert len(u.coeffs) == len(series.coeffs) == k
        assert repr(list(u.coeffs)) == repr(list(series.coeffs)) == repr(list(coeffs))  # ids stored as given
        counts.append(dict(calls.counts))
    assert counts == [{"_check_key": 0, "_check_component": 0, "wavelet_basis": 0}] * 2


def test_loading_a_solution_and_solving_build_no_basis(calls, tmp_path):
    """Validation counts wavelets through ``basis_sizes``: the loader and ``solve`` build no basis.

    A seeded solve on padic(2,5)**2 and the load of its solution file, with
    boundary keys (a j = 0 component) among the rhs quotients and free keys.
    """
    tree = build_padic_tree(2, 5)
    symbol = HomogeneousSymbol(beta=0.5)
    op = MultiOperator([(tree, symbol), (tree, symbol)], [((0,), 1.0), ((1,), -1.0)])
    rhs = LizorkinSeries(2, {((1, 3), (1, 1)): 1.0, ((0, 5), (1, 1)): 2j, ((9, 2), (1, 1)): -1.0})
    problem = CauchyProblem(op, rhs, anchor=(31, 40), boundary={((31, 4), (0, 1)): 0.5}, free_values=7)
    calls(wavelets_module, "wavelet_basis")
    calls(distributions_module, "wavelet_basis")  # shares the count
    sol = solve(problem)
    path = tmp_path / "sol.json"
    write_json(solution_to_obj(sol), str(path))
    u = load_solution(str(path), [build_padic_tree(2, 5)] * 2)
    assert len(u.coeffs) == len(sol.u.coeffs) == 3 + 1 + 341 + 1  # rhs, boundary, free keys, anchor
    assert calls.counts == {"wavelet_basis": 0}


def wavelet_table_work(trees):
    """What tabulating every wavelet at every leaf costs on ``trees``: ``evaluate`` and ``is_ancestor`` calls
    (one per wavelet and leaf), ``child_toward`` calls (one per leaf inside the wavelet's ball) and basis
    builds (one per non-leaf ball)."""
    pairs = inside = balls = 0
    for tree in trees:
        sizes = basis_sizes(tree)
        for b in tree.non_leaf_balls():
            pairs += int(sizes[b]) * len(tree.leaves)
            inside += int(sizes[b]) * len(tree.leaves_under(b))
            balls += 1
    return {"evaluate": pairs, "is_ancestor": pairs, "child_toward": inside, "wavelet_basis": balls}


def test_c01_wavelet_orthonormality_work(calls):
    """Acceptance c01 tabulates the wavelets of its 50 seeded trees at every leaf, and does nothing more."""
    rng = np.random.default_rng(2024)
    expected = wavelet_table_work([random_measured_tree(rng, max_depth=4, max_branching=4) for _ in range(50)])
    calls(test_acceptance, "evaluate")
    calls(BallTree, "is_ancestor")
    calls(BallTree, "child_toward")
    calls(wavelets_module, "wavelet_basis")
    test_acceptance.test_c01_wavelet_orthonormality()
    assert calls.counts == expected == {"evaluate": 38262, "is_ancestor": 38262, "child_toward": 9515,
                                        "wavelet_basis": 579}


def test_c02_eigenfunction_oracle_work(calls):
    """Acceptance c02, per tree and each of its 23 symbols: one dense matrix (a symbol value per non-leaf ball,
    a leaf list per child) and one eigenvalue per wavelet (a symbol value per ball from the wavelet's up)."""
    trees = (build_padic_tree(2, 4), build_padic_tree(3, 3))
    expected = wavelet_table_work(trees)
    symbols = 20 + 3
    sizes = [(tree, b, int(basis_sizes(tree)[b])) for tree in trees for b in tree.non_leaf_balls()]
    expected.update(
        operator_matrix=symbols * len(trees),
        eigenvalue=symbols * sum(size for _, _, size in sizes),
        leaves_under=symbols * sum(len(tree.children[b]) for tree, b, _ in sizes),
        value=symbols * sum(1 + size * (1 + len(list(tree.ancestors(b)))) for tree, b, size in sizes),
    )
    for owner, name in ((test_acceptance, "evaluate"), (test_acceptance, "operator_matrix"),
                        (test_acceptance, "eigenvalue"), (BallTree, "is_ancestor"), (BallTree, "child_toward"),
                        (BallTree, "leaves_under"), (wavelets_module, "wavelet_basis"),
                        (HomogeneousSymbol, "value"), (TableSymbol, "value")):  # both symbols' values share a count
        calls(owner, name)
    test_acceptance.test_c02_eigenfunction_oracle_equivalence()
    assert calls.counts == expected
    assert expected["evaluate"] == 942 and expected["value"] == 3335


def test_c05_tensor_oracle_work(calls):
    """Acceptance c05 on padic(2,2)**2: two dense factor matrices, and one eigenvalue and one leaf vector per
    member of the 16-member tensor basis; the factor spectra take one table value per non-leaf ball."""
    calls(test_products, "operator_matrix")
    calls(MultiOperator, "eigenvalue")
    calls(MultiWavelet, "leaf_vector")
    calls(TableSymbol, "value")
    test_acceptance.test_c05_tensor_oracle()
    assert calls.counts == {"operator_matrix": 2, "eigenvalue": 16, "leaf_vector": 16, "value": 2 * 3 + 2 * 3}


def test_solve_and_its_solution_file_pass_the_key_columns(calls, monkeypatch):
    """A seeded solve on padic(2,5)**2 and its solution object: the ids travel as columns from the rhs to the file.

    Only the boundary keys go through ``_id_columns``, ``u`` checks its columns with no key-by-key check, and
    the writer orders the rows with the one ``np.lexsort`` of ``u``.
    """
    tree = build_padic_tree(2, 5)
    symbol = HomogeneousSymbol(beta=0.5)
    op = MultiOperator([(tree, symbol), (tree, symbol)], [((0,), 1.0), ((1,), -1.0)])
    rng = np.random.default_rng(5)
    off = [(a, b) for a in range(31) for b in range(31) if (a + 1).bit_length() != (b + 1).bit_length()]
    rhs = LizorkinSeries(2, {(off[int(k)], (1, 1)): complex(*rng.standard_normal(2))
                             for k in rng.permutation(len(off))[:300]})
    boundary = {((31, 3), (0, 1)): 0.5, ((7, 40), (1, 0)): -1j, ((31, 12), (0, 1)): 2.0}
    problem = CauchyProblem(op, rhs, anchor=(31, 40), boundary=boundary, free_values=7)
    rows = []
    id_columns = distributions_module._id_columns

    def counting(keys, n, *args):
        rows.append(len(keys))
        return id_columns(keys, n, *args)

    for module in (distributions_module, solver_module, io_module):
        monkeypatch.setattr(module, "_id_columns", counting)
    calls(GeneralizedFunction, "_check_key")
    calls(np, "lexsort")
    sol = solve(problem)
    obj = solution_to_obj(sol)
    assert rows == [len(boundary)]
    assert calls.counts == {"_check_key": 0, "lexsort": 1}
    assert len(sol.u.coeffs) == 300 + 3 + 341 + 1 and obj["coeffs"].count('{"vertex"') == 300 + 3 + 341
