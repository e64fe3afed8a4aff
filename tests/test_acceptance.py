"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail line
of every criterion (plain ``pytest -v`` shows the same as test outcomes).
The lines print the oracles' wall time; the work they do is pinned by exact
call counts in ``tests/test_work_counts.py``, not by a time bound.
"""

import itertools
import json
import math
import time

import numpy as np

from conftest import random_measured_tree, random_table_symbol
from test_distributions import naive_eval_on_char, naive_eval_on_char_nd
from test_products import dense_multi_operator
from ultrawave.cli import main
from ultrawave.distributions import (
    GeneralizedFunction,
    LizorkinSeries,
    apply_operator,
    eval_extended,
    eval_on_char_nd,
)
from ultrawave.operators import HomogeneousSymbol, TableSymbol, eigenvalue, operator_matrix
from ultrawave.products import (
    MultiOperator,
    ProductSpace,
    decreasing_edges,
    multiwavelet_basis,
)
from ultrawave.solver import CauchyProblem, characteristics, solve
from ultrawave.trees import build_padic_tree
from ultrawave.wavelets import (
    evaluate,
    normalized_constant,
    tree_wavelets,
    wavelet_basis,
)


def _passed(num, name):
    print(f"ACCEPTANCE {num:02d} ({name}): PASS")


def _wavelet_matrix(tree):
    rows = [[evaluate(tree, w, x) for x in tree.leaves] for w in tree_wavelets(tree)]
    rows.append([normalized_constant(tree)] * len(tree.leaves))
    return np.array(rows, dtype=complex)


def test_c01_wavelet_orthonormality():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(50):
        tree = random_measured_tree(rng, max_depth=4, max_branching=4)
        B = _wavelet_matrix(tree)
        nu = np.array([tree.measure[x] for x in tree.leaves])
        G = np.conj(B) @ (B * nu[None, :]).T
        assert np.max(np.abs(G - np.eye(B.shape[0]))) < 1e-10
    elapsed = time.perf_counter() - start
    _passed(1, f"wavelet orthonormality, 50 trees in {elapsed:.2f}s")


def test_c02_eigenfunction_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for tree in (build_padic_tree(2, 4), build_padic_tree(3, 3)):
        symbols = [random_table_symbol(rng, tree) for _ in range(20)]
        symbols += [HomogeneousSymbol(beta=b) for b in (-1.0, 0.5, 2.0)]
        wavelets = list(tree_wavelets(tree))
        vectors = np.array([[evaluate(tree, w, x) for x in tree.leaves] for w in wavelets])
        for sym in symbols:
            M = operator_matrix(tree, sym)
            for w, vec in zip(wavelets, vectors):
                lam = eigenvalue(tree, sym, w.ball)
                lhs = M @ vec
                rhs = lam * vec
                denom = max(np.abs(lhs).max(), np.abs(rhs).max())
                assert np.abs(lhs - rhs).max() <= 1e-10 * denom
    elapsed = time.perf_counter() - start
    _passed(2, f"eigenfunction oracle equivalence in {elapsed:.2f}s")


def test_c03_constants_annihilated():
    rng = np.random.default_rng(99)
    trees = [build_padic_tree(2, 4), build_padic_tree(3, 3)] + [
        random_measured_tree(rng) for _ in range(10)
    ]
    for tree in trees:
        sym = random_table_symbol(rng, tree)
        M = operator_matrix(tree, sym)
        ones = np.ones(len(tree.leaves), dtype=complex)
        bound = 1e-12 * max(abs(v) for v in sym.entries.values())
        assert np.abs(M @ ones).max() <= bound
    _passed(3, "constants annihilated")


def test_c04_completeness_counts():
    rng = np.random.default_rng(5)
    for _ in range(20):
        tree = random_measured_tree(rng)
        assert sum(1 for _ in tree_wavelets(tree)) + 1 == len(tree.leaves)
    t1, t2 = build_padic_tree(2, 2), build_padic_tree(3, 2)
    space = ProductSpace([t1, t2])
    count = sum(1 for _ in multiwavelet_basis(space))
    assert count == len(t1.leaves) * len(t2.leaves)
    _passed(4, "completeness counts")


def test_c05_tensor_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(31)
    t1, t2 = build_padic_tree(2, 2), build_padic_tree(2, 2)
    op = MultiOperator(
        [(t1, random_table_symbol(rng, t1)), (t2, random_table_symbol(rng, t2))],
        [((0,), 1.0), ((1,), 0.5 - 1.0j), ((0, 1), 2.0), ((1, 1), -0.25j)],
    )
    dense = dense_multi_operator(op)
    space = ProductSpace([t1, t2])
    assert dense.shape == (16, 16)
    op_scale = np.abs(dense).max()
    for w in multiwavelet_basis(space):
        vec = w.leaf_vector(space)
        lam = op.eigenvalue(w.vertex)
        lhs = dense @ vec
        rhs = lam * vec
        denom = max(np.abs(rhs).max(), op_scale * np.abs(vec).max())
        assert np.abs(lhs - rhs).max() <= 1e-10 * denom
    elapsed = time.perf_counter() - start
    _passed(5, f"tensor oracle on the 16-point grid in {elapsed:.2f}s")


def _random_sparse_1d(rng):
    tree = random_measured_tree(rng, max_depth=3)
    wavelets = list(tree_wavelets(tree))
    coeffs = {}
    take = rng.choice(len(wavelets), size=min(4, len(wavelets)), replace=False)
    for i in take:
        w = wavelets[int(i)]
        coeffs[(w.ball, w.j)] = complex(rng.standard_normal(), rng.standard_normal())
    positives = [b for b in range(tree.n_vertices) if tree.measure[b] > 0]
    anchor = int(rng.choice(positives))
    return GeneralizedFunction([tree], (anchor,), coeffs, complex(rng.standard_normal())), tree


def _random_sparse_2d(rng):
    t1 = random_measured_tree(rng, max_depth=2)
    t2 = random_measured_tree(rng, max_depth=2)
    anchor = (int(t1.leaves[0]), int(t2.leaves[0]))
    coeffs = {}
    w1 = list(tree_wavelets(t1))
    w2 = list(tree_wavelets(t2))
    for _ in range(3):
        a = w1[int(rng.integers(len(w1)))]
        b = w2[int(rng.integers(len(w2)))]
        coeffs[((a.ball, b.ball), (a.j, b.j))] = complex(rng.standard_normal(), rng.standard_normal())
    # mixed boundary-style coefficient with one indicator component
    a = w1[int(rng.integers(len(w1)))]
    coeffs[((a.ball, anchor[1]), (a.j, 0))] = complex(rng.standard_normal())
    u = GeneralizedFunction(
        [t1, t2], anchor, coeffs, anchor_value=complex(rng.standard_normal())
    )
    return u, (t1, t2)


def test_c06_series_cancellation():
    rng = np.random.default_rng(12)
    for _ in range(60):
        u, tree = _random_sparse_1d(rng)
        for ball in rng.choice(tree.n_vertices, size=3):
            closed = eval_on_char_nd(u, (int(ball),))
            naive = naive_eval_on_char(u, int(ball))
            assert abs(closed - naive) <= 1e-12 * max(1.0, abs(naive))
    for _ in range(40):
        u, (t1, t2) = _random_sparse_2d(rng)
        for _ in range(3):
            v = (int(rng.integers(t1.n_vertices)), int(rng.integers(t2.n_vertices)))
            closed = eval_on_char_nd(u, v)
            naive = naive_eval_on_char_nd(u, v)
            assert abs(closed - naive) <= 1e-12 * max(1.0, abs(naive))
    _passed(6, "series cancellation, 100 random sparse functions")


def _random_problem_1d(rng):
    tree = random_measured_tree(rng, max_depth=3)
    op = MultiOperator.single(tree, random_table_symbol(rng, tree))
    char_set = {c.vertex for c in characteristics(op)}
    coeffs = {}
    for b in tree.non_leaf_balls():
        if (b,) in char_set or rng.random() < 0.4:
            continue
        for j in range(1, len(wavelet_basis(tree, b)) + 1):
            coeffs[((b,), (j,))] = complex(rng.standard_normal(), rng.standard_normal())
    positives = [b for b in range(tree.n_vertices) if tree.measure[b] > 0]
    anchor = (int(rng.choice(positives)),)
    problem = CauchyProblem(
        op,
        LizorkinSeries(1, coeffs),
        anchor=anchor,
        anchor_value=complex(rng.standard_normal()),
    )
    return problem, (tree,)


def _random_problem_2d(rng):
    t1 = random_measured_tree(rng, max_depth=2)
    t2 = random_measured_tree(rng, max_depth=2)
    op = MultiOperator(
        [(t1, random_table_symbol(rng, t1)), (t2, random_table_symbol(rng, t2))],
        [((0,), 1.0), ((1,), complex(rng.standard_normal())), ((0, 1), complex(rng.standard_normal()))],
    )
    char_set = {c.vertex for c in characteristics(op)}
    coeffs = {}
    for v in itertools.product(t1.non_leaf_balls(), t2.non_leaf_balls()):
        if v in char_set or rng.random() < 0.6:
            continue
        coeffs[(v, (1, 1))] = complex(rng.standard_normal(), rng.standard_normal())
    anchor = (int(t1.leaves[0]), int(t2.leaves[0]))
    boundary = {
        ((t1.non_leaf_balls()[0], anchor[1]), (1, 0)): complex(rng.standard_normal()),
    }
    problem = CauchyProblem(
        op,
        LizorkinSeries(2, coeffs),
        anchor=anchor,
        anchor_value=complex(rng.standard_normal()),
        boundary=boundary,
    )
    return problem, (t1, t2)


def test_c07_cauchy_residual_and_initial_conditions():
    rng = np.random.default_rng(77)
    for case in range(50):
        problem, trees = _random_problem_1d(rng) if case < 25 else _random_problem_2d(rng)
        sol = solve(problem)
        applied = apply_operator(sol.u, problem.operator)
        fnorm = problem.rhs.norm_inf()
        for key, c in problem.rhs.items():
            assert abs(applied.coefficient(*key) - c) <= 1e-10 * max(fnorm, 1.0)
        anchor_measure = math.prod(t.measure[b] for t, b in zip(trees, problem.anchor))
        expected = problem.anchor_value * anchor_measure
        got = eval_on_char_nd(sol.u, problem.anchor)
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))
        for (vertex, j), value in problem.boundary.items():
            mfac = math.prod(
                trees[i].measure[problem.anchor[i]] for i in range(len(trees)) if j[i] == 0
            )
            got = eval_extended(sol.u, vertex, j)
            assert abs(got - value * mfac) <= 1e-12 * max(1.0, abs(value * mfac))
    _passed(7, "50 random solves: residuals and initial conditions")


def test_c08_uniqueness_off_characteristics():
    t = build_padic_tree(2, 2)
    sym = TableSymbol({0: 1.0, 1: 2.0, 2: 5.0})
    op = MultiOperator([(t, sym), (t, sym)], [((0,), 1.0), ((1,), -1.0)])
    rhs = LizorkinSeries(2, {((1, 2), (1, 1)): 2.0, ((0, 1), (1, 1)): -1.0j})
    base = dict(operator=op, rhs=rhs, anchor=(3, 3), anchor_value=1.0)
    sol_a = solve(CauchyProblem(**base, free_values=101))
    sol_b = solve(CauchyProblem(**base, free_values=202))
    chars = set(sol_a.characteristic_vertices)
    assert chars
    differs = False
    for key in set(sol_a.u.coeffs) | set(sol_b.u.coeffs):
        a, b = sol_a.u.coefficient(*key), sol_b.u.coefficient(*key)
        if key[0] in chars and all(j >= 1 for j in key[1]):
            differs = differs or a != b
        else:
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))
    assert differs
    _passed(8, "uniqueness off characteristics")


def test_c09_propagating_wave():
    t = build_padic_tree(3, 2)
    sym = TableSymbol({0: 1.0, 1: 2.0, 2: 3.0, 3: 4.5})
    op = MultiOperator([(t, sym), (t, sym)], [((0,), 1.0), ((1,), -1.0)])
    char_set = {c.vertex for c in characteristics(op)}
    for b in t.non_leaf_balls():
        assert (b, b) in char_set
    dense = dense_multi_operator(op)
    vertex = (1, 1)
    parts1 = wavelet_basis(t, vertex[0])
    parts2 = wavelet_basis(t, vertex[1])
    grids = []
    for w in parts1:
        v1 = np.array([evaluate(t, w, x) for x in t.leaves])
        grids.append([np.kron(v1, np.array([evaluate(t, w2, x) for x in t.leaves])) for w2 in parts2])
    rng = np.random.default_rng(13)
    for _ in range(20):
        u = np.zeros(len(t.leaves) ** 2, dtype=complex)
        for row in grids:
            for vec in row:
                u = u + complex(rng.standard_normal(), rng.standard_normal()) * vec
        assert np.abs(dense @ u).max() <= 1e-12 * np.abs(u).max()
    _passed(9, "propagating wave: diagonal kernel elements")


def test_c10_edge_combinatorics():
    t1, t2 = build_padic_tree(2, 2), build_padic_tree(3, 2)
    space = ProductSpace([t1, t2])
    for v in space.vertices():
        fan = decreasing_edges(space, v)
        edges = list(fan)
        expected = 1
        dims = 0
        for comp, tree in zip(v, space.factors):
            if not tree.is_leaf(comp):
                expected *= tree.branching_index(comp)
                dims += 1
        if dims == 0:
            assert fan.count == 0 and edges == []
            continue
        assert fan.count == len(edges) == expected
        for e in edges:
            corners = e.corners()
            assert len(corners) == 2 ** fan.max_dimension
            assert e.largest == v
    _passed(10, "edge combinatorics on the depth-2 product")


def test_c11_solvability_gate(tmp_path, capsys):
    problem = {
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
            {"vertex": [2, 2], "j": [1, 1], "re": 1.0, "im": 0.0},
        ]},
        "anchor": {"vertex": [3, 3], "value": [0.0, 0.0]},
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    assert main(["solve", str(path)]) == 3
    err = capsys.readouterr().err
    assert "(2, 2)" in err and "j=(1, 1)" in err
    _passed(11, "solvability gate rejects with exit 3 and indices")
