import itertools
import math
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_measured_tree, random_table_symbol
from ultrawave import solver
from ultrawave.distributions import (
    GeneralizedFunction,
    LizorkinSeries,
    apply_operator,
    eval_extended,
    eval_on_char_nd,
)
from ultrawave.errors import (
    DegenerateBallError,
    DomainError,
    IllConditionedError,
    NonFiniteError,
    ParameterError,
    UnsolvableError,
)
from ultrawave.operators import HomogeneousSymbol, TableSymbol, apply_dense, spectrum
from ultrawave.products import MultiOperator, vertex_key
from ultrawave.solver import (
    CauchyProblem,
    Characteristic,
    ResidualReport,
    Solution,
    SolvabilityReport,
    SolvabilityViolation,
    characteristics,
    check_solvability,
    solve,
)
from ultrawave.trees import BallTree, build_padic_tree
from ultrawave.wavelets import TestFunction, analyze, wavelet_basis


def two_level_operator():
    """Z_2 depth 2 with T(root)=1, T(level 1)=0: lambda = 1, 1/2, 1/2."""
    t = build_padic_tree(2, 2)
    sym = TableSymbol({0: 1.0, 1: 0.0, 2: 0.0})
    return t, sym, MultiOperator.single(t, sym)


def wave_operator(tree, sym):
    return MultiOperator([(tree, sym), (tree, sym)], [((0,), 1.0), ((1,), -1.0)])


class TestCharacteristics:
    def test_difference_operator_diagonal(self):
        t = build_padic_tree(2, 2)
        sym = TableSymbol({b: 1.0 + 0.3j for b in t.non_leaf_balls()})
        chars = characteristics(wave_operator(t, sym))
        diag = {(b, b) for b in t.non_leaf_balls()}
        assert diag <= {c.vertex for c in chars}

    def test_nonvanishing_spectrum_gives_empty_list(self):
        t, sym, op = two_level_operator()
        assert characteristics(op) == []

    @pytest.mark.parametrize("epsilon", [float("nan"), -1.0, float("inf")])
    def test_bad_tolerance_rejected_as_by_cauchy_problem(self, epsilon):
        t, sym, op = two_level_operator()
        with pytest.raises(ParameterError, match="epsilon must be finite and non-negative") as got:
            characteristics(op, epsilon)
        with pytest.raises(ParameterError) as want:
            CauchyProblem(op, LizorkinSeries(1, {}), anchor=(3,), epsilon=epsilon)
        assert str(got.value) == str(want.value)

    def test_product_minus_constant(self):
        t1, t2 = build_padic_tree(2, 2), build_padic_tree(2, 1)
        s1 = TableSymbol({0: 1.0, 1: 2.0, 2: 5.0})
        s2 = TableSymbol({0: 3.0})
        lam1 = spectrum(t1, s1)
        lam2 = spectrum(t2, s2)
        target = lam1[1] * lam2[0]
        op = MultiOperator([(t1, s1), (t2, s2)], [((0, 1), 1.0), ((), -target)])
        got = {c.vertex for c in characteristics(op)}
        # oracle: enumerate all products on the hypergraph and count matches
        expected = {
            (b1, b2)
            for b1 in t1.non_leaf_balls()
            for b2 in t2.non_leaf_balls()
            if abs(lam1[b1] * lam2[b2] - target) <= 1e-9 * abs(target)
        }
        assert got == expected
        assert got  # the chosen product is realized


class TestSolvability:
    def test_zero_rhs_always_ok(self):
        t = build_padic_tree(2, 2)
        sym = TableSymbol({b: 2.0 for b in t.non_leaf_balls()})
        problem = CauchyProblem(
            wave_operator(t, sym), LizorkinSeries(2), anchor=(3, 3), anchor_value=0.0
        )
        assert check_solvability(problem).ok

    def test_rhs_on_characteristic_vertex_flagged(self):
        t = build_padic_tree(2, 2)
        sym = TableSymbol({b: 2.0 for b in t.non_leaf_balls()})
        rhs = LizorkinSeries(2, {((1, 1), (1, 1)): 1.0})
        problem = CauchyProblem(wave_operator(t, sym), rhs, anchor=(3, 3))
        report = check_solvability(problem)
        assert not report.ok
        assert [(v.vertex, v.j) for v in report.violations] == [((1, 1), (1, 1))]

    def test_rhs_off_characteristics_ok(self):
        t = build_padic_tree(2, 2)
        sym = TableSymbol({0: 1.0, 1: 2.0, 2: 5.0})  # distinct eigenvalues per ball
        rhs = LizorkinSeries(2, {((1, 2), (1, 1)): 1.0})
        problem = CauchyProblem(wave_operator(t, sym), rhs, anchor=(3, 3))
        assert check_solvability(problem).ok


class TestSolve:
    def test_zero_rhs_constant_solution(self):
        t, sym, op = two_level_operator()
        problem = CauchyProblem(op, LizorkinSeries(1), anchor=(3,), anchor_value=2.0 - 1.0j)
        sol = solve(problem)
        assert sol.u.wavelet_items() == []
        assert sol.free_params == ()
        for b in range(t.n_vertices):
            expected = (2.0 - 1.0j) * t.measure[b]
            assert abs(eval_on_char_nd(sol.u, (b,)) - expected) < 1e-14

    def test_delta_rhs_divides_and_matches_dense_oracle(self):
        t, sym, op = two_level_operator()
        rhs = LizorkinSeries(1, {(1, 1): 1.0})
        problem = CauchyProblem(op, rhs, anchor=(3,), anchor_value=0.5)
        sol = solve(problem)
        assert abs(sol.u.coefficient((1,), (1,)) - 2.0) < 1e-14  # 1 / (1/2)
        # dense residual oracle: realize u pointwise, apply the kernel, re-analyze
        values = {x: eval_on_char_nd(sol.u, (x,)) / t.measure[x] for x in t.leaves}
        g = apply_dense(t, sym, TestFunction(t, values))
        e = analyze(t, g)
        assert abs(e.mean) < 1e-12
        for key, c in e.coeffs.items():
            target = rhs.coefficient((key[0],), (key[1],))
            assert abs(c - target) < 1e-10

    def test_anchor_condition_reproduced(self):
        t, sym, op = two_level_operator()
        rhs = LizorkinSeries(1, {(0, 1): 1.0 + 2.0j, (2, 1): -0.25})
        problem = CauchyProblem(op, rhs, anchor=(1,), anchor_value=-3.0 + 0.5j)
        sol = solve(problem)
        assert abs(eval_on_char_nd(sol.u, (1,)) - (-3.0 + 0.5j) * t.measure[1]) < 1e-12

    def test_wave_solution_kills_operator(self):
        t = build_padic_tree(2, 2)
        sym = TableSymbol({b: float(b + 1) for b in t.non_leaf_balls()})
        op = wave_operator(t, sym)
        problem = CauchyProblem(
            op, LizorkinSeries(2), anchor=(3, 3), anchor_value=0.0, free_values=99
        )
        sol = solve(problem)
        assert sol.characteristic_vertices  # the diagonal is characteristic
        assert any(abs(sol.u.coeffs[key]) > 0 for key in sol.free_params)
        out = apply_operator(sol.u, op)
        assert all(abs(c) < 1e-12 for c in out.coeffs.values())
        # the nonzero content sits exactly at characteristic vertices
        for (vertex, _), c in sol.u.wavelet_items():
            if abs(c) > 0:
                assert vertex in set(sol.characteristic_vertices)

    def test_uniqueness_off_characteristics(self):
        t = build_padic_tree(2, 2)
        sym = TableSymbol({0: 1.0, 1: 2.0, 2: 5.0})  # characteristics = diagonal only
        op = wave_operator(t, sym)
        rhs = LizorkinSeries(2, {((1, 2), (1, 1)): 2.0, ((0, 1), (1, 1)): -1.0j})
        base = dict(operator=op, rhs=rhs, anchor=(3, 3), anchor_value=1.0)
        sol_a = solve(CauchyProblem(**base, free_values=1))
        sol_b = solve(CauchyProblem(**base, free_values=2))
        chars = set(sol_a.characteristic_vertices)
        assert chars == set(sol_b.characteristic_vertices) and chars
        differ = False
        keys = set(sol_a.u.coeffs) | set(sol_b.u.coeffs)
        for key in keys:
            a = sol_a.u.coefficient(*key)
            b = sol_b.u.coefficient(*key)
            if key[0] in chars and all(j >= 1 for j in key[1]):
                differ = differ or abs(a - b) > 0
            else:
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a))
        assert differ

    def test_explicit_free_values(self):
        t = build_padic_tree(2, 1)
        sym = TableSymbol({0: 1.0})
        op = wave_operator(t, sym)
        key = ((0, 0), (1, 1))
        problem = CauchyProblem(
            op, LizorkinSeries(2), anchor=(1, 1), free_values={key: 4.0 + 1.0j}
        )
        sol = solve(problem)
        assert sol.u.coefficient(*key) == 4.0 + 1.0j

    def test_explicit_free_values_off_the_free_keys_raise(self):
        """The first entry, in map order, that is not a free key is named; nothing is dropped."""
        t = build_padic_tree(2, 3)
        op = wave_operator(t, HomogeneousSymbol(beta=1.0))
        rhs = LizorkinSeries(2, {((0, 1), (1, 1)): 1.0})
        free, off_char, nowhere = ((1, 1), (1, 1)), ((0, 1), (1, 1)), ((99, 99), (1, 1))
        assert free in solve(CauchyProblem(op, rhs, anchor=(7, 7))).free_params
        for order, named in (((free, off_char, nowhere), off_char), ((nowhere, free, off_char), nowhere)):
            problem = CauchyProblem(op, rhs, anchor=(7, 7), free_values=dict.fromkeys(order, 2.0))
            with pytest.raises(ParameterError) as info:
                solve(problem)
            assert str(info.value) == f"free value index {named} is not a free parameter"
        assert solve(CauchyProblem(op, rhs, anchor=(7, 7), free_values={free: 2.0})).u.coefficient(*free) == 2.0
        on_char = LizorkinSeries(2, {free: 1.0})  # the division's errors come first
        with pytest.raises(UnsolvableError):
            solve(CauchyProblem(op, on_char, anchor=(7, 7), free_values={nowhere: 2.0}))

    def test_operator_scaling(self):
        t, sym, op = two_level_operator()
        rhs = LizorkinSeries(1, {(1, 1): 1.0, (0, 1): 2.0})
        c = 2.0 - 1.0j
        scaled = MultiOperator([(t, sym)], [(idx, c * coeff) for idx, coeff in op.terms])
        sol = solve(CauchyProblem(op, rhs, anchor=(3,)))
        sol_c = solve(CauchyProblem(scaled, rhs, anchor=(3,)))
        assert sol.characteristic_vertices == sol_c.characteristic_vertices
        for key, value in sol.u.wavelet_items():
            assert abs(sol_c.u.coefficient(*key) - value / c) < 1e-12 * abs(value / c)


class TestErrors:
    def test_unsolvable_carries_violations(self):
        t = build_padic_tree(2, 2)
        sym = TableSymbol({b: 2.0 for b in t.non_leaf_balls()})
        rhs = LizorkinSeries(2, {((2, 2), (1, 1)): 3.0})
        problem = CauchyProblem(wave_operator(t, sym), rhs, anchor=(3, 3))
        with pytest.raises(UnsolvableError) as err:
            solve(problem)
        assert [(v.vertex, v.j) for v in err.value.violations] == [((2, 2), (1, 1))]

    def test_near_characteristic_rhs_is_ill_conditioned(self):
        t = build_padic_tree(2, 1)
        op = MultiOperator([(t, TableSymbol({0: 1.0}))], [((0,), 1.0), ((), -(1.0 - 1e-8))])
        rhs = LizorkinSeries(1, {(0, 1): 1.0})
        with pytest.raises(IllConditionedError):
            solve(CauchyProblem(op, rhs, anchor=(1,)))

    def test_near_characteristic_without_rhs_is_warned(self):
        t = build_padic_tree(2, 2)
        op = MultiOperator([(t, TableSymbol({0: 1.0, 1: 0.0, 2: 0.0}))], [((0,), 1.0), ((), -(0.5 - 1e-8))])
        rhs = LizorkinSeries(1, {(0, 1): 1.0})  # lambda_root - c = 0.5 + 1e-8, fine
        sol = solve(CauchyProblem(op, rhs, anchor=(3,)))
        assert sol.residual.warnings == ()
        rhs2 = LizorkinSeries(1, {(0, 1): 1.0, (1, 1): 1e-12})
        sol2 = solve(CauchyProblem(op, rhs2, anchor=(3,)))
        assert any("near-characteristic" in w for w in sol2.residual.warnings)

    def test_overflowing_eigenvalue_names_the_first_vertex(self):
        """1e10 * lambda_1 * lambda_2 overflows wherever a factor sits below the root: not characteristic, an error.

        The grid names its first such vertex in ``vertex_key`` order, whatever
        the cells; the rhs names the smallest of its own, whatever its order.
        """
        t = build_padic_tree(2, 2)
        sym = TableSymbol({0: 1.0, 1: 1e300, 2: 1e300})
        op = MultiOperator([(t, sym), (t, sym)], [((0, 1), 1e10)])
        rhs = LizorkinSeries(2, {((2, 2), (1, 1)): 1.0, ((1, 0), (1, 1)): 1.0, ((0, 0), (1, 1)): 1.0})
        problem = CauchyProblem(op, rhs, anchor=(3, 3))
        with pytest.raises(NonFiniteError, match=r"^the eigenvalue \(inf.*\) \(term scale inf\) at vertex \(0, 1\) "):
            characteristics(op)
        for fn in (check_solvability, solve):
            with pytest.raises(NonFiniteError, match=r"at vertex \(1, 0\) is not finite$"):
                fn(problem)


class TestGridCap:
    @pytest.mark.parametrize("depths", [(3, 3), (3, 4)])
    def test_checked_before_any_eigenvalue(self, monkeypatch, depths):
        monkeypatch.setattr(solver, "MAX_GRID_POINTS", 49)  # padic(2,3)**2 has 7 x 7 points
        trees = [build_padic_tree(2, d) for d in depths]
        op = MultiOperator([(tree, HomogeneousSymbol(beta=0.5)) for tree in trees], [((0,), 1.0), ((1,), -1.0)])
        problem = CauchyProblem(op, LizorkinSeries(2, {((1, 3), (1, 1)): 1.0}), anchor=(7, 7))
        if depths == (3, 3):  # at the cap
            assert len(characteristics(op)) == len(solve(problem).free_params) == 1 + 2**2 + 4**2
            assert check_solvability(problem)
            return
        monkeypatch.setattr(MultiOperator, "factor_eigenvalue", None)  # a call would fail with TypeError
        for fn, arg in ((characteristics, op), (check_solvability, problem), (solve, problem)):
            with pytest.raises(ParameterError, match=r"^the generic grid 7 x 15 has 105 points, more than the 49 "):
                fn(arg)


    @pytest.mark.parametrize("cap", [64, 63])
    def test_free_keys_counted_before_any_is_built(self, monkeypatch, cap):
        """padic(3,2)**2 without terms: 16 grid points, all characteristic, each carrying 2 x 2 free keys."""
        monkeypatch.setattr(solver, "MAX_GRID_POINTS", cap)
        tree = build_padic_tree(3, 2)
        op = MultiOperator([(tree, HomogeneousSymbol(beta=0.5))] * 2, [])
        problem = CauchyProblem(op, LizorkinSeries(2, {}), anchor=(4, 4))
        if cap == 64:
            sol = solve(problem)
            assert len(sol.characteristic_vertices) == 16 and len(sol.free_params) == 64
            return
        monkeypatch.setattr(solver, "_free_columns", None)  # building a key would fail with TypeError
        with pytest.raises(ParameterError, match=r"^the 16 characteristic vertices carry 64 free parameters, "
                                                 r"more than the 63 allowed$"):
            solve(problem)


def _random_problem_1d(rng):
    t = random_measured_tree(rng, max_depth=3)
    sym = random_table_symbol(rng, t)
    op = MultiOperator.single(t, sym)
    char_set = {c.vertex for c in characteristics(op)}
    coeffs = {}
    for b in t.non_leaf_balls():
        if (b,) in char_set:
            continue
        if rng.random() < 0.5:
            coeffs[((b,), (1,))] = complex(rng.standard_normal(), rng.standard_normal())
    positives = [b for b in range(t.n_vertices) if t.measure[b] > 0]
    anchor = (int(rng.choice(positives)),)
    return CauchyProblem(
        op,
        LizorkinSeries(1, coeffs),
        anchor=anchor,
        anchor_value=complex(rng.standard_normal(), rng.standard_normal()),
    ), t


@settings(max_examples=20)
@given(seed=st.integers(0, 10**9))
def test_random_1d_residual_and_anchor(seed):
    rng = np.random.default_rng(seed)
    problem, t = _random_problem_1d(rng)
    sol = solve(problem)
    applied = apply_operator(sol.u, problem.operator)
    fnorm = problem.rhs.norm_inf()
    for key, c in problem.rhs.items():
        assert abs(applied.coefficient(*key) - c) <= 1e-10 * max(fnorm, 1.0)
    anchor = problem.anchor[0]
    expected = problem.anchor_value * t.measure[anchor]
    assert abs(eval_on_char_nd(sol.u, (anchor,)) - expected) <= 1e-12 * max(1.0, abs(expected))


@settings(max_examples=12)
@given(seed=st.integers(0, 10**9))
def test_random_2d_residual_and_boundary(seed):
    rng = np.random.default_rng(seed)
    t1 = random_measured_tree(rng, max_depth=2)
    t2 = random_measured_tree(rng, max_depth=2)
    s1, s2 = random_table_symbol(rng, t1), random_table_symbol(rng, t2)
    op = MultiOperator(
        [(t1, s1), (t2, s2)],
        [((0,), 1.0), ((1,), complex(rng.standard_normal())), ((0, 1), 0.5)],
    )
    char_set = {c.vertex for c in characteristics(op)}
    coeffs = {}
    for v in itertools.product(t1.non_leaf_balls(), t2.non_leaf_balls()):
        if v in char_set or rng.random() < 0.5:
            continue
        coeffs[(v, (1, 1))] = complex(rng.standard_normal(), rng.standard_normal())
    anchor = (int(t1.leaves[0]), int(t2.leaves[0]))
    boundary = {
        ((t1.non_leaf_balls()[0], anchor[1]), (1, 0)): complex(rng.standard_normal()),
        ((anchor[0], t2.non_leaf_balls()[0]), (0, 1)): complex(rng.standard_normal()),
    }
    problem = CauchyProblem(
        op,
        LizorkinSeries(2, coeffs),
        anchor=anchor,
        anchor_value=complex(rng.standard_normal()),
        boundary=boundary,
    )
    sol = solve(problem)
    applied = apply_operator(sol.u, op)
    fnorm = problem.rhs.norm_inf()
    for key, c in problem.rhs.items():
        assert abs(applied.coefficient(*key) - c) <= 1e-10 * max(fnorm, 1.0)
    # boundary fidelity through honest evaluation on the extended family
    nu = [t1.measure, t2.measure]
    for (vertex, j), value in boundary.items():
        measure_factor = math.prod(
            nu[i][anchor[i]] for i in range(2) if j[i] == 0
        )
        got = eval_extended(sol.u, vertex, j)
        assert abs(got - value * measure_factor) <= 1e-12 * max(1.0, abs(value * measure_factor))
    expected = problem.anchor_value * t1.measure[anchor[0]] * t2.measure[anchor[1]]
    assert abs(eval_on_char_nd(sol.u, anchor) - expected) <= 1e-12 * max(1.0, abs(expected))


# -- oracle: the per-vertex classification and apply_operator residual -------
#
# ``_reference_classify`` / ``_reference_solve`` are the per-vertex Python
# arithmetic (``lambda_vector`` -> ``form`` and the term scale), one scalar
# ``standard_normal`` pair per seeded free value and the residual through
# ``apply_operator``.  The grid kernel in ``solve`` must give the same
# characteristic set, quotients, free parameters, residual and errors,
# compared by ``repr`` so that the last bit and the sign of zero count.


def _reference_term_scale(op, lams):
    best = 0.0
    for indices, coeff in op.terms:
        mag = abs(coeff)
        for i in indices:
            mag *= abs(lams[i])
        best = max(best, mag)
    return best if best > 0.0 else 1.0


def _reference_classify(op, epsilon):
    lam_map, chars = {}, []
    for v in itertools.product(*(tree.non_leaf_balls() for tree, _ in op.factors)):
        lams = op.lambda_vector(v)
        lam = op.form(lams)
        scale = _reference_term_scale(op, lams)
        lam_map[v] = (lam, scale)
        if abs(lam) <= epsilon * scale:
            chars.append(Characteristic(v, lam, scale))
    chars.sort(key=lambda c: vertex_key(c.vertex))
    return lam_map, chars


def _reference_violations(problem, char_set):
    threshold = problem.epsilon * problem.rhs.norm_inf()
    return tuple(
        SolvabilityViolation(vertex, j, abs(c), threshold)
        for (vertex, j), c in problem.rhs.items()
        if vertex in char_set and abs(c) > threshold
    )


def _reference_free_value(problem):
    """One scalar ``standard_normal`` pair per key for a seed."""
    if problem.free_values == "zero":
        return lambda key: 0.0 + 0.0j
    if isinstance(problem.free_values, int) and not isinstance(problem.free_values, bool):
        rng = np.random.default_rng(problem.free_values)
        return lambda key: complex(rng.standard_normal() + 1j * rng.standard_normal())
    if isinstance(problem.free_values, Mapping):
        return lambda key: problem.free_values.get(key, 0.0 + 0.0j)
    raise ParameterError(f"unsupported free_values specification {problem.free_values!r}")


def _reference_solve(problem):
    op = problem.operator
    trees = [t for t, _ in op.factors]
    lam_map, chars = _reference_classify(op, problem.epsilon)
    char_set = {c.vertex for c in chars}
    fnorm = problem.rhs.norm_inf()
    threshold = problem.epsilon * fnorm
    violations = _reference_violations(problem, char_set)
    if violations:
        raise UnsolvableError(violations)
    warnings, ill = [], []
    coeffs = dict(problem.boundary)
    for (vertex, j), c in problem.rhs.items():
        if vertex in char_set:
            continue
        if vertex not in lam_map:
            raise DomainError(f"rhs vertex {vertex} is not a generic vertex of the operator's space")
        lam, scale = lam_map[vertex]
        if abs(lam) < problem.warn_factor * scale:
            if abs(c) > threshold:
                ill.append((vertex, j))
                continue
            warnings.append(
                f"near-characteristic eigenvalue {lam} (scale {scale:.3e}) under index {(vertex, j)}"
            )
        coeffs[(vertex, j)] = c / lam
    if ill:
        raise IllConditionedError(ill)
    free_value = _reference_free_value(problem)
    free_params = []
    for c in chars:
        for j in itertools.product(*(range(1, _wavelet_count(t, b) + 1) for t, b in zip(trees, c.vertex))):
            value = free_value((c.vertex, j))
            free_params.append((c.vertex, j))
            coeffs[(c.vertex, j)] = value
    u = GeneralizedFunction(trees, problem.anchor, coeffs, problem.anchor_value)
    applied = apply_operator(u, op)
    max_abs = 0.0
    for key in set(applied.coeffs) | set(problem.rhs.coeffs):
        if key[0] not in char_set:
            max_abs = max(max_abs, abs(applied.coefficient(*key) - problem.rhs.coefficient(*key)))
    residual = ResidualReport(max_abs / (fnorm if fnorm > 0 else 1.0), max_abs, tuple(warnings))
    return Solution(u, tuple(free_params), residual, tuple(c.vertex for c in chars))


def _cnum(rng):
    return complex(rng.standard_normal(), rng.standard_normal())


def _wavelet_count(tree, ball):
    """The number of wavelets of a ball; 0 when a degenerate ball carries none."""
    try:
        return len(wavelet_basis(tree, ball))
    except DegenerateBallError:
        return 0


def _with_degenerate_ball(rng, tree):
    """The tree with one leaf's measure zeroed, so a two-child ball may carry no wavelet."""
    leaf = int(rng.choice(tree.leaves))
    measure = list(tree.measure)
    measure[leaf] = 0.0
    for a in tree.ancestors(leaf):
        measure[a] = math.fsum(measure[c] for c in tree.children[a])
    return BallTree(tree.parent, measure, tree.diameter)


def _random_operator(rng):
    """1-3 factors; complex, real and constant terms, repeated factor indices, zero
    eigenvalues, degenerate balls, and sometimes a difference of two identical
    factors (a characteristic diagonal)."""
    n = int(rng.integers(1, 4))
    depth = 3 if n == 1 else 2
    factors = []
    for _ in range(n):
        t = random_measured_tree(rng, max_depth=depth)
        if rng.random() < 0.2:
            t = _with_degenerate_ball(rng, t)
        sym = random_table_symbol(rng, t, real=bool(rng.random() < 0.5))
        if rng.random() < 0.3:  # zero eigenvalues, where the sign of zero shows
            sym = TableSymbol({b: 0.0 if rng.random() < 0.5 else v for b, v in sym.entries.items()})
        factors.append((t, sym))
    terms = []
    if n >= 2 and rng.random() < 0.5:
        factors[1] = factors[0]
        terms += [((0,), 1.0), ((1,), -1.0)]
    for _ in range(int(rng.integers(1, 4))):
        indices = tuple(int(i) for i in rng.integers(0, n, size=int(rng.integers(0, 4))))
        coeff = _cnum(rng) if rng.random() < 0.5 else complex(rng.standard_normal())
        terms.append((indices, coeff))
    return MultiOperator(factors, terms)


def _random_case(rng, inject=None):
    """A problem with its rhs in shuffled insertion order, and entries the solver must flag.

    ``inject`` is a set of kinds (drawn at random when None), each flagging
    several entries so that the order of the indices in an error and of the
    warnings counts: ``unsolvable`` puts large entries on up to three
    characteristic vertices, ``ill`` / ``warn`` large / zero entries on the
    three off-characteristic vertices nearest to it inside a widened warn
    band, and ``domain`` vertices off the generic grid in each factor (a
    leaf, an id past the tree, a negative id and one beyond int64).
    """
    op = _random_operator(rng)
    n = op.n
    if inject is None:
        kinds = ["none", "none", "unsolvable", "domain", "ill", "warn", "ill+domain", "unsolvable+domain+ill"]
        inject = set(str(rng.choice(kinds)).split("+"))
    epsilon = 0.5 if "unsolvable" in inject else float(rng.choice([0.0, 1e-9, 1e-3, 0.5]))
    trees = [t for t, _ in op.factors]
    lam_map, chars = _reference_classify(op, epsilon)
    char_set = {c.vertex for c in chars}
    coeffs = {}
    for v in lam_map:
        counts = [_wavelet_count(t, b) for t, b in zip(trees, v)]
        if 0 in counts:
            continue
        if v in char_set:
            if rng.random() < 0.3:  # at the threshold on the characteristic set: the free value rules
                coeffs[(v, (1,) * n)] = 0.0j
        elif rng.random() < 0.6:
            coeffs[(v, tuple(int(rng.integers(1, k + 1)) for k in counts))] = _cnum(rng)
    warn_factor = float(rng.choice([1e-6, 1e-2]))
    if "unsolvable" in inject:
        for k, c in enumerate(chars[:3]):
            coeffs[(c.vertex, (1,) * n)] = complex(200.0 + k, 1.0)  # above epsilon * |f|
    if inject & {"ill", "warn"}:
        off = sorted((abs(lam) / scale, v) for v, (lam, scale) in lam_map.items() if v not in char_set)
        near = [v for _, v in off[:3]]
        if near:  # widen the warn band just over the third nearest vertex
            warn_factor = off[len(near) - 1][0] * (1.0 + 1e-9)
        for k, v in enumerate(near):
            coeffs[(v, (1,) * n)] = complex(100.0 + k, -1.0) if "ill" in inject else 0.0j
    if "domain" in inject:
        base = [t.non_leaf_balls()[0] for t in trees]
        for i, t in enumerate(trees):
            for bad in (t.leaves[-1], t.n_vertices, -1, 2**70):
                coeffs[((*base[:i], bad, *base[i + 1:]), (1,) * n)] = _cnum(rng)
    keys = list(coeffs)
    shuffled = {keys[k]: coeffs[keys[k]] for k in rng.permutation(len(keys)).tolist()}
    anchor = tuple(int(rng.choice([b for b in t.leaves if t.measure[b] > 0])) for t in trees)
    boundary = {}
    if n >= 2 and rng.random() < 0.5:
        b = trees[0].non_leaf_balls()[0]
        boundary[((b, *anchor[1:]), (1,) + (0,) * (n - 1))] = _cnum(rng)
    free = rng.choice(["zero", "seed", "map"])
    if free == "seed":
        free_values = int(rng.integers(0, 1000))
    elif free == "map":
        free_keys = [(c.vertex, (1,) * n) for c in chars]
        free_values = {key: _cnum(rng) for key in free_keys[::2]}
    else:
        free_values = "zero"
    return dict(
        operator=op,
        rhs=LizorkinSeries(n, shuffled),
        anchor=anchor,
        anchor_value=_cnum(rng),
        boundary=boundary,
        epsilon=epsilon,
        free_values=free_values,
        warn_factor=warn_factor,
    )


def _outcome(fn, *args):
    """``repr`` of a solve result or of the error it raised, bit-exact."""
    try:
        sol = fn(*args)
    except (UnsolvableError, IllConditionedError, DomainError, ParameterError) as exc:
        detail = getattr(exc, "violations", None) or getattr(exc, "indices", None)
        return repr((type(exc).__name__, str(exc), detail))
    return repr((sol.u.items(), sol.u.anchor, sol.free_params, sol.residual, sol.characteristic_vertices))


@pytest.mark.parametrize("seed", range(60))
def test_grid_classification_and_solve_match_per_vertex_oracle(seed):
    """Bit for bit."""
    kwargs = _random_case(np.random.default_rng(seed))
    op, epsilon = kwargs["operator"], kwargs["epsilon"]
    problem = CauchyProblem(**kwargs)
    lam_map, chars = _reference_classify(op, epsilon)
    violations = _reference_violations(problem, {c.vertex for c in chars})
    want = _outcome(_reference_solve, problem)
    assert repr(characteristics(op, epsilon)) == repr(chars)
    assert repr(check_solvability(problem)) == repr(SolvabilityReport(not violations, violations))
    assert _outcome(solve, problem) == want


def test_oracle_cases_cover_every_outcome():
    kinds, several = set(), set()
    for seed in range(60):
        problem = CauchyProblem(**_random_case(np.random.default_rng(seed)))
        try:
            sol = _reference_solve(problem)
        except (UnsolvableError, IllConditionedError, DomainError) as exc:
            kinds.add(type(exc).__name__)
            if len(getattr(exc, "violations", None) or getattr(exc, "indices", ())) >= 2:
                several.add(type(exc).__name__)
            continue
        kinds.add("solved")
        kinds.update({"warned"} if sol.residual.warnings else ())
        kinds.update({"free"} if sol.free_params else ())
        several.update({"warned"} if len(sol.residual.warnings) >= 2 else ())
        if any(_wavelet_count(t, b) == 0 for t, _ in problem.operator.factors for b in t.non_leaf_balls()):
            kinds.add("degenerate")
    assert kinds == {"solved", "warned", "free", "degenerate", "UnsolvableError", "IllConditionedError",
                     "DomainError"}
    assert several == {"warned", "UnsolvableError", "IllConditionedError"}


@pytest.mark.parametrize("inject", [set(), {"ill"}])
@pytest.mark.parametrize("value", [True, "random"])
def test_unsupported_free_values_raise_after_the_division(inject, value):
    kwargs = _random_case(np.random.default_rng(3), inject)
    problem = CauchyProblem(**{**kwargs, "free_values": value})
    want = _outcome(_reference_solve, problem)
    assert _outcome(solve, problem) == want
    assert ("IllConditionedError" if inject else "unsupported free_values") in want


def test_three_factor_classification_with_repeated_eigenvalues_matches_oracle():
    """Table values that depend only on ``b % 3`` repeat eigenvalues along each axis, so cells hold
    several grid points; the classification still matches the per-vertex oracle bit for bit."""
    t1, t2 = build_padic_tree(2, 3), build_padic_tree(3, 2)
    sym1 = TableSymbol({b: complex(b % 3, -0.5 * (b % 3)) for b in t1.non_leaf_balls()})
    sym2 = TableSymbol({b: complex(b % 3, 0.25 * (b % 3)) for b in t2.non_leaf_balls()})
    op = MultiOperator([(t1, sym1), (t2, sym2), (t1, sym1)], [((0,), 1.0), ((2,), -1.0), ((1, 1), 1e-3j)])
    for i, (tree, _) in enumerate(op.factors):
        lams = [op.factor_eigenvalue(i, b) for b in tree.non_leaf_balls()]
        assert len(set(lams)) < len(lams)
    chars = characteristics(op, 1e-3)
    assert chars and repr(chars) == repr(_reference_classify(op, 1e-3)[1])
