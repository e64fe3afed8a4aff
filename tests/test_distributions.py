import itertools
import json
import operator
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_leaf_function, random_measured_tree, random_table_symbol, with_zero_leaves
from ultrawave.distributions import (
    GeneralizedFunction,
    KeyColumns,
    LizorkinSeries,
    _as_nd_key,
    _require_integer,
    apply_operator,
    eval_extended,
    eval_on_char_nd,
    eval_on_product,
    lizorkin_pair,
)
from ultrawave.errors import (
    AnchorError,
    DegenerateBallError,
    DomainError,
    FileFormatError,
    ParameterError,
    UnknownBallError,
)
from ultrawave.io import _coeff_records, _strict_coeff_records
from ultrawave.operators import HomogeneousSymbol, TableSymbol, apply_dense, spectrum
from ultrawave.products import TOP, MultiOperator, vertex_key
from ultrawave.solver import CauchyProblem
from ultrawave.trees import BallTree, build_padic_tree
from ultrawave.wavelets import (
    TestFunction,
    WaveletExpansion,
    analyze,
    evaluate,
    synthesize,
    tree_wavelets,
    wavelet_basis,
)


def brute_indicator_integral(tree, wavelet, ball):
    """Oracle: integrate a wavelet over a ball by enumerating leaves."""
    return sum(evaluate(tree, wavelet, x) * tree.measure[x] for x in tree.leaves_under(ball))


def naive_eval_on_char(u, ball, members=None):
    """Oracle: full series summation over every wavelet of the tree.

    ``members`` optionally truncates the sum to coefficients at a set of
    balls (the filtration view of the series).
    """
    tree = u.factors[0]
    anchor = u.anchor[0]
    total = u.anchor_value * tree.measure[ball]
    for w in tree_wavelets(tree):
        if members is not None and w.ball not in members:
            continue
        c = u.coefficient((w.ball,), (w.j,))
        if c == 0:
            continue
        total += c * (
            brute_indicator_integral(tree, w, ball)
            - tree.measure[ball] / tree.measure[anchor] * brute_indicator_integral(tree, w, anchor)
        )
    return total


def naive_eval_on_char_nd(u, vertex):
    """Oracle: summation over every extended index of the finite product."""
    total = 0.0 + 0.0j
    index_sets = []
    for tree, a0 in zip(u.factors, u.anchor):
        entries = []
        for b in range(tree.n_vertices):
            if b == a0:
                entries.append((b, 0))
            if not tree.is_leaf(b):
                try:
                    basis = wavelet_basis(tree, b)
                except Exception:
                    continue
                entries.extend((b, w.j) for w in basis)
        index_sets.append(entries)
    for combo in itertools.product(*index_sets):
        key_vertex = tuple(b for b, _ in combo)
        key_j = tuple(j for _, j in combo)
        c = u.coefficient(key_vertex, key_j)
        if c == 0:
            continue
        term = c
        for i, (b, j) in enumerate(combo):
            tree = u.factors[i]
            if j == 0:
                term *= tree.measure[vertex[i]]
                continue
            w = wavelet_basis(tree, b)[j - 1]
            term *= brute_indicator_integral(tree, w, vertex[i]) - (
                tree.measure[vertex[i]] / tree.measure[u.anchor[i]]
            ) * brute_indicator_integral(tree, w, u.anchor[i])
        total += term
    return total


def scan_eval_on_char_nd(u, vertex):
    """Reference: the closed form summed over every stored coefficient.

    Terms are added in sorted key order and a term outside the closed form's
    range contributes exactly ``0j``.
    """

    def integral(tree, ball, values, target):
        if target == ball or not tree.is_ancestor(ball, target):
            return 0.0 + 0.0j
        return values[tree.child_toward(ball, target)] * tree.measure[target]

    sups = [tree.sup(b, a) for tree, b, a in zip(u.factors, vertex, u.anchor)]
    total = 0.0 + 0.0j
    for (kv, kj), c in sorted(u.coeffs.items(), key=lambda kc: (vertex_key(kc[0][0]), kc[0][1])):
        if c == 0:
            continue
        term = c
        for i, tree in enumerate(u.factors):
            ball, ji = kv[i], kj[i]
            b0, a0, s = vertex[i], u.anchor[i], sups[i]
            if ji == 0:
                term *= tree.measure[b0]
                continue
            above_arg = ball != b0 and tree.is_ancestor(ball, b0)
            above_anchor = ball != a0 and tree.is_ancestor(ball, a0)
            if not ((above_arg or above_anchor) and tree.is_ancestor(s, ball)):
                term = 0.0 + 0.0j
                break
            w = wavelet_basis(tree, ball)[ji - 1]
            term *= integral(tree, ball, w.values, b0) - (
                tree.measure[b0] / tree.measure[a0]
            ) * integral(tree, ball, w.values, a0)
        total += term
    return complex(total)


def bits(z):
    """Exact bit pattern of a complex number (tells -0.0 from 0.0)."""
    return float(z.real).hex(), float(z.imag).hex()


def random_product_function(rng, n, n_keys):
    """Random ``conftest`` factor trees with a random anchor and extended coefficients.

    Keys are drawn at random, so they are inserted in no particular order;
    every seventh one is stored as zero.
    """
    shape = {1: (4, 3), 2: (3, 3), 3: (2, 3)}[n]
    trees = [random_measured_tree(rng, max_depth=shape[0], max_branching=shape[1]) for _ in range(n)]
    inner = [b for b in trees[0].non_leaf_balls() if b != trees[0].root]
    while not inner:
        trees[0] = random_measured_tree(rng, max_depth=shape[0], max_branching=shape[1])
        inner = [b for b in trees[0].non_leaf_balls() if b != trees[0].root]
    # factor 0 anchors strictly between root and leaves; the others anywhere
    anchor = (int(rng.choice(inner)),) + tuple(int(rng.choice(t.n_vertices)) for t in trees[1:])
    entries = []
    for tree, a0 in zip(trees, anchor):
        fam = [(a0, 0)] + [(w.ball, w.j) for w in tree_wavelets(tree)]
        entries.append(fam)
    coeffs = {}
    for _ in range(n_keys):
        combo = [fam[int(rng.integers(len(fam)))] for fam in entries]
        key = (tuple(b for b, _ in combo), tuple(j for _, j in combo))
        coeffs[key] = complex(rng.standard_normal(), rng.standard_normal())
    for key in list(coeffs)[::7]:
        coeffs[key] = 0.0
    return GeneralizedFunction(trees, anchor, coeffs, complex(rng.standard_normal()))


class TestEvalOnChar:
    def test_constant_generalized_function(self):
        t = build_padic_tree(2, 2)
        u = GeneralizedFunction([t], (1,), anchor_value=2.5 - 1.0j)
        for b in range(t.n_vertices):
            assert abs(eval_on_char_nd(u, (b,)) - (2.5 - 1.0j) * t.measure[b]) < 1e-15

    def test_anchor_ball_exact(self):
        t = build_padic_tree(2, 2)
        u = GeneralizedFunction([t], (1,), {(0, 1): 2.0 + 1.0j, (1, 1): -0.7j, (2, 1): 5.0}, 0.3)
        assert eval_on_char_nd(u, (1,)) == 0.3 * t.measure[1]  # cancellation is exact here

    def test_single_coefficient_vs_naive(self):
        t = build_padic_tree(2, 3)
        u = GeneralizedFunction([t], (7,), {(1, 1): 2.0 - 0.5j}, 1.1)
        for b in range(t.n_vertices):
            assert abs(eval_on_char_nd(u, (b,)) - naive_eval_on_char(u, b)) < 1e-12

    def test_zero_measure_anchor_rejected(self):
        t = BallTree([None, 0, 0], [1.0, 1.0, 0.0], [1.0, 0.5, 0.5])
        with pytest.raises(AnchorError):
            GeneralizedFunction([t], (2,), anchor_value=1.0)


class TestPairings:
    def test_biorthogonality(self):
        t = build_padic_tree(3, 2)
        phi = LizorkinSeries(1, {(1, 2): 1.0})
        (target,) = [w for w in tree_wavelets(t) if (w.ball, w.j) == (1, 2)]
        f = TestFunction(t, {x: evaluate(t, target, x) for x in t.leaves})
        assert abs(lizorkin_pair(phi, analyze(t, f)) - 1.0) < 1e-13

    def test_zero_function(self):
        phi = LizorkinSeries(1, {(0, 1): 3.0})
        assert lizorkin_pair(phi, WaveletExpansion(0.0, {})) == 0

    def test_non_mean_zero_rejected(self):
        phi = LizorkinSeries(1, {(0, 1): 1.0})
        with pytest.raises(DomainError):
            lizorkin_pair(phi, WaveletExpansion(1.0, {(0, 1): 1.0}))

    def test_random_pairing_equals_dense_dot(self):
        rng = np.random.default_rng(17)
        t = build_padic_tree(2, 3)
        f = random_leaf_function(rng, t)
        e = analyze(t, f)
        e0 = WaveletExpansion(0.0, e.coeffs)  # drop the mean part
        keys = sorted(e.coeffs)
        phi_coeffs = {
            k: complex(rng.standard_normal(), rng.standard_normal())
            for k in rng.choice(len(keys), size=5, replace=False).tolist()
            for k in [keys[k]]
        }
        phi = LizorkinSeries(1, phi_coeffs)
        dense = sum(phi_coeffs.get(k, 0.0) * e.coeffs[k] for k in keys)
        assert abs(lizorkin_pair(phi, e0) - dense) < 1e-13

    def test_plain_coefficient_mapping(self):
        """Any mapping pairs key by key; a ``(ball, j)`` key is the one-factor shorthand."""
        phi = LizorkinSeries(1, {(0, 1): 2.0, ((1,), (1,)): 1j})
        assert lizorkin_pair(phi, {(0, 1): 3.0, ((1,), (1,)): 2.0, (2, 1): 5.0}) == 6.0 + 2j
        phi = LizorkinSeries(2, {((1, 2), (1, 1)): 2.0, ((0, 0), (1, 1)): -1.0})
        assert lizorkin_pair(phi, {((1, 2), (1, 1)): 0.5j, ((0, 1), (1, 1)): 7.0}) == 1j

    def test_wavelet_index_validation(self):
        with pytest.raises(DomainError):
            LizorkinSeries(1, {(0, 0): 1.0})

    @pytest.mark.parametrize("j", [1.5, 1.0, "1", None])
    def test_non_integer_index_rejected(self, j):
        key = ((0,), (j,))
        with pytest.raises(DomainError, match=f"index .*: j={j!r} is not an integer"):
            LizorkinSeries(1, {key: 1.0})
        with pytest.raises(DomainError, match=f"index .*: j={j!r} is not an integer"):
            LizorkinSeries(2, {((0, 1), (1, j)): 1.0})
        t = build_padic_tree(2, 2)
        with pytest.raises(DomainError, match=f"index .*: j={j!r} is not an integer"):
            GeneralizedFunction([t], [3], {key: 1.0})

    def test_integer_like_indices_kept(self):
        phi = LizorkinSeries(1, {((0,), (np.int64(2),)): 1.0, ((1,), (True,)): 2.0})
        assert phi.coeffs == {((0,), (2,)): 1.0, ((1,), (True,)): 2.0}


class TestEvalNd:
    def test_pure_anchor_term(self):
        t1, t2 = build_padic_tree(2, 2), build_padic_tree(3, 1)
        u = GeneralizedFunction([t1, t2], (1, 0), anchor_value=0.8 + 0.1j)
        for v1 in range(t1.n_vertices):
            for v2 in range(t2.n_vertices):
                expected = (0.8 + 0.1j) * t1.measure[v1] * t2.measure[v2]
                assert abs(eval_on_char_nd(u, (v1, v2)) - expected) < 1e-14

    def test_anchor_vertex_exact(self):
        t1, t2 = build_padic_tree(2, 2), build_padic_tree(2, 2)
        u = GeneralizedFunction(
            [t1, t2],
            (3, 1),
            coeffs={((0, 1), (1, 1)): 2.0, ((1, 1), (1, 0)): -1.0j},
            anchor_value=4.0,
        )
        expected = 4.0 * t1.measure[3] * t2.measure[1]
        assert eval_on_char_nd(u, (3, 1)) == expected

    def test_single_mixed_coefficient_vs_naive(self):
        t1, t2 = build_padic_tree(2, 2), build_padic_tree(3, 1)
        u = GeneralizedFunction(
            [t1, t2],
            (3, 1),
            coeffs={((1, 0), (1, 2)): 1.5 - 2.0j, ((0, 1), (1, 0)): 0.5j},
            anchor_value=-0.2,
        )
        for v in itertools.product(range(t1.n_vertices), range(t2.n_vertices)):
            closed = eval_on_char_nd(u, v)
            naive = naive_eval_on_char_nd(u, v)
            assert abs(closed - naive) < 1e-12

    def test_chain_through_a_degenerate_ball_vs_all_terms(self):
        """Ball 1 of ``DEGENERATE_TREE`` lies between leaf 7 (or 8, or 4) and the anchor 5 and carries no term."""
        rng = np.random.default_rng(31)
        t2 = build_padic_tree(2, 2)
        keys = [((b, c), (1, jc)) for b in (0, 2, 3) for c, jc in ((0, 1), (1, 1), (3, 0))]
        u = GeneralizedFunction([DEGENERATE_TREE, t2], (5, 3),
                                {k: complex(rng.standard_normal(), rng.standard_normal()) for k in keys}, 0.3 - 0.2j)
        for v in itertools.product((7, 8, 4, 3, 1, 6), range(t2.n_vertices)):
            closed = eval_on_char_nd(u, v)
            indicator = [dict.fromkeys(tree.leaves_under(b), 1.0) for tree, b in zip(u.factors, v)]
            assert abs(closed - naive_eval_on_char_nd(u, v)) < 1e-12
            assert abs(closed - eval_on_product(u, indicator)) < 1e-12

    def test_invalid_extended_key_rejected(self):
        t1, t2 = build_padic_tree(2, 1), build_padic_tree(2, 1)
        with pytest.raises(DomainError):
            # j = 0 away from the anchor component
            GeneralizedFunction([t1, t2], (0, 0), coeffs={((1, 0), (0, 1)): 1.0})


class TestPathIndexedPairing:
    @pytest.mark.parametrize("n,seed", [(n, seed) for n in (1, 2, 3) for seed in range(4)])
    def test_equals_all_coefficient_scan_exactly(self, n, seed):
        rng = np.random.default_rng(1000 * n + seed)
        u = random_product_function(rng, n, n_keys=40)
        seen = set()
        for v in itertools.product(*(range(t.n_vertices) for t in u.factors)):
            assert bits(eval_on_char_nd(u, v)) == bits(scan_eval_on_char_nd(u, v)), v
            for tree, b, a in zip(u.factors, v, u.anchor):
                if b != a and tree.is_ancestor(b, a):
                    seen.add("argument contains anchor")
                if b != a and tree.is_ancestor(a, b):
                    seen.add("anchor contains argument")
                seen.add("leaf" if tree.is_leaf(b) else "inner")
                if b == tree.root:
                    seen.add("root")
        assert seen == {"argument contains anchor", "anchor contains argument", "leaf", "inner", "root"}

    def test_numpy_integer_ids(self):
        rng = np.random.default_rng(7)
        u = random_product_function(rng, 2, n_keys=60)
        for v in itertools.product(*(range(t.n_vertices) for t in u.factors)):
            v_np = tuple(np.int64(b) for b in v)
            assert bits(eval_on_char_nd(u, v_np)) == bits(scan_eval_on_char_nd(u, v))

    def test_bad_queries_raise_before_and_after_index(self):
        t1, t2 = build_padic_tree(2, 2), build_padic_tree(3, 1)
        u = GeneralizedFunction([t1, t2], (3, 1), coeffs={((0, 0), (1, 1)): 2.0}, anchor_value=1.0)
        for _ in range(2):  # the same errors before and after a first pairing
            with pytest.raises(ParameterError):
                eval_on_char_nd(u, (0,))
            with pytest.raises(ParameterError):
                eval_on_char_nd(u, (0, 0, 0))
            with pytest.raises(UnknownBallError):
                eval_on_char_nd(u, (0, t2.n_vertices))
            with pytest.raises(UnknownBallError):
                eval_on_char_nd(u, (-1, 0))
            with pytest.raises(UnknownBallError):
                eval_on_char_nd(u, (0.0, 0))
            assert bits(eval_on_char_nd(u, (4, 2))) == bits(scan_eval_on_char_nd(u, (4, 2)))

    def test_coefficients_are_read_only(self):
        t = build_padic_tree(2, 2)
        u = GeneralizedFunction([t], (3,), {(0, 1): 2.0}, 1.0)
        eval_on_char_nd(u, (4,))
        with pytest.raises(TypeError):
            u.coeffs[((1,), (1,))] = 5.0
        assert u.items() == ((((0,), (1,)), 2.0 + 0j), (((3,), (0,)), 1.0 + 0j))
        assert u.wavelet_items() == [(((0,), (1,)), 2.0 + 0j)]


class TestApplyOperator:
    def test_constant_gives_zero_series(self):
        t = build_padic_tree(2, 2)
        u = GeneralizedFunction([t], (0,), anchor_value=3.0)
        sym = TableSymbol({b: 1.0 for b in t.non_leaf_balls()})
        out = apply_operator(u, MultiOperator.single(t, sym))
        assert out.coeffs == {}

    def test_delta_scaling(self):
        t = build_padic_tree(2, 2)
        u = GeneralizedFunction([t], (0,), {(1, 1): 1.0})
        sym = TableSymbol({0: 0.0, 1: 3.0, 2: 0.0})
        out = apply_operator(u, MultiOperator.single(t, sym))
        assert abs(out.coefficient((1,), (1,)) - 3.0 * 0.5) < 1e-15  # lambda_1 = 3*nu(1)

    def test_pairing_against_dense_oracle(self):
        rng = np.random.default_rng(23)
        t = build_padic_tree(2, 2)
        sym = random_table_symbol(rng, t)
        g = random_leaf_function(rng, t)
        gc = analyze(t, g).coeffs
        u = GeneralizedFunction([t], (0,), gc, 1.3)
        f = random_leaf_function(rng, t)
        f_coeffs = analyze(t, f).coeffs
        f0 = synthesize(t, WaveletExpansion(0.0, f_coeffs))
        lhs = lizorkin_pair(apply_operator(u, MultiOperator.single(t, sym)), WaveletExpansion(0.0, f_coeffs))
        # dense route: never touches the eigenvalue formula
        tf = apply_dense(t, sym, f0)
        dense = sum(gc[k] * c for k, c in analyze(t, tf).coeffs.items())
        assert abs(lhs - dense) < 1e-12 * max(1.0, abs(dense))

    @pytest.mark.parametrize("seed", range(12))
    def test_single_factor_operator_scales_by_the_spectrum(self, seed):
        """Bit for bit the one-factor spectral scaling: each coefficient times ``spectrum`` at its ball."""
        rng = np.random.default_rng(1400 + seed)
        t = with_zero_leaves(rng, random_measured_tree(rng, max_depth=4))
        coeffs = {(w.ball, w.j): complex(*rng.standard_normal(2)) for w in tree_wavelets(t)}
        for k, key in enumerate(coeffs):
            coeffs[key] = {0: 0j, 1: -0j}.get(k % 7, coeffs[key])
        anchor = int(rng.choice([b for b in range(t.n_vertices) if t.measure[b] > 0]))
        u = GeneralizedFunction([t], (anchor,), coeffs, complex(rng.standard_normal()))
        scale = complex(*rng.standard_normal(2))
        for sym in (random_table_symbol(rng, t), HomogeneousSymbol(beta=0.5), HomogeneousSymbol(c=scale, beta=1.5)):
            spec = spectrum(t, sym)
            want = {k: spec[k[0][0]] * c for k, c in u.wavelet_items()}
            got = apply_operator(u, MultiOperator.single(t, sym)).coeffs
            assert want and list(got) == list(want)
            assert [bits(z) for z in got.values()] == [bits(z) for z in want.values()]


class TestInvariants:
    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(31)
        t = random_measured_tree(rng, max_depth=3)
        coeffs = {}
        for w in itertools.islice(tree_wavelets(t), 4):
            coeffs[(w.ball, w.j)] = complex(rng.standard_normal(), rng.standard_normal())
        anchor = int(t.leaves[0])
        u1 = GeneralizedFunction([t], (anchor,), coeffs, 0.4)
        u2 = GeneralizedFunction([t], (anchor,), coeffs, 0.4 + 9.3j)
        f = random_leaf_function(rng, t)
        e = analyze(t, f)
        f0 = synthesize(t, WaveletExpansion(0.0, e.coeffs))
        v1, v2 = eval_on_product(u1, [f0.leaf_values()]), eval_on_product(u2, [f0.leaf_values()])
        assert abs(v1 - v2) < 1e-12 * max(1.0, abs(v1))

    def test_anchor_reconstruction(self):
        rng = np.random.default_rng(5)
        t = random_measured_tree(rng, max_depth=3)
        coeffs = {}
        for w in tree_wavelets(t):
            coeffs[(w.ball, w.j)] = complex(rng.standard_normal(), rng.standard_normal())
        anchor = int(t.leaves[1])
        u0 = 1.7 - 0.6j
        u = GeneralizedFunction([t], (anchor,), coeffs, u0)
        assert abs(eval_on_char_nd(u, (anchor,)) - u0 * t.measure[anchor]) < 1e-12
        scale = max(abs(c) for c in coeffs.values())
        for (b, j), c in coeffs.items():
            got = eval_extended(u, (b,), (j,))
            assert abs(got - c) < 1e-12 * max(1.0, scale)

    def test_additivity_over_sibling_balls(self):
        rng = np.random.default_rng(8)
        t = random_measured_tree(rng, max_depth=3)
        coeffs = {}
        for w in itertools.islice(tree_wavelets(t), 5):
            coeffs[(w.ball, w.j)] = complex(rng.standard_normal(), rng.standard_normal())
        u = GeneralizedFunction([t], (t.root,), coeffs, 0.9)
        for ball in t.non_leaf_balls():
            whole = eval_on_char_nd(u, (ball,))
            parts = sum(eval_on_char_nd(u, (c,)) for c in t.children[ball])
            assert abs(whole - parts) < 1e-12 * max(1.0, abs(whole))

    def test_extended_family_full_rank(self):
        t1, t2 = build_padic_tree(2, 2), build_padic_tree(3, 1)
        anchor = (3, 1)
        families = []
        for tree, a0 in zip((t1, t2), anchor):
            fam = [extended_leaf_values(tree, a0, a0, 0)]
            for w in tree_wavelets(tree):
                fam.append(extended_leaf_values(tree, a0, w.ball, w.j))
            families.append(fam)
        rows = []
        for f1, f2 in itertools.product(*families):
            rows.append(
                [
                    f1.get(x1, 0.0) * f2.get(x2, 0.0)
                    for x1 in t1.leaves
                    for x2 in t2.leaves
                ]
            )
        M = np.array(rows, dtype=complex)
        dim = len(t1.leaves) * len(t2.leaves)
        assert M.shape == (dim, dim)
        assert np.linalg.matrix_rank(M) == dim

    def test_filtration_independence(self):
        # the truncated series stabilizes once the member set holds sup and support
        t = build_padic_tree(2, 3)
        u = GeneralizedFunction([t], (8,), {(1, 1): 2.0 + 1.0j}, 0.7)
        target = 11  # leaf under the other root child
        closed = eval_on_char_nd(u, (target,))
        for members in ({0, 1, 2}, {0, 1, 2, 3, 4}, set(range(t.n_vertices))):
            assert abs(naive_eval_on_char(u, target, members=members) - closed) < 1e-12


@settings(max_examples=20)
@given(seed=st.integers(0, 10**9))
def test_random_sparse_closed_vs_naive_1d(seed):
    rng = np.random.default_rng(seed)
    t = random_measured_tree(rng, max_depth=3)
    wavelets = list(tree_wavelets(t))
    coeffs = {}
    for w in rng.choice(len(wavelets), size=min(4, len(wavelets)), replace=False):
        w = wavelets[int(w)]
        coeffs[(w.ball, w.j)] = complex(rng.standard_normal(), rng.standard_normal())
    anchor = int(rng.choice([b for b in range(t.n_vertices) if t.measure[b] > 0]))
    u = GeneralizedFunction([t], (anchor,), coeffs, complex(rng.standard_normal()))
    for ball in rng.choice(t.n_vertices, size=6):
        ball = int(ball)
        closed = eval_on_char_nd(u, (ball,))
        naive = naive_eval_on_char(u, ball)
        assert abs(closed - naive) < 1e-12 * max(1.0, abs(naive))


def per_key_as_nd_key(key):
    vertex, j = key
    if not isinstance(vertex, (tuple, list)):
        vertex = (vertex,)
    if not isinstance(j, (tuple, list)):
        j = (j,)
    return tuple(vertex), tuple(j)


def per_key_stored(factors, anchor, coeffs):
    """Reference: the key-by-key validation loop, every component of every key checked."""
    n = len(factors)
    stored = {}
    for key, c in coeffs.items():
        key = per_key_as_nd_key(key)
        vertex, j = key
        if len(vertex) != n or len(j) != n:
            raise ParameterError(f"key {key} does not have arity {n}")
        for i, (tree, b, ji) in enumerate(zip(factors, vertex, j)):
            ball = tree.check_ball(b)  # operator.index, then the range
            try:
                operator.index(ji)
            except TypeError:
                raise DomainError(f"index {key}: j={ji!r} is not an integer") from None
            if ji == 0:
                if b != anchor[i]:
                    raise DomainError(
                        f"index {key}: j=0 components exist only at the anchor ball of factor {i}"
                    )
            elif ji >= 1:
                if not tree.children[ball]:
                    raise DomainError(f"index {key}: wavelets do not attach to the minimal ball {b}")
                if ji > len(wavelet_basis(tree, ball)):
                    raise DomainError(f"index {key}: no wavelet with index {ji} at ball {b}")
            else:
                raise DomainError(f"index {key}: negative j")
        stored[key] = complex(c)
    return stored


def outcome(build):
    """The repr of what ``build`` returns (types of ids included), or its exception."""
    try:
        return "ok", repr(list(build().items()))
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)


# ball 1 has one positive-measure subball (4 has measure 0): no wavelets attach there
DEGENERATE_TREE = BallTree(
    [None, 0, 0, 1, 1, 2, 2, 3, 3],
    [2.0, 1.0, 1.0, 1.0, 0.0, 0.5, 0.5, 0.25, 0.75],
    [1.0, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25, 0.1, 0.1],
)


def valid_key_set(rng, trees, anchor):
    """Every extended index of the product (a random sample when there are many), shuffled.

    Includes the boundary keys (``j == 0`` on the anchor ball of some factors).
    """
    families = [[(a0, 0)] + [(w.ball, w.j) for w in tree_wavelets(t)] for t, a0 in zip(trees, anchor)]
    combos = list(itertools.product(*families))
    if len(combos) > 1500:
        combos = [combos[int(k)] for k in rng.choice(len(combos), size=1500, replace=False)]
    rng.shuffle(combos)
    coeffs = {}
    for k, combo in enumerate(combos):
        key = (tuple(b for b, _ in combo), tuple(j for _, j in combo))
        coeffs[key] = 0.0 if k % 9 == 0 else complex(rng.standard_normal(), rng.standard_normal())
    return coeffs


def injected_faults(rng, trees, anchor, valid):
    """(name, [(key, value), ...]) entries to insert into a valid key set."""
    n = len(trees)
    i = int(rng.integers(n))
    tree = trees[i]
    b = int(rng.choice(tree.non_leaf_balls()))
    vertex, j = next(iter(valid))

    def at(ball, ji):
        return (vertex[:i] + (ball,) + vertex[i + 1:], j[:i] + (ji,) + j[i + 1:])

    off_anchor = next(x for x in range(tree.n_vertices) if x != anchor[i])
    leaf = tree.leaves[int(rng.integers(len(tree.leaves)))]
    return [
        ("longer vertex", [((vertex + (0,), j), 1.0)]),
        ("shorter j", [((vertex, j[:-1]), 1.0)]),
        ("id past the tree", [(at(tree.n_vertices, 1), 1.0)]),
        ("negative id", [(at(-1, 1), 1.0)]),
        ("numpy ids", [((tuple(np.int64(x) for x in vertex), tuple(np.int64(x) for x in j)), 2.0)]),
        ("bool id", [(at(True, 1), 1.0), (at(False, 1), 1.0)]),
        ("float id", [(at(float(b), 1), 1.0)]),
        ("j = 0 off the anchor", [(at(off_anchor, 0), 1.0)]),
        ("wavelet at a leaf", [(at(leaf, 1), 1.0)]),
        ("j past the basis", [(at(b, len(wavelet_basis(tree, b)) + 1), 1.0)]),
        ("negative j", [(at(b, -1), 1.0)]),
        ("bad key, then bad value", [(at(b, -1), 1.0), (at(b, 1), "not a number")]),
        ("bad value, then bad key", [(at(b, 1), "not a number"), (at(b, -1), 1.0)]),
        ("None value", [(at(b, 1), None)]),
    ]


def with_inserted(rng, coeffs, entries):
    """The key set with the entries at random places; an equal valid key (2 == 2.0 == np.int64(2)) is dropped."""
    replaced = {key for key, _ in entries}
    items = [(key, c) for key, c in coeffs.items() if key not in replaced]
    for entry in entries:
        items.insert(int(rng.integers(len(items) + 1)), entry)
    return dict(items)


class TestComponentValidation:
    """``GeneralizedFunction`` checks distinct components, with the per-key loop as its oracle."""

    @staticmethod
    def random_setup(rng, n, degenerate=False):
        shape = {1: (4, 3), 2: (3, 3), 3: (2, 3)}[n]
        trees = [random_measured_tree(rng, max_depth=shape[0], max_branching=shape[1]) for _ in range(n)]
        if degenerate:
            trees[0] = DEGENERATE_TREE
        anchor = tuple(int(rng.choice(t.n_vertices)) for t in trees)
        return trees, anchor

    @pytest.mark.parametrize("n,seed", [(n, seed) for n in (1, 2, 3) for seed in range(4)])
    def test_valid_key_sets_match_per_key_loop(self, n, seed):
        rng = np.random.default_rng(500 + 10 * n + seed)
        trees, anchor = self.random_setup(rng, n, degenerate=seed == 3)
        coeffs = valid_key_set(rng, trees, anchor)
        assert any(0 in j for _, j in coeffs)
        got = outcome(lambda: GeneralizedFunction(trees, anchor, coeffs).coeffs)
        assert got[0] == "ok"
        assert got == outcome(lambda: per_key_stored(trees, anchor, coeffs))

    @pytest.mark.parametrize("n,seed", [(n, seed) for n in (1, 2, 3) for seed in range(3)])
    def test_injected_faults_match_per_key_loop(self, n, seed):
        rng = np.random.default_rng(700 + 10 * n + seed)
        trees, anchor = self.random_setup(rng, n)
        valid = valid_key_set(rng, trees, anchor)
        for name, entries in injected_faults(rng, trees, anchor, valid):
            coeffs = with_inserted(rng, valid, entries)
            got = outcome(lambda: GeneralizedFunction(trees, anchor, coeffs).coeffs)
            assert got == outcome(lambda: per_key_stored(trees, anchor, coeffs)), name
            if name not in ("numpy ids", "bool id"):
                assert got[0] != "ok", name

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_degenerate_ball_matches_per_key_loop(self, n):
        rng = np.random.default_rng(900 + n)
        trees, anchor = self.random_setup(rng, n, degenerate=True)
        valid = valid_key_set(rng, trees, anchor)
        vertex, j = next(iter(valid))
        bad = ((1,) + vertex[1:], (1,) + j[1:])  # ball 1 of DEGENERATE_TREE
        coeffs = with_inserted(rng, valid, [(bad, 1.0)])
        got = outcome(lambda: GeneralizedFunction(trees, anchor, coeffs).coeffs)
        assert got[0] is DegenerateBallError
        assert got == outcome(lambda: per_key_stored(trees, anchor, coeffs))

    def test_single_factor_shorthand_keys_and_anchor_value(self):
        t = build_padic_tree(3, 2)
        coeffs = {(0, 1): 1.0, ((1,), 2): 2.0, (2, (1,)): 3.0, ((0,), (2,)): 4.0}
        u = GeneralizedFunction([t], (4,), coeffs, anchor_value=0.5)
        assert u.coeffs == {
            ((0,), (1,)): 1.0, ((1,), (2,)): 2.0, ((2,), (1,)): 3.0, ((0,), (2,)): 4.0, ((4,), (0,)): 0.5,
        }

    @pytest.mark.parametrize("j", [1.5, 1.0, np.float64(2.0), "1", None])
    def test_non_integral_j_rejected(self, j):
        t = build_padic_tree(3, 2)
        with pytest.raises(DomainError, match="not an integer"):
            GeneralizedFunction([t], (1,), {((0,), (j,)): 1})

    def test_integer_j_types_accepted(self):
        t = build_padic_tree(3, 2)
        u = GeneralizedFunction([t], (1,), {((0,), (np.int64(2),)): 1, ((1,), (True,)): 2})
        assert u.coeffs == {((0,), (2,)): 1, ((1,), (1,)): 2}


def padic_product_function(rng, ps, n_keys):
    """``GeneralizedFunction`` on padic(p, 2) factors with random extended coefficients.

    Keys 1, 7, 13, ... (in insertion order) are stored as ``0j`` and keys
    4, 10, 16, ... as ``-0j``.
    """
    trees = [build_padic_tree(p, 2) for p in ps]
    anchor = tuple(int(rng.integers(1, t.n_vertices)) for t in trees)
    families = [[(a0, 0)] + [(w.ball, w.j) for w in tree_wavelets(t)] for t, a0 in zip(trees, anchor)]
    coeffs = {}
    for k in range(n_keys):
        combo = [fam[int(rng.integers(len(fam)))] for fam in families]
        key = (tuple(b for b, _ in combo), tuple(j for _, j in combo))
        coeffs[key] = complex(rng.standard_normal(), rng.standard_normal())
    for k, key in enumerate(coeffs):
        if k % 6 == 1:
            coeffs[key] = 0j
        elif k % 6 == 4:
            coeffs[key] = -0j
    return GeneralizedFunction(trees, anchor, coeffs, complex(rng.standard_normal()))


@pytest.mark.parametrize("n,seed", [(n, seed) for n in (1, 2, 3) for seed in range(3)])
def test_pairing_bitwise_on_multi_wavelet_factors(n, seed):
    """p = 3 and p = 5 balls carry several wavelets each; explicit zeros add nothing."""
    rng = np.random.default_rng(300 + 10 * n + seed)
    ps = [(3, 5, 3), (5, 3, 3), (3, 3, 5)][seed][:n]
    u = padic_product_function(rng, ps, n_keys=120)
    assert any(c == 0 and bits(c)[1].startswith("-") for c in u.coeffs.values())
    assert any(c == 0 and not bits(c)[1].startswith("-") for c in u.coeffs.values())
    assert any(key[1][i] >= 2 for key in u.coeffs for i in range(n))
    vertices = list(itertools.product(*(range(t.n_vertices) for t in u.factors)))
    if len(vertices) > 300:
        vertices = [vertices[int(k)] for k in rng.choice(len(vertices), size=300, replace=False)]
    for v in vertices:
        assert bits(eval_on_char_nd(u, v)) == bits(scan_eval_on_char_nd(u, v)), v


class CountingMapping(Mapping):
    """Read-only view of a mapping that counts every lookup made through it."""

    def __init__(self, data):
        self._data = data
        self.lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return self._data[key]

    def get(self, key, default=None):
        self.lookups += 1
        return self._data.get(key, default)

    def __contains__(self, key):
        self.lookups += 1
        return key in self._data

    def __iter__(self):
        raise AssertionError("a pairing must not scan the stored coefficients")

    def __len__(self):
        return len(self._data)


def documented_lookups(u, vertex):
    """prod_i (1 + sum over the strict ancestors b of argument and anchor up to their sup of (#children(b) - 1))."""
    total = 1
    for tree, b0, a0 in zip(u.factors, vertex, u.anchor):
        s = tree.sup(b0, a0)
        path = set()
        for b in (b0, a0):
            while b != s:
                b = tree.parent[b]
                path.add(b)
        total *= 1 + sum(len(tree.children[b]) - 1 for b in path)
    return total


def test_pairing_lookups_do_not_grow_with_stored_coefficients():
    rng = np.random.default_rng(11)
    trees = [build_padic_tree(2, 7), build_padic_tree(2, 7)]
    anchor = (37, 90)
    all_keys = [((a, b), (1, 1)) for a in range(127) for b in range(127)]
    picks = rng.permutation(len(all_keys))
    queries = [(0, 0), (200, 3), (37, 90), (9, 254), (18, 45), (150, 201)]
    counts = []
    for k in (1000, 4000):
        coeffs = {all_keys[int(i)]: complex(rng.standard_normal(), 1.0) for i in picks[:k]}
        u = GeneralizedFunction(trees, anchor, coeffs, anchor_value=2.0)
        expected = [bits(eval_on_char_nd(u, v)) for v in queries]
        counting = CountingMapping(u.coeffs)
        u.coeffs = counting
        assert [bits(eval_on_char_nd(u, v)) for v in queries] == expected
        counts.append(counting.lookups)
    assert counts[0] == counts[1] == sum(documented_lookups(u, v) for v in queries)
    assert counts[0] <= len(queries) * 225


def old_series_key_order(key):
    """The deleted ``_key_order``: TOP above every ball, then j."""
    vertex, j = key
    return tuple((1, 0) if c is TOP else (0, c) for c in vertex), j


class TestLizorkinKeyOrder:
    @pytest.mark.parametrize("n,seed", [(n, seed) for n in (1, 2, 3) for seed in range(3)])
    def test_items_match_old_key_order_on_shuffled_keys(self, n, seed):
        rng = np.random.default_rng(900 + 10 * n + seed)
        coeffs = {}
        for _ in range(60):
            vertex = tuple(int(b) if rng.random() < 0.5 else np.int64(b) for b in rng.integers(0, 9, n))
            j = tuple(True if rng.random() < 0.2 else np.int32(ji) for ji in rng.integers(1, 4, n))
            coeffs[(vertex, j)] = complex(*rng.standard_normal(2))
        keys = list(coeffs)
        rng.shuffle(keys)
        series = LizorkinSeries(n, {k: coeffs[k] for k in keys})
        assert series.items() == sorted(series.coeffs.items(), key=lambda kv: old_series_key_order(kv[0]))

    @pytest.mark.parametrize("ball", ["a", 1.5, TOP, None])
    def test_non_integer_vertex_component_rejected(self, ball):
        with pytest.raises(DomainError, match=r"ball=.* is not an integer"):
            LizorkinSeries(2, {((0, ball), (1, 1)): 1.0})
        with pytest.raises(DomainError, match=r"ball=.* is not an integer"):
            LizorkinSeries(1, {((ball,), (1,)): 1.0})

    def test_numpy_int_vertex_components_accepted(self):
        series = LizorkinSeries(2, {((np.int64(3), np.int32(0)), (1, 1)): 2.0})
        assert series.coefficient((3, 0), (1, 1)) == 2.0


def _stored_or_error(make):
    try:
        return repr(make())
    except Exception as exc:  # the type is the outcome; a shorthand must not fail differently
        return type(exc).__name__


@pytest.mark.parametrize("ball,j", [(np.int64(1), 1), (1, np.int64(1)), (np.int32(2), np.uint8(1)), (1.5, 1),
                                    (1, 1.5), ("ab", 1), (True, 1), (1, True)])
def test_shorthand_key_is_its_full_key(ball, j):
    """A one-factor ``(ball, j)`` key of any id type means ``((ball,), (j,))`` everywhere a key is taken."""
    tree = build_padic_tree(2, 2)
    op = MultiOperator([(tree, HomogeneousSymbol(beta=0.5))], [((0,), 1.0)])
    series = LizorkinSeries(1, {((1,), (1,)): 2.0})
    u = GeneralizedFunction([tree], (3,), {((1,), (1,)): 2.0})
    uses = [
        lambda key: LizorkinSeries(1, {key: 1.0}).coeffs,
        lambda key: GeneralizedFunction([tree], (3,), {key: 1.0}).coeffs,
        lambda key: series.coefficient(*key),
        lambda key: u.coefficient(*key),
        lambda key: CauchyProblem(op, LizorkinSeries(1, {}), anchor=(3,), free_values={key: 1.0}).free_values,
    ]
    for use in uses:
        assert _stored_or_error(lambda: use((ball, j))) == _stored_or_error(lambda: use(((ball,), (j,))))


def per_key_series(n, coeffs):
    """Reference: ``LizorkinSeries``' per-key loop, which raises at the first bad key in insertion order."""
    clean = {}
    for key, c in coeffs.items():
        vertex, j = _as_nd_key(key)
        if len(vertex) != n or len(j) != n:
            raise ParameterError(f"key {key} does not have arity {n}")
        for b in vertex:
            _require_integer(key, "ball", b)
        for ji in j:
            _require_integer(key, "j", ji)
        if any(ji < 1 for ji in j):
            raise DomainError(f"series key {key} is not a wavelet index (every j must be >= 1)")
        clean[(vertex, j)] = complex(c)
    return clean


def series_component(rng, kind, j=False):
    x = int(rng.integers(1, 5))
    return {"int": x, "numpy": np.int64(x), "bool": True, "zero": 0 if j else x, "negative": -x if j else x,
            "float": float(x) + 0.5}[kind]


class TestLizorkinColumnCheck:
    """The column check of ``LizorkinSeries`` against the per-key loop, bit for bit and error for error."""

    @pytest.mark.parametrize("seed", range(40))
    def test_column_check_matches_per_key_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        kinds = ["int"] * 6 + ["numpy", "bool", "zero", "negative", "float", "arity", "short", "plain"]
        coeffs = {}
        for _ in range(int(rng.integers(0, 12))):
            kind = str(rng.choice(kinds)) if rng.random() < 0.3 else "int"
            if kind == "arity":
                key = (tuple(range(1, n + 2)), (1,) * (n + 1))
            elif kind == "short":
                key = ((1,) * n, (1,) * max(n - 1, 0))
            elif kind == "plain":  # a key written as (ball, j): one factor only
                key = (int(rng.integers(0, 5)), int(rng.integers(1, 3)))
            else:
                vertex = tuple(series_component(rng, kind if rng.random() < 0.5 else "int") for _ in range(n))
                j = tuple(series_component(rng, kind if rng.random() < 0.5 else "int", j=True) for _ in range(n))
                key = (vertex, j)
            coeffs[key] = rng.choice([complex(*rng.standard_normal(2)), float(rng.standard_normal()),
                                      int(rng.integers(-3, 3))])
        assert outcome(lambda: LizorkinSeries(n, coeffs).coeffs) == outcome(lambda: per_key_series(n, coeffs))

    @pytest.mark.parametrize("bad", [
        (((1, 2), (1, 0)), DomainError, "not a wavelet index"),
        (((1, 2), (1, -1)), DomainError, "not a wavelet index"),
        (((1, 2, 3), (1, 1, 1)), ParameterError, "arity"),
        (((1, 2.5), (1, 1)), DomainError, "is not an integer"),
    ])
    def test_errors_name_the_first_bad_key_in_insertion_order(self, bad):
        key, error, text = bad
        good = {((k, k + 1), (1, 1)): 1.0 + 0.0j for k in range(5)}
        coeffs = {**dict(list(good.items())[:2]), key: 1.0, ((3, 3), (0, 0)): 1.0, **dict(list(good.items())[2:])}
        with pytest.raises(error, match=text) as info:
            LizorkinSeries(2, coeffs)
        assert str(key) in str(info.value)
        assert repr(LizorkinSeries(2, good).coeffs) == repr(per_key_series(2, good))

    def test_numpy_and_bool_ids_kept_as_given(self):
        coeffs = {((np.int64(1), True), (1, np.int32(2))): 2, ((1, 2), (1, 1)): 1j}
        series = LizorkinSeries(2, coeffs)
        assert repr(list(series.coeffs.items())) == repr(list(per_key_series(2, coeffs).items()))


FAULT_KINDS = ["2**70 ball", "2**70 j", "negative ball", "past the tree", "leaf", "zero measure", "degenerate",
               "j = 0 off the anchor", "j past the basis", "negative j", "longer", "shorter", "bool", "3.0", "numpy"]


def faulty_key(rng, trees, anchor, key, kind):
    """``key`` with one component (or its arity) changed by ``kind``; the change may leave it valid."""
    vertex, j = key
    if kind == "longer":
        return vertex + (0,), j + (1,)
    if kind == "shorter":
        return vertex[:-1], j[:-1]
    i = int(rng.integers(len(trees)))
    tree, a0 = trees[i], anchor[i]

    def pick(balls):
        return balls[int(rng.integers(len(balls)))]

    sizes = {w.ball: w.j for w in tree_wavelets(tree)}  # the last index at a ball is its basis size
    w = pick(list(sizes) or [a0])
    leaf = pick(tree.leaves)
    non_leaf = tree.non_leaf_balls()
    degenerate = [b for b in non_leaf if b not in sizes] or [leaf]
    ball, ji = {
        "2**70 ball": (2**70, 1),
        "2**70 j": (w, 2**70),
        "negative ball": (-1, 1),
        "past the tree": (tree.n_vertices, 1),
        "leaf": (leaf, 1),
        "zero measure": (pick(sorted(tree.zero_measure) or [leaf]), int(rng.integers(0, 2))),
        "degenerate": (pick(degenerate), 1),
        "j = 0 off the anchor": (pick([b for b in range(tree.n_vertices) if b != a0]), 0),
        "j past the basis": (w, sizes.get(w, 0) + 1),
        "negative j": (w, -1),
        "bool": pick([(vertex[i], True), (True, j[i])]),
        "3.0": pick([(float(vertex[i]), j[i]), (vertex[i], float(j[i]))]),
        "numpy": (np.int64(vertex[i]), np.int32(j[i])),
    }[kind]
    return vertex[:i] + (ball,) + vertex[i + 1:], j[:i] + (ji,) + j[i + 1:]


class TestIdColumns:
    """The int64 id-column check against the per-key loops ``per_key_stored`` and ``per_key_series``.

    On io records, whose loader brings the columns (``KeyColumns``), and on
    plain keys, whose columns come from the keys.  Trees have zero-measure
    leaves, and factor 0 is sometimes ``DEGENERATE_TREE``.
    """

    @staticmethod
    def cases(rng, n, kinds):
        """(trees, anchor, coeffs, kind): per tree set, the valid keys and each kind injected once or twice."""
        for _ in range(3):
            trees = [with_zero_leaves(rng, random_measured_tree(rng, max_depth=3, max_branching=3)) for _ in range(n)]
            if rng.random() < 0.4:
                trees[0] = DEGENERATE_TREE
            anchor = tuple(int(rng.choice([b for b in range(t.n_vertices) if t.measure[b] > 0])) for t in trees)
            valid = dict(list(valid_key_set(rng, trees, anchor).items())[:60])
            keys = list(valid)
            for kind in [None, *kinds]:
                entries = [] if kind is None else [
                    (faulty_key(rng, trees, anchor, keys[int(rng.integers(len(keys)))], kind),
                     complex(rng.standard_normal(), 1.0)) for _ in range(int(rng.integers(1, 3)))]
                yield trees, anchor, with_inserted(rng, valid, entries), kind

    @staticmethod
    def records(coeffs, ball_form):
        """The JSON records of ``coeffs`` as a file holds them (``{ball, j}`` when ``ball_form``)."""
        recs = [{"ball": v[0], "j": j[0]} if ball_form else {"vertex": list(v), "j": list(j)} for v, j in coeffs]
        for rec, c in zip(recs, coeffs.values()):
            rec.update(re=complex(c).real, im=complex(c).imag)
        return json.loads(json.dumps(recs))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_records_match_per_key_loops(self, n):
        rng = np.random.default_rng(1200 + n)
        seen = set()
        for trees, anchor, coeffs, kind in self.cases(rng, n, [k for k in FAULT_KINDS if k != "numpy"]):
            for ball_form in {False, n == 1 and kind not in ("longer", "shorter")}:
                records = self.records(coeffs, ball_form)
                got = outcome(lambda: GeneralizedFunction(trees, anchor, _coeff_records(records, "f")).coeffs)
                assert got == outcome(lambda: per_key_stored(trees, anchor, _strict_coeff_records(records, "f"))), kind
                series = outcome(lambda: LizorkinSeries(n, _coeff_records(records, "f")).coeffs)
                assert series == outcome(lambda: per_key_series(n, _strict_coeff_records(records, "f"))), kind
                if kind not in ("2**70 ball", "2**70 j", "longer", "shorter", "bool", "3.0"):
                    assert isinstance(_coeff_records(records, "f"), KeyColumns), kind
                seen.update((got[0], series[0]))
        assert {"ok", FileFormatError, ParameterError, UnknownBallError, DomainError} <= seen

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_plain_keys_match_per_key_loops(self, n):
        rng = np.random.default_rng(1300 + n)
        seen = set()
        for trees, anchor, coeffs, kind in self.cases(rng, n, FAULT_KINDS):
            got = outcome(lambda: GeneralizedFunction(trees, anchor, coeffs).coeffs)
            assert got == outcome(lambda: per_key_stored(trees, anchor, coeffs)), kind
            series = outcome(lambda: LizorkinSeries(n, coeffs).coeffs)
            assert series == outcome(lambda: per_key_series(n, coeffs)), kind
            seen.update((got[0], series[0]))
        assert {"ok", ParameterError, UnknownBallError, DomainError} <= seen

    def test_degenerate_ball_matches_per_key_loop_on_both_paths(self):
        coeffs = {((0,), (1,)): 1.0, ((1,), (1,)): 2.0}  # ball 1 of DEGENERATE_TREE has one positive-measure subball
        records = self.records(coeffs, ball_form=False)
        for given in (coeffs, _coeff_records(records, "f")):
            got = outcome(lambda: GeneralizedFunction([DEGENERATE_TREE], (2,), given).coeffs)
            assert got[0] is DegenerateBallError
            assert got == outcome(lambda: per_key_stored([DEGENERATE_TREE], (2,), coeffs))


ID_TYPES = [int, np.int64, np.int32, bool, np.uint8]


def with_id_types(coeffs):
    """``coeffs`` with its ids cast in turn to each of ``ID_TYPES`` (``bool`` only for ids 0 and 1)."""
    def cast(k, x):
        t = ID_TYPES[k % len(ID_TYPES)]
        return t(x) if t is not bool or x < 2 else x
    return {(tuple(cast(k + i, b) for i, b in enumerate(v)), tuple(cast(k + i + 1, x) for i, x in enumerate(j))): c
            for k, ((v, j), c) in enumerate(coeffs.items())}


class TestKeptColumns:
    """The id columns a container keeps are its keys' ids row for row, and ``items()`` is sorted tuple order."""

    @staticmethod
    def check(obj):
        balls, js = obj._columns
        assert balls.tolist() == [list(map(operator.index, v)) for v, _ in obj.coeffs]
        assert js.tolist() == [list(map(operator.index, j)) for _, j in obj.coeffs]
        assert tuple(obj.items()) == tuple(sorted(obj.coeffs.items(), key=operator.itemgetter(0)))

    @staticmethod
    def key_sets(rng, n):
        """(trees, anchor, coeffs, the anchor key): valid keys without and with the anchor key stored."""
        for _ in range(3):
            trees = [random_measured_tree(rng, max_depth=3, max_branching=3) for _ in range(n)]
            anchor = tuple(int(rng.choice([b for b in range(t.n_vertices) if t.measure[b] > 0])) for t in trees)
            anchor_key = (anchor, (0,) * n)
            valid = {k: c for k, c in list(valid_key_set(rng, trees, anchor).items())[:80] if k != anchor_key}
            yield trees, anchor, valid, anchor_key
            yield trees, anchor, with_inserted(rng, valid, [(anchor_key, 2.5 - 1j)]), anchor_key

    @staticmethod
    def series_of(coeffs):
        return {key: c for key, c in coeffs.items() if all(ji >= 1 for ji in key[1])}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_anchor_key_stored_or_not_and_any_id_type(self, n):
        rng = np.random.default_rng(1500 + n)
        for trees, anchor, coeffs, anchor_key in self.key_sets(rng, n):
            for given in (coeffs, with_id_types(coeffs)):
                for anchor_value in (None, 1.5j):
                    u = GeneralizedFunction(trees, anchor, given, anchor_value)
                    self.check(u)
                    assert (anchor_key in u.coeffs) == (anchor_key in coeffs or anchor_value is not None)
                self.check(LizorkinSeries(n, self.series_of(given)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_repeated_record_keeps_its_first_position_and_last_value(self, n):
        rng = np.random.default_rng(1600 + n)
        for trees, anchor, coeffs, anchor_key in self.key_sets(rng, n):
            k = int(rng.choice([k for k, key in enumerate(coeffs) if key != anchor_key]))
            records = TestIdColumns.records(coeffs, ball_form=False)
            records.append({**records[k], "re": -0.0, "im": 7.0})
            loaded = _coeff_records(records, "f")
            assert isinstance(loaded, KeyColumns) and len(loaded.balls) == len(loaded) + 1
            for anchor_value in (None, 1.5j):
                u = GeneralizedFunction(trees, anchor, loaded, anchor_value)
                self.check(u)
                key = list(coeffs)[k]
                assert list(u.coeffs).index(key) == k and repr(u.coeffs[key]) == "(-0+7j)"

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_key_by_key_path(self, n, monkeypatch):
        """When the column check sends the keys one by one, the columns come from the stored keys."""
        monkeypatch.setattr(GeneralizedFunction, "_columns_ok", lambda self, balls, js: False)
        monkeypatch.setattr(LizorkinSeries, "_columns_ok", staticmethod(lambda balls, js: False))
        rng = np.random.default_rng(1700 + n)
        for trees, anchor, coeffs, _ in self.key_sets(rng, n):
            for anchor_value in (None, 1.5j):
                self.check(GeneralizedFunction(trees, anchor, with_id_types(coeffs), anchor_value))
            self.check(LizorkinSeries(n, self.series_of(coeffs)))

    def test_series_needs_a_factor(self):
        with pytest.raises(ParameterError, match="^a series needs at least one factor$"):
            LizorkinSeries(0, {((), ()): 1.0})

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_series_ids_beyond_int64(self, n):
        """A series accepts any integer ball id; past int64 its columns hold Python ints, in the same order."""
        rng = np.random.default_rng(1800 + n)
        ids = [2**70, -2**70, 2**63, -1, 0, 5]
        coeffs = {tuple(int(rng.choice(ids)) for _ in range(n)): 1.0 for _ in range(12)}
        series = LizorkinSeries(n, {(v, (int(rng.integers(1, 3)),) * n): c for v, c in coeffs.items()})
        assert series._columns[0].dtype == object
        self.check(series)


def extended_leaf_values(tree, anchor_ball, ball, j, conjugate=False):
    """Oracle: leaf values of one extended family member of a factor.

    ``j >= 1`` selects a wavelet at ``ball`` (the zero function at a leaf);
    ``j == 0`` is the anchor indicator when ``ball`` is the anchor and the
    zero function otherwise.
    """
    ball = tree.check_ball(ball)
    _require_integer((ball, j), "j", j)
    if j < 0:
        raise DomainError(f"index {(ball, j)}: negative j")
    if j == 0:
        return dict.fromkeys(tree.leaves_under(anchor_ball), 1.0 + 0.0j) if ball == anchor_ball else {}
    if not tree.children[ball]:
        return {}
    basis = wavelet_basis(tree, ball)
    if not 1 <= j <= len(basis):
        raise DomainError(f"no wavelet with index {j} at ball {ball}")
    out = {}
    for child, val in basis[j - 1].values.items():
        v = complex(val).conjugate() if conjugate else complex(val)
        if v != 0:
            out.update(dict.fromkeys(tree.leaves_under(child), v))
    return out


def leaf_enumerating_eval_on_product(u, factor_values):
    """``eval_on_product`` as it was: leaf sums under every child, for every stored coefficient.

    Returns the value and the sum of the magnitudes of its terms, where a
    term's magnitude multiplies, per factor, the magnitudes of every leaf
    term of its integrals: the scale of the rounding error of any order of
    summation.
    """
    def leaves(tree, b):
        kids = tree.children[b]
        return [b] if not kids else [x for c in kids for x in leaves(tree, c)]

    def child_toward(tree, b, d):  # the child of b on the path to d, or None when d is not below b
        while d is not None and tree.parent[d] != b:
            d = tree.parent[d]
        return d

    def mass(tree, fv, xs, magnitude=False):
        return sum((abs if magnitude else complex)(fv.get(x, 0.0)) * tree.measure[x] for x in xs)

    masses = [mass(t, fv, sorted(fv)) for t, fv in zip(u.factors, factor_values)]
    total, scale = 0j, 0.0
    for (kv, kj), c in u.items():
        term, size = c, abs(c)
        for tree, fv, a0, m, b, j in zip(u.factors, factor_values, u.anchor, masses, kv, kj):
            m_abs = mass(tree, fv, sorted(fv), magnitude=True)
            if j == 0:
                term, size = term * m, size * m_abs
                continue
            w = wavelet_basis(tree, b)[j - 1].values
            integral = sum(w[ch] * mass(tree, fv, leaves(tree, ch)) for ch in tree.children[b])
            integral_abs = sum(abs(w[ch]) * mass(tree, fv, leaves(tree, ch), True) for ch in tree.children[b])
            toward = child_toward(tree, b, a0)
            anchored = 0j if toward is None else w[toward] * tree.measure[a0]
            term *= integral - m / tree.measure[a0] * anchored
            size *= integral_abs + m_abs / tree.measure[a0] * abs(anchored)
        total += term
        scale += size
    return total, scale


@pytest.mark.parametrize("n,seed", [(n, seed) for n in (1, 2, 3) for seed in range(4)])
def test_term_factor_tables_match_leaf_enumeration(n, seed):
    """eval_on_product and eval_extended agree with the leaf sums to 1e-12 of their scale.

    At n = 1 the test function also comes as a ``TestFunction`` and as a synthesized expansion.
    """
    rng = np.random.default_rng(500 + 10 * n + seed)
    u = random_product_function(rng, n, n_keys=80)

    def close(got, want):
        value, scale = want
        assert abs(got - value) <= 1e-12 * scale, (got, value, scale)

    full = [{x: complex(rng.standard_normal(), rng.standard_normal()) for x in t.leaves} for t in u.factors]
    partial = [{x: z for x, z in fv.items() if rng.random() < 0.5} for fv in full]
    for fvs in (full, partial):
        close(eval_on_product(u, fvs), leaf_enumerating_eval_on_product(u, fvs))
    keys = list(u.coeffs)
    stored = [keys[int(k)] for k in rng.choice(len(keys), size=min(15, len(keys)), replace=False)]
    # Members u stores nothing at: unstored wavelet and anchor keys, j = 0 off the anchor ball
    # (the root) and j = 1 at a leaf.  Their value is 0.
    families = [[(a0, 0), (t.root, 0), (t.leaves[0], 1)] + [(w.ball, w.j) for w in tree_wavelets(t)]
                for t, a0 in zip(u.factors, u.anchor)]
    members = [(tuple(v), tuple(j)) for v, j in (zip(*m) for m in itertools.product(*families))]
    unstored = [key for key in members if key not in u.coeffs]
    unstored = [unstored[int(k)] for k in rng.choice(len(unstored), size=min(8, len(unstored)), replace=False)]
    for vertex, j in stored + unstored:
        fvs = [extended_leaf_values(t, a0, b, ji, conjugate=True)
               for t, a0, b, ji in zip(u.factors, u.anchor, vertex, j)]
        close(eval_extended(u, vertex, j), leaf_enumerating_eval_on_product(u, fvs))
    assert all(eval_extended(u, vertex, j) == 0j for vertex, j in unstored)
    if n == 1:
        tree = u.factors[0]
        f = TestFunction(tree, full[0])
        close(eval_on_product(u, [f.leaf_values()]), leaf_enumerating_eval_on_product(u, full))
        e = analyze(tree, f)
        close(eval_on_product(u, [synthesize(tree, e).leaf_values()]),
              leaf_enumerating_eval_on_product(u, [synthesize(tree, e).values]))


class TestExtendedInputChecks:
    """``eval_extended`` rejects input that does not fit ``u``, factor by factor."""

    @staticmethod
    def two_factor():
        t = build_padic_tree(2, 2)
        return GeneralizedFunction([t, t], (3, 3), {((1, 2), (1, 1)): 1.0 + 2.0j}, 0.5)

    @pytest.mark.parametrize("vertex,j,message", [
        ((0, 0, 5), (1, 1, 1), "vertex arity 3 does not match 2 factors"),
        ((0,), (1,), "vertex arity 1 does not match 2 factors"),
        ((0, 0), (1, 1, 1), "j arity 3 does not match 2 factors"),
    ])
    def test_arity_mismatch(self, vertex, j, message):
        with pytest.raises(ParameterError, match=message):
            eval_extended(self.two_factor(), vertex, j)

    def test_unknown_ball(self):
        with pytest.raises(UnknownBallError):
            eval_extended(self.two_factor(), (99, 0), (0, 1))

    def test_negative_j_at_a_leaf(self):
        with pytest.raises(DomainError, match="negative j"):
            eval_extended(self.two_factor(), (3, 0), (-1, 1))

    def test_non_integer_j(self):
        with pytest.raises(DomainError, match="is not an integer"):
            eval_extended(self.two_factor(), (0, 0), (1.0, 1))

    def test_j_past_the_basis(self):
        with pytest.raises(DomainError, match="no wavelet with index 2 at ball 1"):
            eval_extended(self.two_factor(), (1, 2), (2, 1))

    def test_j_at_a_degenerate_ball(self):
        u = GeneralizedFunction([DEGENERATE_TREE], (2,), {((0,), (1,)): 1.0})
        with pytest.raises(DegenerateBallError):
            eval_extended(u, (1,), (1,))

    @pytest.mark.parametrize("vertex,j,error,message", [
        ((99, 0), (-1, 1), UnknownBallError, "ball id 99"),  # factor 0's ball before its j
        ((0, 99), (-1, 1), DomainError, "negative j"),  # factor 0's j before factor 1's ball
        ((0, 0), (2, 1.5), DomainError, "no wavelet with index 2"),  # factor 0's basis before factor 1's j
    ])
    def test_checks_run_factor_by_factor(self, vertex, j, error, message):
        with pytest.raises(error, match=message):
            eval_extended(self.two_factor(), vertex, j)

    def test_leaf_and_off_anchor_members_are_zero(self):
        u = self.two_factor()
        assert eval_extended(u, (4, 2), (1, 1)) == 0j  # a wavelet index at a leaf
        assert eval_extended(u, (1, 2), (0, 1)) == 0j  # j = 0 off the anchor ball
        assert eval_extended(u, (3, 3), (0, 0)) == 0.5 * 0.25 * 0.25

    def test_spectrum_of_another_tree(self):
        t = build_padic_tree(2, 3)
        u = GeneralizedFunction([t], (7,), {(5, 1): 1.0})
        small = build_padic_tree(2, 2)
        same_shape = BallTree(t.parent, [2.0 * m for m in t.measure], t.diameter)  # other measures
        for other in (small, same_shape, build_padic_tree(2, 3)):
            op = MultiOperator.single(other, TableSymbol({b: 1.0 for b in other.non_leaf_balls()}))
            with pytest.raises(DomainError, match="factor 0 of the operator acts on another tree"):
                apply_operator(u, op)
        sym = TableSymbol({b: 1.0 for b in t.non_leaf_balls()})
        u2 = GeneralizedFunction([t, t], (7, 7), {((5, 5), (1, 1)): 1.0})
        with pytest.raises(DomainError, match="factor 1 of the operator acts on another tree"):
            apply_operator(u2, MultiOperator([(t, sym), (same_shape, sym)], [((0, 1), 1.0)]))
        with pytest.raises(ParameterError, match="operator arity 2 does not match 1 factors"):
            apply_operator(u, MultiOperator([(t, sym), (t, sym)], [((0,), 1.0)]))
        with pytest.raises(ParameterError, match="operator arity 1 does not match 2 factors"):
            apply_operator(u2, MultiOperator.single(t, sym))
