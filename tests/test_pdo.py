import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_leaf_function, random_measured_tree, random_table_symbol
from ultrawave.errors import DivergenceError, DomainError, NonFiniteError, ParameterError, UnsupportedTailError
from ultrawave.operators import (
    HomogeneousSymbol,
    TableSymbol,
    apply_dense,
    eigenvalue,
    operator_matrix,
    spectrum,
)
from ultrawave.products import MultiOperator
from ultrawave.trees import BallTree, build_padic_tree
from ultrawave.wavelets import TestFunction, evaluate, tree_wavelets


def wavelet_vector(tree, w):
    return np.array([evaluate(tree, w, x) for x in tree.leaves])


def tail_partial_sums(p, beta, c, terms):
    """Independent oracle: partial sums of the upward extension series."""
    out = []
    total = 0.0
    for k in range(1, terms + 1):
        total += c * float(p) ** (-k * beta) * (float(p) ** k - float(p) ** (k - 1))
        out.append(total)
    return out


class TestEigenvalue:
    def test_root_of_depth_one(self):
        t = build_padic_tree(2, 1)
        c = 0.3 - 1.7j
        sym = TableSymbol({t.root: c})
        assert eigenvalue(t, sym, t.root) == c  # empty ancestor sum

    @pytest.mark.parametrize("beta", [-1.0, 0.5, 2.0])
    def test_depth_two_homogeneous_vs_dense(self, beta):
        t = build_padic_tree(2, 2)
        sym = HomogeneousSymbol(beta=beta)
        lam = eigenvalue(t, sym, 1)
        assert abs(lam - (2.0 ** (beta - 1) + 0.5)) < 1e-12
        ws = [w for w in tree_wavelets(t) if w.ball == 1]
        for w in ws:
            f = TestFunction(t, dict(zip(t.leaves, wavelet_vector(t, w))))
            g = apply_dense(t, sym, f)
            ratio_err = np.abs(g.leaf_vector() - lam * f.leaf_vector()).max()
            assert ratio_err < 1e-12 * abs(lam)

    def test_leaf_rejected(self):
        t = build_padic_tree(2, 1)
        with pytest.raises(ParameterError):
            eigenvalue(t, HomogeneousSymbol(beta=1.0), 1)


class TestApplyDense:
    def test_constant_killed(self):
        t = build_padic_tree(3, 2)
        sym = TableSymbol({b: 2.0 + 1.0j for b in t.non_leaf_balls()})
        f = TestFunction(t, {x: 1.0 + 0.0j for x in t.leaves})
        out = apply_dense(t, sym, f)
        assert np.abs(out.leaf_vector()).max() <= 1e-12 * 2.5

    def test_depth_one_wavelet(self):
        # two leaves of measure 1/2: T(root)*(psi(x1)-psi(x2))*(1/2) = c*psi(x1)
        t = build_padic_tree(2, 1)
        c = 1.5 + 0.25j
        sym = TableSymbol({t.root: c})
        (w,) = list(tree_wavelets(t))
        f = TestFunction(t, {x: evaluate(t, w, x) for x in t.leaves})
        out = apply_dense(t, sym, f)
        expected = c * f.leaf_vector()
        assert np.abs(out.leaf_vector() - expected).max() < 1e-14 * abs(c)

    def test_another_tree_is_refused(self):
        t = build_padic_tree(2, 3)
        sym = TableSymbol({b: 1.0 for b in t.non_leaf_balls()})
        for other in (build_padic_tree(3, 2), build_padic_tree(2, 3)):  # other leaf count, same leaf count
            f = TestFunction(other, dict.fromkeys(other.leaves, 1.0))
            with pytest.raises(DomainError, match="another tree"):
                apply_dense(t, sym, f)

    def test_vladimirov_type_on_ternary_tree(self):
        t = build_padic_tree(3, 3)
        sym = HomogeneousSymbol(beta=0.8)
        for w in tree_wavelets(t):
            lam = eigenvalue(t, sym, w.ball)
            f = TestFunction(t, dict(zip(t.leaves, wavelet_vector(t, w))))
            out = apply_dense(t, sym, f)
            err = np.abs(out.leaf_vector() - lam * f.leaf_vector()).max()
            assert err <= 1e-10 * abs(lam) * np.abs(f.leaf_vector()).max()


class TestSpectrum:
    def test_two_level_table(self):
        t = build_padic_tree(2, 2)
        sym = TableSymbol({0: 1.0, 1: 0.0, 2: 0.0})
        spec = spectrum(t, sym)
        assert abs(spec[0] - 1.0) < 1e-15
        assert abs(spec[1] - 0.5) < 1e-15
        assert abs(spec[2] - 0.5) < 1e-15
        # cross-check against the dense kernel application
        for w in tree_wavelets(t):
            f = TestFunction(t, dict(zip(t.leaves, wavelet_vector(t, w))))
            out = apply_dense(t, sym, f)
            err = np.abs(out.leaf_vector() - spec[w.ball] * f.leaf_vector()).max()
            assert err < 1e-12

    def test_zero_symbol(self):
        t = build_padic_tree(2, 3)
        spec = spectrum(t, TableSymbol({b: 0.0 for b in t.non_leaf_balls()}))
        assert all(v == 0 for _, v in spec.items())

    def test_level_symmetry(self):
        t = build_padic_tree(3, 2)
        spec = spectrum(t, HomogeneousSymbol(beta=0.4))
        kids = t.children[t.root]
        assert abs(spec[kids[0]] - spec[kids[1]]) < 1e-15
        assert abs(spec[kids[0]] - spec[kids[2]]) < 1e-15


class TestConvergence:
    def test_finite_tree_always_converges(self):
        t = build_padic_tree(2, 2)
        spec = spectrum(t, TableSymbol({b: 9.0 for b in t.non_leaf_balls()}))
        assert all(cmath.isfinite(lam) for lam in spec.values())

    @pytest.mark.parametrize("beta", [0.5, 2.0])
    def test_tail_direction_matches_partial_sums(self, beta):
        # oracle first: the partial sums decide which tails converge
        sums = tail_partial_sums(2, beta, 1.0, 60)
        increments = [abs(b - a) for a, b in zip(sums, sums[1:])]
        oracle_converges = increments[-1] < 1e-9 and increments[-1] < increments[0]
        t = build_padic_tree(2, 3)
        try:
            eigenvalue(t, HomogeneousSymbol(beta=beta, tail=True), t.root)
            diverges = False
        except DivergenceError:
            diverges = True
        assert diverges == (not oracle_converges)
        assert oracle_converges == (beta > 1)

    def test_tail_value_matches_partial_sums(self):
        t = build_padic_tree(2, 2)
        lam_plain = eigenvalue(t, HomogeneousSymbol(beta=2.0), t.root)
        lam_tail = eigenvalue(t, HomogeneousSymbol(beta=2.0, tail=True), t.root)
        limit = tail_partial_sums(2, 2.0, 1.0, 200)[-1]
        assert abs((lam_tail - lam_plain) - limit) < 1e-12

    def test_divergent_tail_raises(self):
        t = build_padic_tree(2, 2)
        with pytest.raises(DivergenceError):
            eigenvalue(t, HomogeneousSymbol(beta=0.5, tail=True), t.root)

    def test_tail_needs_padic_tree(self):
        rng = np.random.default_rng(5)
        t = random_measured_tree(rng, max_depth=2)
        with pytest.raises(UnsupportedTailError):
            eigenvalue(t, HomogeneousSymbol(beta=2.0, tail=True), t.root)


@settings(max_examples=25)
@given(seed=st.integers(0, 10**9))
def test_eigenfunction_property_random(seed):
    rng = np.random.default_rng(seed)
    t = random_measured_tree(rng)
    sym = random_table_symbol(rng, t)
    M = operator_matrix(t, sym)
    scale = max(abs(v) for v in sym.entries.values()) * t.total_measure
    for w in tree_wavelets(t):
        vec = wavelet_vector(t, w)
        lam = eigenvalue(t, sym, w.ball)
        err = np.abs(M @ vec - lam * vec).max()
        assert err <= 1e-10 * max(abs(lam), scale) * np.abs(vec).max()


@settings(max_examples=20)
@given(seed=st.integers(0, 10**9))
def test_apply_dense_linearity(seed):
    rng = np.random.default_rng(seed)
    t = random_measured_tree(rng, max_depth=3)
    sym = random_table_symbol(rng, t)
    f = random_leaf_function(rng, t)
    g = random_leaf_function(rng, t)
    a = complex(rng.standard_normal(), rng.standard_normal())
    combo = TestFunction(t, {x: a * f.values[x] + g.values[x] for x in t.leaves})
    lhs = apply_dense(t, sym, combo).leaf_vector()
    rhs = a * apply_dense(t, sym, f).leaf_vector() + apply_dense(t, sym, g).leaf_vector()
    scale = max(np.abs(lhs).max(), np.abs(rhs).max(), 1.0)
    assert np.abs(lhs - rhs).max() < 1e-12 * scale


@settings(max_examples=25)
@given(seed=st.integers(0, 10**9))
def test_parent_recursion(seed):
    # lambda_I = lambda_P + T(I) nu(I) - T(P) nu(I), an algebraic consequence
    rng = np.random.default_rng(seed)
    t = random_measured_tree(rng)
    sym = random_table_symbol(rng, t)
    scale = max(abs(eigenvalue(t, sym, b)) for b in t.non_leaf_balls())
    for b in t.non_leaf_balls():
        p = t.parent[b]
        if p is None:
            continue
        lam = eigenvalue(t, sym, b)
        rec = (
            eigenvalue(t, sym, p)
            + sym.value(t, b) * t.measure[b]
            - sym.value(t, p) * t.measure[b]
        )
        assert abs(lam - rec) <= 1e-12 * max(scale, 1.0)


# -- the one-pass spectrum against the per-ball eigenvalue sum ----------------


def relabeled(rng, tree, perm=None):
    """The same tree with vertex v renamed ``perm[v]`` (default: a random permutation)."""
    n = tree.n_vertices
    if perm is None:
        perm = [int(i) for i in rng.permutation(n)]
    parent, measure, diameter = [None] * n, [0.0] * n, [0.0] * n
    for v in range(n):
        p = tree.parent[v]
        parent[perm[v]] = None if p is None else perm[p]
        measure[perm[v]] = tree.measure[v]
        diameter[perm[v]] = tree.diameter[v]
    return BallTree(parent, measure, diameter)


class CountingSymbol:
    """Wraps a symbol and counts its ``value`` calls per ball."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = {}

    def value(self, tree, ball):
        self.calls[ball] = self.calls.get(ball, 0) + 1
        return self.inner.value(tree, ball)


def assert_matches_eigenvalues(tree, symbol):
    spec = spectrum(tree, symbol)
    want = {b: eigenvalue(tree, symbol, b) for b in tree.non_leaf_balls()}
    assert type(spec) is dict
    assert list(spec) == list(tree.non_leaf_balls()) == sorted(want)
    scale = max(abs(v) for v in want.values())
    for b, lam in want.items():
        assert type(spec[b]) is complex
        assert abs(spec[b] - lam) <= 1e-13 * scale


class TestOnePassSpectrum:
    @settings(max_examples=40)
    @given(seed=st.integers(0, 10**9))
    def test_table_symbols_random_trees(self, seed):
        rng = np.random.default_rng(seed)
        t = random_measured_tree(rng, max_depth=6)
        assert_matches_eigenvalues(t, random_table_symbol(rng, t))
        u = relabeled(rng, t)
        assert_matches_eigenvalues(u, random_table_symbol(rng, u))

    @pytest.mark.parametrize("p,depth", [(2, 9), (3, 5), (5, 3)])
    @pytest.mark.parametrize("beta,tail", [(0.5, False), (1.7, True), (1.7, False), (3.0, True)])
    def test_homogeneous_symbols(self, p, depth, beta, tail):
        t = build_padic_tree(p, depth)
        assert_matches_eigenvalues(t, HomogeneousSymbol(c=0.7 - 0.2j, beta=beta, tail=tail))
        assert_matches_eigenvalues(t, HomogeneousSymbol(c=2.0, beta=beta, tail=beta > 1.0))

    def test_homogeneous_symbol_on_relabeled_random_tree(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            t = relabeled(rng, random_measured_tree(rng, max_depth=5))
            assert_matches_eigenvalues(t, HomogeneousSymbol(c=-1.5j, beta=0.8))

    def test_one_symbol_value_per_non_leaf_ball(self):
        rng = np.random.default_rng(8)
        t = relabeled(rng, random_measured_tree(rng, max_depth=5))
        sym = CountingSymbol(random_table_symbol(rng, t))
        spectrum(t, sym)
        assert sym.calls == {b: 1 for b in t.non_leaf_balls()}

    def test_divergent_tail_raises_like_eigenvalue(self):
        t = build_padic_tree(2, 3)
        sym = HomogeneousSymbol(beta=0.5, tail=True)
        with pytest.raises(DivergenceError) as per_ball:
            eigenvalue(t, sym, t.root)
        with pytest.raises(DivergenceError) as one_pass:
            spectrum(t, sym)
        assert str(one_pass.value) == str(per_ball.value)

    def test_errors_are_the_first_balls_error(self):
        t = relabeled(None, build_padic_tree(2, 3), perm=range(14, -1, -1))  # root last
        balls = t.non_leaf_balls()
        chain = [balls[0], *t.ancestors(balls[0])]  # what the first ball's eigenvalue reads
        off_chain = [b for b in balls if b not in chain]
        top = chain[-1]
        assert off_chain and min(off_chain) < top

        def table_without(*missing):
            return TableSymbol({b: 1.0 for b in balls if b not in missing})

        cases = [
            table_without(balls[0]),
            table_without(balls[-1]),
            table_without(top, min(off_chain)),  # the chain's error, not the smaller id's
            HomogeneousSymbol(beta=2.0, tail=True),  # not a p-adic tree
        ]
        for sym in cases:
            with pytest.raises(Exception) as per_ball:
                for b in balls:
                    eigenvalue(t, sym, b)
            with pytest.raises(Exception) as one_pass:
                spectrum(t, sym)
            assert type(one_pass.value) is type(per_ball.value)
            assert str(one_pass.value) == str(per_ball.value)

    def test_two_term_sums_bitwise(self):
        # at the root and its children both orders add the same terms in the same order
        rng = np.random.default_rng(12)
        t = relabeled(rng, random_measured_tree(rng, max_depth=4))
        negative_zero = TableSymbol({b: complex(-1.5, -0.0) for b in t.non_leaf_balls()})
        for sym in (HomogeneousSymbol(beta=0.6), negative_zero, random_table_symbol(rng, t)):
            spec = spectrum(t, sym)
            for b in (t.root, *t.children[t.root]):
                if t.children[b]:
                    z, want = spec[b], eigenvalue(t, sym, b)
                    assert (z.real.hex(), z.imag.hex()) == (want.real.hex(), want.imag.hex())

    def test_tree_without_non_leaf_balls_is_empty(self):
        t = BallTree([None], [1.0], [0.0])
        assert spectrum(t, HomogeneousSymbol(beta=0.5, tail=True)) == {}
        assert spectrum(t, TableSymbol({})) == {}

    def test_factor_eigenvalue_reads_the_spectrum(self):
        rng = np.random.default_rng(4)
        t1 = relabeled(rng, random_measured_tree(rng, max_depth=5))
        t2 = build_padic_tree(3, 3)
        s1, s2 = random_table_symbol(rng, t1), HomogeneousSymbol(c=1.5, beta=1.4, tail=True)
        op = MultiOperator([(t1, s1), (t2, s2)], [((0,), 1.0), ((1,), -1.0)])
        for i, (t, s) in enumerate(op.factors):
            spec = spectrum(t, s)
            for b in t.non_leaf_balls():
                assert op.factor_eigenvalue(i, b) == spec[b]


class TestOverflow:
    def test_overflowing_symbol_value_is_non_finite(self):
        t = build_padic_tree(2, 2)
        sym = HomogeneousSymbol(beta=2000.0)
        assert sym.value(t, t.root) == 1.0  # diameter 1: no overflow at the root
        with pytest.raises(NonFiniteError, match="overflows"):
            sym.value(t, t.children[t.root][0])

    @pytest.mark.parametrize("symbol,error", [
        (HomogeneousSymbol(beta=2000.0), NonFiniteError),
        (HomogeneousSymbol(beta=-2000.0, tail=True), DivergenceError),
        (HomogeneousSymbol(c=1e308, beta=2.0), NonFiniteError),
    ])
    def test_spectrum_raises_like_eigenvalue(self, symbol, error):
        t = build_padic_tree(2, 2)
        per_ball = None
        for b in t.non_leaf_balls():
            try:
                eigenvalue(t, symbol, b)
            except error as exc:
                per_ball = exc
                break
        assert per_ball is not None
        with pytest.raises(error) as one_pass:
            spectrum(t, symbol)
        assert str(one_pass.value) == str(per_ball)

    def test_overflowing_tail_ratio_diverges(self):
        t = build_padic_tree(2, 2)
        sym = HomogeneousSymbol(beta=-2000.0, tail=True)
        with pytest.raises(DivergenceError, match="inf >= 1"):
            eigenvalue(t, sym, t.root)

    @pytest.mark.parametrize("c", [1e308, complex(0.0, -1e308), complex(1e308, 1e308)])
    def test_overflowing_product_with_c_is_non_finite(self, c):
        t = build_padic_tree(2, 3)
        sym = HomogeneousSymbol(c=c, beta=2.0)
        assert sym.value(t, t.root) == c  # diameter 1: c itself
        with pytest.raises(NonFiniteError, match="symbol value at ball 1 overflows"):
            sym.value(t, 1)


class TestNonFiniteOperatorData:
    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), complex(1.0, float("-inf"))])
    def test_table_symbol_rejects_non_finite_entries(self, bad):
        with pytest.raises(ParameterError, match="table symbol needs finite values"):
            TableSymbol({0: 1.0, 2: bad})
        assert TableSymbol({0: 1e308, 2: -5e-324j}).entries[0] == 1e308

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), complex(float("nan"), 0.0)])
    def test_multi_operator_rejects_non_finite_coefficients(self, bad):
        t = build_padic_tree(2, 2)
        sym = HomogeneousSymbol(beta=0.5)
        with pytest.raises(ParameterError, match="finite coefficients"):
            MultiOperator([(t, sym), (t, sym)], [((0,), 1.0), ((1,), bad)])
