import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import permuted_tree, random_leaf_function, random_measured_tree, random_table_symbol, with_zero_leaves
from ultrawave.errors import DegenerateBallError, DomainError, ParameterError, UnknownBallError
from ultrawave.operators import spectrum
from ultrawave.trees import BallTree, build_padic_tree
from ultrawave.wavelets import (
    TestFunction,
    WaveletExpansion,
    _character_rows,
    _haar_rows,
    analyze,
    basis_sizes,
    evaluate,
    normalized_constant,
    synthesize,
    tree_wavelets,
    wavelet_basis,
)


def scan_synthesize(tree, expansion):
    """Reference: each leaf sums every coefficient in insertion order."""
    const = expansion.mean * normalized_constant(tree)
    values = {}
    for t in tree.leaves:
        acc = complex(const)
        for (ball, j), c in expansion.coeffs.items():
            if c == 0:
                continue
            if ball == t or not tree.is_ancestor(ball, t):
                continue
            w = wavelet_basis(tree, ball)[j - 1]
            acc += c * w.values[tree.child_toward(ball, t)]
        values[t] = acc
    return values


def bits(values):
    """Exact bit patterns of a map of complex values (tells -0.0 from 0.0)."""
    return {k: (float(z.real).hex(), float(z.imag).hex()) for k, z in values.items()}


def random_member_set(rng, tree):
    """A random non-leaf ball ``top`` and the balls down to a random depth below it.

    Returns ``(top, minimal, allowed)``: the lowest balls of the set, and the
    balls where a function constant below ``minimal`` and zero off ``top``
    can have nonzero coefficients (the set's non-minimal balls and the
    strict ancestors of ``top``).
    """
    top = int(rng.choice(tree.non_leaf_balls()))
    members, frontier = {top}, [top]
    for _ in range(int(rng.integers(1, 4))):
        frontier = [c for b in frontier for c in tree.children[b]]
        members.update(frontier)
    minimal = sorted(b for b in members if not any(c in members for c in tree.children[b]))
    allowed = (members - set(minimal)) | set(tree.ancestors(top))
    return top, minimal, allowed


def constant_below(tree, ball_values):
    """The function on the leaves equal to ``ball_values[b]`` below each ball ``b`` and 0 elsewhere."""
    values = dict.fromkeys(tree.leaves, 0j)
    for b, v in ball_values.items():
        values.update(dict.fromkeys(tree.leaves_under(b), complex(v)))
    return TestFunction(tree, values)


def basis_matrix(tree):
    """Rows: all wavelets plus the normalized constant, sampled on the leaves."""
    rows = []
    for w in tree_wavelets(tree):
        rows.append([evaluate(tree, w, x) for x in tree.leaves])
    rows.append([normalized_constant(tree)] * len(tree.leaves))
    return np.array(rows, dtype=complex)


def gram(tree):
    B = basis_matrix(tree)
    nu = np.array([tree.measure[x] for x in tree.leaves])
    return np.conj(B) @ (B * nu[None, :]).T


class TestBasisConstruction:
    def test_binary_equal_measures(self):
        t = build_padic_tree(2, 1)
        (w,) = wavelet_basis(t, t.root)
        m = 0.5
        expected = (2 * m) ** -0.5
        assert abs(abs(w.values[1]) - expected) < 1e-14
        assert abs(abs(w.values[2]) - expected) < 1e-14
        # zero mean and unit norm determine it up to phase
        assert abs(w.values[1] * m + w.values[2] * m) < 1e-14

    def test_ternary_characters_orthonormal(self):
        t = build_padic_tree(3, 1)
        ws = wavelet_basis(t, t.root)
        assert len(ws) == 2
        m = 1 / 3
        for w in ws:
            for k, child in enumerate(t.children[t.root]):
                expected = (3 * m) ** -0.5 * cmath.exp(2j * cmath.pi * w.j * k / 3)
                assert abs(w.values[child] - expected) < 1e-14
        # direct inner-product computation of the Gram matrix
        for a in ws:
            for b in ws:
                ip = sum(
                    np.conj(a.values[c]) * b.values[c] * t.measure[c]
                    for c in t.children[t.root]
                )
                assert abs(ip - (1.0 if a.j == b.j else 0.0)) < 1e-14

    def test_unequal_measures_derived_values(self):
        # solve a*1 + b*2 = 0, a^2*1 + b^2*2 = 1 with a > 0
        t = BallTree([None, 0, 0], [3.0, 1.0, 2.0], [1.0, 0.5, 0.5])
        (w,) = wavelet_basis(t, 0)
        assert abs(w.values[1] - math.sqrt(2 / 3)) < 1e-14
        assert abs(w.values[2] - (-1 / math.sqrt(6))) < 1e-14

    def test_leaf_rejected(self):
        t = build_padic_tree(2, 1)
        with pytest.raises(ParameterError):
            wavelet_basis(t, 1)

    def test_degenerate_ball(self):
        t = BallTree([None, 0, 0], [1.0, 1.0, 0.0], [1.0, 0.5, 0.5])
        with pytest.raises(DegenerateBallError):
            wavelet_basis(t, 0)
        assert list(tree_wavelets(t)) == []

    def test_zero_measure_child_excluded(self):
        t = BallTree([None, 0, 0, 0], [2.0, 1.0, 0.0, 1.0], [1.0, 0.5, 0.5, 0.5])
        ws = wavelet_basis(t, 0)
        assert len(ws) == 1
        assert ws[0].values[2] == 0


class TestBasisMemo:
    def test_built_once_per_tree_and_ball(self):
        t = build_padic_tree(3, 2)
        first = wavelet_basis(t, np.int64(1))
        assert isinstance(first, tuple)
        assert all(type(w.ball) is int and w.ball == 1 for w in first)
        assert wavelet_basis(t, 1) is first
        assert wavelet_basis(t, True) is first
        assert wavelet_basis(build_padic_tree(3, 2), 1) is not first
        assert wavelet_basis(build_padic_tree(3, 2), 1) == first

    def test_memo_matches_a_fresh_build(self):
        rng = np.random.default_rng(41)
        t = random_measured_tree(rng, max_depth=3)
        memo = [wavelet_basis(t, b) for b in t.non_leaf_balls()]
        again = [wavelet_basis(t, b) for b in t.non_leaf_balls()]
        fresh = random_measured_tree(np.random.default_rng(41), max_depth=3)
        assert all(a is b for a, b in zip(memo, again))
        assert memo == [wavelet_basis(fresh, b) for b in fresh.non_leaf_balls()]

    @pytest.mark.parametrize("bad", [1.0, 2.0, -1, 13, "1", None])
    def test_bad_ids_raise_after_memoizing(self, bad):
        t = build_padic_tree(3, 2)
        for b in t.non_leaf_balls():
            wavelet_basis(t, b)
        with pytest.raises(UnknownBallError):
            wavelet_basis(t, bad)

    def test_basis_sizes_count_each_basis(self):
        """``basis_sizes`` against ``len(wavelet_basis)``, 0 where the basis raises (leaves, degenerate balls)."""
        rng = np.random.default_rng(7)
        trees = [with_zero_leaves(rng, random_measured_tree(rng, max_depth=4, max_branching=4), fraction=0.4)
                 for _ in range(12)]
        trees.append(BallTree([None, 0, 0, 1, 1, 2, 2], [1.0, 0.0, 1.0, 0.0, 0.0, 0.25, 0.75],
                              [1.0, 0.5, 0.5, 0.2, 0.2, 0.2, 0.2]))  # a degenerate root, zero-measure ball 1
        degenerate = 0
        for t in trees:
            sizes = basis_sizes(t)
            assert sizes.dtype == np.int64 and sizes.shape == (t.n_vertices,) and not sizes.flags.writeable
            assert basis_sizes(t) is sizes
            want = []
            for b in range(t.n_vertices):
                try:
                    want.append(len(wavelet_basis(t, b)))
                except DegenerateBallError:
                    want.append(0)
                    degenerate += 1
                except ParameterError:  # a leaf
                    want.append(0)
            assert sizes.tolist() == want
        assert want == [0, 0, 1, 0, 0, 0, 0]
        assert degenerate > 2 and sum(len(t.zero_measure) > 0 for t in trees) > 6

    def test_leaf_and_degenerate_errors_repeat(self):
        t = build_padic_tree(2, 1)
        d = BallTree([None, 0, 0], [1.0, 1.0, 0.0], [1.0, 0.5, 0.5])
        for _ in range(2):
            with pytest.raises(ParameterError):
                wavelet_basis(t, 1)
            with pytest.raises(DegenerateBallError):
                wavelet_basis(d, 0)


class TestEvaluate:
    def test_outside_support(self):
        t = build_padic_tree(2, 2)
        (w,) = wavelet_basis(t, 1)
        assert evaluate(t, w, 5) == 0  # leaf under the sibling ball

    def test_constant_on_subballs(self):
        t = build_padic_tree(2, 1)
        (w,) = wavelet_basis(t, t.root)
        assert evaluate(t, w, 1) == w.values[1]
        assert evaluate(t, w, 2) == w.values[2]
        assert abs(evaluate(t, w, 1) - 1.0) < 1e-14  # +(2m)^{-1/2} with m = 1/2
        assert abs(evaluate(t, w, 2) + 1.0) < 1e-13


class TestAnalyzeSynthesize:
    def test_constant_function(self):
        t = build_padic_tree(2, 2)
        c = 0.7 - 0.2j
        f = TestFunction(t, {x: c for x in t.leaves})
        e = analyze(t, f)
        assert all(abs(v) < 1e-14 for v in e.coeffs.values())
        assert abs(e.mean - c * math.sqrt(t.total_measure)) < 1e-14

    def test_single_wavelet_gives_delta(self):
        t = build_padic_tree(2, 2)
        (w,) = wavelet_basis(t, 1)
        f = TestFunction(t, {x: evaluate(t, w, x) for x in t.leaves})
        e = analyze(t, f)
        for key, v in e.coeffs.items():
            target = 1.0 if key == (1, 1) else 0.0
            assert abs(v - target) < 1e-13
        assert abs(e.mean) < 1e-14

    def test_roundtrip_and_parseval_sixteen_leaves(self):
        t = build_padic_tree(2, 4)
        assert len(t.leaves) == 16
        rng = np.random.default_rng(11)
        f = random_leaf_function(rng, t)
        e = analyze(t, f)
        g = synthesize(t, e)
        nu = np.array([t.measure[x] for x in t.leaves])
        diff = f.leaf_vector() - g.leaf_vector()
        norm = math.sqrt(float(np.sum(np.abs(f.leaf_vector()) ** 2 * nu)))
        assert math.sqrt(float(np.sum(np.abs(diff) ** 2 * nu))) < 1e-10 * max(norm, 1.0)
        # Parseval against the directly computed measure-weighted norm
        total = sum(abs(v) ** 2 for v in e.coeffs.values()) + abs(e.mean) ** 2
        assert abs(total - norm**2) < 1e-10 * norm**2

    def test_roundtrip_of_a_function_constant_below_balls(self):
        # a function constant below balls 3 and 4 and zero elsewhere reconstructs exactly
        t = build_padic_tree(2, 3)
        f = constant_below(t, {3: 1.0, 4: -2.0})
        e = analyze(t, f)
        g = synthesize(t, e)
        for x in t.leaves:
            assert abs(g.values[x] - f.values[x]) < 1e-12
        for (ball, _), c in e.coeffs.items():
            if ball not in (0, 1):  # only ball 1 and its ancestor see the two constants apart
                assert abs(c) < 1e-15

    def test_another_tree_is_refused(self):
        t = build_padic_tree(2, 3)
        for other in (build_padic_tree(3, 2), build_padic_tree(2, 3)):  # other leaf count, same leaf count
            f = TestFunction(other, dict.fromkeys(other.leaves, 1.0))
            with pytest.raises(DomainError, match="another tree"):
                analyze(t, f)


@pytest.mark.parametrize("seed", range(20))
def test_functions_constant_below_random_balls_match_dense_inner_products(seed):
    """Ten random member sets per tree, 200 in all: ``analyze`` of a function constant below the
    lowest balls of a set gives the dense ``wavelet_basis`` inner products, every coefficient off
    the set's allowed balls vanishes, and ``synthesize`` restores the function."""
    rng = np.random.default_rng(900 + seed)
    t = random_measured_tree(rng, max_depth=5, max_branching=3)
    if seed % 2:
        t = with_zero_leaves(rng, t)
    B = basis_matrix(t)
    nu = np.array([t.measure[x] for x in t.leaves])
    for _ in range(10):
        _, minimal, allowed = random_member_set(rng, t)
        f = constant_below(t, {b: complex(rng.standard_normal(), rng.standard_normal()) for b in minimal})
        e = analyze(t, f)
        assert list(e.coeffs) == [(w.ball, w.j) for w in tree_wavelets(t)]
        dense = np.conj(B) @ (f.leaf_vector() * nu)
        scale = max(1.0, float(np.linalg.norm(dense)))
        assert np.abs(np.array([*e.coeffs.values(), e.mean]) - dense).max() <= 1e-12 * scale
        assert max((abs(c) for (b, _), c in e.coeffs.items() if b not in allowed), default=0.0) <= 1e-12 * scale
        restored = synthesize(t, e).leaf_vector()
        assert np.abs((restored - f.leaf_vector()) * (nu > 0)).max() <= 1e-12 * scale


class TestSynthesizeOrder:
    @pytest.mark.parametrize("seed", range(12))
    def test_equals_per_leaf_scan_exactly(self, seed):
        rng = np.random.default_rng(seed)
        t = random_measured_tree(rng, max_depth=5, max_branching=3)
        allowed = random_member_set(rng, t)[2] if seed % 3 == 2 else None
        e = analyze(t, random_leaf_function(rng, t))
        if allowed is not None:  # a sparse expansion
            e = WaveletExpansion(e.mean, {k: c for k, c in e.coeffs.items() if k[0] in allowed})
        keys = list(e.coeffs)
        if seed % 3 >= 1:
            keys = [keys[i] for i in rng.permutation(len(keys))]
        coeffs = {k: e.coeffs[k] for k in keys}
        for k in keys[::5]:
            coeffs[k] = 0.0
        shuffled = WaveletExpansion(e.mean, coeffs)
        got = synthesize(t, shuffled)
        assert bits(got.values) == bits(scan_synthesize(t, shuffled))

    def test_insertion_order_is_the_summation_order(self):
        t = build_padic_tree(2, 3)
        e = analyze(t, random_leaf_function(np.random.default_rng(4), t))
        for order in (list(e.coeffs), list(reversed(list(e.coeffs)))):
            ex = WaveletExpansion(e.mean, {k: e.coeffs[k] for k in order})
            assert bits(synthesize(t, ex).values) == bits(scan_synthesize(t, ex))

    def test_one_ball_check_and_basis_lookup_per_coefficient(self, monkeypatch):
        import ultrawave.wavelets as wavelets_module

        t = build_padic_tree(3, 4)
        e = analyze(t, random_leaf_function(np.random.default_rng(5), t))
        expected = bits(synthesize(t, e).values)
        calls = {"wavelet_basis": 0, "check_ball": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(wavelets_module, "wavelet_basis", counted("wavelet_basis", wavelet_basis))
        monkeypatch.setattr(BallTree, "check_ball", counted("check_ball", BallTree.check_ball))
        numpy_ids = WaveletExpansion(e.mean, {(np.int64(b), j): c for (b, j), c in e.coeffs.items()})
        assert bits(synthesize(t, numpy_ids).values) == expected
        assert calls == {"wavelet_basis": len(e.coeffs), "check_ball": len(e.coeffs)}

    def test_domain_errors_unchanged(self):
        t = build_padic_tree(2, 3)
        for j in (0, 2, -1):
            with pytest.raises(DomainError, match=f"no wavelet with index {j} at ball 0"):
                synthesize(t, WaveletExpansion(0.0, {(0, j): 1.0}))
        for j in (1.5, "1", None, np.float64(1.0)):
            with pytest.raises(DomainError, match=re.escape(f"index {(0, j)}: j={j!r} is not an integer")):
                synthesize(t, WaveletExpansion(0.0, {(0, j): 1.0}))
        g = synthesize(t, WaveletExpansion(0.5, {(0, 1): 1.0, (1, 1): 0.0}))
        assert bits(g.values) == bits(scan_synthesize(t, WaveletExpansion(0.5, {(0, 1): 1.0})))
        for j in (True, np.int64(1)):  # integer types other than int are index 1
            assert bits(synthesize(t, WaveletExpansion(0.5, {(0, j): 1.0})).values) == bits(g.values)


@settings(max_examples=30)
@given(seed=st.integers(0, 10**9))
def test_gram_identity_random_trees(seed):
    rng = np.random.default_rng(seed)
    t = random_measured_tree(rng)
    G = gram(t)
    assert np.max(np.abs(G - np.eye(G.shape[0]))) < 1e-10


@settings(max_examples=30)
@given(seed=st.integers(0, 10**9))
def test_completeness_count(seed):
    rng = np.random.default_rng(seed)
    t = random_measured_tree(rng)
    n_wavelets = sum(1 for _ in tree_wavelets(t))
    assert n_wavelets + 1 == len(t.leaves)


def test_cross_ball_orthogonality_without_orthonormalization():
    # wavelets at distinct balls are orthogonal purely by support/mean structure
    rng = np.random.default_rng(3)
    t = random_measured_tree(rng, max_depth=3)
    ws = list(tree_wavelets(t))
    nu = np.array([t.measure[x] for x in t.leaves])
    for a in ws:
        va = np.array([evaluate(t, a, x) for x in t.leaves])
        for b in ws:
            if a.ball == b.ball:
                continue
            vb = np.array([evaluate(t, b, x) for x in t.leaves])
            assert abs(np.sum(np.conj(va) * vb * nu)) < 1e-12


# -- closed-form bases against the numpy constructions they replaced ----------


def numpy_character_rows(p, m):
    k = np.arange(p)
    c = 1.0 / math.sqrt(p * m)
    return [c * np.exp(2j * np.pi * j * k / p) for j in range(1, p)]


def numpy_gram_schmidt_rows(weights):
    q = len(weights)
    rows = []
    for t in range(1, q):
        v = np.zeros(q, dtype=complex)
        v[0] = 1.0 / weights[0]
        v[t] = -1.0 / weights[t]
        for _ in range(2):
            for b in rows:
                v = v - np.sum(np.conj(b) * v * weights) * b
        v = v / math.sqrt(float(np.sum(np.abs(v) ** 2 * weights)))
        lead = v[np.flatnonzero(np.abs(v) > 1e-13)[0]]
        v = v * (abs(lead) / lead)
        rows.append(v)
    return rows


def numpy_basis(tree, ball):
    """Subball values of the basis at ``ball``, built the numpy way."""
    kids = tree.children[ball]
    pos = [c for c in kids if tree.measure[c] > 0.0]
    m0 = tree.measure[pos[0]]
    if len(pos) == len(kids) and all(math.isclose(tree.measure[c], m0, rel_tol=1e-12) for c in kids):
        rows = numpy_character_rows(len(kids), m0)
    else:
        rows = numpy_gram_schmidt_rows(np.array([tree.measure[c] for c in pos]))
    out = []
    for row in rows:
        values = {c: 0.0 + 0.0j for c in kids}
        values.update((c, complex(v)) for c, v in zip(pos, row))
        out.append(values)
    return out


class TestClosedFormBases:
    @pytest.mark.parametrize("p", range(2, 12))
    def test_character_rows_bitwise(self, p):
        for m in (1.0, 1.0 / p, 1.0 / 3.0, 0.1, 2.0 ** -40, 7.25, 1e-300):
            new = _character_rows(p, m)
            old = numpy_character_rows(p, m)
            assert [bits(dict(enumerate(r))) for r in new] == [
                bits(dict(enumerate(map(complex, r)))) for r in old
            ]

    @pytest.mark.parametrize("p", range(2, 12))
    def test_character_bases_bitwise_on_padic_trees(self, p):
        t = build_padic_tree(p, 2 if p <= 5 else 1)
        for b in t.non_leaf_balls():
            basis = wavelet_basis(t, b)
            assert [bits(w.values) for w in basis] == [bits(v) for v in numpy_basis(t, b)]
            assert all(type(z) is complex for w in basis for z in w.values.values())

    def test_haar_rows_match_gram_schmidt(self):
        rng = np.random.default_rng(20)
        for _ in range(500):
            q = int(rng.integers(2, 8))
            weights = rng.uniform(0.05, 3.0, size=q) * 10.0 ** rng.uniform(-6, 6)
            new = _haar_rows([float(w) for w in weights])
            old = numpy_gram_schmidt_rows(weights)
            scale = max(abs(complex(v)) for row in old for v in row)
            assert len(new) == len(old) == q - 1
            for r_new, r_old in zip(new, old):
                assert max(abs(a - complex(b)) for a, b in zip(r_new, r_old)) <= 1e-14 * scale
                first = next(a for a in r_new if a != 0.0)
                assert first > 0.0  # the phase rule

    @settings(max_examples=30)
    @given(seed=st.integers(0, 10**9))
    def test_random_trees_with_zero_measures(self, seed):
        rng = np.random.default_rng(seed)
        t = with_zero_leaves(rng, random_measured_tree(rng))
        for b in t.non_leaf_balls():
            if sum(t.measure[c] > 0.0 for c in t.children[b]) < 2:
                with pytest.raises(DegenerateBallError):
                    wavelet_basis(t, b)
                continue
            basis = wavelet_basis(t, b)
            old = numpy_basis(t, b)
            scale = max(abs(z) for v in old for z in v.values())
            assert [list(w.values) for w in basis] == [list(v) for v in old]
            for w, v in zip(basis, old):
                assert max(abs(w.values[c] - v[c]) for c in v) <= 1e-14 * scale
                assert all(w.values[c] == 0 for c in t.children[b] if t.measure[c] == 0.0)
        G = gram(t)
        assert np.max(np.abs(G - np.eye(G.shape[0]))) < 1e-10


def conj_analyze_coeffs(tree, f):
    """Wavelet coefficients summed from ``np.conj`` of each basis value."""
    lv = f.leaf_values()
    integral = [0.0 + 0.0j] * tree.n_vertices
    for v in sorted(range(tree.n_vertices), key=lambda i: -tree.depth[i]):
        kids = tree.children[v]
        integral[v] = sum(integral[c] for c in kids) if kids else lv[v] * tree.measure[v]
    return {
        (w.ball, w.j): sum(np.conj(w.values[c]) * integral[c] for c in tree.children[w.ball])
        for w in tree_wavelets(tree)
    }


@pytest.mark.parametrize("p,depth", [(2, 7), (3, 4), (5, 2), (7, 2)])
def test_analyze_bitwise_equals_numpy_conjugate(p, depth):
    t = build_padic_tree(p, depth)
    f = random_leaf_function(np.random.default_rng(p * 100 + depth), t)
    got = analyze(t, f).coeffs
    want = conj_analyze_coeffs(t, f)
    assert list(got) == list(want)
    assert bits(got) == bits(want)
    assert all(type(c) is complex for c in got.values())


# -- bottom-up ball integrals against test-local copies of the depth-sorted passes


def depth_sorted_analyze(tree, f):
    """``analyze`` as it was: integrals summed over every ball sorted by decreasing depth."""
    lv = f.leaf_values()
    integral = [0.0 + 0.0j] * tree.n_vertices
    for v in sorted(range(tree.n_vertices), key=lambda i: -tree.depth[i]):
        kids = tree.children[v]
        integral[v] = sum(integral[c] for c in kids) if kids else lv[v] * tree.measure[v]
    coeffs = {}
    for w in tree_wavelets(tree):
        coeffs[(w.ball, w.j)] = sum(w.values[c].conjugate() * integral[c] for c in tree.children[w.ball])
    return integral[tree.root] * normalized_constant(tree), coeffs


def stack_spectrum(tree, symbol):
    """The top-down eigenvalue pass, over an explicit stack of (ball, ancestor sum)."""
    lam = {}
    stack = [(tree.root, None)]
    while stack:
        v, pv = stack.pop()
        tv, nv = symbol.value(tree, v), tree.measure[v]
        lam[v] = tv * nv if pv is None else tv * nv + pv
        for c in tree.children[v]:
            if tree.children[c]:
                term = tv * (nv - tree.measure[c])
                stack.append((c, term if pv is None else pv + term))
    return lam


@settings(max_examples=40)
@given(seed=st.integers(0, 10**9))
def test_analyze_and_spectrum_bitwise_equal_to_depth_sorted_passes(seed):
    rng = np.random.default_rng(seed)
    base = random_measured_tree(rng)
    for t in (base, permuted_tree(rng, base), with_zero_leaves(rng, base)):
        f = random_leaf_function(rng, t)
        minimal = random_member_set(rng, t)[1]
        g = constant_below(t, {b: complex(rng.standard_normal(), 1.0) for b in minimal})
        for func in (f, g):
            mean, coeffs = depth_sorted_analyze(t, func)
            e = analyze(t, func)
            assert list(e.coeffs) == list(coeffs)
            assert bits({0: e.mean, **e.coeffs}) == bits({0: mean, **coeffs})
        symbol = random_table_symbol(rng, t)
        assert bits(spectrum(t, symbol)) == bits(stack_spectrum(t, symbol))
