import itertools
import math

import numpy as np
import pytest

from conftest import random_measured_tree, random_table_symbol, tree_from_leaf_measures
from ultrawave.errors import DegenerateBallError, DomainError, ParameterError, UnknownBallError
from ultrawave.operators import TableSymbol, eigenvalue, operator_matrix
from ultrawave.products import (
    TOP,
    MultiOperator,
    ProductSpace,
    decreasing_edges,
    multiwavelet_basis,
)
from ultrawave.trees import build_padic_tree
from ultrawave.wavelets import wavelet_basis


def lift(mats, sizes, i):
    """Factor-i operator promoted to the product leaf grid via Kronecker products."""
    out = np.array([[1.0 + 0.0j]])
    for k, n in enumerate(sizes):
        out = np.kron(out, mats[i] if k == i else np.eye(n, dtype=complex))
    return out


def dense_multi_operator(op):
    """Oracle: assemble the full operator matrix from 1D dense kernels."""
    mats = [operator_matrix(tree, sym) for tree, sym in op.factors]
    sizes = [len(tree.leaves) for tree, _ in op.factors]
    total = np.zeros((math.prod(sizes), math.prod(sizes)), dtype=complex)
    for indices, coeff in op.terms:
        term = np.eye(math.prod(sizes), dtype=complex)
        for i in indices:
            term = term @ lift(mats, sizes, i)
        total += coeff * term
    return total


def generic_vertices(space):
    """Vertices whose every component is a non-leaf ball, in ``space.vertices()`` order."""
    return itertools.product(*(tree.non_leaf_balls() for tree in space.factors))


def full_dimension_vertices(space):
    """Vertices with a decreasing edge in every component: the generic ones, as ``decreasing_edges`` decides."""
    return [v for v in space.vertices() if decreasing_edges(space, v).max_dimension == space.n]


class TestProductCounts:
    def test_two_binary_depth_one(self):
        space = ProductSpace([build_padic_tree(2, 1), build_padic_tree(2, 1)])
        assert sum(1 for _ in space.vertices()) == 9
        assert full_dimension_vertices(space) == [(0, 0)]

    def test_mixed_depths(self):
        space = ProductSpace([build_padic_tree(2, 2), build_padic_tree(3, 1)])
        assert len(full_dimension_vertices(space)) == 3 * 1
        assert full_dimension_vertices(space) == list(generic_vertices(space))

    def test_augmented_count(self):
        t1, t2 = build_padic_tree(2, 1), build_padic_tree(3, 1)
        space = ProductSpace([t1, t2])
        expected = (t1.n_vertices + 1) * (t2.n_vertices + 1)
        assert sum(1 for _ in space.vertices(augmented=True)) == expected

    def test_zero_factors_rejected(self):
        with pytest.raises(ParameterError):
            ProductSpace([])


class TestVertexOrder:
    def test_sup_reflexive(self):
        space = ProductSpace([build_padic_tree(2, 2), build_padic_tree(3, 1)])
        for v in itertools.islice(space.vertices(), 20):
            assert space.sup(v, v) == v

    def test_componentwise_sup(self):
        space = ProductSpace([build_padic_tree(2, 2), build_padic_tree(2, 2)])
        # leaves in distinct root children per factor
        assert space.sup((3, 5), (5, 3)) == (0, 0)

    def test_top_is_larger_than_every_ball(self):
        space = ProductSpace([build_padic_tree(2, 1)])
        assert space.sup((TOP,), (1,)) == space.sup((0,), (TOP,)) == (TOP,)

    def test_membership(self):
        space = ProductSpace([build_padic_tree(2, 1), build_padic_tree(2, 1)])
        assert space.contains((0, 2))
        assert not space.contains((0, 3))
        assert not space.contains((0,))
        assert not space.contains((TOP, 0))
        assert space.contains((TOP, 0), augmented=True)

    @pytest.mark.parametrize("c", [np.int64(0), np.int32(2), np.uint8(1), True, 2.0, np.float64(0.0), "0", None, 3])
    def test_membership_agrees_with_vertex_check(self, c):
        """``contains`` takes an id exactly when ``decreasing_edges`` (through ``check_ball``) does."""
        space = ProductSpace([build_padic_tree(2, 1)])
        try:
            decreasing_edges(space, (c,))
            valid = True
        except UnknownBallError:
            valid = False
        assert space.contains((c,)) is valid
        assert valid is (c in (0, 1, 2) and not isinstance(c, (float, np.floating)))

    def test_arity_mismatch(self):
        space = ProductSpace([build_padic_tree(2, 1)])
        with pytest.raises(ParameterError):
            space.sup((0,), (0, 0))


class TestEdges:
    def test_two_dimensional_count_brute_force(self):
        space = ProductSpace([build_padic_tree(2, 1), build_padic_tree(3, 1)])
        fan = decreasing_edges(space, (0, 0))
        assert fan.max_dimension == 2
        edges = list(fan)
        assert fan.count == len(edges) == 6
        for e in edges:
            corners = e.corners()
            assert len(corners) == 4
            assert corners[frozenset()] == (0, 0)

    def test_leaf_component_reduces_dimension(self):
        space = ProductSpace([build_padic_tree(2, 2), build_padic_tree(2, 2)])
        fan = decreasing_edges(space, (0, 3))  # second component is minimal
        assert fan.max_dimension == 1
        assert fan.count == 2

    def test_one_dimensional_case(self):
        space = ProductSpace([build_padic_tree(3, 2)])
        fan = decreasing_edges(space, (0,))
        assert fan.max_dimension == 1
        assert fan.count == 3
        assert sorted(e.smallest for e in fan) == [(1,), (2,), (3,)]

    def test_corner_partial_order_diagonal(self):
        space = ProductSpace([build_padic_tree(2, 2), build_padic_tree(3, 2)])
        for v in generic_vertices(space):
            for e in decreasing_edges(space, v):
                corners = e.corners()
                assert e.largest == corners[frozenset()] == v
                assert e.smallest == corners[frozenset(e.positions)]
                # largest/smallest are opposite: they differ in every stepped position
                for pos in e.positions:
                    assert e.largest[pos] != e.smallest[pos]

    def test_count_identity_exhaustive(self):
        space = ProductSpace([build_padic_tree(2, 2), build_padic_tree(3, 2)])
        for v in space.vertices():
            fan = decreasing_edges(space, v)
            expected = 1
            for comp, tree in zip(v, space.factors):
                if not tree.is_leaf(comp):
                    expected *= tree.branching_index(comp)
            if fan.max_dimension == 0:
                assert fan.count == 0
            else:
                assert len(list(fan)) == fan.count == expected


class TestMultiWavelets:
    def test_completeness_count(self):
        t1, t2 = build_padic_tree(2, 2), build_padic_tree(3, 2)
        space = ProductSpace([t1, t2])
        count = sum(1 for _ in multiwavelet_basis(space))
        assert count == len(t1.leaves) * len(t2.leaves)

    def test_gram_identity(self):
        space = ProductSpace([build_padic_tree(2, 2), build_padic_tree(3, 2)])
        basis = [w.leaf_vector(space) for w in multiwavelet_basis(space)]
        B = np.array(basis)
        nu = np.array([1.0])
        for tree in space.factors:
            nu = np.kron(nu, [tree.measure[x] for x in tree.leaves])
        G = np.conj(B) @ (B * nu[None, :]).T
        assert np.max(np.abs(G - np.eye(len(basis)))) < 1e-10

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("augmented", [True, False])
    def test_basis_matches_old_per_ball_loop_with_degenerate_balls(self, seed, augmented):
        rng = np.random.default_rng(700 + seed)
        factors = []
        for _ in range(2):
            t = random_measured_tree(rng, max_depth=3, max_branching=3)
            leaf_measure = {x: 0.0 if rng.random() < 0.4 else t.measure[x] for x in t.leaves}
            leaf_measure[t.leaves[0]] = 1.0
            factors.append(tree_from_leaf_measures(t.parent, leaf_measure, t.diameter))
        space = ProductSpace(factors)
        degenerate = 0
        for t in factors:
            for b in t.non_leaf_balls():
                try:
                    wavelet_basis(t, b)
                except DegenerateBallError:
                    degenerate += 1
        assert degenerate > 0  # zero-measure leaves leave some balls without wavelets
        got = [(w.vertex, w.j, w.parts) for w in multiwavelet_basis(space, augmented)]
        want = [
            (tuple(e[0] for e in combo), tuple(e[1] for e in combo), tuple(e[2] for e in combo))
            for combo in itertools.product(*(old_factor_entries(tree, augmented) for tree in space.factors))
        ]
        assert got == want


def old_factor_entries(tree, augmented):
    """The deleted per-ball loop of ``multiwavelet_basis`` for one factor."""
    entries = []
    for ball in tree.non_leaf_balls():
        try:
            basis = wavelet_basis(tree, ball)
        except DegenerateBallError:
            continue
        entries.extend((ball, w.j, w) for w in basis)
    if augmented:
        entries.append((TOP, None, None))
    return entries


class TestMultiEigenvalue:
    def test_antisymmetric_difference_on_diagonal(self):
        t = build_padic_tree(2, 2)
        sym = TableSymbol({b: 1.0 + 0.5j for b in t.non_leaf_balls()})
        op = MultiOperator([(t, sym), (t, sym)], [((0,), 1.0), ((1,), -1.0)])
        for b in t.non_leaf_balls():
            assert op.eigenvalue((b, b)) == 0

    def test_single_product_term(self):
        t1, t2 = build_padic_tree(2, 1), build_padic_tree(2, 1)
        op = MultiOperator(
            [(t1, TableSymbol({0: 2.0})), (t2, TableSymbol({0: 3.0}))],
            [((0, 1), 1.0)],
        )
        assert op.eigenvalue((0, 0)) == 6

    def test_factorization_identity(self):
        rng = np.random.default_rng(21)
        t1, t2 = build_padic_tree(2, 2), build_padic_tree(3, 2)
        s1, s2 = random_table_symbol(rng, t1), random_table_symbol(rng, t2)
        op = MultiOperator([(t1, s1), (t2, s2)], [((0, 1), 1.0)])
        for v in generic_vertices(op.space()):
            lam = op.eigenvalue(v)
            expected = eigenvalue(t1, s1, v[0]) * eigenvalue(t2, s2, v[1])
            assert lam == expected

    def test_non_generic_rejected(self):
        t = build_padic_tree(2, 1)
        op = MultiOperator.single(t, TableSymbol({0: 1.0}))
        with pytest.raises(DomainError):
            op.eigenvalue((1,))

    def test_dense_tensor_oracle(self):
        rng = np.random.default_rng(42)
        t1, t2 = build_padic_tree(2, 2), build_padic_tree(2, 2)
        s1, s2 = random_table_symbol(rng, t1), random_table_symbol(rng, t2)
        op = MultiOperator(
            [(t1, s1), (t2, s2)],
            [((0,), 1.0 + 0.5j), ((1,), -0.75), ((0, 1), 2.0), ((0, 0), 0.3j)],
        )
        dense = dense_multi_operator(op)
        space = ProductSpace([t1, t2])
        for w in multiwavelet_basis(space):
            vec = w.leaf_vector(space)
            lam = op.eigenvalue(w.vertex)
            err = np.abs(dense @ vec - lam * vec).max()
            assert err <= 1e-10 * max(1.0, abs(lam)) * np.abs(vec).max()
