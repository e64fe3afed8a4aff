import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_measured_tree
from ultrawave.errors import ParameterError, SpaceValidationError, UnknownBallError
from ultrawave.trees import (
    BallTree,
    RegularSubtree,
    build_padic_tree,
    full_subtree,
    tree_from_leaf_measures,
    validate_regular_subtree,
)

sup = BallTree.sup


class TestPadicBuilder:
    def test_depth_two_binary(self):
        t = build_padic_tree(2, 2)
        assert t.n_vertices == 7
        assert len(t.leaves) == 4
        assert all(t.measure[x] == 0.25 for x in t.leaves)
        assert t.measure[t.root] == 1.0

    def test_ternary_depth_one(self):
        t = build_padic_tree(3, 1)
        assert t.n_vertices == 4
        assert t.measure[t.root] == 1.0
        assert all(math.isclose(t.measure[x], 1 / 3) for x in t.leaves)

    def test_depth_four_binary(self):
        t = build_padic_tree(2, 4)
        assert t.n_vertices == 31
        assert len(t.leaves) == 16
        assert math.isclose(math.fsum(t.measure[x] for x in t.leaves), 1.0)

    @pytest.mark.parametrize("p,depth", [(1, 2), (0, 1), (2, 0), (2, -1)])
    def test_invalid_parameters(self, p, depth):
        with pytest.raises(ParameterError):
            build_padic_tree(p, depth)


class TestSup:
    def test_reflexive(self):
        t = build_padic_tree(2, 2)
        for v in range(t.n_vertices):
            assert sup(t, v, v) == v

    def test_leaves_under_different_root_children(self):
        t = build_padic_tree(2, 2)
        assert sup(t, 3, 5) == t.root  # leaves under child 1 and child 2

    def test_child_and_parent(self):
        t = build_padic_tree(2, 2)
        assert sup(t, 3, 1) == 1

    def test_foreign_id(self):
        t = build_padic_tree(2, 1)
        with pytest.raises(UnknownBallError):
            sup(t, 0, 99)

    def test_associative_commutative_exhaustive(self):
        # exhaustive over all triples of a 31-vertex tree
        t = build_padic_tree(2, 4)
        ids = range(t.n_vertices)
        for a, b in itertools.combinations(ids, 2):
            assert sup(t, a, b) == sup(t, b, a)
        rng = np.random.default_rng(7)
        triples = rng.integers(0, t.n_vertices, size=(4000, 3))
        for a, b, c in triples:
            assert sup(t, a, sup(t, b, c)) == sup(t, sup(t, a, b), c)

    def test_sup_is_a_iff_descendant(self):
        t = build_padic_tree(2, 3)
        for a in range(t.n_vertices):
            for b in range(t.n_vertices):
                assert (sup(t, a, b) == a) == t.is_ancestor(a, b)


class TestRegularSubtree:
    def test_full_tree_is_regular(self):
        t = build_padic_tree(3, 2)
        assert validate_regular_subtree(t, range(t.n_vertices)).ok

    def test_missing_sibling(self):
        t = build_padic_tree(2, 1)
        report = validate_regular_subtree(t, {0, 1})
        assert not report.ok
        assert {v.condition for v in report.violations} == {3}

    def test_missing_sup(self):
        t = build_padic_tree(2, 1)
        report = validate_regular_subtree(t, {1, 2})
        assert not report.ok
        assert any(v.condition == 1 and v.witness[2] == 0 for v in report.violations)

    def test_missing_interval(self):
        t = build_padic_tree(2, 2)
        report = validate_regular_subtree(t, {0, 3})
        assert any(v.condition == 2 for v in report.violations)

    def test_empty_members(self):
        t = build_padic_tree(2, 1)
        with pytest.raises(ParameterError):
            validate_regular_subtree(t, set())

    def test_constructor_rejects_invalid(self):
        t = build_padic_tree(2, 1)
        with pytest.raises(ParameterError):
            RegularSubtree(t, {0, 1})

    def test_minimal_and_top(self):
        t = build_padic_tree(2, 2)
        s = RegularSubtree(t, {1, 3, 4})
        assert s.top == 1
        assert s.minimal == (3, 4)
        assert full_subtree(t).minimal == t.leaves


class TestBranching:
    def test_ternary_root(self):
        t = build_padic_tree(3, 1)
        assert t.branching_index(t.root) == 3
        assert len(t.maximal_subballs(t.root)) == 3

    def test_leaf(self):
        t = build_padic_tree(2, 2)
        assert t.maximal_subballs(3) == ()
        assert t.branching_index(3) == 0

    def test_interior(self):
        t = build_padic_tree(2, 2)
        assert len(t.maximal_subballs(1)) == 2


class TestValidation:
    def test_additivity_violation_names_ball(self):
        with pytest.raises(SpaceValidationError) as err:
            BallTree([None, 0, 0], [1.0, 0.7, 0.7], [1.0, 0.5, 0.5])
        assert err.value.ball == 0

    def test_single_child_rejected(self):
        with pytest.raises(SpaceValidationError):
            BallTree([None, 0, 1, 1], [1.0, 1.0, 0.5, 0.5], [1.0, 0.5, 0.25, 0.25])

    def test_diameter_must_decrease(self):
        with pytest.raises(SpaceValidationError):
            BallTree([None, 0, 0], [1.0, 0.5, 0.5], [1.0, 1.0, 0.5])

    def test_two_roots_rejected(self):
        with pytest.raises(SpaceValidationError):
            BallTree([None, None], [1.0, 1.0], [1.0, 1.0])

    def test_zero_measure_flagged(self):
        t = BallTree([None, 0, 0], [1.0, 1.0, 0.0], [1.0, 0.5, 0.5])
        assert t.zero_measure == {2}

    def test_from_leaf_measures_forces_additivity(self):
        t = tree_from_leaf_measures(
            [None, 0, 0, 1, 1],
            {2: 0.3, 3: 1.1, 4: 0.25},
            [1.0, 0.5, 0.5, 0.2, 0.2],
        )
        assert math.isclose(t.measure[1], 1.35)
        assert math.isclose(t.measure[0], 1.65)


@settings(max_examples=40)
@given(seed=st.integers(0, 10**9))
def test_random_trees_revalidate(seed):
    rng = np.random.default_rng(seed)
    t = random_measured_tree(rng)
    # rebuilding from the same data revalidates additivity at 1e-12
    BallTree(t.parent, t.measure, t.diameter)
    assert validate_regular_subtree(t, range(t.n_vertices)).ok


@settings(max_examples=25)
@given(seed=st.integers(0, 10**9))
def test_random_tree_sup_descendant_equivalence(seed):
    rng = np.random.default_rng(seed)
    t = random_measured_tree(rng, max_depth=3)
    ids = rng.integers(0, t.n_vertices, size=(200, 2))
    for a, b in ids:
        assert (t.sup(a, b) == a) == t.is_ancestor(a, b)
