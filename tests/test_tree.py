import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import permuted_tree, random_measured_tree, tree_from_leaf_measures
from ultrawave import trees
from ultrawave.errors import ParameterError, SpaceValidationError, UnknownBallError
from ultrawave.trees import BallTree, build_padic_tree

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

    @pytest.mark.parametrize("p,depth", [(2, 22), (3, 14), (2, 40), (2, 10**9), (10**30, 1)])
    def test_vertex_cap(self, p, depth):
        """Each tree has more than 2**22 vertices; none is counted to its end or built."""
        with pytest.raises(ParameterError, match=f"padic\\({p},{depth}\\) has more than the 4194304 vertices"):
            build_padic_tree(p, depth)

    def test_vertex_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(trees, "MAX_PADIC_VERTICES", 15)
        assert build_padic_tree(2, 3).n_vertices == 15
        with pytest.raises(ParameterError):
            build_padic_tree(2, 4)


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


class TestBranching:
    def test_ternary_root(self):
        t = build_padic_tree(3, 1)
        assert t.branching_index(t.root) == 3
        assert len(t.children[t.root]) == 3

    def test_leaf(self):
        t = build_padic_tree(2, 2)
        assert t.children[3] == ()
        assert t.branching_index(3) == 0

    def test_interior(self):
        t = build_padic_tree(2, 2)
        assert t.branching_index(1) == 2


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


@settings(max_examples=25)
@given(seed=st.integers(0, 10**9))
def test_random_tree_sup_descendant_equivalence(seed):
    rng = np.random.default_rng(seed)
    t = random_measured_tree(rng, max_depth=3)
    ids = rng.integers(0, t.n_vertices, size=(200, 2))
    for a, b in ids:
        assert (t.sup(a, b) == a) == t.is_ancestor(a, b)


# -- the pre-order core against test-local copies of the recursive and walking versions


def recursive_leaves_under(tree, i):
    if not tree.children[i]:
        return (i,)
    acc = []
    for c in tree.children[i]:
        acc.extend(recursive_leaves_under(tree, c))
    return tuple(acc)


def walking_is_ancestor(tree, a, d):
    while tree.depth[d] > tree.depth[a]:
        d = tree.parent[d]
    return d == a


def chain_depth(parent, i):
    d = 0
    while parent[i] is not None:
        i = parent[i]
        d += 1
    return d


@settings(max_examples=40)
@given(seed=st.integers(0, 10**9))
def test_pre_order_queries_match_recursive_and_walking_versions(seed):
    rng = np.random.default_rng(seed)
    base = random_measured_tree(rng)
    for t in (base, permuted_tree(rng, base)):
        n = t.n_vertices
        assert sorted(t.order) == list(range(n)) and t.order[0] == t.root
        assert t.depth == tuple(chain_depth(t.parent, i) for i in range(n))
        for i in range(n):
            assert repr(t.leaves_under(i)) == repr(recursive_leaves_under(t, i))
        for a, d in itertools.product(range(n), repeat=2):
            assert t.is_ancestor(a, d) == walking_is_ancestor(t, a, d)


def test_order_is_child_ordered_pre_order():
    t = build_padic_tree(2, 2)
    assert t.order == (0, 1, 3, 4, 2, 5, 6)
    assert t.leaves_under(1) == (3, 4) and t.leaves_under(0) == (3, 4, 5, 6)
    assert t.is_ancestor(np.int64(1), 4) and not t.is_ancestor(1, 5)
    with pytest.raises(UnknownBallError):
        t.is_ancestor(0, 7)
    with pytest.raises(UnknownBallError):
        t.leaves_under(-1)


class TestStructuralErrors:
    @pytest.mark.parametrize("parent,message", [
        ([None, 5], "vertex 1 has out-of-range parent 5"),
        ([None, 0, 0, -1], "vertex 3 has out-of-range parent -1"),
        ([1, 0], "expected exactly one root, found 0"),
        ([None, None, 0], "expected exactly one root, found 2"),
        ([None, 2, 1], "vertex 1 is not reachable from the root"),
    ])
    def test_tree_from_leaf_measures_rejects_bad_parent_lists(self, parent, message):
        with pytest.raises(SpaceValidationError, match=message):
            tree_from_leaf_measures(parent, {i: 1.0 for i in range(len(parent))}, [1.0] * len(parent))
        with pytest.raises(SpaceValidationError, match=message):
            BallTree(parent, [1.0] * len(parent), [1.0] * len(parent))

    @pytest.mark.parametrize("parent", [[None, 0.5, 0], [None, 0, "0"], [None, 0, 0.0]])
    def test_non_integer_parent_names_the_vertex(self, parent):
        bad = next(i for i, p in enumerate(parent) if p is not None and type(p) is not int)
        for build in (lambda: BallTree(parent, [1.0, 0.5, 0.5], [1.0, 0.5, 0.5]),
                      lambda: tree_from_leaf_measures(parent, {1: 0.5, 2: 0.5}, [1.0, 0.5, 0.5])):
            with pytest.raises(SpaceValidationError, match=f"vertex {bad} has non-integer parent") as err:
                build()
            assert err.value.ball == bad

    def test_numpy_integer_parents_are_ids(self):
        t = BallTree([None, np.int64(0), np.int32(0)], [1.0, 0.5, 0.5], [1.0, 0.5, 0.5])
        assert t.children == ((1, 2), (), ()) and t.order == (0, 1, 2)

    def test_leaf_without_a_measure_is_named(self):
        with pytest.raises(SpaceValidationError, match="leaf 2 has no measure") as err:
            tree_from_leaf_measures([None, 0, 0], {1: 0.5}, [1.0, 0.5, 0.5])
        assert err.value.ball == 2

    def test_cyclic_parent_list_is_rejected_in_a_subprocess(self):
        """A cycle once made the bottom-up pass loop forever; a timeout turns a regression into a failure."""
        import ultrawave

        code = (
            "from ultrawave.errors import SpaceValidationError\n"
            "from conftest import tree_from_leaf_measures\n"
            "for parent in ([1, 0], [None, 2, 1], [None, 0, 0, 4, 3]):\n"
            "    try:\n"
            "        tree_from_leaf_measures(parent, dict.fromkeys(range(len(parent)), 1.0), [1.0] * len(parent))\n"
            "    except SpaceValidationError as exc:\n"
            "        print('rejected:', exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([os.path.dirname(os.path.dirname(ultrawave.__file__)),
                                                            os.path.dirname(os.path.abspath(__file__))])}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "rejected: expected exactly one root, found 0",
            "rejected: vertex 1 is not reachable from the root",
            "rejected: vertex 3 is not reachable from the root",
        ]
