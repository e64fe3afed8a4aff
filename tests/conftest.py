import math

from hypothesis import settings

from ultrawave.errors import SpaceValidationError
from ultrawave.trees import BallTree, _walk

# One profile for every property test: no per-example deadline (timings on a
# shared host vary too much for one), and a failure prints the blob that
# reproduces it with ``@reproduce_failure``.
settings.register_profile("ultrawave", deadline=None, print_blob=True)
settings.load_profile("ultrawave")


def random_measured_tree(rng, max_depth=4, max_branching=4, grow_prob=0.6) -> BallTree:
    """Random tree with depth <= max_depth, branching 2..max_branching,
    positive random leaf measures, interior measures forced by additivity."""
    parent: list[int | None] = [None]
    level = [0]
    frontier = [0]
    for depth in range(1, max_depth + 1):
        new = []
        for node in frontier:
            if depth == 1 or rng.random() < grow_prob:
                k = int(rng.integers(2, max_branching + 1))
                for _ in range(k):
                    parent.append(node)
                    level.append(depth)
                    new.append(len(parent) - 1)
        frontier = new
    n = len(parent)
    children: list[list[int]] = [[] for _ in range(n)]
    for i, p in enumerate(parent):
        if p is not None:
            children[p].append(i)
    diameter = [0.0] * n
    diameter[0] = 1.0
    for i in range(1, n):
        diameter[i] = diameter[parent[i]] * float(rng.uniform(0.3, 0.7))
    measure = [0.0] * n
    for i in sorted(range(n), key=lambda v: -level[v]):
        if children[i]:
            measure[i] = float(sum(measure[c] for c in children[i]))
        else:
            measure[i] = float(rng.uniform(0.1, 2.0))
    return BallTree(parent, measure, diameter)


def tree_from_leaf_measures(parent, leaf_measure, diameter) -> BallTree:
    """A tree whose interior measures are summed bottom-up from leaf data.

    Forcing additivity avoids drift between levels when only the point
    masses are known.  The parent list goes through the walk ``BallTree``
    runs, so it is rejected the same way; a leaf missing from
    ``leaf_measure`` raises ``SpaceValidationError``.
    """
    _, children, order = _walk(parent)
    measure = [0.0] * len(parent)
    for i in reversed(order):
        if children[i]:
            measure[i] = math.fsum(measure[c] for c in children[i])
        elif i in leaf_measure:
            measure[i] = float(leaf_measure[i])
        else:
            raise SpaceValidationError(f"leaf {i} has no measure", ball=i)
    return BallTree(parent, measure, diameter)


def with_zero_leaves(rng, tree, fraction=0.3) -> BallTree:
    """The same tree with a random share of its leaf measures set to 0."""
    leaf_measure = {x: (0.0 if rng.random() < fraction else tree.measure[x]) for x in tree.leaves}
    if not any(leaf_measure.values()):
        leaf_measure[tree.leaves[0]] = 1.0
    return tree_from_leaf_measures(tree.parent, leaf_measure, tree.diameter)


def permuted_tree(rng, tree) -> BallTree:
    """The same tree with its vertex ids shuffled, so children no longer follow their parent's id."""
    perm = [int(x) for x in rng.permutation(tree.n_vertices)]
    parent = [None] * tree.n_vertices
    measure = [0.0] * tree.n_vertices
    diameter = [0.0] * tree.n_vertices
    for i in range(tree.n_vertices):
        p = tree.parent[i]
        parent[perm[i]] = None if p is None else perm[p]
        measure[perm[i]] = tree.measure[i]
        diameter[perm[i]] = tree.diameter[i]
    return BallTree(parent, measure, diameter)


def random_table_symbol(rng, tree: BallTree, real=False):
    from ultrawave.operators import TableSymbol

    entries = {}
    for b in tree.non_leaf_balls():
        if real:
            entries[b] = complex(rng.standard_normal())
        else:
            entries[b] = complex(rng.standard_normal(), rng.standard_normal())
    return TableSymbol(entries)


def random_leaf_function(rng, tree: BallTree):
    from ultrawave.wavelets import TestFunction

    values = {
        x: complex(rng.standard_normal(), rng.standard_normal()) for x in tree.leaves
    }
    return TestFunction(tree, values)
