"""Measured ball trees.

A finite ultrametric space is represented by the directed tree of its balls:
vertices are integer ids ``0..n-1``, each carrying a measure and a diameter,
with edges given by immediate inclusion.  Leaves play the role of points.
Trees are immutable after construction; every operation here is a pure read
(apart from filling memo caches with values that depend only on the tree),
so instances can be shared freely between threads.

Structural invariants enforced at construction:

* the measure of a non-leaf ball equals the sum over its maximal subballs
  (relative tolerance ``ADDITIVITY_RTOL``),
* diameters strictly decrease from parent to child (leaves may have 0),
* every non-leaf ball has at least two maximal subballs.

Zero-measure balls are allowed but flagged; downstream constructions skip
them where a positive measure is required.

Construction walks the parent list once.  The walk builds the children,
finds the root, and raises ``SpaceValidationError`` for an out-of-range
parent, for other than one root and for a vertex the root does not reach
(how a cycle shows).  Its child-ordered pre-order is kept as ``order``
with each ball's position and subtree size: a ball's descendants are one
slice of ``order``, so ``is_ancestor`` is an O(1) comparison,
``leaves_under`` a slice, and ``reversed(order)`` serves every bottom-up
pass.
"""

from __future__ import annotations

import math
from operator import index as operator_index
from typing import Iterator, Sequence

from .errors import ParameterError, SpaceValidationError, UnknownBallError

ADDITIVITY_RTOL = 1e-12
MAX_PADIC_VERTICES = 1 << 22  # build_padic_tree refuses a larger tree before allocating it


class BallTree:
    """Finite tree of balls with measures and diameters.

    Children are kept in construction order (ascending id for the built-in
    constructors); all deterministic tie-breaks downstream rely on that order.
    """

    def __init__(
        self,
        parent: Sequence[int | None],
        measure: Sequence[float],
        diameter: Sequence[float],
        padic: tuple[int, int] | None = None,
    ):
        n = len(parent)
        if n == 0:
            raise ParameterError("a tree needs at least one vertex")
        if len(measure) != n or len(diameter) != n:
            raise ParameterError("parent/measure/diameter lengths disagree")
        self.parent = tuple(parent)
        self.measure = tuple(float(m) for m in measure)
        self.diameter = tuple(float(d) for d in diameter)
        self.padic = padic

        self.root, self.children, order = _walk(self.parent)
        self.order = tuple(order)
        depth = [0] * n
        pos = [0] * n
        for k, v in enumerate(order):
            pos[v] = k
            for c in self.children[v]:
                depth[c] = depth[v] + 1
        size = [1] * n
        for v in reversed(order[1:]):
            size[self.parent[v]] += size[v]
        self.depth = tuple(depth)
        self._pos = tuple(pos)
        self._size = tuple(size)

        self.leaves = tuple(i for i in range(n) if not self.children[i])
        self.zero_measure = frozenset(i for i in range(n) if self.measure[i] == 0.0)
        self._wavelet_bases: dict[int, tuple] = {}  # filled by wavelets.wavelet_basis
        self._basis_sizes = None  # filled by wavelets.basis_sizes
        self._validate()

    # -- structure checks -------------------------------------------------

    def _validate(self) -> None:
        for i in range(self.n_vertices):
            m = self.measure[i]
            if not math.isfinite(m) or m < 0:
                raise SpaceValidationError(f"ball {i} has invalid measure {m}", ball=i)
            if not math.isfinite(self.diameter[i]) or self.diameter[i] < 0:
                raise SpaceValidationError(f"ball {i} has invalid diameter {self.diameter[i]}", ball=i)
            kids = self.children[i]
            if not kids:
                continue
            if len(kids) < 2:
                raise SpaceValidationError(f"non-leaf ball {i} has a single maximal subball", ball=i)
            total = math.fsum(self.measure[c] for c in kids)
            tol = ADDITIVITY_RTOL * max(m, total, 1.0)
            if abs(m - total) > tol:
                raise SpaceValidationError(
                    f"measure of ball {i} is {m} but its subballs sum to {total}", ball=i
                )
            for c in kids:
                if not self.diameter[c] < self.diameter[i]:
                    raise SpaceValidationError(
                        f"diameter does not strictly decrease from ball {i} to ball {c}", ball=c
                    )

    # -- basic queries ------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.parent)

    @property
    def total_measure(self) -> float:
        return self.measure[self.root]

    def check_ball(self, i: int) -> int:
        try:
            idx = operator_index(i)
        except TypeError:
            raise UnknownBallError(f"ball id {i!r} does not belong to this tree") from None
        if not (0 <= idx < self.n_vertices):
            raise UnknownBallError(f"ball id {i!r} does not belong to this tree")
        return idx

    def is_leaf(self, i: int) -> bool:
        return not self.children[self.check_ball(i)]

    def branching_index(self, i: int) -> int:
        return len(self.children[self.check_ball(i)])

    def non_leaf_balls(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n_vertices) if self.children[i])

    def ancestors(self, i: int) -> Iterator[int]:
        """Strict ancestors of ``i``, nearest first."""
        p = self.parent[self.check_ball(i)]
        while p is not None:
            yield p
            p = self.parent[p]

    def is_ancestor(self, a: int, d: int) -> bool:
        """True iff ``a`` contains ``d`` (a ball contains itself); O(1) through the pre-order."""
        a = self.check_ball(a)
        start = self._pos[a]
        return start <= self._pos[self.check_ball(d)] < start + self._size[a]

    def sup(self, a: int, b: int) -> int:
        """Minimal ball containing both arguments (lowest common ancestor)."""
        a = self.check_ball(a)
        b = self.check_ball(b)
        while self.depth[a] > self.depth[b]:
            a = self.parent[a]
        while self.depth[b] > self.depth[a]:
            b = self.parent[b]
        while a != b:
            a = self.parent[a]
            b = self.parent[b]
        return a

    def child_toward(self, anc: int, desc: int) -> int:
        """The maximal subball of ``anc`` containing ``desc``."""
        self.check_ball(anc)
        d = self.check_ball(desc)
        if self.depth[d] <= self.depth[anc]:
            raise ParameterError(f"ball {desc} is not strictly inside ball {anc}")
        while self.depth[d] > self.depth[anc] + 1:
            d = self.parent[d]
        if self.parent[d] != anc:
            raise ParameterError(f"ball {desc} is not inside ball {anc}")
        return d

    def leaves_under(self, i: int) -> tuple[int, ...]:
        """The leaves inside ball ``i``, in pre-order: a slice of ``order``."""
        i = self.check_ball(i)
        start = self._pos[i]
        children = self.children
        return tuple(v for v in self.order[start:start + self._size[i]] if not children[v])


def _walk(parent: Sequence[int | None]) -> tuple[int, tuple[tuple[int, ...], ...], list[int]]:
    """The root, the children (in id order) and the child-ordered pre-order of a parent list.

    Raises ``SpaceValidationError`` for a parent that is not an integer id
    or is out of range, for a number of roots other than one, and for a
    vertex the root does not reach, which is how a cycle in the parent list
    shows.
    """
    n = len(parent)
    children: list[list[int]] = [[] for _ in range(n)]
    roots = []
    try:  # the comparison and the list index take any integer id (numpy integers too)
        for i, p in enumerate(parent):
            if p is None:
                roots.append(i)
            elif not (0 <= p < n):
                raise SpaceValidationError(f"vertex {i} has out-of-range parent {p}", ball=i)
            else:
                children[p].append(i)
    except TypeError:
        raise SpaceValidationError(f"vertex {i} has non-integer parent {p!r}", ball=i) from None
    if len(roots) != 1:
        raise SpaceValidationError(f"expected exactly one root, found {len(roots)}")
    order = []
    stack = roots
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(children[v]))
    if len(order) != n:
        missing = min(set(range(n)).difference(order))
        raise SpaceValidationError(f"vertex {missing} is not reachable from the root", ball=missing)
    return order[0], tuple(map(tuple, children)), order


def build_padic_tree(p: int, depth: int) -> BallTree:
    """Full p-ary tree of the given depth.

    The root has measure and diameter 1; a ball at level k has measure and
    diameter ``p**-k``; children are ordered by digit 0..p-1.  Vertex ids are
    assigned level by level, so level k occupies ids
    ``(p**k - 1)//(p - 1) .. (p**(k+1) - 1)//(p - 1) - 1``.  A tree of more
    than ``MAX_PADIC_VERTICES`` vertices raises ParameterError.
    """
    if not isinstance(p, int) or isinstance(p, bool) or p < 2:
        raise ParameterError(f"p must be an integer >= 2, got {p!r}")
    if not isinstance(depth, int) or isinstance(depth, bool) or depth < 1:
        raise ParameterError(f"depth must be an integer >= 1, got {depth!r}")
    total = level = 1
    for _ in range(depth):  # at most 22 passes, since p >= 2
        level *= p
        total += level
        if total > MAX_PADIC_VERTICES:
            raise ParameterError(f"padic({p},{depth}) has more than the {MAX_PADIC_VERTICES} vertices allowed")
    parent: list[int | None] = [None]
    measure = [1.0]
    diameter = [1.0]
    offset_prev = 0
    level_size = 1
    for k in range(1, depth + 1):
        scale = float(p) ** -k
        for m in range(level_size * p):
            parent.append(offset_prev + m // p)
            measure.append(scale)
            diameter.append(scale)
        offset_prev += level_size
        level_size *= p
    return BallTree(parent, measure, diameter, padic=(p, depth))
