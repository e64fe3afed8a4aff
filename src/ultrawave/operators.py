"""Integral operators with kernels of the form T(sup(x, y)).

A symbol assigns a complex value to every non-leaf ball; symbol values at
leaves are never consumed (the sup of two distinct points is a non-leaf
ball, and the diagonal term of the kernel vanishes).  Wavelets diagonalize
these operators; the eigenvalue at a ball I is the finite sum

    lambda_I = T(I) * nu(I) + sum over strict ancestors J of
               T(J) * (nu(J) - nu(child of J on the path to I)).

``eigenvalue`` evaluates this sum for one ball, O(depth).  ``spectrum``
computes every eigenvalue in one top-down pass that carries the ancestor
sum from parent to child, O(n) with one symbol value per non-leaf ball; the
two agree up to the summation order (about 1e-16 relative per level).

``apply_dense`` applies the kernel definition directly on leaf values and is
kept deliberately independent of the eigenvalue formula: it is the O(n^2)
oracle the spectral path is tested against.

Scale-homogeneous symbols ``c * diameter**-beta`` on p-adic trees admit an
analytic tail for the infinite upward extension of the truncation: the k-th
ancestor above the root contributes ``c * (1 - 1/p) * p**(k*(1-beta))``, a
geometric series with ratio ``p**(1-beta)`` that converges iff beta > 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (
    DivergenceError,
    DomainError,
    NonFiniteError,
    ParameterError,
    UnsupportedTailError,
)
from .trees import BallTree
from .wavelets import TestFunction


@dataclass(frozen=True)
class TableSymbol:
    """Explicit map from non-leaf ball ids to complex values."""

    entries: Mapping[int, complex]

    def __post_init__(self):
        for ball, v in self.entries.items():
            if not cmath.isfinite(v):
                raise ParameterError(f"table symbol needs finite values, got {v!r} at ball {ball}")

    def value(self, tree: BallTree, ball: int) -> complex:
        tree.check_ball(ball)
        try:
            return complex(self.entries[ball])
        except KeyError:
            raise DomainError(f"table symbol has no value at ball {ball}") from None


@dataclass(frozen=True)
class HomogeneousSymbol:
    """Closed form ``c * diameter(ball)**-beta``; optional upward tail."""

    c: complex = 1.0
    beta: float = 1.0
    tail: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.beta) and cmath.isfinite(self.c)):
            raise ParameterError(
                f"homogeneous symbol needs a finite beta and c, got beta={self.beta!r}, c={self.c!r}"
            )

    def value(self, tree: BallTree, ball: int) -> complex:
        d = tree.diameter[tree.check_ball(ball)]
        if d <= 0.0:
            raise DomainError(f"ball {ball} has zero diameter; symbol undefined")
        try:
            scale = d ** -self.beta
        except OverflowError:
            raise NonFiniteError(f"symbol value at ball {ball} overflows: diameter {d} ** -{self.beta}") from None
        value = complex(self.c) * scale
        if not cmath.isfinite(value):
            raise NonFiniteError(f"symbol value at ball {ball} overflows: {self.c} * {d} ** -{self.beta} = {value}")
        return value


Symbol = TableSymbol | HomogeneousSymbol


def _tail_ratio(p: int, beta: float) -> float:
    """The tail's geometric ratio ``p**(1-beta)``; ``inf`` when a float cannot hold it."""
    try:
        return float(p) ** (1.0 - beta)
    except OverflowError:
        return math.inf


def _tail_sum(tree: BallTree, symbol: Symbol) -> complex | None:
    """The analytic tail the symbol's ``tail`` field asks for; None when it asks for none."""
    if not (isinstance(symbol, HomogeneousSymbol) and symbol.tail):
        return None
    if tree.padic is None:
        raise UnsupportedTailError("analytic tails are defined on p-adic trees only")
    p = tree.padic[0]
    if symbol.c == 0:
        return 0.0 + 0.0j
    ratio = _tail_ratio(p, symbol.beta)
    if ratio >= 1.0:
        raise DivergenceError(
            f"upward extension diverges: geometric ratio p**(1-beta) = {ratio} >= 1"
        )
    return complex(symbol.c) * (1.0 - 1.0 / p) * ratio / (1.0 - ratio)


def eigenvalue(tree: BallTree, symbol: Symbol, ball: int) -> complex:
    """Eigenvalue of the operator on the wavelets attached to ``ball``."""
    if tree.is_leaf(ball):
        raise ParameterError(f"ball {ball} is a leaf; wavelets attach to non-leaf balls")
    lam = symbol.value(tree, ball) * tree.measure[ball]
    below = ball
    for anc in tree.ancestors(ball):
        lam += symbol.value(tree, anc) * (tree.measure[anc] - tree.measure[below])
        below = anc
    extra = _tail_sum(tree, symbol)
    if extra is not None:
        lam += extra
    return complex(lam)


def spectrum(tree: BallTree, symbol: Symbol) -> dict[int, complex]:
    """Every eigenvalue in one top-down pass, as a dict keyed by ``tree.non_leaf_balls()`` in ascending id.

    The ancestor sum of a ball's child is the ball's own sum plus one term,
    ``P(child) = P(v) + T(v) * (nu(v) - nu(child))``, so
    ``lambda_v = T(v) * nu(v) + P(v)`` costs one symbol value per ball.  When
    a symbol value or the tail fails, the per-ball ``eigenvalue`` loop runs
    instead and raises exactly the error it raises for the first ball.
    """
    balls = tree.non_leaf_balls()
    if not balls:
        return {}
    try:
        t = {b: symbol.value(tree, b) for b in balls}
        extra = _tail_sum(tree, symbol)
    except Exception:
        for b in balls:
            eigenvalue(tree, symbol, b)
        raise
    measure, children = tree.measure, tree.children
    lam = {}
    stack = [(tree.root, None)]  # (ball, its ancestor sum P; None at the root)
    while stack:
        v, pv = stack.pop()
        tv, nv = t[v], measure[v]
        lam[v] = tv * nv if pv is None else tv * nv + pv
        for c in children[v]:
            if children[c]:
                term = tv * (nv - measure[c])
                stack.append((c, term if pv is None else pv + term))
    if extra is None:
        return {b: lam[b] for b in balls}
    return {b: lam[b] + extra for b in balls}


def operator_matrix(tree: BallTree, symbol: Symbol) -> np.ndarray:
    """Dense matrix of the operator on leaf values, ordered like ``tree.leaves``."""
    leaves = tree.leaves
    index = {x: i for i, x in enumerate(leaves)}
    n = len(leaves)
    tsup = np.zeros((n, n), dtype=complex)
    for ball in tree.non_leaf_balls():
        t = symbol.value(tree, ball)
        groups = [np.array([index[x] for x in tree.leaves_under(c)]) for c in tree.children[ball]]
        for gi, g1 in enumerate(groups):
            for g2 in groups[gi + 1:]:
                tsup[np.ix_(g1, g2)] = t
                tsup[np.ix_(g2, g1)] = t
    nu = np.array([tree.measure[x] for x in leaves])
    weighted = tsup * nu[None, :]
    return np.diag(weighted.sum(axis=1)) - weighted


def apply_dense(tree: BallTree, symbol: Symbol, f: TestFunction) -> TestFunction:
    """Brute-force kernel application: (Tf)(x) = sum_y T(sup(x,y)) (f(x)-f(y)) nu(y)."""
    if f.tree is not tree:
        raise DomainError("the test function lives on another tree")
    out = operator_matrix(tree, symbol) @ f.leaf_vector()
    return TestFunction(tree, dict(zip(tree.leaves, (complex(v) for v in out))))
