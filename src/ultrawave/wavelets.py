"""Wavelet bases attached to the non-leaf balls of a measured tree.

Each ball I with at least two positive-measure maximal subballs carries an
orthonormal family of zero-mean functions that are constant on those
subballs; the families at distinct balls are mutually orthogonal, and
together with the normalized constant ``A**-0.5`` (A the total measure) they
form an orthonormal basis of the measure-weighted L2 space on the leaves.

Basis choice inside one ball:

* all subball measures equal and positive -> character construction,
  ``value(I_k) = (p*m)**-0.5 * exp(2*pi*1j*j*k/p)``,
* otherwise -> the Gram-Schmidt orthonormalization of the zero-mean
  indicator differences ``1_{I_0}/w_0 - 1_{I_t}/w_t`` (t = 1, 2, ...) in
  subball order, with phases fixed so the first nonzero value is real
  positive.  Its rows have a closed form, the unbalanced Haar rows: with
  ``W = w_0 + ... + w_{t-1}`` and ``s = sqrt(1/W + 1/w_t)``, row t is
  ``(1/W)/s`` on the first t subballs, ``-(1/w_t)/s`` on subball t and 0
  after it.

Zero-measure subballs never enter the construction; a ball left with fewer
than two positive-measure subballs contributes no wavelets.

A ``TestFunction`` is a function on the leaves, the points of the space.
``analyze`` takes it to its mean and wavelet coefficients, and
``synthesize`` takes the coefficients back to the values on the leaves.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from operator import index as operator_index, itemgetter
from typing import Iterator, Mapping

import numpy as np

from .errors import DegenerateBallError, DomainError, ParameterError
from .trees import BallTree

EQUAL_MEASURE_RTOL = 1e-12


@dataclass(frozen=True)
class Wavelet:
    """Zero-mean unit-norm function supported on one ball.

    ``values`` maps every maximal subball of ``ball`` to the constant the
    function takes there (0.0 on zero-measure subballs); the function
    vanishes outside ``ball``.
    """

    ball: int
    j: int
    values: Mapping[int, complex]


@functools.cache
def _roots_of_unity(p: int) -> tuple[tuple[complex, ...], ...]:
    """Rows ``exp(2*pi*1j*j*k/p)``, k = 0..p-1, for j = 1..p-1."""
    k = np.arange(p)
    return tuple(tuple(map(complex, np.exp(2j * np.pi * j * k / p))) for j in range(1, p))


def _character_rows(p: int, m: float) -> list[list[complex]]:
    c = 1.0 / math.sqrt(p * m)
    return [[c * z for z in row] for row in _roots_of_unity(p)]


def _haar_rows(weights: list[float]) -> list[list[float]]:
    """Gram-Schmidt rows of the indicator differences, in closed form."""
    q = len(weights)
    rows = []
    total = weights[0]
    for t in range(1, q):
        w = weights[t]
        s = math.sqrt(1.0 / total + 1.0 / w)
        rows.append([(1.0 / total) / s] * t + [-(1.0 / w) / s] + [0.0] * (q - t - 1))
        total += w
    return rows


def wavelet_basis(tree: BallTree, ball: int) -> tuple[Wavelet, ...]:
    """Orthonormal zero-mean basis of the span of subball indicators at ``ball``.

    Returns exactly ``(#positive-measure subballs) - 1`` wavelets, indexed
    j = 1, 2, ...; deterministic given the stored subball order.  Each basis
    is built once per tree and memoized on it (trees are immutable), keyed
    by the checked ball id, so an exact ``int`` found there needs no second
    check; a leaf or degenerate ball raises on every call.
    """
    memo = tree._wavelet_bases
    if type(ball) is int and ball in memo:
        return memo[ball]
    idx = tree.check_ball(ball)
    if idx in memo:
        return memo[idx]
    kids = tree.children[idx]
    if not kids:
        raise ParameterError(f"ball {ball} is a leaf and carries no wavelets")
    pos = [c for c in kids if tree.measure[c] > 0.0]
    if len(pos) < 2:
        raise DegenerateBallError(
            f"ball {ball} has {len(pos)} positive-measure subballs; need at least 2"
        )
    m0 = tree.measure[pos[0]]
    homogeneous = len(pos) == len(kids) and all(
        math.isclose(tree.measure[c], m0, rel_tol=EQUAL_MEASURE_RTOL) for c in kids
    )
    if homogeneous:
        rows = _character_rows(len(kids), m0)
    else:
        rows = _haar_rows([tree.measure[c] for c in pos])
    wavelets = []
    for j, row in enumerate(rows, start=1):
        values = dict.fromkeys(kids, 0j)
        values.update(zip(pos, map(complex, row)))
        wavelets.append(Wavelet(idx, j, values))
    basis = memo[idx] = tuple(wavelets)
    return basis


def basis_sizes(tree: BallTree) -> np.ndarray:
    """The number of wavelets at each ball as a read-only int64 array: 0 at leaves and degenerate balls.

    Equal to ``len(wavelet_basis(tree, b))`` wherever that basis exists, but
    counted from the measures alone (positive-measure subballs less one),
    so no basis is built.  Built on first use and memoized on the tree.
    """
    sizes = tree._basis_sizes
    if sizes is None:
        n = tree.n_vertices
        parent = np.fromiter((-1 if p is None else p for p in tree.parent), dtype=np.int64, count=n)
        positive = (np.array(tree.measure) > 0.0) & (parent >= 0)
        counts = np.bincount(parent[positive], minlength=n)
        sizes = tree._basis_sizes = np.where(counts >= 2, counts - 1, 0)
        sizes.flags.writeable = False
    return sizes


def tree_wavelets(tree: BallTree) -> Iterator[Wavelet]:
    """All wavelets of the tree in (ball id, j) order, skipping degenerate balls."""
    for ball in tree.non_leaf_balls():
        try:
            yield from wavelet_basis(tree, ball)
        except DegenerateBallError:
            continue


def evaluate(tree: BallTree, wavelet: Wavelet, leaf: int) -> complex:
    """Value of the wavelet at a point (leaf); 0 outside its ball."""
    if not tree.is_leaf(leaf):
        raise ParameterError(f"ball {leaf} is not a point of the space")
    if leaf == wavelet.ball or not tree.is_ancestor(wavelet.ball, leaf):
        return 0.0 + 0.0j
    return complex(wavelet.values[tree.child_toward(wavelet.ball, leaf)])


def normalized_constant(tree: BallTree) -> float:
    """The constant with unit norm, ``total_measure**-0.5``."""
    A = tree.total_measure
    if A <= 0.0:
        raise ParameterError("total measure is zero; no normalized constant exists")
    return 1.0 / math.sqrt(A)


@dataclass(frozen=True)
class TestFunction:
    """A function on the points of the tree: ``values`` holds its value at every leaf."""

    __test__ = False  # not a pytest collection target despite the name

    tree: BallTree
    values: Mapping[int, complex]

    def __post_init__(self):
        if set(self.values) != set(self.tree.leaves):
            raise ParameterError("values must be keyed by exactly the leaves of the tree")

    def leaf_values(self) -> dict[int, complex]:
        return {x: complex(v) for x, v in self.values.items()}

    def leaf_vector(self) -> np.ndarray:
        lv = self.leaf_values()
        return np.array([lv[x] for x in self.tree.leaves], dtype=complex)


@dataclass(frozen=True)
class WaveletExpansion:
    """Coefficients of a function: mean against ``A**-0.5`` plus wavelet terms."""

    mean: complex
    coeffs: Mapping[tuple[int, int], complex] = field(default_factory=dict)


def ball_integrals(tree: BallTree, leaf_values: Mapping[int, complex]) -> list[complex]:
    """The integral of f over every ball, in one bottom-up pass over ``reversed(tree.order)``.

    A leaf missing from ``leaf_values`` counts as 0; a ball sums its
    subballs' integrals in child order, so the walk does not change a bit.
    """
    integral: list[complex] = [0j] * tree.n_vertices
    children, measure = tree.children, tree.measure
    for v in reversed(tree.order):
        kids = children[v]
        integral[v] = sum(integral[c] for c in kids) if kids else leaf_values.get(v, 0j) * measure[v]
    return integral


def _require_integer(key, name: str, x) -> None:
    try:
        operator_index(x)
    except TypeError:
        raise DomainError(f"index {key}: {name}={x!r} is not an integer") from None


def analyze(tree: BallTree, f: TestFunction) -> WaveletExpansion:
    """Wavelet coefficients ``<wavelet, f>`` of a function on the leaves, plus the mean coefficient.

    The pairing conjugates the first argument and weights by the measure.
    Every wavelet of the tree gets a coefficient, in ``tree_wavelets`` order.
    """
    if f.tree is not tree:
        raise DomainError("the test function lives on another tree")
    integral = ball_integrals(tree, f.leaf_values())
    coeffs: dict[tuple[int, int], complex] = {}
    for w in tree_wavelets(tree):
        values = w.values
        coeffs[(w.ball, w.j)] = sum(values[c].conjugate() * integral[c] for c in tree.children[w.ball])
    mean = integral[tree.root] * normalized_constant(tree)
    return WaveletExpansion(complex(mean), coeffs)


def synthesize(tree: BallTree, expansion: WaveletExpansion) -> TestFunction:
    """Rebuild the function on the leaves from its coefficients.

    A coefficient must name a wavelet of the tree: a ball with an integer j
    in ``1..len(wavelet_basis(tree, ball))``; anything else raises.

    Each leaf walks its parent chain once and collects the terms of the
    coefficients stored at its strict ancestors, so the cost is
    O(leaves x depth) whatever the number of coefficients.  The terms are
    added to the constant in the insertion order of ``expansion.coeffs``,
    the order of a scan over every coefficient, so the values do not depend
    on the walk.
    """
    # nonzero coefficients by checked ball id, each with its rank in expansion.coeffs
    by_ball: dict[int, list[tuple[int, complex, Mapping[int, complex]]]] = {}
    for rank, ((ball, j), c) in enumerate(expansion.coeffs.items()):
        b = tree.check_ball(ball)
        basis = wavelet_basis(tree, b)
        if type(j) is not int:
            _require_integer((ball, j), "j", j)
        if not (1 <= j <= len(basis)):
            raise DomainError(f"no wavelet with index {j} at ball {ball}")
        if c != 0:
            by_ball.setdefault(b, []).append((rank, c, basis[j - 1].values))
    const = expansion.mean * normalized_constant(tree)
    values: dict[int, complex] = {}
    for t in tree.leaves:
        terms = []
        child, ball = t, tree.parent[t]
        while ball is not None:
            for rank, c, w in by_ball.get(ball, ()):
                terms.append((rank, c * w[child]))
            child, ball = ball, tree.parent[ball]
        terms.sort(key=itemgetter(0))
        acc = complex(const)
        for _, term in terms:
            acc += term
        values[t] = acc
    return TestFunction(tree, values)
