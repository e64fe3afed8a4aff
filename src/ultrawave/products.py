"""Products of ball trees: hypergraph vertices, edges, and tensor wavelets.

A ``ProductSpace`` holds its n factor trees.  A vertex of the product is an
n-tuple whose i-th component is a ball of tree i or, in the augmented
product, the marker ``TOP`` sitting above every ball of that tree (every
tree has finite total measure).  The component carried by ``TOP`` is the
normalized constant ``A**-0.5``.  Vertices are never materialized as a
collection; iteration is lazy because the vertex count is multiplicative.

A vertex is generic when every component is a non-leaf ball or ``TOP``;
generic vertices carry tensor-product wavelets.  Decreasing edges of maximal
dimension at a vertex are cubes obtained by stepping one child down in every
component that has children; ``TOP`` and leaves contribute no direction.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError, ParameterError, UnknownBallError
from .operators import Symbol, spectrum
from .trees import BallTree
from .wavelets import Wavelet, evaluate, normalized_constant, tree_wavelets


class _Top:
    """Marker for the formal vertex above all balls of a finite-measure factor."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "TOP"


TOP = _Top()

Component = int | _Top
Vertex = tuple[Component, ...]


def vertex_key(v: Vertex) -> tuple[tuple[int, int], ...]:
    return tuple((1, 0) if c is TOP else (0, c) for c in v)


class ProductSpace:
    """Lazy product of factor trees with vertex iteration and membership tests.

    ``factors`` holds the trees themselves.  ``augmented=True`` adds ``TOP``
    to every factor's components.
    """

    def __init__(self, trees: Sequence[BallTree]):
        if len(trees) == 0:
            raise ParameterError("a product needs at least one factor")
        self.factors = tuple(trees)

    @property
    def n(self) -> int:
        return len(self.factors)

    def _check_vertex(self, v: Vertex) -> Vertex:
        if len(v) != self.n:
            raise ParameterError(f"vertex arity {len(v)} does not match {self.n} factors")
        for c, tree in zip(v, self.factors):
            if c is not TOP:
                tree.check_ball(c)
        return v

    def vertices(self, augmented: bool = False) -> Iterator[Vertex]:
        top: list[Component] = [TOP] if augmented else []
        yield from itertools.product(*([*range(tree.n_vertices), *top] for tree in self.factors))

    def contains(self, v: Vertex, augmented: bool = False) -> bool:
        if len(v) != self.n:
            return False
        for c, tree in zip(v, self.factors):
            if c is TOP:
                if not augmented:
                    return False
            else:
                try:
                    tree.check_ball(c)
                except UnknownBallError:
                    return False
        return True

    def sup(self, a: Vertex, b: Vertex) -> Vertex:
        self._check_vertex(a)
        self._check_vertex(b)
        out: list[Component] = []
        for ca, cb, tree in zip(a, b, self.factors):
            if ca is TOP or cb is TOP:
                out.append(TOP)
            else:
                out.append(tree.sup(ca, cb))
        return tuple(out)


@dataclass(frozen=True)
class Edge:
    """A decreasing cube edge: one child chosen per stepped factor position."""

    top: Vertex
    positions: tuple[int, ...]
    choices: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.positions)

    def corners(self) -> dict[frozenset[int], Vertex]:
        """Corner vertices keyed by the set of stepped positions.

        The partial order is reverse inclusion of the key sets: the empty set
        is the largest corner (the edge's top vertex), the full set the
        smallest, and those two sit on the cube's main diagonal.
        """
        out: dict[frozenset[int], Vertex] = {}
        for r in range(self.dimension + 1):
            for subset in itertools.combinations(range(self.dimension), r):
                v = list(self.top)
                for s in subset:
                    v[self.positions[s]] = self.choices[s]
                out[frozenset(self.positions[s] for s in subset)] = tuple(v)
        return out

    @property
    def largest(self) -> Vertex:
        return self.top

    @property
    def smallest(self) -> Vertex:
        v = list(self.top)
        for pos, ch in zip(self.positions, self.choices):
            v[pos] = ch
        return tuple(v)


@dataclass(frozen=True)
class EdgeFan:
    """Maximal-dimension decreasing edges that start at one vertex."""

    max_dimension: int
    count: int
    _space: ProductSpace
    _vertex: Vertex
    _positions: tuple[int, ...]

    def __iter__(self) -> Iterator[Edge]:
        if not self._positions:
            return
        child_lists = [self._space.factors[p].children[self._vertex[p]] for p in self._positions]
        for choices in itertools.product(*child_lists):
            yield Edge(self._vertex, self._positions, tuple(choices))


def decreasing_edges(space: ProductSpace, vertex: Vertex) -> EdgeFan:
    """Maximal decreasing edges at a vertex: dimension, count, and enumerator.

    The dimension is the number of components with children; the count is
    the product of their branching indices.
    """
    space._check_vertex(vertex)
    positions = tuple(
        i
        for i, (c, tree) in enumerate(zip(vertex, space.factors))
        if c is not TOP and not tree.is_leaf(c)
    )
    count = 1
    for p in positions:
        count *= space.factors[p].branching_index(vertex[p])
    if not positions:
        count = 0
    return EdgeFan(len(positions), count, space, vertex, positions)


@dataclass(frozen=True)
class MultiWavelet:
    """Tensor product of factor wavelets / normalized constants at a generic vertex.

    ``parts[i]`` is the factor-i wavelet, or None when component i is TOP and
    the factor contributes the constant ``A_i**-0.5``.  ``j[i]`` is the
    factor wavelet index, None at TOP components.
    """

    vertex: Vertex
    j: tuple[int | None, ...]
    parts: tuple[Wavelet | None, ...]

    def leaf_vector(self, space: ProductSpace) -> np.ndarray:
        vecs = []
        for part, tree in zip(self.parts, space.factors):
            if part is None:
                vecs.append(np.full(len(tree.leaves), normalized_constant(tree), dtype=complex))
            else:
                vecs.append(np.array([evaluate(tree, part, x) for x in tree.leaves]))
        out = np.array([1.0 + 0.0j])
        for v in vecs:
            out = np.kron(out, v)
        return out


def multiwavelet_basis(space: ProductSpace, augmented: bool = True) -> Iterator[MultiWavelet]:
    """All tensor wavelets over generic vertices, in deterministic order."""
    per_factor: list[list[tuple[Component, int | None, Wavelet | None]]] = []
    for tree in space.factors:
        top = [(TOP, None, None)] if augmented else []
        per_factor.append([(w.ball, w.j, w) for w in tree_wavelets(tree)] + top)
    for combo in itertools.product(*per_factor):
        yield MultiWavelet(
            vertex=tuple(e[0] for e in combo),
            j=tuple(e[1] for e in combo),
            parts=tuple(e[2] for e in combo),
        )


class MultiOperator:
    """Polynomial combination of per-factor operators.

    ``terms`` is a list of ``(indices, coefficient)`` pairs where ``indices``
    is a tuple of 0-based factor positions; the term acts as the composition
    of the factor operators at those positions.  An empty tuple is a constant
    (identity) term.  The eigenvalue at a generic vertex is the same
    polynomial evaluated on the per-factor eigenvalues, with the eigenvalue
    at a TOP component equal to 0 because each factor operator kills
    constants.
    """

    def __init__(
        self,
        factors: Sequence[tuple[BallTree, Symbol]],
        terms: Sequence[tuple[tuple[int, ...], complex]],
    ):
        if len(factors) == 0:
            raise ParameterError("an operator needs at least one factor")
        self.factors = tuple((t, s) for t, s in factors)
        checked = []
        for indices, coeff in terms:
            idx = tuple(int(i) for i in indices)
            for i in idx:
                if not (0 <= i < len(self.factors)):
                    raise ParameterError(f"term index {i} out of range for {len(self.factors)} factors")
            coeff = complex(coeff)
            if not cmath.isfinite(coeff):
                raise ParameterError(f"operator terms need finite coefficients, got {coeff!r}")
            checked.append((idx, coeff))
        self.terms = tuple(checked)
        self._spectra: list[dict[int, complex] | None] = [None] * len(self.factors)

    @property
    def n(self) -> int:
        return len(self.factors)

    @classmethod
    def single(cls, tree: BallTree, symbol: Symbol) -> "MultiOperator":
        return cls([(tree, symbol)], [((0,), 1.0)])

    def factor_eigenvalue(self, i: int, ball: int) -> complex:
        cache = self._spectra[i]
        if cache is None:
            tree, symbol = self.factors[i]
            cache = spectrum(tree, symbol)
            self._spectra[i] = cache
        return cache[ball]

    def lambda_vector(self, vertex: Vertex) -> tuple[complex, ...]:
        if len(vertex) != self.n:
            raise ParameterError(f"vertex arity {len(vertex)} does not match {self.n} factors")
        out = []
        for i, c in enumerate(vertex):
            if c is TOP:
                out.append(0.0 + 0.0j)
            else:
                tree = self.factors[i][0]
                if tree.is_leaf(c):
                    raise DomainError(f"component {c} of {vertex} is minimal; vertex is not generic")
                out.append(self.factor_eigenvalue(i, c))
        return tuple(out)

    def form(self, lams: Sequence[complex]) -> complex:
        """The multilinear form defining the operator, evaluated at a vector."""
        total = 0.0 + 0.0j
        for indices, coeff in self.terms:
            total += coeff * math.prod((lams[i] for i in indices), start=1.0 + 0.0j)
        return complex(total)

    def form_arrays(
        self, re: Sequence[np.ndarray], im: Sequence[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``form`` and the term scale over arrays of per-factor eigenvalues.

        ``re[i]`` and ``im[i]`` hold factor i's eigenvalues (from
        ``factor_eigenvalue``); all of them broadcast together.  Returns the
        real part, the imaginary part and the term scale (the largest term
        magnitude, 1.0 where every term vanishes) at every point, bit for bit
        what ``form`` and ``abs`` give on Python ``complex``.  numpy's complex
        multiply and ``abs`` fuse operations in their SIMD loops and can differ
        in the last bit, so each product is spelled out on float arrays in
        CPython's order, starting from ``1+0j`` as ``math.prod`` does, and
        magnitudes are taken with ``np.hypot``.
        """
        shape = np.broadcast_shapes(*(np.shape(a) for a in (*re, *im)))
        mags = [np.hypot(r, i) for r, i in zip(re, im)]
        total_re, total_im, best = np.zeros(shape), np.zeros(shape), np.zeros(shape)
        with np.errstate(over="ignore", invalid="ignore"):
            for indices, coeff in self.terms:
                p_re, p_im, mag = 1.0, 0.0, abs(coeff)
                for i in indices:
                    p_re, p_im = p_re * re[i] - p_im * im[i], p_re * im[i] + p_im * re[i]
                    mag = mag * mags[i]
                total_re += coeff.real * p_re - coeff.imag * p_im
                total_im += coeff.real * p_im + coeff.imag * p_re
                np.copyto(best, mag, where=mag > best)  # max(best, mag): a NaN mag never wins
        np.copyto(best, 1.0, where=~(best > 0.0))
        return total_re, total_im, best

    def eigenvalue(self, vertex: Vertex) -> complex:
        return self.form(self.lambda_vector(vertex))

    def space(self) -> ProductSpace:
        return ProductSpace([t for t, _ in self.factors])
