"""Generalized functions as sparse wavelet-coefficient series.

A generalized function on a product of factor trees is determined by

* an anchor vertex (a tuple of positive-measure balls, one per factor) and
  the anchor value ``u0``, fixing its pairing with the anchor's indicator,
* a sparse map of extended coefficients keyed by ``(vertex, j)``: a tuple of
  balls and a tuple of per-factor indices where ``j[i] >= 1`` selects a
  factor wavelet and ``j[i] == 0`` the anchor indicator of factor i (only
  meaningful when ``vertex[i]`` is the anchor ball of that factor).

Pairings with indicator functions reduce to finite sums: per factor, a
wavelet term contributes only when its ball lies strictly above the argument
ball or strictly above the anchor ball, and at most up to their sup; all
higher terms cancel exactly.  ``eval_on_char_nd`` implements that closed
form without any index over the stored coefficients.  Per factor it lists
the candidate (ball, j) pairs: j = 0 at the anchor ball, and every wavelet
index at the strict ancestors of the argument and of the anchor up to their
sup.  It then probes ``coeffs`` once per combination, so a pairing costs
prod_i (1 + sum over those balls b of (#children(b) - 1)) lookups (at most
225 on padic(2,7)**2) whatever the number of stored coefficients.  The
combinations are visited in sorted key order, so the sum is the one the
all-terms scan gives, bit for bit; that honest all-terms summation lives in
the test suite as its oracle.

Construction checks the keys as int64 id columns, one vectorized mask per
factor: an id of the tree, j = 0 only at the anchor ball, otherwise
1 <= j <= ``basis_sizes`` at the ball (0 at a leaf or a degenerate ball).
It builds no wavelet basis and costs O(keys).  The io loader and ``solve``
hand their columns over in a ``KeyColumns``; the columns of any other
mapping come from its keys.  There ids may be of any integer type (``int``,
``bool``, numpy integers): ids that are not all exact ``int`` go through
``operator.index``, and every id is stored as given.  A bad row, an id that
is not an integer or does not fit int64, or a key of another arity sends the
input to the key-by-key check, which raises at the first bad key or value in
insertion order.

Both containers keep the (keys x n) ball and j columns, row for row with
their keys, and ``items()`` sorts them by one ``np.lexsort`` over the
columns: by vertex, then by j, the tuple order of the keys.

A rank-1 test function costs one bottom-up pass of ball integrals per
factor.  ``eval_on_product`` turns each factor's pass into a (ball, j) ->
term factor table, then multiplies every stored coefficient by one table
entry per factor: O(sum of n_i * p_i + coefficients * n), whatever the size
of the balls.  Masses are summed up the tree rather than over sorted leaves,
so values may differ from the old leaf sums in the last bits.
``eval_extended`` needs no pass at all: the extended family is dual to the
coefficient keys, so its value is one ``coeffs`` probe.

A Lizorkin series is the same coefficient data without an anchor, restricted
to true wavelet indices (all ``j[i] >= 1``); it pairs with mean-zero
expansions coefficient by coefficient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from operator import index as operator_index, itemgetter
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import AnchorError, DegenerateBallError, DomainError, ParameterError
from .products import MultiOperator
from .trees import BallTree
from .wavelets import WaveletExpansion, _require_integer, ball_integrals, basis_sizes, tree_wavelets, wavelet_basis

Key = tuple[tuple[int, ...], tuple[int, ...]]

MEAN_ZERO_RTOL = 1e-12


def _as_nd_key(key) -> Key:
    vertex, j = key
    if type(key) is tuple and type(vertex) is tuple and type(j) is tuple:
        return key  # already normalized; skips allocating an equal tuple
    if not isinstance(vertex, (tuple, list)):  # a (ball, j) shorthand of any id type
        vertex = (vertex,)
    if not isinstance(j, (tuple, list)):
        j = (j,)
    return tuple(vertex), tuple(j)


def _check_anchor(trees: Sequence[BallTree], anchor: Sequence[int]) -> None:
    """Raise unless each anchor ball belongs to its tree and has positive measure."""
    for tree, b in zip(trees, anchor):
        tree.check_ball(b)
        if tree.measure[b] <= 0.0:
            raise AnchorError(f"anchor ball {b} has zero measure")


class KeyColumns(dict):
    """A coefficient dict that also holds its keys' ids as int64 columns.

    ``balls`` and ``js`` are (records x factors) arrays, one row per record
    the dict was built from, in record order (a repeated key repeats its
    row).  The io loader (from ids it has checked to be exact ``int``) and
    ``solve`` build one; ``_checked`` then takes the columns as they are.
    """

    def __init__(self, items, balls: np.ndarray, js: np.ndarray):
        super().__init__(items)
        self.balls, self.js = balls, js


def _id_columns(keys: list, n: int, dtype=np.int64) -> list[np.ndarray]:
    """The ball and the j ids of normalized keys of arity ``n``, each as a (keys x n) array of ``dtype``.

    Raises ValueError for a key of another arity, TypeError for an id that
    is not an integer (ids that are not all exact ``int`` go through
    ``operator.index``, so ``2.0`` cannot pass as ``2``) and OverflowError
    for one beyond int64.
    """
    columns = []
    for part in (list(map(itemgetter(0), keys)), list(map(itemgetter(1), keys))):
        if not set(map(len, part)) <= {n}:
            raise ValueError(f"a key does not have arity {n}")
        ids = list(itertools.chain.from_iterable(part))
        if not set(map(type, ids)) <= {int}:
            ids = list(map(operator_index, ids))
        columns.append(np.array(ids, dtype=dtype).reshape(len(keys), n))
    return columns


def _key_order(balls: np.ndarray, js: np.ndarray) -> np.ndarray:
    """The rows of the id columns in sorted key order, by vertex and then by j: one ``np.lexsort``."""
    return np.lexsort([*js.T[::-1], *balls.T[::-1]])


def _checked(coeffs: Mapping, n: int, columns_ok, check_key) -> tuple[dict[Key, complex], np.ndarray, np.ndarray]:
    """``coeffs`` with ``_as_nd_key`` keys and ``complex`` values, checked as int64 id columns, and the columns.

    ``columns_ok(balls, js)`` says whether every row of the (keys x n) id
    columns is a valid key; ``check_key(key)`` raises at the first rule a
    key of ``coeffs`` breaks.  A ``KeyColumns`` brings its own columns
    (rebuilt once if it held a repeated key); the columns of any other
    mapping come from its keys (``_id_columns``).  On a bad row, or any
    failure (an id that is not an integer or does not fit int64, a key of
    another arity, a value that is not a number), the keys are checked one
    by one in insertion order, which raises at the first bad key or value;
    an input that passes is stored from there and its columns derived once
    (of Python ints past int64).
    """
    try:
        if isinstance(coeffs, KeyColumns):
            stored = dict(coeffs)
            balls, js = coeffs.balls, coeffs.js
            if len(balls) != len(stored):  # a repeated key: one row per stored key
                balls, js = _id_columns(list(stored), n)
        else:
            stored = {_as_nd_key(key): complex(c) for key, c in coeffs.items()}
            balls, js = _id_columns(list(stored), n)
        if balls.shape[1:] == js.shape[1:] == (n,) and columns_ok(balls, js):
            return stored, balls, js
    except Exception:  # the key-by-key check raises it again at the right key
        pass
    stored = {}
    for key, c in coeffs.items():
        check_key(key)
        stored[_as_nd_key(key)] = complex(c)
    try:
        return stored, *_id_columns(list(stored), n)
    except OverflowError:  # only a series may hold an id beyond int64
        return stored, *_id_columns(list(stored), n, object)


@dataclass(frozen=True)
class LizorkinSeries:
    """Formal series over true wavelet indices, stored sparsely, with the keys' id columns."""

    n: int
    coeffs: Mapping[Key, complex] = field(default_factory=dict)
    _columns: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)  # row for row

    def __post_init__(self):
        if self.n < 1:  # as for a generalized function; a key of arity 0 has no id to sort or write
            raise ParameterError("a series needs at least one factor")
        stored, *columns = _checked(self.coeffs, self.n, self._columns_ok, self._check_key)
        object.__setattr__(self, "coeffs", stored)
        object.__setattr__(self, "_columns", tuple(columns))

    @staticmethod
    def _columns_ok(balls: np.ndarray, js: np.ndarray) -> bool:
        return bool((js >= 1).all())

    def _check_key(self, key) -> None:
        vertex, j = _as_nd_key(key)
        if len(vertex) != self.n or len(j) != self.n:
            raise ParameterError(f"key {key} does not have arity {self.n}")
        for b in vertex:
            _require_integer(key, "ball", b)
        for ji in j:
            _require_integer(key, "j", ji)
        if any(ji < 1 for ji in j):
            raise DomainError(f"series key {key} is not a wavelet index (every j must be >= 1)")

    def norm_inf(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def items(self):
        rows = list(self.coeffs.items())
        return list(map(rows.__getitem__, _key_order(*self._columns).tolist()))

    def coefficient(self, vertex, j) -> complex:
        return self.coeffs.get(_as_nd_key((vertex, j)), 0.0 + 0.0j)


class GeneralizedFunction:
    """Anchored coefficient series over one tree or a product of trees."""

    def __init__(
        self,
        factors: Sequence[BallTree],
        anchor: Sequence[int],
        coeffs: Mapping[Key, complex] | None = None,
        anchor_value: complex | None = None,
    ):
        self.factors = tuple(factors)
        if len(self.factors) == 0:
            raise ParameterError("need at least one factor tree")
        self.anchor = tuple(anchor)
        if len(self.anchor) != self.n:
            raise ParameterError("anchor arity does not match the number of factors")
        _check_anchor(self.factors, self.anchor)
        stored, balls, js = _checked(coeffs or {}, self.n, self._columns_ok, self._check_key)
        if anchor_value is not None:
            if self.anchor_key not in stored:  # the anchor key's row comes last, as its key
                balls = np.vstack([balls, np.array(self.anchor, dtype=np.int64)])
                js = np.vstack([js, np.zeros(self.n, dtype=np.int64)])
            stored[self.anchor_key] = complex(anchor_value)
        # read-only, so the columns and the cached order below never go stale
        self.coeffs: Mapping[Key, complex] = MappingProxyType(stored)
        self._columns = balls, js  # the keys' ids, row for row
        self._items: tuple[tuple[Key, complex], ...] | None = None

    @property
    def n(self) -> int:
        return len(self.factors)

    @property
    def anchor_key(self) -> Key:
        return (self.anchor, (0,) * self.n)

    @property
    def anchor_value(self) -> complex:
        return self.coeffs.get(self.anchor_key, 0.0 + 0.0j)

    def _columns_ok(self, balls: np.ndarray, js: np.ndarray) -> bool:
        """Per factor: an id of the tree, j = 0 only at the anchor ball, else 1 <= j <= the ball's basis size."""
        ok = np.ones(len(balls), dtype=bool)
        for tree, a0, b, j in zip(self.factors, self.anchor, balls.T, js.T):
            inside = (b >= 0) & (b < tree.n_vertices)
            size = basis_sizes(tree)[np.where(inside, b, 0)]
            ok &= inside & np.where(j == 0, b == a0, (j >= 1) & (j <= size))
        return bool(ok.all())

    def _check_component(self, i: int, b, ji, key) -> None:
        tree = self.factors[i]
        ball = tree.check_ball(b)
        _require_integer(key, "j", ji)
        if ji == 0:
            if b != self.anchor[i]:
                raise DomainError(f"index {key}: j=0 components exist only at the anchor ball of factor {i}")
        elif ji >= 1:
            if not tree.children[ball]:
                raise DomainError(f"index {key}: wavelets do not attach to the minimal ball {b}")
            if ji > len(wavelet_basis(tree, ball)):
                raise DomainError(f"index {key}: no wavelet with index {ji} at ball {b}")
        else:
            raise DomainError(f"index {key}: negative j")

    def _check_key(self, key) -> None:
        key = _as_nd_key(key)
        vertex, j = key
        if len(vertex) != self.n or len(j) != self.n:
            raise ParameterError(f"key {key} does not have arity {self.n}")
        for i, (b, ji) in enumerate(zip(vertex, j)):
            self._check_component(i, b, ji, key)

    def coefficient(self, vertex, j) -> complex:
        return self.coeffs.get(_as_nd_key((vertex, j)), 0.0 + 0.0j)

    def wavelet_items(self):
        """Stored coefficients at true wavelet indices (every j >= 1)."""
        return [(key, c) for key, c in self.items() if all(ji >= 1 for ji in key[1])]

    @cached_property
    def _sorted_rows(self) -> np.ndarray:
        """The rows of the id columns in sorted key order (``_key_order``), sorted once."""
        return _key_order(*self._columns)

    def items(self) -> tuple[tuple[Key, complex], ...]:
        """Stored coefficients in sorted key order (plain tuple order: by vertex, then by j), cached."""
        if self._items is None:
            rows = list(self.coeffs.items())
            self._items = tuple(map(rows.__getitem__, self._sorted_rows.tolist()))
        return self._items


def _toward(tree: BallTree, ball: int, top: int) -> dict[int, int]:
    """Each strict ancestor of ``ball`` inside ``top``, mapped to its maximal subball containing ``ball``."""
    out = {}
    while ball != top:
        out[tree.parent[ball]] = ball
        ball = tree.parent[ball]
    return out


def _indicator_integral(
    tree: BallTree, ball: int, values: Mapping[int, complex], target: int, toward: dict[int, int]
) -> complex:
    """Integral of the ball's wavelet over the target ball.

    Nonzero only when the target sits strictly inside the wavelet's ball, in
    which case the wavelet is constant on it.  ``toward`` is
    ``_toward(tree, target, top)`` for some ``top`` containing ``ball``.
    """
    child = toward.get(ball)
    return 0.0 + 0.0j if child is None else values[child] * tree.measure[target]


def _candidate_terms(
    tree: BallTree, b0: int, a0: int
) -> list[tuple[int, list[tuple[int, complex | float]]]]:
    """One factor's candidate balls, in id order, each with its (j, factor of the term) pairs.

    j = 0 pairs only with the anchor ball ``a0``; the wavelet indices pair
    with the strict ancestors of the argument ``b0`` and of ``a0`` up to
    their sup (a degenerate ball there carries none).  The factor is what
    the term of a coefficient at (ball, j) is multiplied by on this factor.
    """
    s = tree.sup(b0, a0)
    up_arg, up_anchor = _toward(tree, b0, s), _toward(tree, a0, s)
    ratio = tree.measure[b0] / tree.measure[a0]
    out = []
    for ball in sorted({a0, *up_arg, *up_anchor}):
        js: list[tuple[int, complex | float]] = [(0, tree.measure[b0])] if ball == a0 else []
        if ball in up_arg or ball in up_anchor:
            try:
                basis = wavelet_basis(tree, ball)
            except DegenerateBallError:
                basis = ()
            for w in basis:
                js.append((w.j, _indicator_integral(tree, ball, w.values, b0, up_arg)
                           - ratio * _indicator_integral(tree, ball, w.values, a0, up_anchor)))
        out.append((ball, js))
    return out


def eval_on_char_nd(u: GeneralizedFunction, vertex: Sequence[int]) -> complex:
    """Pairing with the indicator of a product ball, via the finite closed form.

    Per factor only the anchor ball (with j = 0) and the strict ancestors of
    the argument and of the anchor up to their sup (with every wavelet
    index) can carry a nonzero term.  The candidate vertices are walked in
    sorted order and, for each, the product of its per-factor index lists
    in sorted order, so every key is probed with ``u.coeffs.get`` in the
    sorted key order of an all-terms scan (whose other terms are exactly
    0j); missing keys and zero values add nothing.  There is no index: a
    pairing costs prod_i (1 + sum over the candidate balls b of factor i of
    (#children(b) - 1)) lookups, at most 225 on padic(2,7)**2, however many
    coefficients ``u`` stores.
    """
    vertex = tuple(vertex)
    if len(vertex) != u.n:
        raise ParameterError(f"vertex arity {len(vertex)} does not match {u.n} factors")
    vertex = tuple(tree.check_ball(b) for tree, b in zip(u.factors, vertex))
    candidates = [_candidate_terms(tree, b0, a0) for tree, b0, a0 in zip(u.factors, vertex, u.anchor)]
    get = u.coeffs.get
    total = 0.0 + 0.0j
    for balls in itertools.product(*candidates):
        kv = tuple(ball for ball, _ in balls)
        for jw in itertools.product(*(js for _, js in balls)):
            c = get((kv, tuple(j for j, _ in jw)))
            if not c:  # missing, 0j or -0j
                continue
            term = c
            for _, factor in jw:
                term *= factor
            total += term
    return complex(total)


def _term_factors(
    tree: BallTree, a0: int, leaf_values: Mapping[int, complex]
) -> dict[tuple[int, int], complex]:
    """One factor's (ball, j) -> term factor table for the leaf values of f.

    With f's mass M: M at (a0, 0), and at a wavelet its integral against f
    minus M / nu(a0) times its integral over the anchor ball a0.
    """
    integral = ball_integrals(tree, leaf_values)
    mass = integral[tree.root]
    ratio = mass / tree.measure[a0]
    up_anchor = _toward(tree, a0, tree.root)
    table = {(a0, 0): mass}
    for w in tree_wavelets(tree):
        wi = sum(w.values[c] * integral[c] for c in tree.children[w.ball])
        table[(w.ball, w.j)] = wi - ratio * _indicator_integral(tree, w.ball, w.values, a0, up_anchor)
    return table


def eval_on_product(u: GeneralizedFunction, factor_values: Sequence[Mapping[int, complex]]) -> complex:
    """Apply ``u`` to a rank-1 test function given by per-factor leaf values."""
    if len(factor_values) != u.n:
        raise ParameterError(f"need one leaf-value map per factor, got {len(factor_values)}")
    tables = [_term_factors(tree, a0, fv) for tree, a0, fv in zip(u.factors, u.anchor, factor_values)]
    total = 0j
    for (kv, kj), c in u.items():
        for table, b, j in zip(tables, kv, kj):
            c *= table[b, j]
        total += c
    return complex(total)


def eval_extended(u: GeneralizedFunction, vertex: Sequence[int], j: Sequence[int]) -> complex:
    """Value of ``u`` on the conjugate of an extended family member, by one ``coeffs`` probe.

    The extended family is dual to the coefficient keys, factor by factor.
    A conjugated wavelet pairs to 1 with its own key and to 0 with every
    other: the wavelets are orthonormal, and their zero mean cancels the
    anchor correction.  The anchor indicator pairs to nu(a_i) with j = 0 and
    to 0 with every wavelet, its correction cancelling its own integral.  So
    the value is the coefficient stored at (vertex, j) times nu(a_i) for each
    component with j_i = 0; nothing is stored at a j_i = 0 off the anchor
    ball or at a j_i >= 1 at a leaf, where the member is the zero function.
    """
    for name, seq in (("vertex", vertex), ("j", j)):
        if len(seq) != u.n:
            raise ParameterError(f"{name} arity {len(seq)} does not match {u.n} factors")
    balls, scale = [], 1.0
    for tree, a0, b, ji in zip(u.factors, u.anchor, vertex, j):
        ball = tree.check_ball(b)
        _require_integer((ball, ji), "j", ji)
        if ji < 0:
            raise DomainError(f"index {(ball, ji)}: negative j")
        if ji == 0:
            scale *= tree.measure[a0]
        elif tree.children[ball] and ji > len(wavelet_basis(tree, ball)):  # a degenerate ball raises here
            raise DomainError(f"no wavelet with index {ji} at ball {ball}")
        balls.append(ball)
    return complex(u.coeffs.get((tuple(balls), tuple(j)), 0j) * scale)


def lizorkin_pair(phi: LizorkinSeries, f: WaveletExpansion | Mapping[Key, complex]) -> complex:
    """Finite pairing: sum of series coefficients times expansion coefficients."""
    if isinstance(f, WaveletExpansion):
        if phi.n != 1:
            raise ParameterError("a one-dimensional expansion pairs with a one-factor series")
        scale = max(1.0, max((abs(c) for c in f.coeffs.values()), default=0.0))
        if abs(f.mean) > MEAN_ZERO_RTOL * scale:
            raise DomainError(f"expansion is not mean-zero (mean coefficient {f.mean})")
        lookup = {_as_nd_key((k, j)): c for (k, j), c in f.coeffs.items()}
    else:
        lookup = {_as_nd_key(k): complex(c) for k, c in f.items()}
    return complex(sum(c * lookup.get(key, 0.0) for key, c in phi.items()))


def apply_operator(u: GeneralizedFunction, operator: MultiOperator) -> LizorkinSeries:
    """Coefficient series of the operator applied to ``u``.

    Diagonal action: each true wavelet coefficient is scaled by the
    eigenvalue at its vertex; indicator components and the anchor value are
    killed because the operator maps constants to zero.  The operator must
    act on ``u``'s own trees, factor by factor.
    """
    if operator.n != u.n:
        raise ParameterError(f"operator arity {operator.n} does not match {u.n} factors")
    for i, ((tree, _), own) in enumerate(zip(operator.factors, u.factors)):
        if tree is not own:
            raise DomainError(f"factor {i} of the operator acts on another tree than factor {i} of the function")
    return LizorkinSeries(u.n, {key: operator.eigenvalue(key[0]) * c for key, c in u.wavelet_items()})
