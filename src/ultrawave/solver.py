"""Solving Tu = f with anchor/boundary data, and the characteristic set.

The operator is diagonal on wavelet coefficients, so solving is coefficient
division: ``u = f / lambda`` wherever the eigenvalue is nonzero.  Vertices
whose eigenvalue vanishes (relative to the operator's own term magnitudes)
are characteristic: there the equation constrains nothing, the right-hand
side must vanish for solvability, and the solution coefficients are free
parameters.  Boundary data (indices with some ``j == 0``) is copied into the
solution verbatim; the one-factor case is the n = 1 instance with the anchor
value as its single boundary index.

The eigenvalue at a generic vertex is the operator's polynomial in the
per-factor eigenvalues, so ``MultiOperator.form_arrays`` runs once, on the
cells: the product of each axis's groups of bit-equal eigenvalues (d per
axis on ``padic(p,d)`` with a homogeneous symbol).  The kernel spells out
every complex product on float arrays because numpy's complex multiply and
``abs`` may differ from Python's ``complex`` in the last bit: the
characteristic set is the one the per-vertex Python arithmetic gives.

Everything after the classification works on columns, not per vertex:

* ``_classify`` tests the cells, gives each grid point its cell's verdict
  and returns the characteristic vertices as per-factor ball-id columns
  with their eigenvalues and scales (``characteristics`` wraps them into
  ``Characteristic`` objects; ``solve`` only zips the id columns into
  vertex tuples).  A NaN or infinite eigenvalue or term scale (the
  polynomial overflowed) is an error, never a characteristic vertex.
* The rhs vertices map to cells through per-factor id -> group arrays (-1
  at a leaf); ``_classify``'s test on a generic entry's cell values marks
  it characteristic.
  The quotients and the residual use Python ``complex`` arithmetic through
  C-level ``map`` on purpose: numpy's complex division scales by a
  reciprocal and differs from CPython's in the last bit.
* Errors and warnings read only the flagged entries, sorted by key, so their
  order is the sorted key order whatever the rhs insertion order.
* The free keys are counted from ``basis_sizes`` before any is built (per
  characteristic vertex, the product of its balls' wavelet counts; no
  wavelet basis is built), and more than ``MAX_GRID_POINTS`` of them is a
  ParameterError.  They are built as id columns, and ``u`` gets a
  ``KeyColumns`` with the boundary's, the divided rhs's and the free columns.
* A seeded problem draws all free values with one ``standard_normal(2k)``
  call, the same stream as 2k scalar draws.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from operator import add, itemgetter, mul, sub, truediv
from typing import Mapping, NamedTuple

import numpy as np

from .distributions import GeneralizedFunction, Key, KeyColumns, LizorkinSeries, _as_nd_key, _check_anchor, _id_columns
from .errors import (
    DomainError,
    IllConditionedError,
    NonFiniteError,
    ParameterError,
    UnsolvableError,
)
from .products import MultiOperator
from .wavelets import basis_sizes

MAX_GRID_POINTS = 1 << 18  # caps the generic grid before any eigenvalue, and the free keys before any is built


class FactorSpectrum(NamedTuple):
    """A factor's generic grid axis and its eigenvalues, grouped by their exact bits."""

    axis: np.ndarray  # the non-leaf ball ids, ascending
    group: np.ndarray  # each id's group (-1 at a leaf)
    re: np.ndarray  # each group's eigenvalue, real and imaginary parts
    im: np.ndarray
    smallest: np.ndarray  # each group's smallest ball


Spectra = tuple[list[FactorSpectrum], tuple[np.ndarray, np.ndarray, np.ndarray]]  # and (re, im, scale) per cell
CharColumns = tuple[list[np.ndarray], np.ndarray, np.ndarray, np.ndarray]  # ball ids per factor, re, im, scale


@dataclass(frozen=True)
class Characteristic:
    vertex: tuple[int, ...]
    eigenvalue: complex
    scale: float


def _factor_spectra(op: MultiOperator) -> Spectra:
    """Per factor, the axis and its eigenvalue groups; and ``form_arrays`` once, on the cells.

    A cell is one group per factor.  ``form_arrays`` is elementwise, so a
    vertex's eigenvalue and term scale are its cell's, bit for bit.
    """
    axes = [tree.non_leaf_balls() for tree, _ in op.factors]
    points = math.prod(map(len, axes))
    if points > MAX_GRID_POINTS:
        raise ParameterError(f"the generic grid {' x '.join(str(len(axis)) for axis in axes)} has "
                             f"{points} points, more than the {MAX_GRID_POINTS} allowed")
    factors = []
    for i, ((tree, _), balls) in enumerate(zip(op.factors, axes)):
        axis = np.array(balls, dtype=np.int64)
        lams = np.array([op.factor_eigenvalue(i, b) for b in balls], dtype=complex)
        _, first, inverse = np.unique(lams.view(np.uint64).reshape(-1, 2), axis=0,
                                      return_index=True, return_inverse=True)
        group = np.full(tree.n_vertices, -1, dtype=np.int64)
        group[axis] = inverse.reshape(-1)  # numpy 2.0.0 returns it 2-D
        factors.append(FactorSpectrum(axis, group, lams.real[first], lams.imag[first], axis[first]))
    return factors, op.form_arrays(np.ix_(*(f.re for f in factors)), np.ix_(*(f.im for f in factors)))


def _characteristic_mask(lam_re, lam_im, scale, epsilon: float, vertices) -> np.ndarray:
    """|lambda| <= epsilon * scale at each point; a NaN or an infinity in any of the three raises NonFiniteError.

    ``vertices(mask)`` gives per factor the ball ids of the points ``mask``
    selects, in C order; the error names the smallest vertex.
    """
    bad = ~(np.isfinite(lam_re) & np.isfinite(lam_im) & np.isfinite(scale))
    if bad.any():
        at = zip(np.flatnonzero(bad).tolist(), zip(*(col.tolist() for col in vertices(bad))))
        k, vertex = min(at, key=itemgetter(1))
        raise NonFiniteError(f"the eigenvalue {complex(lam_re.flat[k], lam_im.flat[k])} "
                             f"(term scale {scale.flat[k]}) at vertex {vertex} is not finite")
    return np.hypot(lam_re, lam_im) <= epsilon * scale


def _classify(spectra: Spectra, epsilon: float) -> CharColumns:
    """Characteristic vertices of the generic grid as columns, in ``vertex_key`` order.

    Returns per-factor ball-id columns, the eigenvalues' real and imaginary
    parts and the term scales.  Each grid point takes its cell's verdict; C
    order over the ascending axes (that of ``np.nonzero``) is ``vertex_key``
    order.  A non-finite cell names its smallest vertex, its groups' smallest balls.
    """
    factors, (re, im, scale) = spectra
    mask = _characteristic_mask(re, im, scale, epsilon,
                                lambda bad: [f.smallest[k] for f, k in zip(factors, np.nonzero(bad))])
    ids = [f.axis[k] for f, k in zip(factors, np.nonzero(mask[np.ix_(*(f.group[f.axis] for f in factors))]))]
    at = tuple(f.group[col] for f, col in zip(factors, ids))
    return ids, re[at], im[at], scale[at]


def characteristic_columns(op: MultiOperator, epsilon: float = 1e-9) -> CharColumns:
    """``_classify``'s columns of the characteristic vertices, after checking ``epsilon``."""
    _check_tolerance("epsilon", epsilon)
    return _classify(_factor_spectra(op), epsilon)


def characteristics(op: MultiOperator, epsilon: float = 1e-9) -> list[Characteristic]:
    """All generic vertices whose eigenvalue vanishes relative to the term scale."""
    ids, lam_re, lam_im, scale = characteristic_columns(op, epsilon)
    vertices = zip(*(col.tolist() for col in ids))
    return list(map(Characteristic, vertices, map(complex, lam_re.tolist(), lam_im.tolist()), scale.tolist()))


@dataclass(frozen=True)
class SolvabilityViolation:
    vertex: tuple[int, ...]
    j: tuple[int, ...]
    magnitude: float
    threshold: float

    def __str__(self) -> str:
        return (
            f"|f| = {self.magnitude:.3e} at characteristic index "
            f"(vertex={self.vertex}, j={self.j}), allowed {self.threshold:.3e}"
        )


@dataclass(frozen=True)
class SolvabilityReport:
    ok: bool
    violations: tuple[SolvabilityViolation, ...]

    def __bool__(self) -> bool:
        return self.ok


@dataclass
class CauchyProblem:
    """Operator, right-hand side, anchor/boundary data and tolerances.

    ``free_values`` selects the coefficients at characteristic indices:
    ``"zero"``, an integer seed for reproducible random values, or an
    explicit ``{(vertex, j): value}`` map.  Every value must be finite, the
    seed and the tolerances ``epsilon`` and ``warn_factor`` non-negative;
    anything else raises ParameterError.
    """

    operator: MultiOperator
    rhs: LizorkinSeries
    anchor: tuple[int, ...]
    anchor_value: complex = 0.0
    boundary: Mapping[Key, complex] = field(default_factory=dict)
    epsilon: float = 1e-9
    free_values: str | int | Mapping[Key, complex] = "zero"
    warn_factor: float = 1e-6

    def __post_init__(self):
        self.anchor = tuple(self.anchor)
        if self.rhs.n != self.operator.n or len(self.anchor) != self.operator.n:
            raise ParameterError("operator, right-hand side and anchor arities disagree")
        _check_anchor([tree for tree, _ in self.operator.factors], self.anchor)
        clean = {}
        for key, c in dict(self.boundary).items():
            k = _as_nd_key(key)
            if all(ji >= 1 for ji in k[1]):
                raise ParameterError(f"boundary index {k} has no j = 0 component")
            if k == (self.anchor, (0,) * self.operator.n):
                raise ParameterError("the pure anchor index is set through anchor_value")
            clean[k] = _finite(c, "boundary value", k)
        self.boundary = clean
        self.anchor_value = _finite(self.anchor_value, "anchor value", self.anchor)
        if not all(map(cmath.isfinite, self.rhs.coeffs.values())):  # the series holds complex values
            for key, c in self.rhs.coeffs.items():
                _finite(c, "right-hand side coefficient", key)
        if isinstance(self.free_values, Mapping):
            self.free_values = {
                _as_nd_key(k): _finite(v, "free value", k) for k, v in self.free_values.items()
            }
        elif isinstance(self.free_values, int) and self.free_values < 0:
            raise ParameterError(f"free-value seed must be non-negative, got {self.free_values}")
        for name in ("epsilon", "warn_factor"):
            _check_tolerance(name, getattr(self, name))


def _check_tolerance(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ParameterError(f"{name} must be finite and non-negative, got {value!r}")


def _finite(value: complex, what: str, where) -> complex:
    value = complex(value)
    if not cmath.isfinite(value):
        raise ParameterError(f"{what} at {where} is not finite: {value}")
    return value


class _RhsColumns(NamedTuple):
    """The rhs in insertion order as columns (see ``_rhs_columns``)."""

    keys: list[Key]
    values: list[complex]
    mags: np.ndarray  # abs of each value
    norm: float  # rhs.norm_inf()
    generic: np.ndarray
    on_char: np.ndarray
    eigen: tuple[np.ndarray, np.ndarray, np.ndarray]  # the cell's (re, im, scale) at each generic entry

    def violations(self, threshold: float) -> tuple[SolvabilityViolation, ...]:
        """The entries above ``threshold`` on a characteristic vertex, in sorted key order."""
        flagged = np.flatnonzero(self.on_char & (self.mags > threshold)).tolist()
        return tuple(SolvabilityViolation(vertex, j, abs(c), threshold) for (vertex, j), c in
                     sorted(((self.keys[k], self.values[k]) for k in flagged), key=itemgetter(0)))


def _rhs_columns(problem: CauchyProblem, spectra: Spectra) -> _RhsColumns:
    """The rhs as columns: which entries are generic, their eigenvalues, and which are characteristic.

    A vertex is generic when every id is a non-leaf ball of its factor; an
    id outside the factor (negative, too large, beyond int64) is not.  A
    generic entry is characteristic by ``_classify``'s test on its cell:
    exactly when its vertex is in the grid's characteristic set.
    """
    keys = list(problem.rhs.coeffs)
    values = list(problem.rhs.coeffs.values())
    z = np.array(values, dtype=complex)
    mags = np.hypot(z.real, z.imag)  # abs, bit for bit
    factors, cells = spectra
    ids = problem.rhs._columns[0]
    if ids.dtype != np.int64:  # Python ints: an id beyond int64 belongs to no tree
        ids = np.where((ids >= 0) & (ids < 2**62), ids, -1).astype(np.int64)
    groups = []
    for f, col in zip(factors, ids.T):
        inside = (col >= 0) & (col < len(f.group))
        groups.append(np.where(inside, f.group[np.where(inside, col, 0)], -1))
    generic = np.logical_and.reduce([g >= 0 for g in groups])
    at = tuple(g[generic] for g in groups)
    lam_re, lam_im, scale = eigen = tuple(col[at] for col in cells)
    on_char = np.zeros(len(keys), dtype=bool)
    on_char[generic] = _characteristic_mask(lam_re, lam_im, scale, problem.epsilon, lambda bad: ids[generic][bad].T)
    return _RhsColumns(keys, values, mags, max(mags.tolist(), default=0.0), generic, on_char, eigen)


def check_solvability(problem: CauchyProblem) -> SolvabilityReport:
    """Necessary conditions: the rhs must vanish at every characteristic vertex."""
    rhs = _rhs_columns(problem, _factor_spectra(problem.operator))
    violations = rhs.violations(problem.epsilon * rhs.norm)
    return SolvabilityReport(not violations, violations)


@dataclass(frozen=True)
class ResidualReport:
    max_rel: float
    max_abs: float
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class Solution:
    """``u``, its free ``(vertex, j)`` keys in solve order (each value is ``u.coeffs[key]``) and its residual."""

    u: GeneralizedFunction
    free_params: tuple[Key, ...]
    residual: ResidualReport
    characteristic_vertices: tuple[tuple[int, ...], ...]
    free_columns: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)  # by solve


def _free_values(problem: CauchyProblem, keys: list[Key]) -> list[complex]:
    """The value of each free parameter: zero, seeded draws or the explicit map's entry.

    A seed draws ``standard_normal(2k)`` at once, the stream of 2k scalar
    draws, and forms ``re + 1j * im`` as the scalar draws did.  An explicit
    map may name only free keys: its first other entry, in map order, is a
    ParameterError.
    """
    free = problem.free_values
    if free == "zero":
        return [0.0 + 0.0j] * len(keys)
    if isinstance(free, int) and not isinstance(free, bool):
        draws = np.random.default_rng(free).standard_normal(2 * len(keys)).tolist()
        return list(map(add, draws[0::2], map(mul, itertools.repeat(1j), draws[1::2])))
    if isinstance(free, Mapping):  # normalized by CauchyProblem
        known = set(keys)
        stray = next((key for key in free if key not in known), None)
        if stray is not None:
            raise ParameterError(f"free value index {stray} is not a free parameter")
        return list(map(free.get, keys, itertools.repeat(0.0 + 0.0j)))
    raise ParameterError(f"unsupported free_values specification {free!r}")


def _check_free_count(trees, char_ids: list[np.ndarray]) -> np.ndarray:
    """The basis sizes of the characteristic vertices' balls, (n x vertices), unless they carry too many free keys.

    A vertex carries the product of its sizes; more than ``MAX_GRID_POINTS``
    is a ParameterError, raised before any key is built.
    """
    sizes = np.array([basis_sizes(tree)[col] for tree, col in zip(trees, char_ids)], dtype=np.int64)
    if np.prod(sizes, axis=0, dtype=np.float64).sum() > MAX_GRID_POINTS:  # float: an int64 product may overflow
        count = sum(map(math.prod, zip(*sizes.tolist())))
        raise ParameterError(f"the {len(char_ids[0])} characteristic vertices carry {count} free parameters, "
                             f"more than the {MAX_GRID_POINTS} allowed")
    return sizes


def _free_columns(char_ids: list[np.ndarray], sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The free keys' (keys x n) ball and j columns, and each key's vertex (its position in ``char_ids``).

    Per vertex, the j run over 1..size per factor in ``itertools.product``
    order (mixed radix, the last factor fastest); a degenerate ball has none.
    """
    counts = sizes.prod(axis=0)
    vertex = np.repeat(np.arange(len(counts)), counts)
    rest = np.arange(len(vertex)) - np.repeat(np.cumsum(counts) - counts, counts)
    js = []
    for size in sizes[::-1, vertex]:
        js.append(rest % size + 1)
        rest //= size
    return np.stack([col[vertex] for col in char_ids], axis=1), np.stack(js[::-1], axis=1), vertex


def solve(problem: CauchyProblem) -> Solution:
    """Divide by the spectrum off the characteristic set; report free parameters.

    Raises UnsolvableError when the rhs sits on a characteristic vertex, and
    IllConditionedError when it sits on an eigenvalue inside the warn band
    (above the characteristic tolerance but below ``warn_factor * scale``).
    The residual is the largest ``|lambda * u - f|`` over the divided rhs
    indices: every other index the operator maps ``u`` to is a boundary
    index, the anchor or a free parameter, where it is not measured.
    """
    op = problem.operator
    trees = [t for t, _ in op.factors]
    spectra = _factor_spectra(op)
    rhs = _rhs_columns(problem, spectra)
    threshold = problem.epsilon * rhs.norm
    violations = rhs.violations(threshold)
    if violations:
        raise UnsolvableError(violations)
    off_grid = np.flatnonzero(~rhs.generic).tolist()  # never characteristic
    if off_grid:
        vertex = min(rhs.keys[k] for k in off_grid)[0]
        raise DomainError(f"rhs vertex {vertex} is not a generic vertex of the operator's space")

    # divide each (now all generic) entry off the characteristic set (below the threshold there, the free value rules)
    divided = np.flatnonzero(~rhs.on_char)
    lam_re, lam_im, scale = (col[divided] for col in rhs.eigen)
    rows = divided.tolist()
    keys = [rhs.keys[k] for k in rows]
    values = [rhs.values[k] for k in rows]
    lams = list(map(complex, lam_re.tolist(), lam_im.tolist()))
    near = np.flatnonzero(np.hypot(lam_re, lam_im) < problem.warn_factor * scale).tolist()
    warnings: list[str] = []
    ill: list[Key] = []
    for r in sorted(near, key=keys.__getitem__):
        if abs(values[r]) > threshold:
            ill.append(keys[r])
        else:
            warnings.append(f"near-characteristic eigenvalue {lams[r]} (scale {float(scale[r]):.3e}) "
                            f"under index {keys[r]}")
    if ill:
        raise IllConditionedError(ill)
    # Python complex division: numpy's scales by a reciprocal and can differ in the last bit
    quotients = list(map(truediv, values, lams))
    max_abs = max(itertools.chain((0.0,), map(abs, map(sub, map(mul, lams, quotients), values))))

    char_ids = _classify(spectra, problem.epsilon)[0]
    free_balls, free_js, at = _free_columns(char_ids, _check_free_count(trees, char_ids))
    vertices = list(zip(*(col.tolist() for col in char_ids)))
    free_keys = list(zip(map(vertices.__getitem__, at.tolist()), zip(*free_js.T.tolist())))
    try:  # every row's ids; an rhs j past int64 makes an object column, which u's column check refuses
        coeffs: dict[Key, complex] = KeyColumns(problem.boundary, *map(np.concatenate, zip(
            _id_columns(list(problem.boundary), len(trees)), (col[divided] for col in problem.rhs._columns),
            (free_balls, free_js))))
    except (ValueError, TypeError, OverflowError):  # a boundary id that is not an int64 integer
        coeffs = dict(problem.boundary)  # u's key-by-key check words the error
    coeffs.update(zip(keys, quotients))
    coeffs.update(zip(free_keys, _free_values(problem, free_keys)))

    u = GeneralizedFunction(trees, problem.anchor, coeffs, problem.anchor_value)
    denom = rhs.norm if rhs.norm > 0 else 1.0
    residual = ResidualReport(max_abs / denom, max_abs, tuple(warnings))
    return Solution(u, tuple(free_keys), residual, tuple(vertices), (free_balls, free_js))
