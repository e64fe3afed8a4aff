"""Solving Tu = f with anchor/boundary data, and the characteristic set.

The operator is diagonal on wavelet coefficients, so solving is coefficient
division: ``u = f / lambda`` wherever the eigenvalue is nonzero.  Vertices
whose eigenvalue vanishes (relative to the operator's own term magnitudes)
are characteristic: there the equation constrains nothing, the right-hand
side must vanish for solvability, and the solution coefficients are free
parameters.  Boundary data (indices with some ``j == 0``) is copied into the
solution verbatim; the one-factor case is the n = 1 instance with the anchor
value as its single boundary index.

The eigenvalue at a generic vertex is the operator's polynomial evaluated on
the per-factor eigenvalues, so ``solve`` classifies the generic grid once,
with ``MultiOperator.form_arrays`` over the factors' eigenvalue axes in
blocks of leading-factor rows (``BLOCK_POINTS`` points at most, or one row
when a row alone is larger), and feeds the same kernel the
eigenvalues of the right-hand side's vertices for the division; the residual
reuses those eigenvalues.  The kernel spells out every complex product on
float arrays because numpy's complex multiply and ``abs`` may differ from
Python's ``complex`` in the last bit: the characteristic set, the quotients
and the residual are the ones the per-vertex Python arithmetic gives, bit for
bit.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .distributions import GeneralizedFunction, Key, LizorkinSeries, _as_nd_key
from .errors import (
    AnchorError,
    DegenerateBallError,
    DomainError,
    IllConditionedError,
    ParameterError,
    UnsolvableError,
)
from .products import MultiOperator
from .wavelets import wavelet_basis

BLOCK_POINTS = 1 << 16  # grid points per classification block, unless one row is larger

FactorSpectrum = tuple[tuple[int, ...], np.ndarray, np.ndarray]  # non-leaf balls, eigenvalue re, im


@dataclass(frozen=True)
class Characteristic:
    vertex: tuple[int, ...]
    eigenvalue: complex
    scale: float


def _factor_spectra(op: MultiOperator) -> list[FactorSpectrum]:
    """Per factor, the generic grid's axis (its non-leaf balls) and their eigenvalues."""
    out = []
    for i, (tree, _) in enumerate(op.factors):
        axis = tree.non_leaf_balls()
        lams = [op.factor_eigenvalue(i, b) for b in axis]
        out.append((axis, np.array([z.real for z in lams]), np.array([z.imag for z in lams])))
    return out


def _classify(op: MultiOperator, epsilon: float, spectra: list[FactorSpectrum]) -> list[Characteristic]:
    """Characteristic vertices of the generic grid in ``vertex_key`` order.

    The grid is streamed in blocks of the leading factor's axis; within a
    block, C order (that of ``np.argwhere``) is ``vertex_key`` order because
    every axis lists its balls in increasing id order.
    """
    n = op.n
    axes = [axis for axis, _, _ in spectra]

    def along(a: np.ndarray, i: int) -> np.ndarray:
        return a.reshape([-1 if k == i else 1 for k in range(n)])

    re = [along(r, i) for i, (_, r, _) in enumerate(spectra)]
    im = [along(m, i) for i, (_, _, m) in enumerate(spectra)]
    inner = math.prod(len(axis) for axis in axes[1:])
    step = max(1, BLOCK_POINTS // max(inner, 1))
    chars: list[Characteristic] = []
    for start in range(0, len(axes[0]), step):
        rows = slice(start, start + step)
        lam_re, lam_im, scale = op.form_arrays([re[0][rows], *re[1:]], [im[0][rows], *im[1:]])
        mask = np.hypot(lam_re, lam_im) <= epsilon * scale
        for (k0, *ks), lr, li, s in zip(
            np.argwhere(mask).tolist(), lam_re[mask].tolist(), lam_im[mask].tolist(), scale[mask].tolist()
        ):
            vertex = (axes[0][start + k0], *(axis[k] for axis, k in zip(axes[1:], ks)))
            chars.append(Characteristic(vertex, complex(lr, li), s))
    return chars


def characteristics(op: MultiOperator, epsilon: float = 1e-9) -> list[Characteristic]:
    """All generic vertices whose eigenvalue vanishes relative to the term scale."""
    return _classify(op, epsilon, _factor_spectra(op))


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
        for (tree, _), b in zip(self.operator.factors, self.anchor):
            tree.check_ball(b)
            if tree.measure[b] <= 0.0:
                raise AnchorError(f"anchor ball {b} has zero measure")
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
        for key, c in self.rhs.coeffs.items():
            _finite(c, "right-hand side coefficient", key)
        if isinstance(self.free_values, Mapping):
            self.free_values = {
                _as_nd_key(k): _finite(v, "free value", k) for k, v in self.free_values.items()
            }
        elif isinstance(self.free_values, int) and self.free_values < 0:
            raise ParameterError(f"free-value seed must be non-negative, got {self.free_values}")
        for name in ("epsilon", "warn_factor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ParameterError(f"{name} must be finite and non-negative, got {value!r}")


def _finite(value: complex, what: str, where) -> complex:
    value = complex(value)
    if not cmath.isfinite(value):
        raise ParameterError(f"{what} at {where} is not finite: {value}")
    return value


def _solvability(items, char_set: set[tuple[int, ...]], threshold: float) -> SolvabilityReport:
    """The rhs entries of ``items`` (sorted) above ``threshold`` on a characteristic vertex."""
    violations = tuple(
        SolvabilityViolation(vertex, j, abs(c), threshold)
        for (vertex, j), c in items
        if vertex in char_set and abs(c) > threshold
    )
    return SolvabilityReport(not violations, violations)


def check_solvability(problem: CauchyProblem) -> SolvabilityReport:
    """Necessary conditions: the rhs must vanish at every characteristic vertex."""
    chars = characteristics(problem.operator, problem.epsilon)
    return _solvability(
        problem.rhs.items(), {c.vertex for c in chars}, problem.epsilon * problem.rhs.norm_inf()
    )


@dataclass(frozen=True)
class FreeParam:
    vertex: tuple[int, ...]
    j: tuple[int, ...]
    value: complex


@dataclass(frozen=True)
class ResidualReport:
    max_rel: float
    max_abs: float
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class Solution:
    u: GeneralizedFunction
    free_params: tuple[FreeParam, ...]
    residual: ResidualReport
    characteristic_vertices: tuple[tuple[int, ...], ...]


def _free_value_source(problem: CauchyProblem):
    if problem.free_values == "zero":
        return lambda key: 0.0 + 0.0j
    if isinstance(problem.free_values, int) and not isinstance(problem.free_values, bool):
        rng = np.random.default_rng(problem.free_values)
        return lambda key: complex(rng.standard_normal() + 1j * rng.standard_normal())
    if isinstance(problem.free_values, Mapping):
        table = problem.free_values  # normalized by CauchyProblem
        return lambda key: table.get(key, 0.0 + 0.0j)
    raise ParameterError(f"unsupported free_values specification {problem.free_values!r}")


def _wavelet_count(tree, ball: int) -> int:
    try:
        return len(wavelet_basis(tree, ball))
    except DegenerateBallError:
        return 0


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
    chars = _classify(op, problem.epsilon, spectra)
    char_set = {c.vertex for c in chars}
    items = problem.rhs.items()
    fnorm = problem.rhs.norm_inf()
    threshold = problem.epsilon * fnorm

    report = _solvability(items, char_set, threshold)
    if not report:
        raise UnsolvableError(report.violations)

    # gather the eigenvalues of the distinct rhs vertices off the characteristic set
    position = [{b: k for k, b in enumerate(axis)} for axis, _, _ in spectra]
    rows: dict[tuple[int, ...], int] = {}
    columns: list[list[int]] = [[] for _ in spectra]
    divided = []
    for key, c in items:
        vertex = key[0]
        if vertex in char_set:
            continue  # below the solvability threshold; the free value rules here
        row = rows.get(vertex)
        if row is None:
            if not all(b in pos for pos, b in zip(position, vertex)):
                raise DomainError(f"rhs vertex {vertex} is not a generic vertex of the operator's space")
            row = rows[vertex] = len(rows)
            for column, pos, b in zip(columns, position, vertex):
                column.append(pos[b])
        divided.append((key, c, row))
    lam_re, lam_im, scale = op.form_arrays(
        [r[column] for (_, r, _), column in zip(spectra, columns)],
        [m[column] for (_, _, m), column in zip(spectra, columns)],
    )
    lams = [complex(r, i) for r, i in zip(lam_re.tolist(), lam_im.tolist())]
    scales = scale.tolist()

    warnings: list[str] = []
    ill: list[Key] = []
    coeffs: dict[Key, complex] = dict(problem.boundary)
    max_abs = 0.0
    for key, c, row in divided:
        lam, s = lams[row], scales[row]
        if abs(lam) < problem.warn_factor * s:
            if abs(c) > threshold:
                ill.append(key)
                continue
            warnings.append(f"near-characteristic eigenvalue {lam} (scale {s:.3e}) under index {key}")
        coeffs[key] = value = c / lam
        max_abs = max(max_abs, abs(lam * value - c))
    if ill:
        raise IllConditionedError(ill)

    free_value = _free_value_source(problem)
    counts = [{b: _wavelet_count(tree, b) for b in {c.vertex[i] for c in chars}} for i, tree in enumerate(trees)]
    free_params: list[FreeParam] = []
    for c in chars:
        ranges = [range(1, count[b] + 1) for count, b in zip(counts, c.vertex)]
        for j in itertools.product(*ranges):
            key = (c.vertex, j)
            value = free_value(key)
            free_params.append(FreeParam(c.vertex, j, value))
            coeffs[key] = value

    u = GeneralizedFunction(trees, problem.anchor, coeffs, problem.anchor_value)
    denom = fnorm if fnorm > 0 else 1.0
    residual = ResidualReport(max_abs / denom, max_abs, tuple(warnings))
    return Solution(u, tuple(free_params), residual, tuple(c.vertex for c in chars))
