"""Layer hooks for the traced run.

Hooks are installed from outside the program: a wrapper replaces a class
attribute (``BallTree.is_ancestor``) or every ``ultrawave.*`` module binding
that refers to the same function object (``io.load_space`` is bound in
``ultrawave``, ``ultrawave.io`` and ``ultrawave.cli``).  Coarse calls record
a span (name, start, end, parent, op id), kept in memory until the run ends;
hot methods only count calls, because a span per call would cost more than
the call.  Spans and counters are installed in separate phases, so counter
overhead never inflates a span.  A target that no longer exists is skipped with a warning and its
metrics read ``None``.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Hook:
    name: str  # "<module>.<label>", the stem of the metric names
    module: str  # module under ``ultrawave``
    targets: tuple[str, ...]  # "function" or "Class.method"; several targets share one counter
    span: bool  # True: timed span; False: call counter only
    observe: dict[str, Callable] = field(default_factory=dict)  # per-op counts from the return value


HOOKS = (
    Hook("cli.main", "cli", ("main",), True),
    Hook("io.load_problem", "io", ("load_problem",), True),
    Hook("io.solution_to_obj", "io", ("solution_to_obj",), True),
    Hook("io.write_json", "io", ("write_json",), True),
    Hook("io.load_solution", "io", ("load_solution",), True),
    Hook("io.load_space", "io", ("load_space",), True),
    Hook("solver.solve", "solver", ("solve",), True, {
        "solver.characteristic_vertices": lambda sol: len(sol.characteristic_vertices),
        "solver.free_params": lambda sol: len(sol.free_params),
    }),
    Hook("solver.check_solvability", "solver", ("check_solvability",), True),
    Hook("products.lambda_vector", "products", ("MultiOperator.lambda_vector",), False),
    Hook("products.eigenvalue", "products", ("MultiOperator.eigenvalue",), False),
    Hook("distributions.apply_operator", "distributions", ("apply_operator",), True),
    Hook("distributions.genfun_init", "distributions", ("GeneralizedFunction.__init__",), True),
    Hook("distributions.eval_on_char_nd", "distributions", ("eval_on_char_nd",), True),
    Hook("wavelets.wavelet_basis", "wavelets", ("wavelet_basis",), False),
    Hook("wavelets.analyze", "wavelets", ("analyze",), True),
    Hook("wavelets.synthesize", "wavelets", ("synthesize",), True),
    Hook("operators.spectrum", "operators", ("spectrum",), True),
    Hook("operators.symbol_value", "operators", ("HomogeneousSymbol.value", "TableSymbol.value"), False),
    Hook("trees.init", "trees", ("BallTree.__init__",), True),
    Hook("trees.is_ancestor", "trees", ("BallTree.is_ancestor",), False),
    Hook("trees.check_ball", "trees", ("BallTree.check_ball",), False),
    Hook("trees.child_toward", "trees", ("BallTree.child_toward",), False),
    Hook("trees.sup", "trees", ("BallTree.sup",), False),
)

# (metric, unit, how it is derived, source), each better when lower: "span" =
# median seconds per call, "self" = median seconds per call minus its child
# spans, "calls" = count per op, "value" = a per-op count from a hook's return
# value or the workload.
PER_LAYER = (
    ("cli.self_s", "s", "self", "cli.main"),
    ("io.load_problem_s", "s", "span", "io.load_problem"),
    ("io.solution_to_obj_s", "s", "span", "io.solution_to_obj"),
    ("io.write_json_s", "s", "span", "io.write_json"),
    ("io.solution_bytes", "bytes", "value", "io.solution_bytes"),
    ("io.load_solution_s", "s", "span", "io.load_solution"),
    ("io.load_space_s", "s", "span", "io.load_space"),
    ("solver.solve_s", "s", "span", "solver.solve"),
    ("solver.check_solvability_s", "s", "span", "solver.check_solvability"),
    ("products.lambda_vector_calls", "count", "calls", "products.lambda_vector"),
    ("products.eigenvalue_calls", "count", "calls", "products.eigenvalue"),
    ("distributions.apply_operator_s", "s", "span", "distributions.apply_operator"),
    ("distributions.genfun_init_s", "s", "span", "distributions.genfun_init"),
    ("distributions.eval_on_char_nd_s", "s", "span", "distributions.eval_on_char_nd"),
    ("wavelets.wavelet_basis_calls", "count", "calls", "wavelets.wavelet_basis"),
    ("wavelets.analyze_s", "s", "span", "wavelets.analyze"),
    ("wavelets.synthesize_s", "s", "span", "wavelets.synthesize"),
    ("operators.spectrum_s", "s", "span", "operators.spectrum"),
    ("operators.symbol_value_calls", "count", "calls", "operators.symbol_value"),
    ("trees.init_s", "s", "span", "trees.init"),
    ("trees.is_ancestor_calls", "count", "calls", "trees.is_ancestor"),
    ("trees.check_ball_calls", "count", "calls", "trees.check_ball"),
    ("trees.child_toward_calls", "count", "calls", "trees.child_toward"),
    ("trees.sup_calls", "count", "calls", "trees.sup"),
)


# Per-op counts fixed by the mathematics, not by the code: recorded, never
# gated, because a change that moves them is wrong rather than faster (the
# workload's output check fails it).
EXACT_COUNTS = ("solver.characteristic_vertices", "solver.free_params")


def _ultrawave_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ultrawave" or name.startswith("ultrawave."))]


class Tracer:
    """Installs the hooks and keeps spans and per-op counts in memory."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, op id)
        self._stack: list[int] = []
        self._op = None
        self._cells: dict[str, list[int]] = {}
        self._op_counts: list[dict] = []  # one dict per traced op
        self._op_values: dict = {}
        self._undo: list[tuple] = []
        self.missing: set[str] = set()

    # -- installation ----------------------------------------------------

    def install(self, spans: bool) -> None:
        """Install the span hooks (``spans``) or the call counters."""
        for hook in HOOKS:
            if hook.span != spans:
                continue
            found = 0
            for target in hook.targets:
                try:
                    module = importlib.import_module(f"ultrawave.{hook.module}")
                    self._patch(hook, module, target)
                    found += 1
                except (ImportError, AttributeError):
                    print(f"warning: hook {hook.name}: ultrawave.{hook.module}.{target} not found",
                          file=sys.stderr)
            if not found:
                print(f"warning: hook {hook.name} has no target; its metrics are null", file=sys.stderr)
                self.missing.add(hook.name)

    def _patch(self, hook: Hook, module, target: str) -> None:
        wrapper_of = self._span_wrapper if hook.span else self._count_wrapper
        if "." in target:
            cls_name, attr = target.split(".")
            cls = getattr(module, cls_name)
            original = getattr(cls, attr)
            setattr(cls, attr, wrapper_of(hook, original))
            self._undo.append((cls, attr, original))
            return
        original = getattr(module, target)
        wrapper = wrapper_of(hook, original)
        for mod in _ultrawave_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _count_wrapper(self, hook: Hook, fn):
        cell = self._cells.setdefault(hook.name, [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, hook: Hook, fn):
        name, spans, stack, perf = hook.name, self.spans, self._stack, time.perf_counter
        observe = hook.observe

        def spanned(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op)
            for key, extract in observe.items():
                self._op_values[key] = extract(result)
            return result

        return spanned

    # -- per-op bookkeeping ------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._op_values = {}
        for cell in self._cells.values():
            cell[0] = 0

    def end_op(self, values: dict) -> None:
        counts = {name: cell[0] for name, cell in self._cells.items()}
        counts.update(self._op_values)
        counts.update(values)
        self._op_counts.append(counts)
        self._op = None

    # -- derived metrics ---------------------------------------------------

    def _durations(self) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
        """Per span name: durations of calls inside ops, and the same minus child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: dict[str, list[float]] = {}
        own: dict[str, list[float]] = {}
        for k, (name, start, end, parent, op) in enumerate(self.spans):
            if op is None:
                continue
            total.setdefault(name, []).append(end - start)
            own.setdefault(name, []).append(end - start - child_time[k])
        return total, own

    def per_op_counts(self, key: str) -> list[int]:
        """The key's count in every op of the phase that recorded it."""
        return [c[key] for c in self._op_counts if key in c] or [0]

    def layer_metrics(self) -> dict[str, float | int | None]:
        total, own = self._durations()
        out: dict[str, float | int | None] = {}
        for metric, _unit, how, source in PER_LAYER:
            if source in self.missing:
                out[metric] = None
            elif how == "span":
                out[metric] = statistics.median(total[source]) if source in total else 0.0
            elif how == "self":
                out[metric] = statistics.median(own[source]) if source in own else 0.0
            else:
                out[metric] = statistics.median_low(self.per_op_counts(source))
        return out

    def exact_counts(self) -> dict[str, int]:
        """Median per-op value of each EXACT_COUNTS entry the run observed."""
        return {key: statistics.median_low(self.per_op_counts(key)) for key in EXACT_COUNTS
                if any(key in c for c in self._op_counts)}

    def detail(self) -> dict:
        """Every span name and counter, for the run record."""
        total, own = self._durations()
        ops = len({op for *_, op in self.spans if op is not None}) or 1
        spans = {
            name: {
                "calls_per_op": len(d) / ops,
                "median_s": statistics.median(d),
                "self_median_s": statistics.median(own[name]),
                "total_s_per_op": sum(d) / ops,
                "self_s_per_op": sum(own[name]) / ops,
            }
            for name, d in sorted(total.items())
        }
        keys = sorted({k for c in self._op_counts for k in c})
        counts = {}
        for key in keys:
            per_op = self.per_op_counts(key)
            counts[key] = {"per_op": per_op[0], "same_every_op": len(set(per_op)) == 1}
        return {"spans": spans, "counts": counts, "missing_hooks": sorted(self.missing)}
