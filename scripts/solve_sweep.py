"""Time the stages of ``ultrawave solve`` on padic(2,d)**2 as the depth d grows.

Each size solves the wave operator T1 - T2 (``homog(beta=0.5)`` on both
factors) with one rhs term and seeded free values, so the output grows with
the characteristic set: (4**d - 1) / 3 free parameters.  For every depth it
times, as the median of ``--repeats`` runs, the four stages of the command:
``io.load_problem``, ``solver.solve``, ``io.solution_to_obj`` and
``io.write_json``.  ``solution_to_obj`` includes the record encoding: it
formats the ``coeffs`` and ``free_params`` records as JSON text, so
``write_json`` only joins that text with the rest of the object and writes
the file.  It prints CSV, one row per depth with the seconds of
each stage, then a ``slope`` row: the least-squares slope of log(seconds)
against log(free parameters) per stage (1 means linear in the output).
The stages are called directly, not through ``cli.run``, so the cyclic
collector runs as it would in any caller.

Usage: python3 scripts/solve_sweep.py [--depths 6 7 8 9] [--repeats 3]
"""

import argparse
import json
import math
import os
import statistics
import sys
import tempfile
import time

from ultrawave.io import load_problem, solution_to_obj, write_json
from ultrawave.solver import solve

STAGES = ("load_problem", "solve", "solution_to_obj", "write_json")
SEED = 1  # of the free values; which values are drawn does not change the timed work


def write_problem(path: str, depth: int) -> None:
    space = f"padic(2,{depth})"
    problem = {
        "spaces": [space, space],
        "operator": {
            "factors": ["homog(beta=0.5)", "homog(beta=0.5)"],
            "terms": [{"indices": [1], "re": 1.0, "im": 0.0}, {"indices": [2], "re": -1.0, "im": 0.0}],
        },
        "rhs": {"mean": [0.0, 0.0], "coeffs": [{"vertex": [0, 1], "j": [1, 1], "re": 1.0, "im": 0.5}]},
        "anchor": {"vertex": [2**depth - 1, 2**depth - 1], "value": [1.0, 0.0]},  # the first leaves
        "free_params": {"seed": SEED},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem, fh)


def time_stages(problem_path: str, out_path: str) -> tuple[dict[str, float], int]:
    """Seconds per stage of one run, and the number of free parameters."""
    t0 = time.perf_counter()
    problem, _ = load_problem(problem_path)
    t1 = time.perf_counter()
    sol = solve(problem)
    t2 = time.perf_counter()
    obj = solution_to_obj(sol)
    t3 = time.perf_counter()
    write_json(obj, out_path)
    t4 = time.perf_counter()
    return dict(zip(STAGES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3))), len(sol.free_params)


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    lx, ly = [math.log(x) for x in xs], [math.log(max(y, 1e-12)) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--depths", type=int, nargs="+", default=[6, 7, 8, 9])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    if len(set(args.depths)) < 2 or min(args.depths) < 2 or args.repeats < 1:
        parser.error("need at least two distinct depths >= 2 and --repeats >= 1")

    lines = ["depth,free_params,bytes," + ",".join(f"{stage}_s" for stage in STAGES)]
    sizes, seconds = [], {stage: [] for stage in STAGES}
    with tempfile.TemporaryDirectory() as work:
        problem_path, out_path = os.path.join(work, "problem.json"), os.path.join(work, "solution.json")
        write_problem(problem_path, min(args.depths))
        time_stages(problem_path, out_path)  # warm-up: imports and first-call memos stay out of the rows
        for depth in sorted(set(args.depths)):
            write_problem(problem_path, depth)
            runs = []
            for _ in range(args.repeats):
                times, free = time_stages(problem_path, out_path)
                runs.append(times)
            sizes.append(free)
            medians = {stage: statistics.median(run[stage] for run in runs) for stage in STAGES}
            for stage in STAGES:
                seconds[stage].append(medians[stage])
            lines.append(f"{depth},{free},{os.path.getsize(out_path)},"
                         + ",".join(f"{medians[stage]:.6f}" for stage in STAGES))
    lines.append("slope,,," + ",".join(f"{slope(sizes, seconds[stage]):.3f}" for stage in STAGES))
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
