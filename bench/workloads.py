"""Seeded workloads: input generation, the timed operation and its oracle.

Each workload writes every input file in ``setup``; the timed ``op`` hands
the program only those files (``cli.main`` for solve/eval, a chain of
library calls for 1-D analysis).  Each operation's output is compared, outside
its timing, with the warm-up's output; ``check`` runs after the timed loop
and compares the warm-up's output, and any that differed from it, with an
oracle that does not go through the code path being timed.  Input sizes are fixed per level (only the choice
of balls and values depends on the seed), so the cost of an operation moves
little from seed to seed.
"""

from __future__ import annotations

import contextlib
import filecmp
import io as stdio
import json
import math
import os

import numpy as np

from ultrawave import cli, io, operators, wavelets

PADIC_P = 2
PADIC_DEPTH = 7
BETA = 0.5
REL_TOL = 1e-10  # oracle tolerance stated in the README


def padic_level(k: int) -> range:
    """Vertex ids of level ``k`` in ``padic(2, depth)`` (ids are assigned level by level)."""
    return range(2**k - 1, 2 ** (k + 1) - 1)


def _cnum(rng: np.random.Generator) -> complex:
    re, im = rng.standard_normal(2)
    return complex(float(re), float(im))


def _entry(vertex, j, z: complex) -> dict:
    return {"vertex": list(vertex), "j": list(j), "re": z.real, "im": z.imag}


def _sample_level_pairs(rng, levels, target: int, keep) -> list[tuple[int, int]]:
    """Stratified sample of vertex pairs: a fixed count from every level pair.

    ``keep(la, lb)`` selects the level pairs; the count per pair is the same
    fraction of its size for every seed.
    """
    pairs = [(la, lb) for la in levels for lb in levels if keep(la, lb)]
    total = sum(len(padic_level(la)) * len(padic_level(lb)) for la, lb in pairs)
    out = []
    for la, lb in pairs:
        A, B = padic_level(la), padic_level(lb)
        n = round(target * len(A) * len(B) / total)
        for flat in rng.choice(len(A) * len(B), size=n, replace=False):
            out.append((A[int(flat) // len(B)], B[int(flat) % len(B)]))
    return out


def _run_cli(argv: list[str]) -> str:
    """``cli.main`` in-process; returns its standard output, raises on a non-zero exit."""
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _rel_err(got: complex, want: complex, scale: float) -> float:
    return abs(got - want) / max(scale, 1e-300)


class Workload:
    """One workload: ``setup`` writes the inputs, ``op`` is the timed operation.

    ``check`` receives outputs of successful ``op`` calls and returns one
    error message (or None) per output; ``same`` says whether an output equals
    the warm-up's exactly, so that the oracle's verdict on the warm-up holds
    for it, and ``discard`` then frees it; ``layer_counts`` gives per-op counts
    for the traced run that no hook can see.
    """

    name: str
    why: str  # the one-line reason the workload exists

    def setup(self, workdir: str, seed: int) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, outputs: list) -> list[str | None]:
        raise NotImplementedError

    def same(self, output, expected) -> bool:
        return output == expected

    def discard(self, output) -> None:
        pass

    def layer_counts(self, output) -> dict:
        return {}


class SolveWave2d(Workload):
    name = "solve_wave2d"
    why = ("ultrawave solve of the wave operator T1-T2 on padic(2,7)^2 with 7k off-characteristic "
           "terms: classification, division, free parameters, residual and io write")
    RHS_TERMS = 7000
    BOUNDARY_TERMS = 16

    def setup(self, workdir: str, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        nonleaf = range(PADIC_DEPTH)
        pairs = _sample_level_pairs(rng, nonleaf, self.RHS_TERMS, lambda la, lb: la != lb)
        self.rhs = {(a, b): _cnum(rng) for a, b in pairs}
        self.anchor = tuple(int(rng.choice(padic_level(4))) for _ in range(2))
        self.anchor_value = _cnum(rng)
        self.boundary = {}
        for _ in range(self.BOUNDARY_TERMS):
            b = int(rng.integers(0, 2**PADIC_DEPTH - 1))
            if rng.random() < 0.5:
                self.boundary[((self.anchor[0], b), (0, 1))] = _cnum(rng)
            else:
                self.boundary[((b, self.anchor[1]), (1, 0))] = _cnum(rng)
        space = f"padic({PADIC_P},{PADIC_DEPTH})"
        symbol = f"homog(beta={BETA})"
        problem = {
            "spaces": [space, space],
            "operator": {
                "factors": [symbol, symbol],
                "terms": [{"indices": [1], "re": 1.0, "im": 0.0},
                          {"indices": [2], "re": -1.0, "im": 0.0}],
            },
            "rhs": {"mean": [0.0, 0.0],
                    "coeffs": [_entry(v, (1, 1), z) for v, z in self.rhs.items()]},
            "anchor": {"vertex": list(self.anchor),
                       "value": [self.anchor_value.real, self.anchor_value.imag]},
            "boundary": [_entry(v, j, z) for (v, j), z in self.boundary.items()],
            "free_params": {"seed": seed},
        }
        self.problem_path = os.path.join(workdir, "problem.json")
        with open(self.problem_path, "w", encoding="utf-8") as fh:
            json.dump(problem, fh)

    def op(self, i: int) -> str:
        out = os.path.join(self.workdir, f"sol_{i}.json")
        _run_cli(["solve", self.problem_path, "--out", out])
        return out

    def same(self, output: str, expected: str) -> bool:
        return filecmp.cmp(output, expected, shallow=False)

    def discard(self, output: str) -> None:
        os.remove(output)

    def layer_counts(self, output: str) -> dict:
        return {"io.solution_bytes": os.path.getsize(output)}

    def check(self, outputs: list[str]) -> list[str | None]:
        tree = io.load_space(f"padic({PADIC_P},{PADIC_DEPTH})")
        symbol = operators.HomogeneousSymbol(beta=BETA)
        lam = {b: operators.eigenvalue(tree, symbol, b) for b in range(2**PADIC_DEPTH - 1)}
        n_char = (4**PADIC_DEPTH - 1) // 3
        errors = []
        for path in outputs:
            errors.append(self._check_one(path, lam, n_char))
            os.remove(path)
        return errors

    def _check_one(self, path: str, lam: dict, n_char: int) -> str | None:
        with open(path, encoding="utf-8") as fh:
            sol = json.load(fh)
        coeffs = {(tuple(r["vertex"]), tuple(r["j"])): complex(r["re"], r["im"]) for r in sol["coeffs"]}
        free = {(tuple(r["vertex"]), tuple(r["j"])) for r in sol["free_params"]}
        if tuple(sol["anchor"]["vertex"]) != self.anchor:
            return "anchor vertex changed"
        if complex(*sol["anchor"]["value"]) != self.anchor_value:
            return "anchor value changed"
        chars = {v for v, _ in free}
        if len(free) != n_char or len(chars) != n_char:
            return f"{len(free)} free parameters on {len(chars)} vertices, expected {n_char}"
        if any((a + 1).bit_length() != (b + 1).bit_length() for a, b in chars):
            return "free parameter at a vertex whose levels differ"
        for key, z in self.boundary.items():
            if coeffs.get(key) != z:
                return f"boundary value at {key} not copied"
        for v, f in self.rhs.items():
            u = coeffs.get((v, (1, 1)))
            if u is None:
                return f"no solution coefficient at rhs vertex {v}"
            if _rel_err(u * (lam[v[0]] - lam[v[1]]), f, abs(f)) > REL_TOL:
                return f"u*lambda != f at {v}"
        expected = len(self.rhs) + len(self.boundary) + n_char
        if len(coeffs) != expected:
            return f"{len(coeffs)} coefficients, expected {expected}"
        return None


class EvalPairings(Workload):
    name = "eval_pairings"
    why = ("ultrawave eval of 10 indicator pairings over 12.5k stored coefficients on padic(2,7)^2: "
           "pairings, tree ancestor walks and io read; the solver does not run")
    WAVELET_TERMS = 12200

    def setup(self, workdir: str, seed: int) -> None:
        rng = np.random.default_rng(seed)
        nonleaf = range(PADIC_DEPTH)
        self.anchor = tuple(int(rng.choice(padic_level(5))) for _ in range(2))
        self.coeffs = {}
        self.coeffs[(self.anchor, (0, 0))] = _cnum(rng)
        for v in _sample_level_pairs(rng, nonleaf, self.WAVELET_TERMS, lambda la, lb: True):
            self.coeffs[(v, (1, 1))] = _cnum(rng)
        for b in range(2**PADIC_DEPTH - 1):
            self.coeffs[((self.anchor[0], b), (0, 1))] = _cnum(rng)
            self.coeffs[((b, self.anchor[1]), (1, 0))] = _cnum(rng)
        # every level of both factors (root = level 0, leaves = level 7), the anchor and
        # a pair of the anchor's strict ancestors
        queries = [
            (int(rng.choice(padic_level(k))), int(rng.choice(padic_level(PADIC_DEPTH - k))))
            for k in range(PADIC_DEPTH + 1)
        ]
        queries.append(self.anchor)
        queries.append(tuple(_ancestor_at(a, lvl) for a, lvl in zip(self.anchor, (2, 3))))
        self.queries = queries
        anchor_value = self.coeffs[(self.anchor, (0, 0))]
        solution = {
            "anchor": {"vertex": list(self.anchor), "value": [anchor_value.real, anchor_value.imag]},
            "coeffs": [_entry(v, j, z) for (v, j), z in self.coeffs.items() if j != (0, 0)],
            "free_params": [],
            "residual": {"max_rel": 0.0, "max_abs": 0.0, "warnings": []},
        }
        self.sol_path = os.path.join(workdir, "sol.json")
        self.at_path = os.path.join(workdir, "at.json")
        with open(self.sol_path, "w", encoding="utf-8") as fh:
            json.dump(solution, fh)
        with open(self.at_path, "w", encoding="utf-8") as fh:
            json.dump([list(q) for q in queries], fh)

    def op(self, i: int) -> str:
        space = f"padic({PADIC_P},{PADIC_DEPTH})"
        return _run_cli(["eval", self.sol_path, "--space", space, "--space", space,
                         "--at", self.at_path])

    def check(self, outputs: list[str]) -> list[str | None]:
        want = all_terms_pairings(self.coeffs, self.anchor, self.queries)
        errors = []
        for text in outputs:
            rows = json.loads(text)
            got = {tuple(r["vertex"]): complex(r["re"], r["im"]) for r in rows}
            if set(got) != set(want):
                errors.append("queried vertices and output rows differ")
                continue
            bad = [v for v, (value, scale) in want.items() if _rel_err(got[v], value, scale) > REL_TOL]
            errors.append(f"pairing mismatch at {bad[:3]}" if bad else None)
        return errors


def _ancestor_at(ball: int, level: int) -> int:
    while ball > padic_level(level)[-1]:
        ball = (ball - 1) // 2  # parent id in padic(2, depth)
    return ball


def _wavelet_integrals(tree) -> tuple[dict[tuple[int, int], int], np.ndarray]:
    """Integral of every wavelet over every ball, by enumerating leaves.

    Returns the row of each (ball, j) and a matrix ``I[row, ball]``.  Only the
    parent array, measures and the wavelet values are used; no tree query.
    """
    leaves = tree.leaves
    rows: dict[tuple[int, int], int] = {}
    by_ball: dict[int, list] = {}
    for w in wavelets.tree_wavelets(tree):
        rows[(w.ball, w.j)] = len(rows)
        by_ball.setdefault(w.ball, []).append((rows[(w.ball, w.j)], w.values))
    leaf_value = np.zeros((len(rows), len(leaves)), dtype=complex)
    below = np.zeros((len(leaves), tree.n_vertices))  # below[x, b] = 1 iff leaf x lies in ball b
    for xi, x in enumerate(leaves):
        child, ball = x, tree.parent[x]
        below[xi, x] = 1.0
        while ball is not None:
            below[xi, ball] = 1.0
            for r, values in by_ball.get(ball, ()):
                leaf_value[r, xi] = values[child]
            child, ball = ball, tree.parent[ball]
    measure = np.array([tree.measure[x] for x in leaves])
    return rows, (leaf_value * measure) @ below


def all_terms_pairings(coeffs, anchor, queries) -> dict:
    """Oracle for ``eval_on_char_nd``: every stored term, leaf-enumerated integrals.

    Returns ``{query: (value, sum of term magnitudes)}``; the second entry
    scales the relative tolerance.
    """
    tree = io.load_space(f"padic({PADIC_P},{PADIC_DEPTH})")
    rows, integral = _wavelet_integrals(tree)
    mu = np.array(tree.measure)
    keys = list(coeffs)
    c = np.array([coeffs[k] for k in keys])
    # per factor: the integral-table row of each key's component, -1 for the anchor indicator
    row = [np.array([rows[(v[i], j[i])] if j[i] else -1 for v, j in keys]) for i in range(2)]
    out = {}
    for q in queries:
        term = c.copy()
        for i in range(2):
            a, b = anchor[i], q[i]
            wavelet_part = integral[row[i], b] - mu[b] / mu[a] * integral[row[i], a]
            term *= np.where(row[i] < 0, mu[b], wavelet_part)
        out[tuple(q)] = (complex(math.fsum(term.real), math.fsum(term.imag)),
                         float(np.sum(np.abs(term))))
    return out


class Analysis1d(Workload):
    name = "analysis_1d"
    why = ("spectral application of diameter**-0.5 on one seeded explicit tree (~1k leaves, "
           "depth 10): load_space, spectrum, analyze, scale, synthesize; no product code")
    DEPTH = 10
    LEAF_FRACTION = 0.1  # of the balls at each level from 3 on, made leaves early
    TERNARY_FRACTION = 0.15  # of the remaining non-leaf balls at each level

    def setup(self, workdir: str, seed: int) -> None:
        rng = np.random.default_rng(seed)
        parent: list[int | None] = [None]
        depth = [0]
        measure = [1.0]
        level = [0]
        for d in range(self.DEPTH):
            n_leaf = int(self.LEAF_FRACTION * len(level)) if d >= 3 else 0
            order = rng.permutation(len(level))
            inner = [level[i] for i in order[n_leaf:]]
            n_ternary = int(self.TERNARY_FRACTION * len(inner))
            nxt = []
            for pos, ball in enumerate(inner):
                k = 3 if pos < n_ternary else 2
                if rng.random() < 0.5:
                    weights = [1.0 / k] * k  # equal subball measures: character basis
                else:
                    w = rng.uniform(0.5, 1.5, size=k)
                    weights = list(w / w.sum())  # unequal: Gram-Schmidt basis
                for wk in weights:
                    parent.append(ball)
                    depth.append(d + 1)
                    measure.append(measure[ball] * float(wk))
                    nxt.append(len(parent) - 1)
            level = sorted(nxt)
        space = {
            "kind": "explicit",
            "vertices": [
                {"id": i, "parent": parent[i], "measure": measure[i], "diameter": 2.0 ** -depth[i]}
                for i in range(len(parent))
            ],
        }
        self.space_path = os.path.join(workdir, "space.json")
        with open(self.space_path, "w", encoding="utf-8") as fh:
            json.dump(space, fh)
        tree = io.load_space(self.space_path)
        self.values = {x: _cnum(rng) for x in tree.leaves}
        self.f_path = os.path.join(workdir, "f.json")
        with open(self.f_path, "w", encoding="utf-8") as fh:
            json.dump([[x, z.real, z.imag] for x, z in self.values.items()], fh)
        self.symbol = f"homog(beta={BETA})"

    def op(self, i: int) -> dict[int, complex]:
        tree = io.load_space(self.space_path)
        with open(self.f_path, encoding="utf-8") as fh:
            f = wavelets.TestFunction(tree, {x: complex(re, im) for x, re, im in json.load(fh)})
        symbol = io.load_symbol(self.symbol)
        spec = operators.spectrum(tree, symbol)
        expansion = wavelets.analyze(tree, f)
        scaled = wavelets.WaveletExpansion(
            0.0, {(b, j): spec[b] * c for (b, j), c in expansion.coeffs.items()}
        )
        return wavelets.synthesize(tree, scaled).values

    def check(self, outputs: list[dict[int, complex]]) -> list[str | None]:
        tree = io.load_space(self.space_path)
        f = wavelets.TestFunction(tree, self.values)
        want = operators.apply_dense(tree, io.load_symbol(self.symbol), f).values
        scale = max(1.0, max(abs(v) for v in want.values()))
        errors = []
        for got in outputs:
            if set(got) != set(want):
                errors.append("synthesized function has the wrong leaves")
                continue
            err = max(abs(got[x] - want[x]) for x in want) / scale
            errors.append(f"max relative error {err:.3e} against apply_dense" if err > REL_TOL else None)
        return errors


WORKLOADS = {w.name: w for w in (SolveWave2d, EvalPairings, Analysis1d)}
