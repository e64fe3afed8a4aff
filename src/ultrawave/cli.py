"""Command-line front end.

Each subcommand accepts ``--out`` and the options ``_COMMANDS`` lists for it.
Exit codes: 0 success, 2 parse/validation failure, 3 solvability violation,
4 numeric (divergent tail, ill-conditioned division or a non-finite result
in JSON output).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from dataclasses import replace

from .distributions import eval_on_char_nd
from .errors import (
    DivergenceError,
    FileFormatError,
    IllConditionedError,
    NonFiniteError,
    ParameterError,
    UltrawaveError,
    UnsolvableError,
)
from .io import (
    _int_tuple,
    _read_json,
    fmt17,
    load_operator,
    load_problem,
    load_solution,
    load_space,
    load_symbol,
    solution_to_obj,
    write_json,
)
from .operators import spectrum
from .solver import characteristics, solve
from .wavelets import tree_wavelets


def _emit_json(obj, out: str | None) -> None:
    text = write_json(obj, out)
    if not out:
        sys.stdout.write(text + "\n")


def _emit_rows(rows: list[dict], columns: list[str], args: argparse.Namespace) -> None:
    if args.format == "csv":
        lines = [",".join(columns)]
        for row in rows:
            cells = []
            for col in columns:
                v = row[col]
                cells.append(fmt17(v) if isinstance(v, float) else str(v))
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    else:
        _emit_json(rows, args.out)


def _emit_vertex_rows(rows: list[dict], n: int, columns: list[str], args: argparse.Namespace) -> None:
    """Rows with an n-factor ``vertex``; CSV spreads it over vertex_1..vertex_n."""
    if args.format == "csv":
        names = [f"vertex_{i + 1}" for i in range(n)]
        flat = [{**dict(zip(names, row["vertex"])), **{c: row[c] for c in columns}} for row in rows]
        _emit_rows(flat, names + columns, args)
    else:
        _emit_rows(rows, [], args)


def _require(value, flag: str):
    if value is None:
        raise ParameterError(f"this command requires {flag}")
    return value


def _one_space(args: argparse.Namespace):
    specs = ([args.input] if args.input else []) + args.space
    return load_space(_require(specs[0] if len(specs) == 1 else None, "exactly one space file or --space"))


def _spaces(args: argparse.Namespace):
    if not args.space:
        raise ParameterError("this command requires --space (repeat once per factor)")
    return [load_space(s) for s in args.space]


def _cmd_validate(args: argparse.Namespace) -> int:
    tree = _one_space(args)
    report = {
        "ok": True,
        "vertices": tree.n_vertices,
        "leaves": len(tree.leaves),
        "total_measure": tree.total_measure,
        "zero_measure_balls": sorted(tree.zero_measure),
    }
    _emit_json(report, args.out)
    return 0


def _cmd_wavelets(args: argparse.Namespace) -> int:
    tree = _one_space(args)
    rows = []
    for w in tree_wavelets(tree):
        for sub in tree.children[w.ball]:
            v = complex(w.values[sub])
            rows.append({"ball": w.ball, "j": w.j, "subball": sub, "re": v.real, "im": v.imag})
    _emit_rows(rows, ["ball", "j", "subball", "re", "im"], args)
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    tree = _one_space(args)
    symbol = load_symbol(_require(args.symbol, "--symbol"))
    spec = spectrum(tree, symbol)
    rows = [{"ball": b, "re": lam.real, "im": lam.imag} for b, lam in spec.items()]
    _emit_rows(rows, ["ball", "re", "im"], args)
    return 0


def _cmd_characteristics(args: argparse.Namespace) -> int:
    trees = _spaces(args)
    op = load_operator(_require(args.operator, "--operator"), trees)
    eps = args.epsilon if args.epsilon is not None else 1e-9
    rows = []
    for c in characteristics(op, eps):
        rows.append(
            {
                "vertex": list(c.vertex),
                "abs": abs(c.eigenvalue),
                "re": c.eigenvalue.real,
                "im": c.eigenvalue.imag,
            }
        )
    _emit_vertex_rows(rows, len(trees), ["abs", "re", "im"], args)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    problem, _trees = load_problem(_require(args.input, "a problem file"))
    overrides = {"epsilon": args.epsilon, "free_values": args.seed}
    overrides = {name: value for name, value in overrides.items() if value is not None}
    if overrides:
        problem = replace(problem, **overrides)  # re-runs the problem's checks
    sol = solve(problem)
    _emit_json(solution_to_obj(sol), args.out)
    sys.stderr.write(
        f"solved: residual max_rel={fmt17(sol.residual.max_rel)}, "
        f"{len(sol.characteristic_vertices)} characteristic vertices, "
        f"{len(sol.free_params)} free parameters\n"
    )
    return 0


def _parse_at(at: str) -> list[tuple[int, ...]]:
    try:
        data = json.loads(at)
    except json.JSONDecodeError:
        data = _read_json(at)
    if not isinstance(data, list):
        raise FileFormatError("--at expects a JSON list of vertices")
    return [_int_tuple([item] if isinstance(item, int) else item, "vertex", item, "--at")
            for item in data]


def _cmd_eval(args: argparse.Namespace) -> int:
    trees = _spaces(args)
    u = load_solution(_require(args.input, "a solution file"), trees)
    vertices = _parse_at(_require(args.at, "--at"))
    rows = []
    for v in sorted(vertices):
        value = eval_on_char_nd(u, v)
        rows.append({"vertex": list(v), "re": value.real, "im": value.imag})
    _emit_vertex_rows(rows, len(trees), ["re", "im"], args)
    return 0


_OPTIONS = {
    "input": {"nargs": "?", "help": "primary input file (command-specific)"},
    "--space": {"action": "append", "default": [], "help": "space file or padic(p,depth); repeat per factor"},
    "--symbol": {"help": "symbol file or homog(beta=...)"},
    "--operator": {"help": "operator file"},
    "--at": {"help": "JSON list of vertices to evaluate (inline or file)"},
    "--format": {"choices": ["csv", "json"], "default": "json"},
    "--epsilon": {"type": float, "help": "characteristic tolerance override"},
    "--seed": {"type": int, "help": "seed for free-parameter assignment"},
    "--out": {"help": "output file (default: stdout)"},
}

_COMMANDS = {  # name: (handler, help line, the options the handler reads besides --out)
    "validate": (_cmd_validate, "check a space file's structural invariants", ("input", "--space")),
    "wavelets": (_cmd_wavelets, "list the wavelet basis of a space", ("input", "--space", "--format")),
    "spectrum": (_cmd_spectrum, "eigenvalues of a symbol on a space", ("input", "--space", "--symbol", "--format")),
    "characteristics": (_cmd_characteristics, "vertices where an operator's eigenvalue vanishes",
                        ("--space", "--operator", "--epsilon", "--format")),
    "solve": (_cmd_solve, "solve an equation problem file", ("input", "--epsilon", "--seed")),
    "eval": (_cmd_eval, "evaluate a solution on listed balls/vertices", ("input", "--space", "--at", "--format")),
}


def run(args: argparse.Namespace) -> int:
    # A command builds tens of thousands of acyclic containers; the cyclic
    # collector's passes over them free nothing, so it pauses until the command ends.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _COMMANDS[args.command][0](args)
    except UnsolvableError as exc:
        sys.stderr.write(f"unsolvable: {exc}\n")
        return 3
    except (IllConditionedError, DivergenceError, NonFiniteError) as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 4
    except (UltrawaveError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        if collecting:
            gc.enable()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultrawave",
        description="Wavelet analysis and spectral equation solving on measured ball trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option in (*options, "--out"):
            p.add_argument(option, **_OPTIONS[option])
    return parser


def main(argv: list[str] | None = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
