"""Command-line front end.

Each subcommand accepts ``--out`` and the options ``_COMMANDS`` lists for it.
Exit codes: 0 success, 2 parse/validation failure, 3 solvability violation,
4 numeric (divergent tail, ill-conditioned division, an overflowing
eigenvalue or a non-finite value to write).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from dataclasses import replace

import numpy as np

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
    encode_records,
    fmt17,
    load_operator,
    load_problem,
    load_solution,
    load_space,
    load_spaces,
    load_symbol,
    solution_to_obj,
    write_json,
)
from .operators import spectrum
from .solver import characteristic_columns, solve
from .wavelets import tree_wavelets


def _emit(obj, args: argparse.Namespace) -> None:
    """``obj`` to ``--out`` or stdout: CSV text as it is, anything else as JSON through ``write_json``."""
    if vars(args).get("format") != "csv":
        obj = write_json(obj, args.out) + "\n"
    elif args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(obj)
    if not args.out:
        sys.stdout.write(obj)


def _re_im(values: list[complex]) -> dict[str, list[float]]:
    return {"re": [z.real for z in values], "im": [z.imag for z in values]}


def _require(value, flag: str):
    if value is None:
        raise ParameterError(f"this command requires {flag}")
    return value


def _one_space(args: argparse.Namespace):
    specs = ([args.input] if args.input else []) + args.space
    return load_space(_require(specs[0] if len(specs) == 1 else None, "exactly one space file or --space"))


def _spaces(args: argparse.Namespace):
    return load_spaces(_require(args.space or None, "--space (repeat once per factor)"))


def _cmd_validate(args: argparse.Namespace) -> int:
    tree = _one_space(args)
    _emit({"ok": True, "vertices": tree.n_vertices, "leaves": len(tree.leaves), "total_measure": tree.total_measure,
           "zero_measure_balls": sorted(tree.zero_measure)}, args)
    return 0


def _cmd_wavelets(args: argparse.Namespace) -> int:
    tree = _one_space(args)
    cells = [(w.ball, w.j, sub, complex(w.values[sub])) for w in tree_wavelets(tree) for sub in tree.children[w.ball]]
    ball, j, subball, values = map(list, zip(*cells)) if cells else [[]] * 4
    _emit(encode_records({"ball": ball, "j": j, "subball": subball}, _re_im(values), args.format), args)
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    tree = _one_space(args)
    symbol = load_symbol(_require(args.symbol, "--symbol"))
    items = spectrum(tree, symbol).items()
    _emit(encode_records({"ball": [b for b, _ in items]}, _re_im([lam for _, lam in items]), args.format), args)
    return 0


def _cmd_characteristics(args: argparse.Namespace) -> int:
    trees = _spaces(args)
    op = load_operator(_require(args.operator, "--operator"), trees)
    ids, re, im, _ = characteristic_columns(op, args.epsilon if args.epsilon is not None else 1e-9)
    floats = {"abs": np.hypot(re, im).tolist(), "re": re.tolist(), "im": im.tolist()}
    _emit(encode_records({"vertex": tuple(col.tolist() for col in ids)}, floats, args.format), args)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    problem, _trees = load_problem(_require(args.input, "a problem file"))
    overrides = {"epsilon": args.epsilon, "free_values": args.seed}
    overrides = {name: value for name, value in overrides.items() if value is not None}
    if overrides:
        problem = replace(problem, **overrides)  # re-runs the problem's checks
    sol = solve(problem)
    _emit(solution_to_obj(sol), args)
    sys.stderr.write(f"solved: residual max_rel={fmt17(sol.residual.max_rel)}, {len(sol.characteristic_vertices)} "
                     f"characteristic vertices, {len(sol.free_params)} free parameters\n")
    return 0


def _parse_at(at: str) -> list[tuple[int, ...]]:
    try:
        data = json.loads(at)
    except json.JSONDecodeError:
        data = _read_json(at)
    if not isinstance(data, list):
        raise FileFormatError("--at expects a JSON list of vertices")
    return [_int_tuple([item] if isinstance(item, int) else item, "vertex", item, "--at") for item in data]


def _cmd_eval(args: argparse.Namespace) -> int:
    trees = _spaces(args)
    u = load_solution(_require(args.input, "a solution file"), trees)
    vertices = sorted(_parse_at(_require(args.at, "--at")))
    values = [eval_on_char_nd(u, v) for v in vertices]
    ids = tuple([v[i] for v in vertices] for i in range(len(trees)))
    _emit(encode_records({"vertex": ids}, _re_im(values), args.format), args)
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
