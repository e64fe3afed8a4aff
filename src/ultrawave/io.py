"""JSON file formats for spaces, symbols, operators, series, solutions and problems.

Each format has one reader, a ``load_*`` function that takes the JSON
object inline or a string naming its file; every format but the problem
also has a writer, a ``*_to_obj`` function that is its reader's inverse.
Anywhere a space is expected, the shorthand
``padic(p,depth)`` is accepted; symbols likewise accept
``homog(beta=...,c=...,tail=...)``.  References inside composite files
(operator factor symbols, problem parts) are paths resolved relative to the
referencing file's directory.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import re
from itertools import chain, repeat
from operator import contains, index, itemgetter
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .distributions import GeneralizedFunction, Key, KeyColumns, LizorkinSeries, _id_columns, _key_order
from .errors import FileFormatError, NonFiniteError, ParameterError
from .operators import HomogeneousSymbol, Symbol, TableSymbol
from .products import MultiOperator
from .solver import CauchyProblem, Solution
from .trees import BallTree, build_padic_tree

_PADIC_RE = re.compile(r"^padic\(\s*(\d+)\s*,\s*(\d+)\s*\)$")
_HOMOG_RE = re.compile(r"^homog\((.*)\)$")
_SWITCHES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_HOMOG_ARGS = {"beta": float, "c": complex, "tail": lambda text: _SWITCHES[text.lower()]}


def _read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}", location=path) from exc
    except (OSError, ValueError) as exc:  # ValueError: bytes that are not UTF-8, or a NUL in the path
        raise FileFormatError(f"cannot read file: {exc}", location=path) from exc


def _resolve(spec: Any, base_dir: str, location: str) -> tuple[Any, str, str]:
    """``spec`` as (its JSON object, the location to report, the directory of its references).

    A string names a file relative to ``base_dir``: its contents, reported
    by the joined path, with references resolved next to the file.  Anything
    else is the object itself, reported under ``location``, with references
    resolved in ``base_dir``.  An empty ``base_dir`` takes a file path as
    given and resolves an object's references in the working directory.
    """
    if not isinstance(spec, str):
        return spec, location, base_dir or "."
    path = os.path.join(base_dir, spec)
    return _read_json(path), path, os.path.dirname(path) or "."


def _number(x: Any) -> float:
    """A JSON number as a float; a string or a boolean (``"1.5"``, ``true``) is not a number."""
    if isinstance(x, (str, bool)):
        raise TypeError(f"{x!r} is not a number")
    return float(x)


def _integer(x: Any) -> int:
    """A JSON number with an integer value (``3`` or ``3.0``, never ``2.7``) as an int."""
    if isinstance(x, (str, bool)):
        raise TypeError(f"{x!r} is not a number")
    i = int(x)
    if i != x:
        raise ValueError(f"{x!r} is not an integer")
    return i


def _object(obj: Any, what: str, location: str) -> Mapping[str, Any]:
    """``obj`` if it is a JSON object; ``what`` names it in the error."""
    if not isinstance(obj, Mapping):
        raise FileFormatError(f"{what} must be a JSON object, got {obj!r}", location)
    return obj


def _list(obj: Mapping[str, Any], key: str, location: str) -> list:
    """``obj[key]`` (an empty list when absent) if it is a JSON list."""
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise FileFormatError(f"{key!r} must be a list, got {value!r}", location)
    return value


def _spec(value: Any, what: str, location: str) -> str | Mapping[str, Any]:
    """A part of a composite file: a JSON object, or a string naming a file or a shorthand."""
    if not isinstance(value, (str, Mapping)):
        raise FileFormatError(f"{what} must be a string or a JSON object, got {value!r}", location)
    return value


def _field(rec: Any, key: str, what: str, location: str, integer: bool = False) -> int | float:
    """``rec[key]`` as a number (an int with ``integer``); ``what`` names ``rec`` in errors."""
    _object(rec, what, location)
    if key not in rec:
        raise FileFormatError(f"{what} has no {key!r}", location)
    value = rec[key]
    try:
        return _integer(value) if integer else _number(value)
    except (TypeError, ValueError, OverflowError):
        kind = "an integer" if integer else "a number"
        raise FileFormatError(f"{what}: {key!r} must be {kind}, got {value!r}", location) from None


def _complex_of(entry: Mapping[str, Any], location: str) -> complex:
    try:
        return complex(_number(entry.get("re", 0.0)), _number(entry.get("im", 0.0)))
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"bad complex entry {entry!r}", location=location) from exc


def _pair_of(value: Any, location: str) -> complex:
    try:
        if isinstance(value, (list, tuple)) and len(value) == 2:
            return complex(_number(value[0]), _number(value[1]))
        return complex(_number(value))
    except (TypeError, ValueError, OverflowError):
        pass
    raise FileFormatError(f"expected [re, im], got {value!r}", location=location)


def _int_tuple(values: Any, what: str, owner: Any, location: str) -> tuple[int, ...]:
    """Ball ids or wavelet indices from a JSON list, each by the rule of ``_integer``.

    An integral float such as ``3.0`` loads as 3, a non-integral one is an
    error (never truncated), and so is anything that is not a number (``"3"``
    and ``true`` are not ids).  ``what`` and ``owner`` name the record in the
    error message.
    """
    if not isinstance(values, (list, tuple)):
        raise FileFormatError(f"bad {what} {owner!r}", location)
    out = []
    for x in values:
        try:
            out.append(_integer(x))
        except TypeError:
            raise FileFormatError(
                f"bad {what} {owner!r}: id or index {x!r} is not a number", location) from None
        except (ValueError, OverflowError):
            raise FileFormatError(f"non-integral id or index {x!r} in {what} {owner!r}", location) from None
    return tuple(out)


def _anchor_of(obj: Mapping[str, Any], location: str) -> tuple[tuple[int, ...], complex]:
    anchor_obj = obj.get("anchor")
    if not isinstance(anchor_obj, Mapping):
        raise FileFormatError("missing 'anchor' object", location)
    if "vertex" not in anchor_obj:
        raise FileFormatError("the 'anchor' object has no 'vertex'", location)
    vertex = anchor_obj["vertex"]
    anchor = _int_tuple(vertex, "anchor vertex", vertex, location)
    return anchor, _pair_of(anchor_obj.get("value", 0.0), location)


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


# -- spaces ----------------------------------------------------------------


def _vertex_record(rec: Any, location: str) -> tuple[int, int | None, float, float]:
    """An explicit-space vertex record as ``(id, parent, measure, diameter)``; exact JSON types skip ``_field``."""
    if type(rec) is dict:
        i, p, m, d = rec.get("id"), rec.get("parent"), rec.get("measure"), rec.get("diameter")
        if type(i) is int and (p is None or type(p) is int) and type(m) is float and type(d) is float:
            return i, p, m, d
    i = _field(rec, "id", "vertex record", location, integer=True)
    what = f"vertex record {i}"
    p = None if rec.get("parent") is None else _field(rec, "parent", what, location, integer=True)
    return i, p, _field(rec, "measure", what, location), _field(rec, "diameter", what, location)


def load_space(spec: str | Mapping[str, Any], base_dir: str = ".", location: str = "space") -> BallTree:
    """A space from an inline object, a file or a ``padic(p,depth)`` shorthand (see ``_resolve``)."""
    m = _PADIC_RE.match(spec.strip()) if isinstance(spec, str) else None
    if m:
        return build_padic_tree(int(m.group(1)), int(m.group(2)))
    obj, location, _ = _resolve(spec, base_dir, location)
    kind = _object(obj, "a space", location).get("kind")
    if kind == "padic":
        p, depth = (_field(obj, key, "padic space", location, integer=True) for key in ("p", "depth"))
        try:
            return build_padic_tree(p, depth)
        except ParameterError as exc:  # p < 2, depth < 1 or too many vertices: a bad file, named
            raise FileFormatError(str(exc), location) from None
    if kind == "explicit":
        vertices = obj.get("vertices")
        if not isinstance(vertices, list) or not vertices:
            raise FileFormatError("explicit space needs a non-empty 'vertices' list", location)
        n = len(vertices)
        parent: list[int | None] = [None] * n
        measure = [0.0] * n
        diameter = [0.0] * n
        seen = set()
        for rec in vertices:
            i, p, m, d = _vertex_record(rec, location)
            if not (0 <= i < n) or i in seen:
                raise FileFormatError(f"vertex ids must be unique integers 0..{n - 1}; got {i}", location)
            seen.add(i)
            parent[i], measure[i], diameter[i] = p, m, d
        return BallTree(parent, measure, diameter)
    raise FileFormatError(f"unknown space kind {kind!r}", location)


def load_spaces(specs: Iterable[str | Mapping[str, Any]], base_dir: str = ".",
                location: str = "space") -> list[BallTree]:
    """``load_space`` of each spec in order, building each distinct string spec once.

    Trees are immutable, so factors given by the same string share one tree.
    """
    built: dict[str, BallTree] = {}
    trees = []
    for spec in specs:
        if isinstance(spec, str) and spec in built:
            trees.append(built[spec])
            continue
        tree = load_space(spec, base_dir, location)
        if isinstance(spec, str):
            built[spec] = tree
        trees.append(tree)
    return trees


def space_to_obj(tree: BallTree) -> dict[str, Any]:
    if tree.padic is not None:
        return {"kind": "padic", "p": tree.padic[0], "depth": tree.padic[1]}
    return {
        "kind": "explicit",
        "vertices": [
            {
                "id": i,
                "parent": None if tree.parent[i] is None else index(tree.parent[i]),
                "measure": tree.measure[i],
                "diameter": tree.diameter[i],
            }
            for i in range(tree.n_vertices)
        ],
    }


# -- symbols ---------------------------------------------------------------


def _homog_shorthand(text: str) -> HomogeneousSymbol | None:
    m = _HOMOG_RE.match(text.strip())
    if not m:
        return None
    kwargs: dict[str, Any] = {}
    body = m.group(1).strip()
    for part in filter(None, (p.strip() for p in body.split(","))):
        if "=" not in part:
            raise FileFormatError(f"bad homog() argument {part!r}", location=text)
        key, val = (s.strip() for s in part.split("=", 1))
        if key not in _HOMOG_ARGS:
            raise FileFormatError(f"unknown homog() key {key!r}", location=text)
        try:
            kwargs[key] = _HOMOG_ARGS[key](val)
        except (KeyError, ValueError):  # KeyError: a tail that is not a switch, such as ``ture``
            raise FileFormatError(f"bad homog() value {part!r}", location=text) from None
    if "beta" not in kwargs:
        raise FileFormatError("homog() needs beta=...", location=text)
    return HomogeneousSymbol(**kwargs)


def load_symbol(spec: str | Mapping[str, Any], base_dir: str = ".", location: str = "symbol") -> Symbol:
    """A symbol from an inline object, a file or a ``homog(...)`` shorthand (see ``_resolve``)."""
    short = _homog_shorthand(spec) if isinstance(spec, str) else None
    if short is not None:
        return short
    obj, location, _ = _resolve(spec, base_dir, location)
    kind = _object(obj, "a symbol", location).get("kind")
    if kind == "table":
        entries = {}
        for rec in _list(obj, "entries", location):
            ball = _field(rec, "ball", "table entry", location, integer=True)  # first: rec may not be an object
            entries[ball] = _complex_of(rec, location)
        return TableSymbol(entries)
    if kind == "homogeneous":
        c = _pair_of(obj.get("c", 1.0), location)
        beta = _field(obj, "beta", "homogeneous symbol", location) if "beta" in obj else 1.0
        tail = obj.get("tail", False)
        if not isinstance(tail, bool):  # bool("false") would switch the tail on
            raise FileFormatError(f"homogeneous symbol: 'tail' must be true or false, got {tail!r}",
                                  location)
        return HomogeneousSymbol(c=c, beta=beta, tail=tail)
    raise FileFormatError(f"unknown symbol kind {kind!r}", location)


def symbol_to_obj(symbol: Symbol) -> dict[str, Any]:
    if isinstance(symbol, TableSymbol):
        return {
            "kind": "table",
            "entries": [
                {"ball": index(b), "re": complex(v).real, "im": complex(v).imag}
                for b, v in sorted(symbol.entries.items())
            ],
        }
    return {"kind": "homogeneous", "c": _pair(symbol.c), "beta": symbol.beta, "tail": symbol.tail}


# -- operators ---------------------------------------------------------------


def load_operator(
    spec: str | Mapping[str, Any], trees: Sequence[BallTree], base_dir: str = ".", location: str = "operator"
) -> MultiOperator:
    """An operator on ``trees`` from an inline object or a file (see ``_resolve``)."""
    obj, location, base_dir = _resolve(spec, base_dir, location)
    factor_specs = _object(obj, "an operator", location).get("factors")
    if not isinstance(factor_specs, list) or len(factor_specs) != len(trees):
        raise FileFormatError(f"operator needs {len(trees)} factor symbols, got {factor_specs!r}", location)
    symbols = [load_symbol(_spec(s, "a factor symbol", location), base_dir, location) for s in factor_specs]
    terms = []
    for rec in _list(obj, "terms", location):
        rec = _object(rec, "an operator term", location)
        indices = _int_tuple(rec.get("indices", []), "operator term", rec, location)
        terms.append((tuple(i - 1 for i in indices), _complex_of(rec, location)))
    return MultiOperator(list(zip(trees, symbols)), terms)


def operator_to_obj(op: MultiOperator) -> dict[str, Any]:
    return {
        "factors": [symbol_to_obj(sym) for _, sym in op.factors],
        "terms": [
            {"indices": [i + 1 for i in idx], "re": coeff.real, "im": coeff.imag}
            for idx, coeff in op.terms
        ],
    }


# -- coefficient collections -------------------------------------------------


def _coeff_entry_key(rec: Mapping[str, Any], location: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    try:
        if "ball" in rec:
            vertex, j = [rec["ball"]], [rec["j"]]
        else:
            vertex, j = rec["vertex"], rec["j"]
    except (KeyError, TypeError):  # TypeError: a JSON value that is not an object
        raise FileFormatError(f"bad coefficient entry {rec!r}", location) from None
    return (_int_tuple(vertex, "coefficient entry", rec, location),
            _int_tuple(j, "coefficient entry", rec, location))


def _strict_coeff_records(records, location: str) -> dict[Key, complex]:
    """Coefficient records to a ``(vertex, j) -> complex`` dict, checking each record in turn.

    Raises ``FileFormatError`` at the first bad record.
    """
    coeffs = {}
    for rec in records:
        key = _coeff_entry_key(rec, location)  # first: it also rejects a record that is not an object
        coeffs[key] = _complex_of(rec, location)
    return coeffs


_VERTEX, _BALL, _J, _RE, _IM = map(itemgetter, ("vertex", "ball", "j", "re", "im"))


def _fast_coeff_records(records) -> dict[Key, complex] | None:
    """The strict loader's dict, built column by column when every record has exact types.

    ``records`` must hold only ``dict`` records, either all with scalar
    ``ball``/``j`` (a ``vertex`` next to ``ball`` is ignored, as the strict
    loader ignores it) or all with list ``vertex``/``j``, with exact ``int``
    ids and indices and ``float`` ``re``/``im``.  Returns None on any miss;
    the strict loader then decides.  When every record has the same arity
    and every id fits int64, the dict is a ``KeyColumns`` holding the ids as
    int64 columns, so the ids are type-checked here and nowhere else.
    """
    if not set(map(type, records)) <= {dict}:
        return None
    try:
        js, res, ims = (list(map(get, records)) for get in (_J, _RE, _IM))
        if any(map(contains, records, repeat("ball"))):
            vertices, js = list(zip(map(_BALL, records))), list(zip(js))
        else:
            vertices = list(map(_VERTEX, records))
            if not set(map(type, chain(vertices, js))) <= {list}:
                return None
    except KeyError:
        return None
    if not set(map(type, chain.from_iterable(chain(vertices, js)))) <= {int}:
        return None
    if not set(map(type, chain(res, ims))) <= {float}:
        return None
    items = zip(zip(map(tuple, vertices), map(tuple, js)), map(complex, res, ims))
    try:
        n, = set(map(len, chain(vertices, js)))  # ValueError: no record, or keys of mixed arity
        columns = [np.fromiter(chain.from_iterable(part), np.int64, len(part) * n).reshape(len(part), n)
                   for part in (vertices, js)]
    except (ValueError, OverflowError):  # OverflowError: an id beyond int64; the validator decides either way
        return dict(items)
    return KeyColumns(items, *columns)


def _coeff_records(records, location: str) -> dict[Key, complex]:
    """Coefficient records to a ``(vertex, j) -> complex`` dict in record order.

    ``records`` must be a list.  Keys are ``(tuple, tuple)`` of exact ints
    and values are ``complex``, so ``GeneralizedFunction`` and
    ``LizorkinSeries`` take them as they are.
    Records of exact JSON types load column by column; anything else runs the
    strict per-record loader from the first record, so errors and their
    messages do not depend on which path ran.
    """
    if not isinstance(records, list):
        raise FileFormatError(f"coefficient records must be a list, got {records!r}", location)
    coeffs = _fast_coeff_records(records)
    return _strict_coeff_records(records, location) if coeffs is None else coeffs


class _JSONText(str):
    """JSON text that ``write_json`` writes as it is, in place of the value it encodes."""


def encode_records(ids: Mapping[str, Any], floats: Mapping[str, list], fmt: str = "json",
                   where: Callable[[int], str] | None = None) -> str:
    """Records of id fields, then float fields, from columns: ``json.dumps`` of the row dicts, or CSV.

    An id field is a column, or a tuple of n columns that JSON writes as a
    list and CSV spreads over ``name_1..name_n``.  Ids that are not all exact
    ``int`` go through ``operator.index`` (a numpy integer is not JSON, a
    ``bool`` would be ``true``).  Floats are Python floats (``.tolist()``),
    written by ``repr`` in JSON and as ``fmt17`` does in CSV.  One ``%``
    format per record, fed by ``zip`` over the columns, writes each record.
    A NaN or an infinity raises ``NonFiniteError`` naming the first record
    holding one (by ``where(k)`` if given).  JSON comes as ``_JSONText``.
    """
    widths = {name: len(cols) if isinstance(cols, tuple) else 0 for name, cols in ids.items()}
    columns = [col for name, cols in ids.items() for col in (cols if widths[name] else [cols])]
    if not set(map(type, chain.from_iterable(columns))) <= {int}:
        columns = [list(map(index, col)) for col in columns]
    values = list(floats.values())
    if not math.isfinite(sum(map(sum, values))):  # a NaN or an infinity, or finite floats whose sum overflows
        for k, row in enumerate(zip(*values)):
            for name, x in zip(floats, row):
                if not math.isfinite(x):
                    raise NonFiniteError(f"cannot write a non-finite value as {fmt.upper()}: "
                                         + (where(k) if where else f"{name} {x} in record {k}"))
    if fmt == "csv":
        names = [f"{name}_{i + 1}" if w else name for name, w in widths.items() for i in range(w or 1)]
        line = ",".join(["%d"] * len(columns) + ["%.17g"] * len(values))
        return "\n".join([",".join(names + list(floats)), *map(line.__mod__, zip(*columns, *values)), ""])
    record = "{" + ", ".join([f'"{name}": ' + ("[" + ", ".join(["%d"] * w) + "]" if w else "%d")
                              for name, w in widths.items()] + [f'"{name}": %r' for name in floats]) + "}"
    return _JSONText("[%s]" % ", ".join(map(record.__mod__, zip(*columns, *values))))


def _coeff_records_json(balls: np.ndarray, js: np.ndarray, rows=slice(None),
                        coeffs: Mapping[Key, complex] | None = None) -> _JSONText:
    """The records of ``rows`` of the (keys x n) id arrays (``{ball, j}`` at n = 1, else ``{vertex, j}``).

    With ``coeffs``, the dict of those keys row for row, each record also gets its key's value.
    """
    vertex, j = balls[rows].T.tolist(), js[rows].T.tolist()
    ids = {"ball": vertex[0], "j": j[0]} if len(vertex) == 1 else {"vertex": tuple(vertex), "j": tuple(j)}
    if coeffs is None:
        return encode_records(ids, {})
    z = np.fromiter(coeffs.values(), complex, len(coeffs))[rows]
    return encode_records(ids, {"re": z.real.tolist(), "im": z.imag.tolist()},
                          where=lambda k: f"coefficient {complex(z[k])} at {list(coeffs)[rows[k]]}")


def load_lizorkin(
    spec: str | Mapping[str, Any], n: int, base_dir: str = ".", location: str = "series"
) -> LizorkinSeries:
    """A series of arity ``n`` from an inline object or a file (see ``_resolve``)."""
    obj, location, _ = _resolve(spec, base_dir, location)
    _object(obj, "a series", location)
    mean = _pair_of(obj.get("mean", 0.0), location)
    if mean != 0:
        raise FileFormatError("a right-hand side series must have zero mean coefficient", location)
    return LizorkinSeries(n, _coeff_records(obj.get("coeffs", []), location))


def lizorkin_to_obj(series: LizorkinSeries) -> dict[str, Any]:
    balls, js = series._columns
    coeffs = _coeff_records_json(balls, js, _key_order(balls, js), series.coeffs)
    return {"mean": [0.0, 0.0], "coeffs": json.loads(coeffs)}


# -- generalized functions / solutions ---------------------------------------


def _genfun_obj(u: GeneralizedFunction) -> dict[str, Any]:
    """``genfun_to_obj``'s object with ``coeffs`` as ``_JSONText``: the rows in sorted key order, less the anchor's."""
    balls, js = u._columns
    rows = u._sorted_rows
    rows = rows[js[rows].any(axis=1)]  # j = 0 on every factor only at the anchor key
    return {
        "anchor": {"vertex": list(map(index, u.anchor)), "value": _pair(u.anchor_value)},
        "coeffs": _coeff_records_json(balls, js, rows, u.coeffs),
    }


def genfun_to_obj(u: GeneralizedFunction) -> dict[str, Any]:
    obj = _genfun_obj(u)
    return {**obj, "coeffs": json.loads(obj["coeffs"])}


def solution_to_obj(sol: Solution) -> dict[str, Any]:
    """The solution file's object for ``write_json``: ``coeffs`` and ``free_params`` are ``_JSONText``."""
    obj = _genfun_obj(sol.u)
    # the keys of ``coeffs`` records without values; each value is in ``coeffs``
    obj["free_params"] = _coeff_records_json(*(sol.free_columns or _id_columns(list(sol.free_params), sol.u.n)))
    obj["residual"] = {
        "max_rel": sol.residual.max_rel,
        "max_abs": sol.residual.max_abs,
        "warnings": list(sol.residual.warnings),
    }
    return obj


def load_solution(spec: str | Mapping[str, Any], trees: Sequence[BallTree], base_dir: str = ".") -> GeneralizedFunction:
    """A generalized function on ``trees`` from an inline object or a file (see ``_resolve``)."""
    obj, location, _ = _resolve(spec, base_dir, "function")
    anchor, value = _anchor_of(_object(obj, "a generalized function", location), location)
    coeffs = _coeff_records(obj.get("coeffs", []), location)
    if not cmath.isfinite(value):
        raise FileFormatError(f"the anchor value {value} is not finite", location)
    if not cmath.isfinite(sum(coeffs.values(), 0j)):  # a NaN or an infinity, or finite values whose sum overflows
        for key, c in coeffs.items():
            if not cmath.isfinite(c):
                raise FileFormatError(f"coefficient {c} at {key} is not finite", location)
    return GeneralizedFunction(trees, anchor, coeffs, value)


# -- problems ------------------------------------------------------------------


def load_problem(spec: str | Mapping[str, Any]) -> tuple[CauchyProblem, list[BallTree]]:
    """A problem and its trees from an inline object or a file (see ``_resolve``).

    A file is read and reported by its path as given.
    """
    obj, location, base_dir = _resolve(spec, "", "problem")
    space_specs = _object(obj, "a problem", location).get("spaces")
    if not isinstance(space_specs, list) or not space_specs:
        raise FileFormatError("problem needs a non-empty 'spaces' list", location)
    trees = load_spaces((_spec(s, "a space", location) for s in space_specs), base_dir, location)
    if "operator" not in obj:
        raise FileFormatError("problem has no 'operator'", location)
    op = load_operator(_spec(obj["operator"], "the operator", location), trees, base_dir, location)
    rhs = _spec(obj.get("rhs", {"mean": [0.0, 0.0], "coeffs": []}), "the rhs", location)
    rhs = load_lizorkin(rhs, len(trees), base_dir, location)
    anchor, anchor_value = _anchor_of(obj, location)
    boundary = _coeff_records(obj.get("boundary", []), location)
    free: str | int | dict = "zero"
    fp = obj.get("free_params", "zero")
    if fp == "zero":
        free = "zero"
    elif isinstance(fp, Mapping) and "seed" in fp:
        free = _field(fp, "seed", "free_params", location, integer=True)
    elif isinstance(fp, list):
        free = _coeff_records(fp, location)
    else:
        raise FileFormatError(f"unsupported free_params value {fp!r}", location)
    problem = CauchyProblem(
        operator=op,
        rhs=rhs,
        anchor=anchor,
        anchor_value=anchor_value,
        boundary=boundary,
        epsilon=_field(obj, "epsilon", "problem", location) if "epsilon" in obj else 1e-9,
        free_values=free,
    )
    return problem, trees


def _dumps(obj: Any) -> str:
    return obj if isinstance(obj, _JSONText) else json.dumps(obj, check_circular=False, allow_nan=False)


def write_json(obj: Any, path: str | None) -> str:
    """Compact single-line JSON, written to ``path`` with a newline when given.

    Compact output keeps CPython's C encoder (``indent`` would not).  The
    objects written here hold no reference cycles, so the circular-reference
    check is skipped.  A ``_JSONText``, on its own or as a value of a
    top-level dict (keyed by strings), is written as it is.  NaN and
    infinity raise ``NonFiniteError`` before anything is written.
    """
    try:
        if isinstance(obj, dict) and any(isinstance(value, _JSONText) for value in obj.values()):
            text = "{" + ", ".join(json.dumps(key) + ": " + _dumps(value) for key, value in obj.items()) + "}"
        else:
            text = _dumps(obj)
    except ValueError as exc:
        raise NonFiniteError(f"cannot write a non-finite value as JSON ({exc})") from None
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text


def fmt17(x: float) -> str:
    """17 significant digits, '.' decimal separator; round-trips doubles."""
    return format(float(x), ".17g")
