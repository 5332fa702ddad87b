"""File formats: spinor/params JSON, spinor CSV corpora, canonical reports.

Spinors serialize as {"re": [4 floats], "im": [4 floats]}; Python's float
repr is shortest-round-trip, so load(dump(x)) is bit exact.  CSV corpora
carry 8 real columns per row, re/im interleaved per component.  Reports are
dumped with sorted keys and a fixed layout so identical inputs give
byte-identical files.  The small reports go through ``json.dumps``; the
corpus reports are streamed from numpy columns by ``write_rows_report``,
whose bytes equal ``json.dumps`` of the same report.

A streamed report is rendered ``_ROWS_PER_SLICE`` = 256 rows at a time, so
only one slice's Python objects (34 per ``classify`` row) and text are alive
at once: under 1 MiB, where a 2048-row slice held about 7 MiB, more than
the covariants of a 10^4-row corpus.  On that corpus 256-, 512- and
2048-row slices render equally fast (medians of 8 alternating in-process
``classify`` passes), and 128-row slices save only 0.2 MiB more.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from . import spinor
from .errors import SpinorlabError


class InputError(SpinorlabError):
    """Malformed input file; the CLI maps this to exit code 2."""


def _fail(path, msg: str) -> InputError:
    return InputError(f"{path}: {msg}")


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise _fail(path, f"cannot parse JSON ({exc})") from exc


def load_spinors(path: str | Path) -> np.ndarray:
    """Load one spinor or a corpus; always returns shape (n, 4)."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return _load_csv(path)
    obj = _read_json(path)
    if isinstance(obj, dict) and "spinors" in obj:
        obj = obj["spinors"]
    if isinstance(obj, dict):
        obj = [obj]
    if not isinstance(obj, list) or not obj:
        raise _fail(path, "expected a spinor object, a list, or {'spinors': [...]}")
    out = []
    for i, item in enumerate(obj):
        try:
            out.append(spinor.from_json(item))
        except (KeyError, TypeError, ValueError) as exc:
            raise _fail(path, f"spinor #{i}: {exc}") from exc
    return np.stack(out)


def _load_csv(path: Path) -> np.ndarray:
    try:
        raw = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except (OSError, ValueError) as exc:
        raise _fail(path, f"cannot parse CSV ({exc})") from exc
    if raw.shape[0] == 0:
        raise _fail(path, "no data rows")
    if raw.shape[1] != 8:
        raise _fail(path, f"CSV needs 8 columns (re/im interleaved), got {raw.shape[1]}")
    finite = np.isfinite(raw).all(axis=1)
    if not finite.all():
        raise _fail(path, f"data row {int(np.argmin(finite)) + 1} has a non-finite value")
    return raw[:, 0::2] + 1j * raw[:, 1::2]


def load_params(path: str | Path) -> tuple[complex, complex]:
    path = Path(path)
    obj = _read_json(path)
    try:
        a = spinor.complex_from_json(obj["a"], "a")
        b = spinor.complex_from_json(obj["b"], "b")
    except (KeyError, TypeError, ValueError) as exc:
        raise _fail(path, f"params need fields a/b with re/im ({exc})") from exc
    return a, b


def _number(obj: dict, key: str, default: float | None = None) -> float:
    """obj[key], or ``default`` where it is absent and there is one, as a
    float; TypeError for a bool or a string, which float() would take."""
    value = obj[key] if default is None else obj.get(key, default)
    if not spinor.is_number(value):
        raise TypeError(f"{key} must be a number, got {json.dumps(value)}")
    return float(value)


def load_coeff_inputs(path: str | Path) -> dict:
    """Map inputs {A, B, M, m, theta, sign} for the coefficient set; sign is
    "+", "-", 1 or -1, and is returned as +1 or -1."""
    path = Path(path)
    obj = _read_json(path)
    try:
        inputs = {
            "A": _number(obj, "A"),
            "B": _number(obj, "B"),
            "M": _number(obj, "M", 0.0),
            "m": _number(obj, "m", 0.0),
            "theta": _number(obj, "theta", 0.0),
            "sign": obj.get("sign", "+"),
        }
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise _fail(path, f"coefficient inputs need A, B [, M, m, theta, sign] ({exc})") from exc
    sign = inputs["sign"]
    # true and 1.0 equal 1 but are not one of the four spellings
    if type(sign) not in (str, int) or sign not in ("+", "-", 1, -1):
        raise _fail(path, f'sign must be "+", "-", 1 or -1, got {sign!r}')
    inputs["sign"] = -1 if sign in ("-", -1) else +1
    return inputs


def load_momentum(path: str | Path) -> dict:
    """Momentum {m > 0, p >= 0, theta, phi}, all finite."""
    path = Path(path)
    obj = _read_json(path)
    try:
        mom = {
            "m": _number(obj, "m"),
            "p": _number(obj, "p"),
            "theta": _number(obj, "theta", 0.0),
            "phi": _number(obj, "phi", 0.0),
        }
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise _fail(path, f"momentum needs m, p [, theta, phi] ({exc})") from exc
    if not all(math.isfinite(v) for v in mom.values()):
        raise _fail(path, "momentum values must be finite")
    if mom["m"] <= 0 or mom["p"] < 0:
        raise _fail(path, f"momentum needs m > 0 and p >= 0, got m={mom['m']!r}, p={mom['p']!r}")
    return mom


def _json_default(obj):
    """Encode what json cannot: numpy arrays and scalars, complex numbers.
    np.float64 and IntEnum subclass float and int, so json writes those."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _non_finite_field(node, name: str = "") -> str | None:
    """Dotted name of a report's first non-finite float in written key order, or None."""
    if isinstance(node, float):
        return None if math.isfinite(node) else name
    items = sorted(node.items()) if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    return next(filter(None, (_non_finite_field(v, f"{name}.{k}".lstrip(".")) for k, v in items)), None)


def dumps_report(report: dict) -> str:
    """The report's JSON text, or ValueError "FIELD is not finite"."""
    if field := _non_finite_field(report):
        raise ValueError(f"{field} is not finite")
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False, default=_json_default) + "\n"


def write_report(report: dict, path: str | Path | None) -> str:
    text = dumps_report(report)
    if path is not None:
        Path(path).write_text(text)
    return text


# Rows rendered per write of a streamed report (see the module docstring).
_ROWS_PER_SLICE = 256
_JSON_BOOLS = np.array(["false", "true"], dtype=object)
_CONVERSIONS = {"f": "%r", "i": "%d", "u": "%d"}  # any other kind is JSON text, %s


def _python_columns(block: np.ndarray) -> list[list]:
    """The (m, width) block of one leaf as width lists of what its slots take:
    floats and ints as Python numbers, bools and strings as JSON text."""
    if block.dtype.kind == "b":
        return _JSON_BOOLS[block.T.astype(np.intp)].tolist()
    if block.dtype.kind in "OU":
        cols = block.T.tolist()
        text = {value: json.dumps(value) for col in cols for value in set(col)}
        return [list(map(text.__getitem__, col)) for col in cols]
    return block.T.tolist()


class _RowLayout:
    """One row layout of a streamed report, compiled to a %-template.

    ``row`` is a dict whose leaves are arrays over all n rows of the report
    (row i is ``leaf[i]``, which may itself be an array): float, int or bool
    arrays, or str arrays.  The template is ``json.dumps(indent=2,
    sort_keys=True)`` of a skeleton row whose leaves are sentinel strings,
    each swapped for a conversion (%r for floats, %d for ints, %s for JSON
    text), so key order and whitespace are the stdlib's.
    """

    def __init__(self, row: dict, newline: str) -> None:
        self.leaves: list[tuple[str, np.ndarray, int]] = []  # (field, (n, width) column, its first slot)
        self.width = 0  # slots in a row
        skeleton = self._skeleton(row, "")
        text = json.dumps(skeleton, indent=2, sort_keys=True).replace("%", "%%").replace("\n", newline)
        at = [text.index(f'"@{j}@"') for j in range(self.width)]
        for _, column, start in self.leaves:
            for j in range(start, start + column.shape[1]):
                text = text.replace(f'"@{j}@"', _CONVERSIONS.get(column.dtype.kind, "%s"))
        self.template = text
        # the template's k-th slot takes the leaves' column order[k]
        self.order = sorted(range(self.width), key=at.__getitem__)
        self.floats = [(at[start], field, column) for field, column, start in self.leaves if column.dtype.kind == "f"]

    def _skeleton(self, node, field: str):
        if isinstance(node, dict):
            return {key: self._skeleton(value, f"{field}.{key}" if field else key) for key, value in node.items()}
        column = np.asarray(node)
        flat = column.reshape(column.shape[0], -1)
        self.leaves.append((field, flat, self.width))
        sentinels = np.array([f"@{j}@" for j in range(self.width, self.width + flat.shape[1])], dtype=object)
        self.width += flat.shape[1]
        return sentinels.reshape(column.shape[1:]).tolist()

    def render(self, rows: np.ndarray) -> list[str]:
        cols = [col for _, column, _ in self.leaves for col in _python_columns(column[rows])]
        return list(map(self.template.__mod__, zip(*[cols[j] for j in self.order])))


def _check_finite(layouts: list[_RowLayout], codes: np.ndarray) -> None:
    """ValueError naming the first row that would write a non-finite float,
    and its first such field in key order."""
    first = None  # (row, place in the template, field)
    for k, layout in enumerate(layouts):
        written = codes == k
        for at, field, column in layout.floats:
            bad = np.flatnonzero(written & ~np.isfinite(column).all(axis=1))
            if bad.size:
                first = min(first or (int(bad[0]), at, field), (int(bad[0]), at, field))
    if first is not None:
        raise ValueError(f"row {first[0]}: {first[2]} is not finite")


def _row_chunks(header: dict, layouts: list[dict], codes: np.ndarray):
    if codes.size == 0:
        yield dumps_report({**header, "rows": []})
        return
    # the stdlib's text around a one-row report: rows is the last key
    head, _, tail = dumps_report({**header, "rows": [0]}).rpartition("0")
    newline = head[head.rindex("\n") :]
    compiled = [_RowLayout(row, newline) for row in layouts]
    _check_finite(compiled, codes)
    sep = "," + newline
    for start in range(0, codes.size, _ROWS_PER_SLICE):
        part = codes[start : start + _ROWS_PER_SLICE]
        pieces = [""] * part.size
        for k, layout in enumerate(compiled):
            at = np.flatnonzero(part == k)
            if at.size:
                for i, text in zip(at.tolist(), layout.render(at + start)):
                    pieces[i] = text
        yield (head if start == 0 else sep) + sep.join(pieces)
    yield tail


def write_rows_report(header: dict, layouts: list[dict], codes: np.ndarray, path: str | Path | None) -> None:
    """Stream ``{**header, "rows": rows}`` to ``path``, or to stdout when it
    is None, with the bytes ``dumps_report`` would give.  Row i is rendered
    from ``layouts[codes[i]]`` (see ``_RowLayout``); every key of ``header``
    sorts before "rows".  The header and every float of a written row are
    checked before the output is opened: a non-finite one raises
    ValueError, naming the first such row and field.  A write that fails
    removes the partial file.
    """
    chunks = _row_chunks(header, layouts, np.asarray(codes))
    first = next(chunks)
    if path is None:
        import sys

        sys.stdout.write(first)
        sys.stdout.writelines(chunks)
        return
    out = open(path, "w")
    try:
        with out:
            out.write(first)
            out.writelines(chunks)
    except BaseException:
        Path(path).unlink()
        raise
