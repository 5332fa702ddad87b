"""File formats: spinor/params JSON, spinor CSV corpora, canonical reports.

Spinors serialize as {"re": [4 floats], "im": [4 floats]}; Python's float
repr is shortest-round-trip, so load(dump(x)) is bit exact.  CSV corpora
carry 8 real columns per row, re/im interleaved per component.  Reports are
dumped with sorted keys and a fixed layout so identical inputs give
byte-identical files.  The small reports, plain Python values, go through
``json.dumps``; the corpus reports are streamed from numpy columns by
``write_rows_report``, whose bytes equal ``json.dumps`` of the same report.

A streamed report takes its rows one block at a time from an iterable, so
the CLI computes each 1024-row block (``bilinear._blocks``) just before its
text is written and holds no n-row result column.  Each block is rendered
``_ROWS_PER_SLICE`` = 256 rows at a time, so only one slice's Python
objects (24 per ``classify`` row, 6 of them S's texts) and text are alive
at once: under 1 MiB, where a 2048-row slice held about 7 MiB.  On a
10^4-row corpus 256-, 512- and 2048-row slices render equally fast (medians
of 8 alternating in-process ``classify`` passes), and 128-row slices save
only 0.2 MiB more.  A ``classify`` row formats 20 floats, not 30: its S is
antisymmetric with a zero diagonal, so ``_square_columns`` formats only the
upper triangle.

A CSV corpus is parsed into one (n, 8) float array and returned as its
(n, 4) complex view, with no copy.
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
    except (OSError, ValueError) as exc:  # ValueError: also an int of more digits than int() takes
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
    return spinor.complex_view(raw)


def load_params(path: str | Path) -> tuple[complex, complex]:
    path = Path(path)
    obj = _read_json(path)
    try:
        a = spinor.complex_from_json(obj["a"], "a")
        b = spinor.complex_from_json(obj["b"], "b")
    except (KeyError, TypeError, ValueError) as exc:
        raise _fail(path, f"params need fields a/b with re/im ({exc})") from exc
    return a, b


def load_coeff_inputs(path: str | Path) -> dict:
    """Map inputs {A, B, M, m, theta, sign} for the coefficient set; sign is
    "+", "-", 1 or -1, and is returned as +1 or -1."""
    path = Path(path)
    obj = _read_json(path)
    try:
        inputs = {
            "A": spinor.as_number(obj["A"], "A"),
            "B": spinor.as_number(obj["B"], "B"),
            "M": spinor.as_number(obj.get("M", 0.0), "M"),
            "m": spinor.as_number(obj.get("m", 0.0), "m"),
            "theta": spinor.as_number(obj.get("theta", 0.0), "theta"),
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
            "m": spinor.as_number(obj["m"], "m"),
            "p": spinor.as_number(obj["p"], "p"),
            "theta": spinor.as_number(obj.get("theta", 0.0), "theta"),
            "phi": spinor.as_number(obj.get("phi", 0.0), "phi"),
        }
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise _fail(path, f"momentum needs m, p [, theta, phi] ({exc})") from exc
    if not all(math.isfinite(v) for v in mom.values()):
        raise _fail(path, "momentum values must be finite")
    if mom["m"] <= 0 or mom["p"] < 0:
        raise _fail(path, f"momentum needs m > 0 and p >= 0, got m={mom['m']!r}, p={mom['p']!r}")
    return mom


def _non_finite_field(node, name: str = "") -> str | None:
    """Dotted name of a report's first non-finite float in written key order, or None."""
    if isinstance(node, float):
        return None if math.isfinite(node) else name
    items = sorted(node.items()) if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    return next(filter(None, (_non_finite_field(v, f"{name}.{k}".lstrip(".")) for k, v in items)), None)


def dumps_report(report: dict) -> str:
    """The report's JSON text, or ValueError "FIELD is not finite".  Every
    value is a Python bool, int, float, str, None, list or dict."""
    if field := _non_finite_field(report):
        raise ValueError(f"{field} is not finite")
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


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


def _square_columns(block: np.ndarray) -> list:
    """The (m, k*k) block of a square float leaf as what its k*k slots take
    for %s.  Where the slice is bitwise antisymmetric with a +0.0 diagonal,
    as S^{mu nu} of ``bilinear.compute_batch`` is, only the upper triangle
    goes through repr: a diagonal slot is "0.0", and a lower slot is its
    upper partner's text with the sign flipped (a leading "-" stripped or
    added), which is repr(-x) for every finite x.  Otherwise each slot is
    its float, whose %s is its repr."""
    m, width = block.shape
    k = math.isqrt(width)
    upper = [i * k + j for i in range(k) for j in range(i + 1, k)]
    lower = [j * k + i for i in range(k) for j in range(i + 1, k)]
    if block[:, :: k + 1].view(np.int64).any() or np.negative(block[:, upper]).tobytes() != block[:, lower].tobytes():
        return block.T.tolist()
    cols = [["0.0"] * m] * width  # the diagonal's slots share one list
    for up, low in zip(upper, lower):
        cols[up] = list(map(repr, block[:, up].tolist()))
        # made as the template reads it, so a slice holds no lower slot's text
        cols[low] = (text[1:] if text[0] == "-" else "-" + text for text in cols[up])
    return cols


def _columns(node) -> list[np.ndarray]:
    """The leaves of a row layout's dict, in key order, each as an (m, width) array."""
    if isinstance(node, dict):
        return [column for _, value in sorted(node.items()) for column in _columns(value)]
    column = np.asarray(node)
    return [column.reshape(column.shape[0], -1)]


class _RowLayout:
    """One row layout of a streamed report, compiled to a %-template.

    ``row`` is a dict whose leaves are arrays over the m rows of a block
    (row i is ``leaf[i]``, which may itself be an array): float, int or bool
    arrays, or str arrays.  The template is ``json.dumps(indent=2,
    sort_keys=True)`` of a skeleton row whose leaves are sentinel strings,
    each swapped for a conversion (%r for floats, %d for ints, %s for JSON
    text, and %s for a float leaf of shape (k, k), which
    ``_square_columns`` renders), so key order and whitespace are the
    stdlib's.  It is compiled once, from the first block, and renders every
    block's ``_columns``.
    """

    def __init__(self, row: dict, newline: str) -> None:
        self.conversions: list[str] = []  # per slot
        self.makers: list = []  # per leaf, what makes its slots' arguments from its (m, width) block
        self.floats: list[tuple[int, str, int]] = []  # (first slot, field, leaf) of each float leaf
        skeleton = self._skeleton(row, "")
        text = json.dumps(skeleton, indent=2, sort_keys=True).replace("%", "%%").replace("\n", newline)
        for j, conversion in enumerate(self.conversions):
            text = text.replace(f'"@{j}@"', conversion)
        self.template = text  # slot j is its j-th conversion: the skeleton is built in key order

    def _skeleton(self, node, field: str):
        if isinstance(node, dict):
            items = sorted(node.items())
            return {key: self._skeleton(value, f"{field}.{key}" if field else key) for key, value in items}
        column = np.asarray(node)
        kind, shape = column.dtype.kind, column.shape[1:]
        slots = range(len(self.conversions), len(self.conversions) + math.prod(shape))
        if kind == "f":
            self.floats.append((slots.start, field, len(self.makers)))
        square = kind == "f" and len(shape) == 2 and shape[0] == shape[1]
        self.conversions += ["%s" if square else _CONVERSIONS.get(kind, "%s")] * len(slots)
        self.makers.append(_square_columns if square else _python_columns)
        return np.array([f"@{j}@" for j in slots], dtype=object).reshape(shape).tolist()

    def render(self, columns: list[np.ndarray], rows: np.ndarray) -> list[str]:
        cols = [col for make, column in zip(self.makers, columns) for col in make(column[rows])]
        return list(map(self.template.__mod__, zip(*cols)))


def _check_finite(layouts: list[_RowLayout], columns: list[list[np.ndarray]], codes: np.ndarray, offset: int) -> None:
    """ValueError naming the first row that would write a non-finite float,
    by its index in the report (``offset`` plus its index in ``codes``), and
    its first such field in key order."""
    first = None  # (row, first slot, field)
    for k, (layout, leaves) in enumerate(zip(layouts, columns)):
        written = codes == k
        for slot, field, leaf in layout.floats:
            bad = np.flatnonzero(written & ~np.isfinite(leaves[leaf]).all(axis=1))
            if bad.size:
                first = min(first or (int(bad[0]), slot, field), (int(bad[0]), slot, field))
    if first is not None:
        raise ValueError(f"row {first[0] + offset}: {first[2]} is not finite")


def _slice_text(
    layouts: list[_RowLayout], columns: list[list[np.ndarray]], codes: np.ndarray, start: int, sep: str
) -> str:
    """The text of the block's rows start, start + 1, ... that ``codes`` lays out."""
    pieces = [""] * codes.size
    for k, layout in enumerate(layouts):
        at = np.flatnonzero(codes == k)
        if at.size:
            for i, text in zip(at.tolist(), layout.render(columns[k], at + start)):
                pieces[i] = text
    return sep.join(pieces)


def _row_chunks(header: dict, blocks):
    """The report's text in pieces: the header's, then each slice's rows."""
    # the stdlib's text around a one-row report: rows is the last key
    head, _, tail = dumps_report({**header, "rows": [0]}).rpartition("0")
    newline = head[head.rindex("\n") :]
    sep = "," + newline
    lead = head  # the text before the next slice
    done = 0  # rows of the blocks before this one
    compiled = None  # the layouts' templates, made from the first block with rows
    for layouts, codes in blocks:
        codes = np.asarray(codes)
        if codes.size == 0:
            continue
        compiled = compiled or [_RowLayout(row, newline) for row in layouts]
        columns = [_columns(row) for row in layouts]
        _check_finite(compiled, columns, codes, done)
        for start in range(0, codes.size, _ROWS_PER_SLICE):
            yield lead
            yield _slice_text(compiled, columns, codes[start : start + _ROWS_PER_SLICE], start, sep)
            lead = sep
        done += codes.size
        del layouts, codes, columns  # this block is freed before the next is made
    yield tail if done else dumps_report({**header, "rows": []})


def write_rows_report(header: dict, blocks, path: str | Path | None) -> None:
    """Stream ``{**header, "rows": rows}`` to ``path``, or to stdout when it
    is None, with the bytes ``dumps_report`` would give.

    ``blocks`` yields ``(layouts, codes)`` per block of consecutive rows:
    the block's row j is rendered from ``layouts[codes[j]]`` (see
    ``_RowLayout``), and the rows of all blocks make one list.  Each
    block's layouts have the keys, leaf shapes and dtype kinds of the
    first block's, whose templates render them all.  Every key of
    ``header`` sorts before "rows".  The header and the first block are
    checked before the output is opened, and each later block before its
    text is written: a non-finite written float raises ValueError naming
    the first such row, by its index in the report, and field.  A failure,
    a later block's check included, removes the partial file; on stdout the
    blocks already written stay written.
    """
    chunks = _row_chunks(header, blocks)
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
