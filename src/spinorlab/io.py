"""File formats: spinor/params JSON, spinor CSV corpora, canonical reports.

Spinors serialize as {"re": [4 floats], "im": [4 floats]}; Python's float
repr is shortest-round-trip, so load(dump(x)) is bit exact.  CSV corpora
carry 8 real columns per row, re/im interleaved per component.  Reports are
dumped with sorted keys and a fixed layout so identical inputs give
byte-identical files.
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
        a = spinor.complex_from_json(obj["a"])
        b = spinor.complex_from_json(obj["b"])
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
            "A": float(obj["A"]),
            "B": float(obj["B"]),
            "M": float(obj.get("M", 0.0)),
            "m": float(obj.get("m", 0.0)),
            "theta": float(obj.get("theta", 0.0)),
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
            "m": float(obj["m"]),
            "p": float(obj["p"]),
            "theta": float(obj.get("theta", 0.0)),
            "phi": float(obj.get("phi", 0.0)),
        }
    except (KeyError, TypeError, ValueError) as exc:
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


def dumps_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False, default=_json_default) + "\n"


def write_report(report: dict, path: str | Path | None) -> str:
    text = dumps_report(report)
    if path is not None:
        Path(path).write_text(text)
    return text
