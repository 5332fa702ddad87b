"""Bounded fuzz of ``cli.main``: any input file gives exit 0-3 and at most one error line.

Every command that reads files gets generated ones: JSON of the right
shape with odd leaves (bools, numeric strings, null, integers beyond float
range, magnitudes from 1e-320 to 1e308), JSON of the wrong shape or not
JSON at all, CSV corpora with wrong column counts, CSV corpora of more
than one row block, and --output paths that cannot be written.  Exit 4, a traceback or a second stderr line is a
defect.  ``homotopy`` also runs between spinors of a regular base's plane,
and an exit-0 report lists its crossings sorted by t, each t in (0, 1] and
each class 2, 3 or 6.
"""

import contextlib
import io
import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spinorlab import bilinear, cli, plane, spinor
from spinorlab.generators import random_rim_bases

_SIGNS = st.sampled_from([1.0, -1.0])
_MAGNITUDES = st.one_of(
    st.floats(-320.0, 308.0).map(lambda e: 10.0**e), st.floats(1e-320, 1e308), st.floats(0.1, 10.0), st.just(0.0)
)
_FLOATS = st.builds(lambda sign, mag: sign * mag, _SIGNS, _MAGNITUDES)
_ODD = st.one_of(
    st.booleans(),
    st.none(),
    _FLOATS.map(repr),  # a numeric string
    st.sampled_from([10**400, -(10**400), 2**1024 - 2**970, 2**1024 - 2**970 - 1]),
)
_ANY = st.recursive(
    _FLOATS | _ODD,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.sampled_from(["re", "im", "a", "b", "p"]), inner),
    max_leaves=8,
)
_NOT_JSON = st.sampled_from(["", "{", "[1, 2", "nul", "{'re': [1]}"])


def _values(leaf) -> dict:
    """The JSON value of each kind of input file, with ``leaf`` numbers."""
    cx = st.fixed_dictionaries({"re": leaf, "im": leaf})
    four = st.lists(leaf, min_size=4, max_size=4)
    spinor = st.fixed_dictionaries({"re": four, "im": four})
    # Re(a) = Re(b), or the couplings fail before the map runs
    integrable = st.builds(lambda re, a, b: {"a": {"re": re, "im": a}, "b": {"re": re, "im": b}}, leaf, leaf, leaf)
    sign = st.sampled_from(["+", "-", 1, -1]) | leaf
    corpus = st.lists(spinor, max_size=3)
    optional = {"M": leaf, "m": leaf, "theta": leaf, "sign": sign}
    return {
        "spinor": spinor | corpus | st.fixed_dictionaries({"spinors": corpus}),
        "params": integrable | st.fixed_dictionaries({"a": cx, "b": cx}),
        "coeffs": st.fixed_dictionaries({"A": leaf, "B": leaf}, optional=optional),
        "momentum": st.fixed_dictionaries({"m": leaf, "p": leaf}, optional={"theta": leaf, "phi": leaf}),
    }


_NUMBERS, _MIXED = _values(_FLOATS), _values(_FLOATS | _ODD)


def _json(kind):
    """The text of a JSON file of ``kind``: of its shape with numbers or with
    odd leaves, any JSON, or no JSON."""
    numbers = _NUMBERS[kind].map(json.dumps)
    return st.one_of(numbers, numbers, _MIXED[kind].map(json.dumps), _ANY.map(json.dumps), _NOT_JSON)


@st.composite
def _csv(draw):
    """A corpus of 8 columns or of a wrong count, its last row maybe short;
    about one in ten repeats its rows past a 1024-row block boundary."""
    width = draw(st.sampled_from([8, 8, 1, 7, 9]))
    rows = draw(st.lists(st.lists(_FLOATS, min_size=width, max_size=width), max_size=4))
    if rows and draw(st.sampled_from(range(10))) == 9:
        rows = rows * (bilinear._BLOCK // len(rows) + 1)
    if rows and draw(st.booleans()):
        rows[-1] = rows[-1][:-1]
    return "".join(",".join(map(repr, row)) + "\n" for row in rows)


_COMMANDS = {
    "classify": [("--input", "spinor")],
    "classify-csv": [("--input", "csv")],
    "decompose": [("--input", "csv"), ("--base", "spinor")],
    "map": [("--params", "params"), ("--coeffs", "coeffs"), ("--input", "spinor")],
    "homotopy": [("--from", "spinor"), ("--to", "spinor"), ("--base", "spinor")],
    "mdo": [("--momentum", "momentum")],
}
_EXTRA = {"map": ["--direction", "dirac-to-mdo"], "homotopy": ["--steps", "4"]}
_BASE = random_rim_bases(np.random.default_rng(0), 1)[0]
_COMPLEX = st.builds(complex, _FLOATS, _FLOATS)


@st.composite
def _invocation(draw):
    """(command, [(flag, file name, file text)], --output choice)."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    files = []
    for i, (flag, kind) in enumerate(_COMMANDS[command]):
        name = f"{kind}{i}.csv" if kind == "csv" else f"{kind}{i}.json"
        files.append((flag, name, draw(_csv() if kind == "csv" else _json(kind))))
    path = draw(st.sampled_from(["files", "reflexive", "in-plane", "in-plane"])) if command == "homotopy" else "files"
    if path == "reflexive":  # a path from the base to itself, in the base's plane
        files = [(flag, name, files[-1][2]) for flag, name, _ in files]
    if path == "in-plane":  # a path between two spinors in the plane of a regular base
        ends = [plane.block_scale(_BASE, *draw(st.lists(_COMPLEX, min_size=2, max_size=2))) for _ in range(2)]
        texts = [json.dumps(spinor.to_json(psi)) for psi in [*ends, _BASE]]
        files = [(flag, name, text) for (flag, name, _), text in zip(files, texts)]
    return command, files, draw(st.sampled_from([None, None, "report.json", "missing/report.json", "."]))


@given(invocation=_invocation())
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_any_input_exits_0_to_3_with_at_most_one_error_line(invocation, tmp_path_factory):
    command, files, output = invocation
    where = tmp_path_factory.mktemp("fuzz")
    argv = [command.split("-")[0], *_EXTRA.get(command, [])]
    for flag, name, text in files:
        (where / name).write_text(text)
        argv += [flag, str(where / name)]
    if output is not None:
        argv += ["--output", str(where / output)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3), err.getvalue()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: ")), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if command == "homotopy" and code == cli.EXIT_OK:
        crossings = json.loads(out.getvalue() if output is None else (where / output).read_text())["crossings"]
        ts = [c["t"] for c in crossings]
        assert ts == sorted(ts) and all(0.0 < t <= 1.0 for t in ts)
        assert {c["lounesto_class"] for c in crossings} <= {2, 3, 6}
