"""The streamed corpus report writer against the stdlib encoder: for every
row layout, ``io.write_rows_report`` writes the bytes of
``io.dumps_report`` of the same report as a dict."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spinorlab import io

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e-09, 1.7976931348623157e308, 2.2250738585072014e-308]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
TEXTS = st.one_of(
    st.sampled_from(['say "hi"', "back\\slash", "non-ASCII: ψ ∂ é", "tab\t and newline\n", "100% {0}", ""]),
    st.text(max_size=12),
)
INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


def _texts(draw, n):
    return np.array(draw(st.lists(TEXTS, min_size=n, max_size=n)), dtype=object)


@st.composite
def corpus_reports(draw):
    """(header, layouts, codes, rows): a classify-like report (class row and
    error row) or a decompose-like one (class row, coefficient-error row
    and error row), with its rows as plain dicts."""
    command = draw(st.sampled_from(["classify", "decompose"]))
    n = draw(st.integers(min_value=0, max_value=6))

    def floats(*shape):
        return draw(arrays(np.float64, (n, *shape), elements=FLOATS))

    ids = draw(arrays(np.int64, n, elements=INT64))
    classes = draw(arrays(np.int64, n, elements=st.integers(1, 6)))
    regular = draw(arrays(np.bool_, n))
    near = draw(arrays(np.bool_, n))
    names, details = _texts(draw, n), _texts(draw, n)
    error_row = {"id": ids, "error": names, "detail": details}
    config = {"input": draw(TEXTS), "tol": draw(FLOATS)}
    flags = {"lounesto_class": classes, "regular": regular, "near_degenerate": near}
    if command == "classify":
        shapes = {"A": (), "B": (), "J": (4,), "K": (4,), "S": (4, 4), "fpk_residuals": (4,)}
        values = {key: floats(*shape) for key, shape in shapes.items()}
        layouts = [{"id": ids, **flags, **values}, error_row]
        header = {"command": command, "config": config}
    else:
        coords = {
            "r1": {"re": floats(), "im": floats()},
            "r2": {"re": floats(), "im": floats()},
            "residuals": floats(2),
        }
        layouts = [{"id": ids, **coords, **flags}, {"id": ids, **coords, "error": names, "detail": details}, error_row]
        base = {"A": draw(FLOATS), "B": draw(FLOATS)}
        header = {"command": command, "config": {**config, "base": draw(TEXTS)}, "base": base}
    codes = draw(arrays(np.int64, n, elements=st.integers(0, len(layouts) - 1)))
    rows = [_plain(layouts[code], i) for i, code in enumerate(codes.tolist())]
    return header, layouts, codes, rows


def _plain(node, i):
    """Row i of a layout as plain Python values."""
    if isinstance(node, dict):
        return {key: _plain(value, i) for key, value in node.items()}
    return node[i : i + 1].tolist()[0]


@given(report=corpus_reports())
@settings(deadline=None, max_examples=50)
def test_writer_bytes_equal_the_stdlib_encoder(report, tmp_path_factory):
    header, layouts, codes, rows = report
    out = tmp_path_factory.mktemp("report") / "report.json"
    io.write_rows_report(header, layouts, codes, out)
    assert out.read_bytes() == io.dumps_report({**header, "rows": rows}).encode()


def _mixed_rows(n, rng):
    ids = np.arange(n)
    x = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-300, 300, (n, 2))
    texts = np.array([f'row "{i}" \\ ψ' for i in range(n)], dtype=object)
    layouts = [{"id": ids, "x": x, "ok 100%": x[:, 0] > 0}, {"id": ids, "error": texts}]
    codes = rng.integers(0, 2, n)
    return layouts, codes, [_plain(layouts[code], i) for i, code in enumerate(codes.tolist())]


@pytest.mark.parametrize("n", [7, 8, 9], ids=["partial-slice", "whole-slices", "one-over"])
def test_rows_across_slices_and_stdout(n, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(io, "_ROWS_PER_SLICE", 4)
    layouts, codes, rows = _mixed_rows(n, np.random.default_rng(n))
    header = {"command": "test", "config": {"input": "a%sb"}}
    want = io.dumps_report({**header, "rows": rows})
    out = tmp_path / "report.json"
    io.write_rows_report(header, layouts, codes, out)
    assert out.read_text() == want
    io.write_rows_report(header, layouts, codes, None)
    assert capsys.readouterr().out == want


def test_non_finite_written_float_names_the_first_row_and_field_and_writes_nothing(tmp_path):
    ids = np.arange(4)
    a = np.array([1.0, 2.0, np.nan, 4.0])
    b = np.array([[1.0, np.inf], [1.0, 2.0], [np.inf, 0.0], [0.0, 0.0]])
    c = np.array([1.0, np.inf, 1.0, 1.0])
    layouts = [{"id": ids, "b": b, "a": a}, {"id": ids, "c": c}]
    out = tmp_path / "report.json"
    # row 0's b is not finite, but row 0 is written by the layout without b
    for codes, message in [([1, 0, 0, 1], "row 2: a is not finite"), ([1, 1, 0, 0], "row 1: c is not finite")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            io.write_rows_report({"command": "test"}, layouts, np.array(codes), out)
        assert not out.exists()
    io.write_rows_report({"command": "test"}, layouts, np.array([1, 0, 1, 0]), out)
    assert out.exists()


def test_first_non_finite_field_is_first_in_key_order_not_by_name(tmp_path):
    # json puts "a" (and a.x) before "a-b", although "a-b" < "a.x" as strings
    nan = np.array([np.nan])
    with pytest.raises(ValueError, match=r"^row 0: a\.x is not finite$"):
        io.write_rows_report({}, [{"a-b": nan, "a": {"x": nan}}], np.zeros(1, int), tmp_path / "report.json")


def test_non_finite_header_writes_nothing(tmp_path):
    out = tmp_path / "report.json"
    with pytest.raises(ValueError):
        io.write_rows_report({"base": {"A": np.inf}}, [{"id": np.arange(1)}], np.zeros(1, int), out)
    assert not out.exists()


def test_a_write_that_fails_midway_removes_the_partial_file(tmp_path, monkeypatch):
    monkeypatch.setattr(io, "_ROWS_PER_SLICE", 1)
    render = io._RowLayout.render
    calls = []

    def fail_on_the_second_slice(self, rows):
        calls.append(rows)
        if len(calls) == 2:
            raise OSError("No space left on device")
        return render(self, rows)

    monkeypatch.setattr(io._RowLayout, "render", fail_on_the_second_slice)
    out = tmp_path / "report.json"
    with pytest.raises(OSError, match="No space left"):
        io.write_rows_report({}, [{"id": np.arange(3)}], np.zeros(3, int), out)
    assert len(calls) == 2 and not out.exists()
