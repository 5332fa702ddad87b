"""The streamed corpus report writer against the stdlib encoder: for every
row layout, and however the rows are cut into blocks,
``io.write_rows_report`` writes the bytes of ``io.dumps_report`` of the
same report as a dict."""

import numpy as np
import pytest
from hypothesis import example, given, settings
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
UPPER, LOWER = np.triu_indices(4, 1)


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
        if draw(st.booleans()):  # S as bilinear.compute_batch builds it, which io renders from its upper triangle
            values["S"] = antisymmetric(floats(6))
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
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
    return header, _blocks(layouts, codes, cuts), rows


def antisymmetric(upper: np.ndarray) -> np.ndarray:
    """The (n, 4, 4) stack with a +0.0 diagonal, the (n, 6) ``upper`` above
    it and its bitwise negation below."""
    S = np.zeros((len(upper), 4, 4))
    S[:, UPPER, LOWER] = upper
    S[:, LOWER, UPPER] = np.negative(upper)
    return S


def _rows_of(node, rows: slice):
    """The layout ``node`` cut to ``rows``."""
    if isinstance(node, dict):
        return {key: _rows_of(value, rows) for key, value in node.items()}
    return node[rows]


def _blocks(layouts, codes, cuts=()):
    """The (layouts, codes) blocks of the rows between consecutive ``cuts``,
    empty blocks included."""
    edges = [0, *cuts, len(codes)]
    return [([_rows_of(row, slice(a, b)) for row in layouts], codes[a:b]) for a, b in zip(edges, edges[1:])]


def _plain(node, i):
    """Row i of a layout as plain Python values."""
    if isinstance(node, dict):
        return {key: _plain(value, i) for key, value in node.items()}
    return node[i : i + 1].tolist()[0]


@given(report=corpus_reports())
@settings(deadline=None, max_examples=50)
def test_writer_bytes_equal_the_stdlib_encoder(report, tmp_path_factory):
    header, blocks, rows = report
    out = tmp_path_factory.mktemp("report") / "report.json"
    io.write_rows_report(header, blocks, out)
    assert out.read_bytes() == io.dumps_report({**header, "rows": rows}).encode()


@given(x=FLOATS)
@example(x=0.0)
@example(x=-0.0)
@example(x=5e-324)
@example(x=-5e-324)
@example(x=1e308)
@example(x=1.7976931348623157e308)
def test_a_lower_slot_is_the_sign_flipped_text_of_its_upper_partner(x):
    """For every finite x, repr(x) with its sign flipped is repr(-x), so an
    antisymmetric square leaf formats only its upper triangle."""
    text = repr(x)
    assert (text[1:] if text[0] == "-" else "-" + text) == repr(-x)
    assert list(map(list, io._square_columns(np.array([[0.0, x, -x, 0.0]])))) == [["0.0"], [text], [repr(-x)], ["0.0"]]


def _s_rows(n: int) -> tuple[list[dict], np.ndarray]:
    """One layout of n rows: an id and an antisymmetric S of edge and normal floats."""
    upper = np.resize(EDGE_FLOATS + [-1.5, 2.0**-1074, 0.1], (n, 6))
    return [{"id": np.arange(n), "S": antisymmetric(upper)}], np.zeros(n, int)


@pytest.mark.parametrize(
    "slot, bit",
    [((2, 2), 63), ((3, 1), 63), ((0, 3), 0)],
    ids=["negative-zero-diagonal", "lower-equals-upper", "upper-one-ulp-off"],
)
def test_an_s_one_bit_off_antisymmetric_formats_every_slot_of_its_slice(slot, bit, tmp_path, monkeypatch):
    """One flipped bit in one row's S sends that row's slice back to a float
    per slot; the other slices keep the upper triangle's texts, and every
    slice the stdlib's bytes."""
    monkeypatch.setattr(io, "_ROWS_PER_SLICE", 2)
    layouts, codes = _s_rows(5)
    flat = layouts[0]["S"].reshape(5, 16)
    flat.view(np.int64)[3, 4 * slot[0] + slot[1]] ^= np.left_shift(np.int64(1), bit)
    assert io._square_columns(flat[2:4]) == flat[2:4].T.tolist()
    for rows in (slice(0, 2), slice(4, 5)):
        assert io._square_columns(flat[rows])[1] == list(map(repr, flat[rows, 1].tolist()))
    out = tmp_path / "report.json"
    io.write_rows_report({}, _blocks(layouts, codes), out)
    assert out.read_text() == io.dumps_report({"rows": [_plain(layouts[0], i) for i in range(5)]})


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
    io.write_rows_report(header, _blocks(layouts, codes), out)
    assert out.read_text() == want
    io.write_rows_report(header, _blocks(layouts, codes), None)
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
            io.write_rows_report({"command": "test"}, _blocks(layouts, np.array(codes)), out)
        assert not out.exists()
    io.write_rows_report({"command": "test"}, _blocks(layouts, np.array([1, 0, 1, 0])), out)
    assert out.exists()


def test_first_non_finite_field_is_first_in_key_order_not_by_name(tmp_path):
    # json puts "a" (and a.x) before "a-b", although "a-b" < "a.x" as strings
    nan = np.array([np.nan])
    with pytest.raises(ValueError, match=r"^row 0: a\.x is not finite$"):
        io.write_rows_report({}, [([{"a-b": nan, "a": {"x": nan}}], np.zeros(1, int))], tmp_path / "report.json")


def test_non_finite_header_writes_nothing(tmp_path):
    out = tmp_path / "report.json"
    with pytest.raises(ValueError):
        io.write_rows_report({"base": {"A": np.inf}}, [([{"id": np.arange(1)}], np.zeros(1, int))], out)
    assert not out.exists()


def test_a_write_that_fails_midway_removes_the_partial_file(tmp_path, monkeypatch):
    monkeypatch.setattr(io, "_ROWS_PER_SLICE", 1)
    render = io._RowLayout.render
    calls = []

    def fail_on_the_second_slice(self, columns, rows):
        calls.append(rows)
        if len(calls) == 2:
            raise OSError("No space left on device")
        return render(self, columns, rows)

    monkeypatch.setattr(io._RowLayout, "render", fail_on_the_second_slice)
    out = tmp_path / "report.json"
    with pytest.raises(OSError, match="No space left"):
        io.write_rows_report({}, [([{"id": np.arange(3)}], np.zeros(3, int))], out)
    assert len(calls) == 2 and not out.exists()


def test_a_non_finite_float_in_a_later_block_names_its_report_row(tmp_path, capsys):
    ids = np.arange(6)
    x = np.array([1.0, 2.0, 3.0, 4.0, np.inf, 6.0])
    blocks = _blocks([{"id": ids, "x": x}], np.zeros(6, int), [3])
    out = tmp_path / "report.json"
    with pytest.raises(ValueError, match="^row 4: x is not finite$"):
        io.write_rows_report({"command": "test"}, blocks, out)
    assert not out.exists()
    # on stdout the first block stays written
    with pytest.raises(ValueError, match="^row 4: x is not finite$"):
        io.write_rows_report({"command": "test"}, blocks, None)
    written = capsys.readouterr().out
    assert '"id": 2' in written and '"id": 3' not in written


def test_the_first_block_is_checked_before_the_output_is_opened(tmp_path):
    out = tmp_path / "report.json"
    out.write_text("an earlier report")
    blocks = _blocks([{"x": np.array([np.nan, 1.0])}], np.zeros(2, int), [1])
    with pytest.raises(ValueError, match="^row 0: x is not finite$"):
        io.write_rows_report({}, blocks, out)
    assert out.read_text() == "an earlier report"


def test_blocks_are_taken_one_at_a_time():
    made = []

    def blocks():
        for start in range(0, 10, 4):
            made.append(start)
            ids = np.arange(start, min(start + 4, 10))
            yield [{"id": ids}], np.zeros(ids.size, int)

    chunks = io._row_chunks({}, blocks())
    text = next(chunks)  # the header's text, once the first block is checked
    assert made == [0]
    text += next(chunks)  # the first block's rows
    assert made == [0]
    text += "".join(chunks)
    assert made == [0, 4, 8]
    assert text == io.dumps_report({"rows": [{"id": i} for i in range(10)]})


# signed zeros, subnormals and the extremes of range, in the real and the imaginary columns
CSV_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e308, -1e308, 1.5]


def _csv_bits_match(raw: np.ndarray, path) -> None:
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in raw.tolist()))
    old = raw[:, 0::2] + 1j * raw[:, 1::2]
    assert io.load_spinors(path).tobytes() == old.tobytes()


def test_csv_corpus_of_every_edge_pair_has_the_bits_of_re_plus_1j_im(tmp_path):
    pairs = np.array([(re, im) for re in CSV_EDGES for im in CSV_EDGES])
    pairs = np.concatenate([pairs, pairs[: -len(pairs) % 4]])  # whole rows of 4 pairs
    _csv_bits_match(pairs.reshape(-1, 8), tmp_path / "edges.csv")


@given(raw=arrays(np.float64, st.tuples(st.integers(1, 4), st.just(8)), elements=st.sampled_from(CSV_EDGES) | FLOATS))
@settings(deadline=None, max_examples=60)
def test_csv_corpus_has_the_bits_of_re_plus_1j_im(raw, tmp_path_factory):
    _csv_bits_match(raw, tmp_path_factory.mktemp("csv") / "corpus.csv")
