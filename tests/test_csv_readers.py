"""The column-wise CSV readers against the row-wise reader they replaced, and
a fuzz of malformed CSV inputs through the command line."""

import contextlib
import csv
import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blockcalc import canonical_labels
from blockcalc.cli import main
from blockcalc.pop_model import TABLE_CSV_HEADER, PotentialOutcomeTable, read_table_csv
from blockcalc.replay import REPLAY_CSV_HEADER, ReplayData, read_replay_csv

# ---------------------------------------------------------------------------
# The row-wise reference: one dict per data row, one float() per value, and
# labels numbered through a dict in a Python loop.


def reference_csv_rows(path, kind, columns):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        header = next(reader, [])
        rows = []
        for i, row in enumerate(filter(None, reader), start=1):
            if len(row) < len(header):
                raise ValueError(f"{kind} CSV data row {i} has no value for {header[len(row):]}")
            rows.append(dict(zip(header, row)))
    if not rows:
        raise ValueError(f"empty {kind} CSV")
    missing = set(columns) - set(header)
    if missing:
        raise ValueError(
            f"{kind} CSV missing columns: {sorted(missing)} (needs {','.join(columns)})"
        )
    return rows


def reference_canonical_labels(raw_labels):
    mapping = {}
    out = []
    for lab in raw_labels:
        if lab not in mapping:
            mapping[lab] = len(mapping) + 1
        out.append(mapping[lab])
    return tuple(out)


def reference_read_table(path):
    unit_ids, labels, y_t, y_c = [], [], [], []
    for rec in reference_csv_rows(path, "table", TABLE_CSV_HEADER):
        unit_ids.append(str(rec["unit_id"]))
        labels.append(rec["block"])
        y_t.append(float(rec["y_t"]))
        y_c.append(float(rec["y_c"]))
    return PotentialOutcomeTable(
        tuple(unit_ids), reference_canonical_labels(labels), np.asarray(y_t), np.asarray(y_c)
    )


def reference_read_replay(path):
    rows = reference_csv_rows(path, "replay", REPLAY_CSV_HEADER)
    return ReplayData(
        unit_ids=tuple(r["unit_id"] for r in rows),
        blocks=reference_canonical_labels([r["block"] for r in rows]),
        z=tuple(r["z"] for r in rows),
        baseline=np.asarray([float(r["baseline"]) for r in rows]),
        y=np.asarray([float(r["y"]) for r in rows]),
    )


# ---------------------------------------------------------------------------
# Generated CSV text

NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map("{:.3f}".format),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["1_000", "+.5", "-0", " 2 ", "1E3", "\u00a05"]),
)
# Unparsable values and values that parse but are not finite.
BAD_NUMBERS = st.sampled_from(["", "abc", "1,5", "0x10", "1e", "--1", "inf", "-Infinity", "NaN"])
LABELS = st.sampled_from(["1", "01", "1.0", "2", "A", "a", "B2", "b 2", "x,y", 'q"1'])
ARMS = st.sampled_from(["t", "c"] * 20 + ["T", " t"])


def encode(field, quote):
    if quote or any(c in field for c in ',"'):
        return '"' + field.replace('"', '""') + '"'
    return field


def one_in(n):
    """True about once in ``n`` draws."""
    return st.integers(1, n).map(lambda k: k == 1)


@st.composite
def csv_text(draw, columns, cells, bad_cells):
    """CSV text with ``columns`` (reordered, now and then one missing or an
    extra one), cells drawn from ``cells[column]`` (unit ids are ``u<i>``,
    now and then a duplicate), quoted fields, extra trailing fields, short
    rows, comment lines and blank lines. Up to ``bad_cells`` numeric cells
    get a bad value."""
    header = draw(st.permutations(list(columns) + ["note"] * draw(st.integers(0, 1))))
    if draw(one_in(10)):
        header.remove(draw(st.sampled_from(columns)))
    rows = []
    for i in range(0 if draw(one_in(20)) else draw(st.integers(1, 8))):
        row = []
        for name in header:
            if name == "unit_id":
                row.append(f"u{i}" if not draw(one_in(20)) else "dup")
            else:
                row.append(draw(cells.get(name, st.just("n"))))
        row += ["extra"] * draw(st.integers(0, 2))
        if draw(one_in(40)):
            row = row[: draw(st.integers(0, len(row) - 1))]
        rows.append(row)
    numeric = [name for name in header if cells.get(name) is NUMBERS]
    for _ in range(draw(st.sampled_from([0] * 4 + list(range(1, bad_cells + 1))))):
        if rows and numeric:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            j = header.index(draw(st.sampled_from(numeric)))
            if j < len(row):
                row[j] = draw(BAD_NUMBERS)
    # A blank line before the header makes an empty header; keep it rare.
    lines = ["" if draw(one_in(20)) else "# preamble"]
    for fields in [header] + rows:
        lines.append(",".join(encode(f, draw(st.booleans())) for f in fields))
        lines += draw(st.lists(st.sampled_from(["", "# comment", "#a,b,c"]), max_size=2))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline * draw(st.integers(0, 1))


def outcome(read, path):
    """What a reader returns, or its error as text."""
    try:
        return read(path)
    except ValueError as err:
        return f"{type(err).__name__}: {err}"


def assert_same_outcome(new, ref):
    if isinstance(new, str) or isinstance(ref, str):
        assert new == ref
        return
    assert new.unit_ids == ref.unit_ids
    assert new.blocks.tolist() == ref.blocks.tolist()


TABLE_CELLS = {"block": LABELS, "y_t": NUMBERS, "y_c": NUMBERS}
REPLAY_CELLS = {"block": LABELS, "z": ARMS, "baseline": NUMBERS, "y": NUMBERS}


class TestMatchesRowReader:
    # A table file carries at most one bad number: the row reader names the
    # first unparsable value in file order, the column reader the first one
    # of the first bad column. Both readers parse a replay file's numeric
    # columns one after the other, so any number of bad values is compared.
    @given(csv_text(TABLE_CSV_HEADER, TABLE_CELLS, bad_cells=1))
    @settings(max_examples=150, deadline=None)
    def test_table(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("table") / "table.csv"
        path.write_text(text, encoding="utf-8", newline="")
        new, ref = outcome(read_table_csv, path), outcome(reference_read_table, path)
        assert_same_outcome(new, ref)
        if not isinstance(new, str):
            assert new.y_t.tobytes() == ref.y_t.tobytes()
            assert new.y_c.tobytes() == ref.y_c.tobytes()

    @given(csv_text(REPLAY_CSV_HEADER, REPLAY_CELLS, bad_cells=3))
    @settings(max_examples=150, deadline=None)
    def test_replay(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("replay") / "replay.csv"
        path.write_text(text, encoding="utf-8", newline="")
        new, ref = outcome(read_replay_csv, path), outcome(reference_read_replay, path)
        assert_same_outcome(new, ref)
        if not isinstance(new, str):
            assert new.z == ref.z
            assert new.baseline.tobytes() == ref.baseline.tobytes()
            assert new.y.tobytes() == ref.y.tobytes()

    def test_labels_compare_as_dict_keys(self):
        raw = [1, "1", 1.0, "a", np.int64(1), "01"]
        assert canonical_labels(raw).tolist() == list(reference_canonical_labels(raw))
        assert not canonical_labels(raw).flags.writeable


# ---------------------------------------------------------------------------
# Malformed inputs through the command line

VALID = {
    "table": (
        ["unit_id", "block", "y_t", "y_c"],
        [["a", "A", "0", "0"], ["b", "A", "2", "2"], ["c", "B", "0", "1"], ["d", "B", "2", "2"]],
        ["variance", "--design", "cr:2"],
    ),
    "strata": (
        ["stratum", "weight", "mu_t", "mu_c", "sigma2_t", "sigma2_c", "sigma2_tc"],
        [["1", "0.5", "0", "0", "1", "1", "0"], ["2", "0.5", "1", "1", "1", "1", "0"]],
        ["compare", "--framework", "strat", "--n", "8", "--p", "0.5"],
    ),
    "replay": (
        ["unit_id", "block", "z", "baseline", "y"],
        [["a", "1", "t", "0.1", "1"], ["b", "1", "c", "0.4", "2"],
         ["c", "2", "t", "0.2", "0.5"], ["d", "2", "c", "0.9", "3"]],
        ["replay", "--reps", "2"],
    ),
}


def _parses(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


NOT_NUMBERS = st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=6).filter(
    lambda s: not _parses(s)
)


@st.composite
def malformed_csv(draw):
    """``(argv prefix, file bytes)`` of a table, strata or replay CSV with one defect."""
    kind = draw(st.sampled_from(sorted(VALID)))
    header, rows, argv = VALID[kind]
    header, rows = list(header), [list(r) for r in rows]
    numeric = [j for j, name in enumerate(header) if name not in ("unit_id", "block", "stratum", "z")]
    i = draw(st.integers(0, len(rows) - 1))
    defect = draw(st.sampled_from(
        ["missing column", "short row", "bad number", "non-finite", "no rows", "oversized field",
         "not utf-8", "bad value"]
    ))
    if defect == "missing column":
        header.pop(draw(st.integers(0, len(header) - 1)))
    elif defect == "short row":
        rows[i] = rows[i][: draw(st.integers(1, len(header) - 1))]
    elif defect == "bad number":
        rows[i][draw(st.sampled_from(numeric))] = draw(NOT_NUMBERS)
    elif defect == "non-finite":
        rows[i][draw(st.sampled_from(numeric))] = draw(st.sampled_from(["nan", "inf", "-inf"]))
    elif defect == "no rows":
        rows = []
    elif defect == "oversized field":
        rows[i][draw(st.integers(0, len(header) - 1))] = "9" * 131_073
    elif defect == "bad value":
        # One defect the reader passes on: a duplicate unit, weights off one,
        # or an arm that is neither t nor c.
        if kind == "table":
            rows[i][0] = rows[i - 1][0]
        elif kind == "strata":
            rows[i][1] = "0.25"
        else:
            rows[i][2] = draw(st.sampled_from(["x", "T", ""]))
    comment = draw(st.sampled_from(["", "# generated\n"]))
    text = comment + "".join(
        ",".join(encode(f, draw(st.booleans())) for f in line) + "\n" for line in [header] + rows
    )
    data = text.encode("utf-8")
    if defect == "not utf-8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return argv, data


class TestMalformedCsvThroughCli:
    @given(malformed_csv())
    @settings(max_examples=200, deadline=None)
    def test_one_line_error(self, tmp_path_factory, case):
        argv, data = case
        out = tmp_path_factory.mktemp("malformed")
        path = out / "input.csv"
        path.write_bytes(data)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            rc = main([argv[0], str(path), *argv[1:], "--out", str(out)])
        assert rc == 1
        assert stderr.getvalue().startswith("blockcalc: error: ")
        assert stderr.getvalue().count("\n") == 1
        assert "Traceback" not in stderr.getvalue()
