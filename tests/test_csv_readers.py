"""The column-wise CSV readers against the row-wise reader they replaced, and
a fuzz of malformed CSV inputs through the command line."""

import contextlib
import csv
import dataclasses
import gc
import io
import platform
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockcalc import canonical_labels, pop_model
from blockcalc.cli import main
from blockcalc.pop_model import (
    STRATA_CSV_HEADER,
    TABLE_CSV_HEADER,
    PotentialOutcomeTable,
    read_strata_csv,
    read_table_csv,
)
from blockcalc.replay import REPLAY_CSV_COLUMNS, ReplayData, read_replay_csv

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
    for name in columns:
        if header.count(name) > 1:
            raise ValueError(f"{kind} CSV header names column {name!r} twice")
    return rows


def reference_float(kind, name, row, text):
    """``float(text)``, the ``name`` cell of 1-based data ``row``."""
    try:
        return float(text)
    except ValueError as err:
        raise ValueError(f"{kind} CSV column {name}, data row {row}: {err}") from None


def reference_floats(kind, name, rows):
    """The ``name`` column of ``rows`` parsed top to bottom."""
    return np.asarray([reference_float(kind, name, i, r[name]) for i, r in enumerate(rows, 1)])


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
    for i, rec in enumerate(reference_csv_rows(path, "table", TABLE_CSV_HEADER), start=1):
        unit_ids.append(str(rec["unit_id"]))
        labels.append(rec["block"])
        y_t.append(reference_float("table", "y_t", i, rec["y_t"]))
        y_c.append(reference_float("table", "y_c", i, rec["y_c"]))
    return PotentialOutcomeTable(
        tuple(unit_ids), reference_canonical_labels(labels), np.asarray(y_t), np.asarray(y_c)
    )


def reference_read_replay(path):
    rows = reference_csv_rows(path, "replay", list(REPLAY_CSV_COLUMNS))
    return ReplayData(
        unit_ids=tuple(r["unit_id"] for r in rows),
        blocks=reference_canonical_labels([r["block"] for r in rows]),
        z=tuple(r["z"] for r in rows),
        baseline=reference_floats("replay", "baseline", rows),
        y=reference_floats("replay", "y", rows),
    )


def reference_read_strata(path):
    """The moments of a strata file; ``sigma2_tc`` is checked after them and dropped."""
    rows = reference_csv_rows(path, "strata", STRATA_CSV_HEADER)
    *columns, sigma2_tc = [reference_floats("strata", name, rows) for name in STRATA_CSV_HEADER[1:]]
    moments = pop_model.StrataMoments(*columns)
    if not np.isfinite(sigma2_tc).all():
        raise ValueError("non-finite sigma2_tc")
    if (sigma2_tc < 0).any():
        raise ValueError("sigma2_tc must be nonnegative")
    return moments


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
# What follows a line break inside a quoted field, up to its closing quote:
# nothing, more text, a blank line, or lines that start with '#', which the
# comment filter drops although they lie inside the field. Each of those ends
# in a line break, so the closing quote is on a line that is read.
LINE_BREAKS = st.sampled_from(["\n", "\r\n"])
CONTINUATIONS = st.sampled_from(["", "x", "{0}", "#{0}", "# c,d{0}", "#{0}#2{0}y"])


def encode(field, quote):
    if quote or any(c in field for c in ',"\r\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


def one_in(n):
    """True about once in ``n`` draws."""
    return st.integers(1, n).map(lambda k: k == 1)


@st.composite
def csv_text(draw, columns, cells, bad_cells):
    """CSV text with ``columns`` (reordered, now and then one missing or
    named twice, with up to two ``note`` columns the format does not use),
    cells drawn from ``cells[column]`` (unit ids are ``u<i>``, now and then
    a duplicate), quoted fields, extra trailing fields, short rows, comment
    lines and blank lines, with LF, CRLF or lone CR line endings.
    Now and then a few non-numeric cells hold line breaks (so the reader's
    line source splits them) and lines inside them that start with ``#``.
    Up to ``bad_cells`` numeric cells get a bad value."""
    header = draw(st.permutations(list(columns) + ["note"] * draw(st.integers(0, 2))))
    if draw(one_in(10)):
        header.remove(draw(st.sampled_from(columns)))
    if draw(one_in(20)):
        header.insert(draw(st.integers(0, len(header))), draw(st.sampled_from(columns)))
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
    # Breaks stay out of numeric cells, where they would add bad values.
    broken = [(row, j) for row in rows for j in range(len(row))
              if j >= len(header) or cells.get(header[j]) is not NUMBERS]
    if broken and draw(one_in(3)):
        for _ in range(draw(st.integers(1, 3))):
            row, j = broken[draw(st.integers(0, len(broken) - 1))]
            line_break = draw(LINE_BREAKS)
            row[j] += line_break + draw(CONTINUATIONS).format(line_break)
    # A blank line before the header makes an empty header; keep it rare.
    lines = ["" if draw(one_in(20)) else "# preamble"]
    for fields in [header] + rows:
        lines.append(",".join(encode(f, draw(st.booleans())) for f in fields))
        lines += draw(st.lists(st.sampled_from(["", "# comment", "#a,b,c"]), max_size=2))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
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
STRATA_CELLS = {"stratum": LABELS, **dict.fromkeys(STRATA_CSV_HEADER[1:], NUMBERS)}
# Batch sizes small enough that generated files span several batches.
SMALL_BATCHES = st.sampled_from([2, 3])


def check_table(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("table") / "table.csv"
    path.write_text(text, encoding="utf-8", newline="")
    new, ref = outcome(read_table_csv, path), outcome(reference_read_table, path)
    assert_same_outcome(new, ref)
    if not isinstance(new, str):
        assert new.y_t.tobytes() == ref.y_t.tobytes()
        assert new.y_c.tobytes() == ref.y_c.tobytes()


def check_replay(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("replay") / "replay.csv"
    path.write_text(text, encoding="utf-8", newline="")
    new, ref = outcome(read_replay_csv, path), outcome(reference_read_replay, path)
    assert_same_outcome(new, ref)
    if not isinstance(new, str):
        assert new.z == ref.z
        assert new.baseline.tobytes() == ref.baseline.tobytes()
        assert new.y.tobytes() == ref.y.tobytes()


def check_strata(tmp_path_factory, text):
    # Generated weights almost never sum to 1, so both readers hand their
    # columns to a stand-in for StrataMoments that keeps them as they are.
    path = tmp_path_factory.mktemp("strata") / "strata.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pop_model, "StrataMoments", lambda *columns: columns)
        new, ref = outcome(read_strata_csv, path), outcome(reference_read_strata, path)
    if isinstance(new, str) or isinstance(ref, str):
        assert new == ref
        return
    assert [col.tobytes() for col in new] == [col.tobytes() for col in ref]


class TestMatchesRowReader:
    # A table file carries at most one bad number: the row reader names the
    # first unparsable value in file order, the column reader the first one
    # of the first bad column. Both readers parse a replay file's numeric
    # columns one after the other, so any number of bad values is compared.
    # The generated files have at most 8 data rows, so the batched variants
    # shrink the reader's batch until they span several batches.
    @given(csv_text(TABLE_CSV_HEADER, TABLE_CELLS, bad_cells=1))
    @settings(max_examples=150, deadline=None)
    def test_table(self, tmp_path_factory, text):
        check_table(tmp_path_factory, text)

    @given(csv_text(list(REPLAY_CSV_COLUMNS), REPLAY_CELLS, bad_cells=3))
    @settings(max_examples=150, deadline=None)
    def test_replay(self, tmp_path_factory, text):
        check_replay(tmp_path_factory, text)

    @given(csv_text(TABLE_CSV_HEADER, TABLE_CELLS, bad_cells=1), SMALL_BATCHES)
    @settings(max_examples=150, deadline=None)
    def test_table_in_small_batches(self, tmp_path_factory, text, batch_rows):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pop_model, "_CSV_BATCH_ROWS", batch_rows)
            check_table(tmp_path_factory, text)

    @given(csv_text(list(REPLAY_CSV_COLUMNS), REPLAY_CELLS, bad_cells=3), SMALL_BATCHES)
    @settings(max_examples=150, deadline=None)
    def test_replay_in_small_batches(self, tmp_path_factory, text, batch_rows):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pop_model, "_CSV_BATCH_ROWS", batch_rows)
            check_replay(tmp_path_factory, text)

    # The strata reader, like the replay reader, parses its numeric columns
    # one after the other, so any number of bad values is compared.
    @given(csv_text(STRATA_CSV_HEADER, STRATA_CELLS, bad_cells=3), SMALL_BATCHES)
    @settings(max_examples=50, deadline=None)
    def test_strata_in_small_batches(self, tmp_path_factory, text, batch_rows):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pop_model, "_CSV_BATCH_ROWS", batch_rows)
            check_strata(tmp_path_factory, text)

    def test_labels_compare_as_dict_keys(self):
        raw = [1, "1", 1.0, "a", np.int64(1), "01"]
        assert canonical_labels(raw).tolist() == list(reference_canonical_labels(raw))
        assert not canonical_labels(raw).flags.writeable


class TestBatches:
    def test_short_row_opening_second_batch_is_numbered(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pop_model, "_CSV_BATCH_ROWS", 3)
        path = tmp_path / "table.csv"
        path.write_text(
            "unit_id,block,y_t,y_c\n"
            "a,1,0,0\nb,1,1,1\nc,2,0,0\n"
            "# comment\n\n"
            "d,2,1\n"
            "e,2,1,1\n"
        )
        with pytest.raises(ValueError, match=r"^table CSV data row 4 has no value for \['y_c'\]$"):
            read_table_csv(path)

    def test_short_row_wins_over_later_parse_error(self, tmp_path, monkeypatch):
        # A parse error in a batch after the short row's is never reached.
        monkeypatch.setattr(pop_model, "_CSV_BATCH_ROWS", 2)
        path = tmp_path / "table.csv"
        oversized = "9" * 131_073
        path.write_text(f"unit_id,block,y_t,y_c\na,1,0\nb,1,1,1\nc,2,0,{oversized}\n")
        with pytest.raises(ValueError, match=r"^table CSV data row 1 has no value"):
            read_table_csv(path)

    def test_parse_error_waits_for_a_later_short_row(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pop_model, "_CSV_BATCH_ROWS", 2)
        path = tmp_path / "table.csv"
        path.write_text("unit_id,block,y_t,y_c\na,1,zero,0\nb,1,1,1\nc,2,0\n")
        with pytest.raises(ValueError, match=r"^table CSV data row 3 has no value"):
            read_table_csv(path)

    def test_parse_error_names_first_bad_column_in_reader_order(self, tmp_path, monkeypatch):
        # y_c goes bad in the first batch and y_t only in the second, at the
        # second row of that batch.
        monkeypatch.setattr(pop_model, "_CSV_BATCH_ROWS", 2)
        path = tmp_path / "table.csv"
        path.write_text(
            "unit_id,block,y_c,y_t\na,1,one,0\nb,1,1,1\nc,2,0,0\nd,2,0,two\ne,2,0,three\n"
        )
        message = r"^table CSV column y_t, data row 4: could not convert string to float: 'two'$"
        with pytest.raises(ValueError, match=message):
            read_table_csv(path)

    @pytest.mark.skipif(
        platform.python_implementation() != "CPython", reason="counts CPython's cyclic collector"
    )
    def test_large_table_leaves_collector_idle(self, tmp_path):
        # The reader keeps one batch of row lists alive, not the whole file's,
        # so the allocation count that triggers a collection stays low.
        path = write_large_table(tmp_path / "table.csv")
        collections = []

        def count(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            table = read_table_csv(path)
        finally:
            gc.callbacks.remove(count)
        assert table.n == 20_000 and table.num_blocks == 200
        assert len(collections) <= 3, collections

    def test_large_table_holds_little_beyond_the_table(self, tmp_path):
        # Each batch is converted as it is parsed, so what the reader holds
        # besides the table it returns stays well under the 6.5 MiB of the
        # whole file's strings, and fields of columns no reader keeps never
        # add to it.
        narrow = traced_read(write_large_table(tmp_path / "narrow.csv"))
        wide = traced_read(write_large_table(tmp_path / "wide.csv", extra_columns=10))
        assert narrow["transient"] < 1.0 * 2**20, narrow
        assert wide["peak"] - narrow["peak"] < 0.25 * 2**20, (narrow, wide)

    def test_table_build_holds_little_beyond_the_table(self, tmp_path):
        # The duplicate-id check keys a dict, not a set, by the 20,000 ids: a
        # set of them alone is 2.5 MiB.
        path = write_large_table(tmp_path / "table.csv")
        cols = pop_model.read_csv_columns(path, "table", pop_model.TABLE_CSV_COLUMNS)
        gc.collect()
        tracemalloc.start()
        try:
            table = PotentialOutcomeTable(cols["unit_id"], cols["block"], cols["y_t"], cols["y_c"])
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.n == 20_000
        assert peak - retained < 1.0 * 2**20, (peak, retained)
        ids = cols["unit_id"][:-1] + cols["unit_id"][:1]
        with pytest.raises(ValueError, match="^duplicate unit_id$"):
            PotentialOutcomeTable(ids, cols["block"], cols["y_t"], cols["y_c"])


def write_large_table(path, extra_columns=0):
    """A 20,000-row table of 200 blocks, with ``extra_columns`` columns the
    format does not use after its own (every other one quoted, holding a comma)."""
    extra = "".join(f",note{j}" for j in range(extra_columns))
    with open(path, "w") as fh:
        fh.write(f"unit_id,block,y_t,y_c{extra}\n")
        for i in range(20_000):
            notes = "".join(f',"{i}, {j}"' if j % 2 else f",{i * j}" for j in range(extra_columns))
            fh.write(f"u{i},b{i % 200},{i / 7!r},{i / 3!r}{notes}\n")
    return path


def traced_read(path):
    """Bytes traced while ``read_table_csv(path)`` runs: the ``peak``, and the
    ``transient`` part of it that is not held by the table returned."""
    gc.collect()
    tracemalloc.start()
    try:
        table = read_table_csv(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.n == 20_000
    return {"peak": peak, "transient": peak - retained}


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
    """``(kind, argv prefix, file bytes)`` of a table, strata or replay CSV with one defect."""
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
    return kind, argv, data


def valid_csv_text(kind):
    header, rows, _ = VALID[kind]
    return "".join(",".join(line) + "\n" for line in [header] + rows)


READERS = {"table": read_table_csv, "strata": read_strata_csv, "replay": read_replay_csv}


@pytest.mark.parametrize("kind", sorted(VALID))
def test_not_utf8_names_the_csv_kind(tmp_path, kind):
    path = tmp_path / "input.csv"
    data = valid_csv_text(kind).encode("utf-8")
    path.write_bytes(data[:-3] + b"\xff" + data[-3:])
    read = READERS[kind]
    message = f"^{kind} CSV is not readable: 'utf-8' codec can't decode"
    with pytest.raises(ValueError, match=message):
        read(path)


@pytest.mark.parametrize("kind", sorted(VALID))
def test_format_column_named_twice_is_refused(tmp_path, kind):
    # Repeats of a column the format does not use are read as before.
    header, *rows = valid_csv_text(kind).splitlines()
    column = header.split(",")[-1]
    path = tmp_path / "input.csv"
    read = READERS[kind]
    path.write_text("\n".join([f"{header},note,note", *(f"{row},n,n" for row in rows)]) + "\n")
    read(path)
    path.write_text("\n".join([f"{header},{column}", *(f"{row},5" for row in rows)]) + "\n")
    with pytest.raises(ValueError, match=f"^{kind} CSV header names column '{column}' twice$"):
        read(path)


class TestByteOrderMark:
    # Spreadsheet programs save "CSV UTF-8" with a leading byte-order mark.
    @pytest.mark.parametrize("kind", sorted(VALID))
    def test_reads_as_without_mark(self, tmp_path, kind):
        argv = VALID[kind][2]
        text = valid_csv_text(kind)
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        want, got = READERS[kind](plain), READERS[kind](marked)
        for field in dataclasses.fields(want):
            name, value = field.name, getattr(want, field.name)
            if isinstance(value, np.ndarray):
                assert np.array_equal(getattr(got, name), value), name
            else:
                assert getattr(got, name) == value, name
        assert main([argv[0], str(marked), *argv[1:], "--out", str(tmp_path)]) == 0


class TestMalformedCsvThroughCli:
    @given(malformed_csv())
    @settings(max_examples=200, deadline=None)
    def test_one_line_error(self, tmp_path_factory, case):
        kind, argv, data = case
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
        if b"\xff" in data:  # the "not utf-8" defect; UTF-8 text never holds 0xff
            assert stderr.getvalue().startswith(f"blockcalc: error: {kind} CSV is not readable: ")


# ---------------------------------------------------------------------------
# Malformed JSON inputs through the command line

# Per JSON input: the command reading it (given the input directory and the
# JSON path), the document with one value left open, and values that make it
# wrong.
JSON_INPUTS = {
    "design": (
        lambda d, path: ["variance", str(d / "table.csv"), "--design", f"blocked:{path}"],
        '{"n_tk": %s}',
        ['"11"', "true", "[1.5, 1]", "null", "{}", "[1]", "[1, 1, 1]", "[0, 1]", "[true, 1]"],
    ),
    "config": (
        lambda d, path: ["study", "ratio-sweep", "--config", str(path)],
        '{"rhos": %s}',
        ['"0.5"', "0.5", "[true]", "[[0.5]]", "{}", "null", '["a"]'],
    ),
    "strategies": (
        lambda d, path: ["replay", str(d / "replay.csv"), "--strategies", str(path)],
        '[{"name": "random-blocks", "params": {"allocations": %s}}]',
        ["0", "-1", "2.5", "true", '"2"', "[]", "null", "{}"],
    ),
}


@st.composite
def nested(draw):
    """JSON arrays or objects nested up to far past the parser's recursion limit."""
    depth = draw(st.one_of(st.integers(2, 2_000), st.just(100_000)))
    if draw(st.booleans()):
        return "[" * depth + "]" * depth
    return '{"a": ' * depth + "0" + "}" * depth


@st.composite
def malformed_json(draw):
    """``(kind, file bytes)`` of a design, config or strategies JSON with one defect."""
    kind = draw(st.sampled_from(sorted(JSON_INPUTS)))
    _, template, bad_values = JSON_INPUTS[kind]
    defect = draw(st.sampled_from(["nested document", "nested value", "bad value", "truncated",
                                   "not utf-8"]))
    if defect == "nested document":
        text = draw(nested())
    elif defect == "nested value":
        text = template % draw(nested())
    else:
        text = template % draw(st.sampled_from(bad_values))
    data = text.encode("utf-8")
    if defect == "truncated":
        data = data[: draw(st.integers(0, len(data) - 1))]
    elif defect == "not utf-8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return kind, data


class TestMalformedJsonThroughCli:
    @given(malformed_json())
    @settings(max_examples=150, deadline=None)
    def test_one_line_error(self, tmp_path_factory, case):
        kind, data = case
        out = tmp_path_factory.mktemp("malformed")
        for kind_csv in ("table", "replay"):
            (out / f"{kind_csv}.csv").write_text(valid_csv_text(kind_csv))
        path = out / f"{kind}.json"
        path.write_bytes(data)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            rc = main([*JSON_INPUTS[kind][0](out, path), "--out", str(out)])
        assert rc == 1
        assert stderr.getvalue().startswith("blockcalc: error: ")
        assert stderr.getvalue().count("\n") == 1
        assert "Traceback" not in stderr.getvalue()

    @pytest.mark.parametrize("kind", sorted(JSON_INPUTS))
    def test_deep_nesting_names_the_file(self, tmp_path, capsys, kind):
        for kind_csv in ("table", "replay"):
            (tmp_path / f"{kind_csv}.csv").write_text(valid_csv_text(kind_csv))
        path = tmp_path / f"{kind}.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main([*JSON_INPUTS[kind][0](tmp_path, path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"blockcalc: error: {kind} file {path} is not readable JSON: ")
        assert err.count("\n") == 1
