import os
import struct
import sys
import tempfile
import tracemalloc
import warnings
from io import BytesIO, StringIO
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import rodtwin as rt
from rodtwin import io
from rodtwin.rod import SnapshotFault
from rodtwin.walk import NON_FINITE

from conftest import make_snapshot, put_cell, sweep_rows

# the fields a model file holds
_MODEL_FIELDS = ("x", "t", "left", "right", "eigenvalues")


class TestFmt:
    def test_zero(self):
        assert io.fmt(0.0) == "0"
        assert io.fmt(-0.0) == "-0"

    def test_plain_range(self):
        assert io.fmt(1.5) == "1.5"
        assert io.fmt(0.001) == "0.001"
        assert io.fmt(-250.0) == "-250"
        assert io.fmt(9999.25) == "9999.25"

    def test_scientific_range(self):
        assert io.fmt(8.7e-4).endswith("e-04")
        assert io.fmt(12345.0).endswith("e+04")
        assert io.fmt(1e4).endswith("e+04")
        assert "e" in io.fmt(1e-300)

    def test_round_trip_is_bit_exact(self, rng):
        samples = [0.0, 1.0, -1.0, np.pi, 1e-300, 1e300, 4.9e-324]
        samples += list(rng.standard_normal(50) * np.logspace(-20, 20, 50))
        for v in samples:
            assert float(io.fmt(v)) == v

    @given(st.floats(allow_nan=False))
    @example(-0.0)
    @example(5e-324)
    @example(-2.2250738585072009e-308)
    @example(float("inf"))
    @example(float("-inf"))
    def test_round_trip_bit_identity(self, value):
        assert struct.pack("<d", float(io.fmt(value))) == struct.pack("<d", value)


def nextafter_pair(value):
    return [np.nextafter(value, -np.inf), value, np.nextafter(value, np.inf)]


EDGE_VALUES = (
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072009e-308]
    + [np.inf, -np.inf, np.nan, 1.5, -250.0, 1e300]
    + nextafter_pair(1e-3)
    + nextafter_pair(-1e-3)
    + nextafter_pair(1e4)
    + nextafter_pair(-1e4)
)


def fmt_cells(values):
    """The per-cell reference: fmt of each value, joined by ','."""
    return ",".join(io.fmt(v) for v in values)


def written(rows, axis=None):
    """The text of the table writer for rows, led by axis if given."""
    handle = StringIO()
    io._write_table(handle, np.asarray(rows, dtype=float), axis)
    return handle.getvalue()


class TestFmtRow:
    """A one-row table."""

    @given(st.lists(st.floats(), min_size=1, max_size=40))
    @example(EDGE_VALUES)
    def test_equals_per_cell_fmt(self, values):
        assert written([values]) == fmt_cells(values) + "\n"

    @pytest.mark.parametrize("value", EDGE_VALUES)
    def test_single_cell(self, value):
        assert written([[value]]) == io.fmt(value) + "\n"

    def test_edge_texts(self):
        assert written([[0.0, -0.0, np.inf, -np.inf, np.nan]]) == "0,-0,inf,-inf,nan\n"
        assert written([nextafter_pair(1e-3)]) == (
            "9.9999999999999980e-04,0.001,0.0010000000000000002\n"
        )
        assert written([nextafter_pair(1e4)]) == (
            "9999.9999999999982,1.0000000000000000e+04,1.0000000000000002e+04\n"
        )
        assert written([[5e-324]]) == "4.9406564584124654e-324\n"


class TestTableWriter:
    """Every line of the table writer is its cells' fmt joined by ','."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_lines_equal_per_cell_fmt(self, data):
        # a small stand-in for BLOCK_CELLS keeps rows wider than it, and
        # tables of several blocks, cheap to draw
        block = data.draw(st.integers(1, 9))
        width = data.draw(st.sampled_from([1, max(1, block - 1), block + 1, 2 * block + 1]))
        nrows = data.draw(st.integers(0, 2 * block + 2))
        cell = st.sampled_from(EDGE_VALUES) | st.floats()
        values = data.draw(arrays(float, (nrows, width), elements=cell))
        axis = data.draw(st.none() | arrays(float, nrows, elements=cell))
        sizes = []
        real_format = io._format

        def counted(cells, *args):
            sizes.append(cells.size)
            return real_format(cells, *args)

        with mock.patch.object(io, "BLOCK_CELLS", block), mock.patch.object(
            io, "_format", counted
        ):
            text = written(values, axis)
        rows = values if axis is None else np.column_stack([axis, values])
        assert text == "".join(fmt_cells(row) + "\n" for row in rows)
        assert max(sizes, default=0) <= block

    @pytest.mark.parametrize(
        "width, nrows", [(1, 3), (io.BLOCK_CELLS - 1, 3), (io.BLOCK_CELLS + 1, 2)]
    )
    def test_widths_around_block_cells(self, rng, width, nrows):
        # rows of EDGE_VALUES cells, compared through their one-cell texts
        texts = [io.fmt(v) for v in EDGE_VALUES]
        picks = rng.integers(len(EDGE_VALUES), size=(nrows, width))
        expected = "".join(",".join(texts[i] for i in row) + "\n" for row in picks)
        assert written(np.array(EDGE_VALUES)[picks]) == expected


class TestCsvBytes:
    """Each CSV writer's bytes equal a per-cell fmt rendering of the data."""

    def test_snapshot_csv(self, tmp_path, rng):
        values = rng.standard_normal((7, 5)) * np.logspace(-6, 6, 5)
        values[0] = [0.0, -0.0, 1e-3, 1e4, 5e-324]
        snap = make_snapshot(values, dx=0.125, dt=0.001)
        path = tmp_path / "snap.csv"
        io.write_snapshot_csv(path, snap)
        expected = "x," + fmt_cells(snap.t) + "\n"
        for x, row in zip(snap.x, snap.values):
            expected += io.fmt(x) + "," + fmt_cells(row) + "\n"
        assert path.read_bytes() == expected.encode()

    def test_modal_csv(self, tmp_path, rng):
        columns = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        columns[0, 0] = complex(-0.0, 1e4)
        axis = np.linspace(-1.0, 1.0, 6)
        path = tmp_path / "modes.csv"
        # a transposed (non-contiguous) block, as evaluate writes amplitudes
        io.write_modal_csv(path, "t", axis, "a", columns.T.copy().T)
        expected = "t,a1_re,a1_im,a2_re,a2_im,a3_re,a3_im\n"
        for value, row in zip(axis, columns):
            cells = [part for z in row for part in (z.real, z.imag)]
            expected += io.fmt(value) + "," + fmt_cells(cells) + "\n"
        assert path.read_bytes() == expected.encode()


class TestSnapshotCsv:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        snap = make_snapshot(rng.standard_normal((6, 5)) * 1e-4, dx=0.125, dt=0.25)
        path = tmp_path / "snap.csv"
        io.write_snapshot_csv(path, snap)
        back = io.read_snapshot_csv(path)
        assert np.array_equal(back.values, snap.values)
        assert np.array_equal(back.x, snap.x)
        assert np.array_equal(back.t, snap.t)

    def test_header_carries_times(self, tmp_path, rng):
        snap = make_snapshot(rng.standard_normal((4, 3)), dt=0.5)
        path = tmp_path / "snap.csv"
        io.write_snapshot_csv(path, snap)
        header = path.read_text().splitlines()[0]
        assert header == "x,0,0.5,1"

    def test_meta_sidecar(self, tmp_path, rng):
        snap = make_snapshot(rng.standard_normal((4, 3)))
        path = tmp_path / "snap.csv"
        io.write_snapshot_csv(path, snap, meta={"nu": "0.01", "note": "ref"})
        meta = io.read_meta(str(path) + ".meta")
        assert meta == {"nu": "0.01", "note": "ref"}

    def test_meta_skips_comments(self, tmp_path):
        path = tmp_path / "m.meta"
        path.write_text("# comment\n\nkey = value\n")
        assert io.read_meta(path) == {"key": "value"}
        bad = tmp_path / "bad.meta"
        bad.write_text("key value\n")
        with pytest.raises(ValueError, match="bad.meta:1"):
            io.read_meta(bad)

    def test_meta_repeated_key_reports_line(self, tmp_path):
        path = tmp_path / "m.meta"
        path.write_text("rank = 3\n# comment\nrank = 5\n")
        with pytest.raises(ValueError) as err:
            io.read_meta(path)
        assert str(err.value) == "%s:3: repeated key 'rank'" % path

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("y,0,1\n0,1,2\n1,3,4\n")
        with pytest.raises(ValueError, match="header"):
            io.read_snapshot_csv(path)

    def test_bad_time_value_reports_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,0,zero,2\n0,1,2,3\n1,3,4,5\n")
        with pytest.raises(ValueError) as err:
            io.read_snapshot_csv(path)
        # the header's times are read as its data rows are
        assert str(err.value).startswith("%s:1: bad cell (" % path)
        assert "'zero'" in str(err.value) and " row " not in str(err.value)

    def test_bad_cell_reports_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,0,1\n0,1,2\n1,oops,4\n")
        with pytest.raises(ValueError) as err:
            io.read_snapshot_csv(path)
        # numpy's reason, without the row numpy counts from the first row
        assert str(err.value).startswith("%s:3: bad cell (" % path)
        assert "oops" in str(err.value) and " row " not in str(err.value)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,0,1\n0,1,2\n1,3\n")
        with pytest.raises(ValueError, match=r"s\.csv:3"):
            io.read_snapshot_csv(path)

    def test_too_short(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x,0,1\n0,1,2\n")
        with pytest.raises(ValueError, match="data rows"):
            io.read_snapshot_csv(path)

    @pytest.mark.parametrize(
        "text, where",
        [
            ("x,0,1\n0,oops,2\n", ":2: bad cell ("),
            ("y,0,1\n0,1,2\n", ":1: header must start with 'x'"),
            ("x,0,1\n0,1\n1,oops,4\n", ":2: expected 3 cells, found 2"),
            ("x,0,1\n0,1,nan\n1,oops,4\n", ":3: bad cell ("),
        ],
    )
    def test_first_fault_in_file_order(self, tmp_path, text, where):
        # the file is read once, so the first line that does not parse is
        # named; what SnapshotMatrix rejects is checked once all rows parse
        path = tmp_path / "s.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            io.read_snapshot_csv(path)
        assert str(err.value).startswith(str(path) + where)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_non_finite_cell_names_first_bad_row(self, data):
        # the finiteness scan runs in row blocks; these nx cross their edges
        nx = data.draw(st.sampled_from([2, 127, 128, 129, 257]))
        ncols = data.draw(st.integers(2, 6))
        cell = st.tuples(st.integers(0, nx - 1), st.integers(0, ncols - 1))
        cells = data.draw(st.lists(cell, min_size=1, max_size=3))
        values = np.ones((nx, ncols))
        for i, j in cells:
            values[i, j] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        first = min(i for i, _ in cells)
        grids = {"x": np.arange(nx) * 0.5, "t": np.arange(ncols) * 0.25}
        with pytest.raises(SnapshotFault) as fault:
            rt.SnapshotMatrix(values=values, **grids)
        assert (fault.value.axis, fault.value.index) == ("values", first)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "snap.csv")
            io.write_snapshot_csv(path, SimpleNamespace(values=values, **grids))
            with pytest.raises(ValueError) as err:
                io.read_snapshot_csv(path)
        # line 1 is the header, so row i is line i + 2
        assert str(err.value) == "%s:%d: %s" % (path, first + 2, NON_FINITE)


MAX_FLOAT = 1.7976931348623157e308
SPECIAL_CELLS = [-0.0, 0.0, 5e-324, -5e-324, MAX_FLOAT, -MAX_FLOAT]


def assert_same_bits(got, expected):
    """Equal grids and values, bit for bit (the sign of a zero included)."""
    for name in ("values", "x", "t"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name


@pytest.fixture(scope="module")
def burgers_2001_csv(burgers_2001, tmp_path_factory):
    path = tmp_path_factory.mktemp("csv2001") / "burgers.csv"
    io.write_snapshot_csv(path, burgers_2001)
    return path


class TestStreamedRead:
    """read_snapshot_csv streams the rows through numpy's C reader once,
    skipping blank lines and naming the physical line of a fault."""

    @settings(max_examples=30, deadline=None)
    @given(
        nx=st.sampled_from([2, 3, 129, 2049]),
        ncols=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
        specials=st.lists(
            st.tuples(st.integers(0, 2**31), st.sampled_from(SPECIAL_CELLS)),
            max_size=8,
        ),
    )
    @example(nx=2, ncols=6, seed=0, specials=list(enumerate(SPECIAL_CELLS)))
    def test_round_trip_bit_for_bit(self, nx, ncols, seed, specials):
        values = np.random.default_rng(seed).standard_normal((nx, ncols))
        for where, cell in specials:
            values.flat[where % values.size] = cell
        snap = make_snapshot(values, dx=0.125, dt=0.001)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "snap.csv")
            io.write_snapshot_csv(path, snap)
            back = io.read_snapshot_csv(path)
        assert_same_bits(back, snap)

    @pytest.mark.parametrize(
        "text, as_written",
        [
            ("x,0,1\r\n0,1,2\r\n1,3,4\r\n", True),
            ("x, 0 ,1\n 0 , 1 ,2\n1,\t3,4 \n", True),
            ("\n\nx,0,1\n0,1,2\n\n1,3,4\n\n", True),
            ("x,0,1\n0,1,2\n   \n1,3,4\n", False),
            ("x,0,1\n0,1_0,2\n1,3,4\n", False),
            ("x,0,1\r\n 0 ,1_0, 2\r\n \t \r\n1,3,-0\r\n", False),
        ],
    )
    def test_same_arrays_as_line_parser(self, tmp_path, text, as_written):
        # as_written: numpy's reader alone takes the lines after the header;
        # a whitespace-only line needs the reader's skip, a '1_0' cell fails
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode())
        with open(path) as handle:
            next(ln for ln in handle if ln.strip())
            if as_written:
                np.loadtxt(handle, delimiter=",", comments=None)
            else:
                with pytest.raises(ValueError):
                    np.loadtxt(handle, delimiter=",", comments=None)
        if "1_0" in text:
            with pytest.raises(ValueError, match=r"s\.csv:2: bad cell"):
                io.read_snapshot_csv(path)
            return
        grid = np.array([0.0, 1.0])
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        expected = SimpleNamespace(x=grid, t=grid, values=values)
        assert_same_bits(io.read_snapshot_csv(path), expected)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_fault_names_physical_line(self, data):
        nx = data.draw(st.integers(3, 40))
        ncols = data.draw(st.integers(2, 5))
        rng = np.random.default_rng(data.draw(st.integers(0, 99)))
        snap = make_snapshot(rng.standard_normal((nx, ncols)))
        values, x = snap.values.copy(), snap.x.copy()
        fault = data.draw(st.sampled_from([None, "values", "x"]))
        if fault == "values":
            row = data.draw(st.integers(0, nx - 1))
            values[row, data.draw(st.integers(0, ncols - 1))] = np.nan
            message = NON_FINITE
        elif fault == "x":
            # row 0 and 1 set the step; a later point off it is the fault
            row = data.draw(st.integers(2, nx - 1))
            x[row] += 0.3 * snap.dx
            message = "x grid must be uniformly spaced"
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "snap.csv")
            io.write_snapshot_csv(path, SimpleNamespace(values=values, x=x, t=snap.t))
            # (text, data row): the header is row -1, a blank line row None
            with open(path) as handle:
                lines = [(ln.rstrip("\n"), i - 1) for i, ln in enumerate(handle)]
            blanks = st.sampled_from(["", " ", "\t \t", "\x1c"])
            for _ in range(data.draw(st.integers(0, 8))):
                where = data.draw(st.integers(0, len(lines)))
                lines.insert(where, (data.draw(blanks), None))
            ends = st.sampled_from(["\n", "\r\n"])
            endings = data.draw(st.lists(ends, min_size=len(lines), max_size=len(lines)))
            with open(path, "w", newline="") as handle:
                handle.writelines(text + end for (text, _), end in zip(lines, endings))
            if fault is None:
                assert_same_bits(io.read_snapshot_csv(path), snap)
                return
            line_no = 1 + [r for _, r in lines].index(row)
            with pytest.raises(ValueError) as err:
                io.read_snapshot_csv(path)
        assert str(err.value) == "%s:%d: %s" % (path, line_no, message)

    def test_bad_cell_after_ten_thousand_rows(self, tmp_path):
        # numpy's reader converts a line before it pulls the next, so the
        # last line yielded is the one it refused
        rows = ["%d,1,2\n" % i for i in range(10_050)]
        rows[10_020] = "10020,1,oops\n"
        path = tmp_path / "s.csv"
        path.write_text("x,0,1\n" + "".join(rows))
        with pytest.raises(ValueError) as err:
            io.read_snapshot_csv(path)
        assert str(err.value).startswith("%s:10022: bad cell (" % path)

    @pytest.mark.parametrize("separator", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_separator_around_cell_stays_a_bad_cell(self, tmp_path, separator):
        # the C reader strips these as whitespace; float() refuses them
        path = tmp_path / "s.csv"
        path.write_text("x,0,1\n0,1,2\n1,3%s,4\n" % separator)
        with pytest.raises(ValueError, match=r"s\.csv:3: bad cell"):
            io.read_snapshot_csv(path)

    @pytest.mark.parametrize("text", ["", "x,0,1\n", "x,0,1\n\n", "x,0,1\n0,1,2\n"])
    def test_short_file_message_without_warning(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                io.read_snapshot_csv(path)
        assert str(err.value) == "%s: need a header and at least 2 data rows" % path

    def test_read_holds_about_one_field(self, burgers_2001_csv, burgers_2001):
        io.read_snapshot_csv(burgers_2001_csv)  # warm numpy's reader
        tracemalloc.start()
        try:
            snap = io.read_snapshot_csv(burgers_2001_csv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_same_bits(snap, burgers_2001)
        assert peak < 1.5 * snap.values.nbytes


def write_with_memo(path, snap):
    """The snapshot CSV at path and its memo, as generate leaves them."""
    io.write_snapshot_csv(path, snap)
    io.write_snapshot_memo(path, snap, io.file_sha256(path))
    return str(path) + ".npy"


def read_parsed(path):
    """read_snapshot_csv of path with the memo out of the way."""
    memo = str(path) + ".npy"
    aside = memo + ".aside"
    os.replace(memo, aside)
    try:
        return io.read_snapshot_csv(path)
    finally:
        os.replace(aside, memo)


def npy_bytes(array):
    out = BytesIO()
    np.save(out, array)
    return out.getvalue()


def record_bytes(digest, table):
    """The .npy file of one record of digest and table: a well-formed
    memo when table is the parsed float64 table of the CSV digest names."""
    record = np.dtype([("sha256", "S64"), ("table", table.dtype, table.shape)])
    return npy_bytes(np.array((digest, table), dtype=record))


class TestSnapshotMemo:
    """A memo whose digest is its CSV's stands in for the parse, bit for
    bit; any other memo is ignored without a warning."""

    @settings(max_examples=25, deadline=None)
    @given(
        nx=st.sampled_from([2, 127, 128, 129, 300]),
        ncols=st.integers(2, 6),
        dx=st.sampled_from([0.125, 1e-3, 3.7, 1e5]),
        seed=st.integers(0, 2**32 - 1),
        specials=st.lists(
            st.tuples(st.integers(0, 2**31), st.sampled_from(SPECIAL_CELLS + [1e-300, -1e300])),
            max_size=8,
        ),
    )
    @example(nx=2, ncols=6, dx=0.125, seed=0, specials=list(enumerate(SPECIAL_CELLS)))
    def test_memo_read_equals_parse(self, nx, ncols, dx, seed, specials):
        g = np.random.default_rng(seed)
        # magnitudes from 1e-300 to 1e300
        values = g.standard_normal((nx, ncols)) * 10.0 ** g.integers(-300, 301, (nx, ncols))
        for where, cell in specials:
            values.flat[where % values.size] = cell
        snap = make_snapshot(values, dx=dx, dt=0.001)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "snap.csv")
            write_with_memo(path, snap)
            with mock.patch.object(io, "_read_rows", side_effect=AssertionError("parsed")):
                memo = io.read_snapshot_csv(path)
            parsed = read_parsed(path)
        assert_same_bits(memo, parsed)
        assert_same_bits(memo, snap)
        for name in ("values", "x", "t"):
            assert getattr(memo, name).strides == getattr(parsed, name).strides, name

    def test_memo_is_a_deterministic_npy_record(self, tmp_path, burgers_snapshot):
        path = tmp_path / "snap.csv"
        memo = write_with_memo(path, burgers_snapshot)
        table = np.loadtxt(path, delimiter=",", converters={0: lambda c: 0.0 if c == "x" else float(c)})
        with open(memo, "rb") as handle:
            written = handle.read()
        assert written == record_bytes(io.file_sha256(path), table)
        write_with_memo(path, burgers_snapshot)
        with open(memo, "rb") as handle:
            assert handle.read() == written
        assert sorted(os.listdir(tmp_path)) == ["snap.csv", "snap.csv.npy"]

    @pytest.mark.parametrize(
        "case",
        ["stale", "truncated", "header only", "wrong dtype", "wrong shape", "plain table", "other csv"],
    )
    def test_other_memo_ignored(self, tmp_path, rng, case):
        snap = make_snapshot(rng.standard_normal((130, 4)))
        path = tmp_path / "snap.csv"
        memo = write_with_memo(path, snap)
        with open(memo, "rb") as handle:
            written = handle.read()
        digest = io.file_sha256(path)
        table = io._memo_table(path)
        if case == "stale":
            # the CSV edited after its memo was written
            io.write_snapshot_csv(path, make_snapshot(2.0 * snap.values))
        elif case == "other csv":
            write_with_memo(tmp_path / "other.csv", make_snapshot(2.0 * snap.values))
            os.replace(tmp_path / "other.csv.npy", memo)
        else:
            forged = {
                "truncated": written[:-8],
                "header only": written[:100],
                "wrong dtype": record_bytes(digest, table.astype(np.float32)),
                "wrong shape": record_bytes(digest, table[:-1]),
                "plain table": npy_bytes(table),
            }[case]
            with open(memo, "wb") as handle:
                handle.write(forged)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert io._memo_table(path) is None
            got = io.read_snapshot_csv(path)
        assert_same_bits(got, read_parsed(path))

    def test_memo_beside_a_short_row_ignored(self, tmp_path, rng):
        path = tmp_path / "snap.csv"
        write_with_memo(path, make_snapshot(rng.standard_normal((5, 4))))
        lines = path.read_text().splitlines(keepends=True)
        # row 3 loses its last cell: the comma count is then no multiple
        # of the line count
        lines[3] = lines[3].rpartition(",")[0] + "\n"
        path.write_text("".join(lines))
        assert io._memo_table(path) is None
        with pytest.raises(ValueError) as err:
            io.read_snapshot_csv(path)
        assert str(err.value) == "%s:4: expected 5 cells, found 4" % path

    def test_memo_of_a_non_finite_table_falls_back_to_the_parse(self, tmp_path, rng):
        values = rng.standard_normal((5, 4))
        values[2, 1] = np.nan
        # the memo writer reads only values, x and t, so it takes a table
        # that SnapshotMatrix refuses
        held = SimpleNamespace(values=values, x=np.arange(5) * 0.1, t=np.arange(4) * 0.05)
        path = tmp_path / "snap.csv"
        io.write_snapshot_csv(path, held)
        with pytest.raises(ValueError) as bare:
            io.read_snapshot_csv(path)
        io.write_snapshot_memo(path, held, io.file_sha256(path))
        assert np.isnan(io._memo_table(path)).any()
        with pytest.raises(ValueError) as err:
            io.read_snapshot_csv(path)
        assert str(err.value) == str(bare.value) == "%s:4: %s" % (path, NON_FINITE)

    def test_failed_rename_leaves_no_part_file(self, tmp_path, rng):
        snap = make_snapshot(rng.standard_normal((5, 4)))
        path = tmp_path / "snap.csv"
        io.write_snapshot_csv(path, snap)
        os.mkdir(str(path) + ".npy")
        with pytest.raises(OSError):
            io.write_snapshot_memo(path, snap, io.file_sha256(path))
        assert sorted(os.listdir(tmp_path)) == ["snap.csv", "snap.csv.npy"]

    def test_reader_writes_no_memo(self, tmp_path, rng):
        path = tmp_path / "snap.csv"
        io.write_snapshot_csv(path, make_snapshot(rng.standard_normal((5, 4))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            io.read_snapshot_csv(path)
        assert os.listdir(tmp_path) == ["snap.csv"]


class TestModelFile:
    def _small_model(self, rng):
        u0 = rng.standard_normal(12)
        basis = np.column_stack([u0, rng.standard_normal(12)])
        values = basis @ rng.standard_normal((2, 9))
        return rt.fit(make_snapshot(values, dx=0.5, dt=0.125), 2, seed=7)

    def _written(self, tmp_path, model):
        """The path and lines of the model's file."""
        path = tmp_path / "model.txt"
        io.write_model(path, model)
        return path, path.read_text().splitlines()

    def test_round_trip_bit_exact(self, tmp_path, rng):
        model = self._small_model(rng)
        path = tmp_path / "model.txt"
        io.write_model(path, model)
        back = io.read_model(path)
        assert np.array_equal(back.modes, model.modes)
        assert np.array_equal(back.amplitudes, model.amplitudes)
        assert np.array_equal(back.eigenvalues, model.eigenvalues)
        assert back.rank == model.rank
        assert back.seed == model.seed
        assert np.array_equal(back.x, model.x)
        assert np.array_equal(back.t, model.t)

    def test_benchmark_round_trip(self, tmp_path, burgers_model):
        path = tmp_path / "model.txt"
        io.write_model(path, burgers_model)
        back = io.read_model(path)
        for name in _MODEL_FIELDS:
            want = getattr(burgers_model, name)
            assert np.array_equal(getattr(back, name), want), name

    def test_bytes_equal_per_cell_fmt(self, tmp_path, rng):
        model = self._small_model(rng)
        path = tmp_path / "model.txt"
        io.write_model(path, model)
        ev = model.eigenvalues
        expected = "format = 3\nnx = 12\nnt = 8\nrank = 2\nseed = 7\n"
        for name, rows in (
            ("x", model.x[:, None]),
            ("t", model.t[:, None]),
            ("left", model.left),
            ("right", model.right),
            ("eigenvalues", np.column_stack([ev.real, ev.imag])),
        ):
            expected += "[%s]\n" % name
            expected += "".join(fmt_cells(row) + "\n" for row in rows)
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("rank, reorthonormalize", [(10, False), (15, True)])
    def test_gram_deviation_survives_reload(
        self, tmp_path, burgers_snapshot, rank, reorthonormalize
    ):
        model = rt.fit(burgers_snapshot, rank, 1, reorthonormalize=reorthonormalize)
        path = tmp_path / "model.txt"
        io.write_model(path, model)
        back = io.read_model(path)
        bits = struct.Struct("<d").pack
        assert bits(back.gram_deviation) == bits(model.gram_deviation)

    @settings(max_examples=60, deadline=None)
    @given(
        nx=st.integers(2, 399),
        nt=st.integers(1, 30),
        rank=st.integers(1, 4),
        dx=st.floats(1e-4, 1.0, exclude_max=True),
        dt=st.floats(1e-4, 1.0, exclude_max=True),
        x0=st.floats(-10.0, 10.0),
        t0=st.floats(-10.0, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # a grid whose last point x0 + (n - 1) * dx is not the last point of
    # np.linspace between its ends
    @example(
        nx=370,
        nt=23,
        rank=2,
        dx=0.12749026874800143,
        dt=0.6893755110402859,
        x0=-8.528741893387359,
        t0=-5.632888102633751,
        seed=5,
    )
    def test_write_read_identity(self, nx, nt, rank, dx, dt, x0, t0, seed):
        rng = np.random.default_rng(seed)
        pairs = int(rng.integers(0, rank // 2 + 1))
        z = rng.standard_normal(pairs) + 1j * rng.uniform(0.1, 1.0, pairs)
        paired = np.stack([z, z.conj()], axis=-1).ravel()
        eigenvalues = np.concatenate([paired, rng.standard_normal(rank - 2 * pairs)])
        model = rt.RodModel(
            left=rng.standard_normal((nx, rank)),
            right=rng.standard_normal((rank, nt + 1)),
            eigenvalues=eigenvalues,
            seed=seed,
            x=x0 + dx * np.arange(nx),
            t=t0 + dt * np.arange(nt + 1),
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.txt")
            io.write_model(path, model)
            back = io.read_model(path)
        for name in _MODEL_FIELDS + ("modes", "amplitudes"):
            assert np.array_equal(getattr(back, name), getattr(model, name)), name
        bits = struct.Struct("<d").pack
        for name in ("dx", "dt", "gram_deviation"):
            assert bits(getattr(back, name)) == bits(getattr(model, name)), name
        assert (back.rank, back.seed) == (rank, seed)

    @settings(max_examples=60, deadline=None)
    @given(
        layout=st.lists(st.booleans(), min_size=1, max_size=5),
        nx=st.integers(2, 6),
        nt=st.integers(1, 6),
        x0=st.floats(-1e3, 1e3).filter(bool),
        dx=st.floats(1e-3, 10.0),
        data=st.data(),
    )
    def test_real_factors_survive_views_and_file(self, layout, nx, nt, x0, dx, data):
        # True opens a conjugate pair, False is a real eigenvalue; cells
        # are any finite float: signed zeros, subnormals and magnitudes
        # up to the float maximum
        edges = (0.0, -0.0, 3 * 2.0**-1074, -sys.float_info.max)
        cell = st.sampled_from(edges) | st.floats(allow_nan=False, allow_infinity=False)
        eigenvalues = []
        for pair in layout:
            z = complex(data.draw(st.floats(-2.0, 2.0)), data.draw(st.floats(1e-3, 2.0)))
            eigenvalues += [z, z.conjugate()] if pair else [z.real]
        rank = len(eigenvalues)
        right = data.draw(arrays(float, (rank, nt + 1), elements=cell))
        if any(layout):
            # the rows of the first pair hold 3 * 2^-1074, whose half is
            # not a float
            j = [z.imag > 0 for z in eigenvalues].index(True)
            right[j : j + 2, 0] = 3 * 2.0**-1074
        model = rt.RodModel(
            left=data.draw(arrays(float, (nx, rank), elements=cell)),
            right=right,
            eigenvalues=np.array(eigenvalues, dtype=complex),
            seed=3,
            x=x0 + dx * np.arange(nx),
            t=np.arange(nt + 1) * 0.25 - 1.0,
        )
        with tempfile.TemporaryDirectory() as tmp:
            first, second = os.path.join(tmp, "a.txt"), os.path.join(tmp, "b.txt")
            io.write_model(first, model)
            read = io.read_model(first)
            io.write_model(second, read)
            with open(first, "rb") as a, open(second, "rb") as b:
                assert a.read() == b.read()
        for name in _MODEL_FIELDS + ("modes", "amplitudes"):
            got, want = getattr(read, name), getattr(model, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        assert read.seed == 3

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_every_accepted_model_round_trips(self, data):
        # grids on and off uniform, int grids, spectra paired or not, cells
        # of every magnitude, each array as an array, a list or a tuple,
        # and int or numpy integer seeds: whatever the constructor accepts,
        # it holds as float64, complex128 and int, and its file holds
        nx, nt, rank = (data.draw(st.integers(1, 5)) for _ in range(3))

        def container(a):
            kind = data.draw(st.sampled_from(["array", "list", "tuple"]))
            if kind == "array":
                return a
            rows = a.tolist()
            return rows if kind == "list" else tuple(map(tuple, rows) if a.ndim == 2 else rows)

        def grid(n):
            if data.draw(st.booleans()):
                start, step = data.draw(st.integers(-1000, 1000)), data.draw(st.integers(-1, 1000))
                return container(start + step * np.arange(n))
            start = data.draw(st.floats(-1e3, 1e3))
            step = data.draw(st.floats(1e-3, 1e3) | st.sampled_from([0.0, -0.5]))
            wobble = arrays(float, n, elements=st.sampled_from([0.0, 1e-13, -1e-14, 0.5]))
            return container(start + step * (np.arange(n) + data.draw(wobble)))

        pieces = [(0.5,), (-0.0,), (0.3 + 0.2j, 0.3 - 0.2j), (1e-300j, -1e-300j), (0.3 - 0.2j,)]
        spectrum = data.draw(st.lists(st.sampled_from(pieces), min_size=rank, max_size=rank))
        cell = st.sampled_from(EDGE_VALUES[:6]) | st.floats(allow_nan=False, allow_infinity=False)
        seed_type = data.draw(st.sampled_from([int, np.int64, np.uint64]))
        try:
            model = rt.RodModel(
                left=container(data.draw(arrays(float, (nx, rank), elements=cell))),
                right=container(data.draw(arrays(float, (rank, nt + 1), elements=cell))),
                eigenvalues=container(np.array(sum(spectrum, ()), dtype=complex)[:rank]),
                seed=seed_type(data.draw(st.integers(0, 2**63 - 1))),
                x=grid(nx),
                t=grid(nt + 1),
            )
        except ValueError:
            return
        dtypes = [getattr(model, name).dtype for name in _MODEL_FIELDS]
        assert dtypes == [np.float64] * 4 + [np.complex128]
        assert type(model.seed) is int
        with tempfile.TemporaryDirectory() as tmp:
            first, second = os.path.join(tmp, "a.txt"), os.path.join(tmp, "b.txt")
            io.write_model(first, model)
            read = io.read_model(first)
            io.write_model(second, read)
            with open(first, "rb") as a, open(second, "rb") as b:
                assert a.read() == b.read()
        for name in _MODEL_FIELDS:
            got, want = getattr(read, name), getattr(model, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        assert read.seed == model.seed

    def test_file_without_format_line_rejected(self, tmp_path, rng):
        path, lines = self._written(tmp_path, self._small_model(rng))
        path.write_text("\n".join(lines[1:]) + "\n")
        with pytest.raises(ValueError) as err:
            io.read_model(path)
        assert str(err.value) == "%s: missing header keys ['format']" % path

    def test_only_read_keys_required(self, tmp_path, rng):
        # every header key written is one the reader needs
        path, lines = self._written(tmp_path, self._small_model(rng))
        header = lines[: lines.index("[x]")]
        assert [ln.partition(" =")[0] for ln in header] == list(io._MODEL_HEADER_KEYS)
        for i, key in enumerate(io._MODEL_HEADER_KEYS):
            path.write_text("\n".join(lines[:i] + lines[i + 1 :]) + "\n")
            with pytest.raises(ValueError) as err:
                io.read_model(path)
            assert str(err.value) == "%s: missing header keys ['%s']" % (path, key)

    def test_blank_lines_skipped(self, tmp_path, rng):
        model = self._small_model(rng)
        path = tmp_path / "model.txt"
        io.write_model(path, model)
        # a blank line after the header, inside every section and at the end
        lines = []
        for line in path.read_text().splitlines():
            lines += ["", line] if line.startswith("[") else [line, "  "]
        path.write_text("\n".join(lines) + "\n\n")
        back = io.read_model(path)
        for name in _MODEL_FIELDS:
            assert np.array_equal(getattr(back, name), getattr(model, name)), name

    @pytest.mark.parametrize("value", ["1", "2", ""])
    def test_unknown_format_reports_line(self, tmp_path, rng, value):
        # a format 2 file, which held the complex views and the grid
        # ends, is refused by its format line
        path, lines = self._written(tmp_path, self._small_model(rng))
        assert lines[0] == "format = 3"
        path.write_text("\n".join(["format = %s" % value] + lines[1:]) + "\n")
        with pytest.raises(ValueError) as err:
            io.read_model(path)
        assert str(err.value) == (
            "%s:1: unsupported model format '%s' (expected 3)" % (path, value)
        )

    @pytest.mark.parametrize("section", ["x", "t", "left", "right", "eigenvalues"])
    def test_wrong_cell_count_reports_line(self, tmp_path, rng, section):
        path, lines = self._written(tmp_path, self._small_model(rng))
        line_no = lines.index("[%s]" % section) + 2
        width = lines[line_no - 1].count(",") + 1
        lines[line_no - 1] += ",1,0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            io.read_model(path)
        assert str(err.value) == "%s:%d: expected %d cells, found %d" % (
            path,
            line_no,
            width,
            width + 2,
        )

    @pytest.mark.parametrize(
        "key, value",
        [
            ("nx", "six"),
            ("rank", "2.5"),
            ("seed", "x"),
            ("nt", "1e3"),
            ("nx", "-6"),
            # refused at its line, not at the first [left] row
            ("rank", "0"),
            # int() takes these; an integer cell is ASCII digits
            ("nx", "1_2"),
            ("seed", "\u0667"),
        ],
    )
    def test_bad_header_value_reports_line(self, tmp_path, rng, key, value):
        model = self._small_model(rng)
        path = tmp_path / "model.txt"
        io.write_model(path, model)
        lines = path.read_text().splitlines()
        line_no = [ln.partition(" =")[0] for ln in lines].index(key) + 1
        lines[line_no - 1] = "%s = %s" % (key, value)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(
            ValueError, match=r"model\.txt:%d: bad %s value" % (line_no, key)
        ):
            io.read_model(path)

    @pytest.mark.parametrize(
        "section, row, value, reason",
        [
            pytest.param(
                "x", 0, "nan", "x grid contains non-finite entries", id="x-0-nan-non-finite value"
            ),
            pytest.param(
                "x", -1, "inf", "x grid contains non-finite entries", id="x--1-inf-non-finite value"
            ),
            pytest.param(
                "t", 0, "-inf", "t grid contains non-finite entries", id="t-0--inf-non-finite value"
            ),
            ("t", -1, "0", "t grid must be strictly increasing"),
            ("x", -1, "-1", "x grid must be strictly increasing"),
            ("x", 5, "2.75", "x grid must be uniformly spaced"),
            ("t", 3, "0.2", "t grid must be strictly increasing"),
        ],
    )
    def test_bad_grid_row_reports_line(
        self, tmp_path, rng, section, row, value, reason
    ):
        # the x grid is 0, 0.5, ..., 5.5 and t is 0, 0.125, ..., 1
        path, lines = self._written(tmp_path, self._small_model(rng))
        start = lines.index("[%s]" % section) + 1
        size = lines.index("[t]" if section == "x" else "[left]") - start
        line_no = start + row % size + 1
        lines[line_no - 1] = value
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            io.read_model(path)
        assert str(err.value) == "%s:%d: %s" % (path, line_no, reason)

    @pytest.mark.parametrize("axis", ["x", "t"])
    def test_single_point_grid_reports_line(self, tmp_path, axis):
        # RodModel refuses such a model, so its file is written by hand
        sizes = {"x": 3, "t": 4}
        sizes[axis] = 1
        lines = ["format = 3", "nx = %d" % sizes["x"], "nt = %d" % (sizes["t"] - 1)]
        lines += ["rank = 1", "seed = 0", "[x]"] + [str(0.5 * i) for i in range(sizes["x"])]
        lines += ["[t]"] + [str(0.25 * i) for i in range(sizes["t"])]
        lines += ["[left]"] + ["1"] * sizes["x"]
        lines += ["[right]", ",".join(["1"] * sizes["t"]), "[eigenvalues]", "0.5,0"]
        path = tmp_path / "model.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            io.read_model(path)
        assert str(err.value) == "%s:%d: %s grid needs at least 2 points" % (
            path,
            lines.index("[%s]" % axis) + 2,
            axis,
        )

    @pytest.mark.parametrize("section", ["x", "t", "left", "right", "eigenvalues"])
    def test_row_count_names_section_line(self, tmp_path, rng, section):
        model = self._small_model(rng)
        path, lines = self._written(tmp_path, model)
        line_no = lines.index("[%s]" % section) + 1
        del lines[line_no]
        path.write_text("\n".join(lines) + "\n")
        rows = {"x": 12, "t": 9, "left": 12}.get(section, model.rank)
        with pytest.raises(ValueError) as err:
            io.read_model(path)
        assert str(err.value) == "%s:%d: [%s] must have %d rows" % (
            path,
            line_no,
            section,
            rows,
        )

    def test_bad_numeric_cell_reports_line(self, tmp_path, rng):
        model = self._small_model(rng)
        path = tmp_path / "model.txt"
        io.write_model(path, model)
        lines = path.read_text().splitlines()
        line_no = lines.index("[right]") + 2
        lines[line_no - 1] = "abc," + lines[line_no - 1].partition(",")[2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            io.read_model(path)
        # the cell rule of a snapshot data row
        assert str(err.value).startswith("%s:%d: bad cell (" % (path, line_no))
        assert "'abc'" in str(err.value) and " row " not in str(err.value)

    @pytest.mark.parametrize("section", ["left", "right", "eigenvalues"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_reports_line(self, tmp_path, rng, section, cell):
        model = self._small_model(rng)
        path = tmp_path / "model.txt"
        io.write_model(path, model)
        lines = path.read_text().splitlines()
        line_no = lines.index("[%s]" % section) + 2
        lines[line_no - 1] = lines[line_no - 1].rpartition(",")[0] + "," + cell
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            io.read_model(path)
        # what RodModel says, at the row of its axis and index
        array = {"left": "modes", "right": "amplitudes"}.get(section, section)
        assert str(err.value) == "%s:%d: model %s contain non-finite entries" % (
            path,
            line_no,
            array,
        )

    def test_unpaired_model_names_eigenvalue_line(self, tmp_path, burgers_model):
        # the benchmark model opens with a conjugate pair; a second
        # eigenvalue that is no longer its conjugate is placed at the
        # pair's first [eigenvalues] row
        assert burgers_model.eigenvalues[0].imag > 0
        path, lines = self._written(tmp_path, burgers_model)
        line_no = lines.index("[eigenvalues]") + 2
        re, im = lines[line_no].split(",")
        lines[line_no] = "%s,%r" % (re, 2 * float(im))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            io.read_model(path)
        assert str(err.value) == (
            "%s:%d: mode 0 is neither real nor the first of an exactly"
            " conjugate pair" % (path, line_no)
        )

    def test_header_line_without_equals(self, tmp_path, rng):
        model = self._small_model(rng)
        path = tmp_path / "model.txt"
        io.write_model(path, model)
        lines = path.read_text().splitlines()
        line_no = [ln.partition(" =")[0] for ln in lines].index("seed") + 1
        lines[line_no - 1] = "seed 7"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            io.read_model(path)
        assert str(err.value) == "%s:%d: expected 'key = value'" % (path, line_no)

    def test_repeated_header_key_reports_line(self, tmp_path, rng):
        path = tmp_path / "model.txt"
        io.write_model(path, self._small_model(rng))
        lines = path.read_text().splitlines()
        line_no = [ln.partition(" =")[0] for ln in lines].index("seed") + 2
        lines.insert(line_no - 1, "seed = 99")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            io.read_model(path)
        assert str(err.value) == "%s:%d: repeated key 'seed'" % (path, line_no)

    def test_unknown_header_key_reports_line(self, tmp_path, rng):
        # a key a later format might add is not silently ignored
        path, lines = self._written(tmp_path, self._small_model(rng))
        lines.insert(4, "oversampling = 5")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            io.read_model(path)
        assert str(err.value) == "%s:5: unknown header key 'oversampling'" % path

    def test_repeated_section_reports_line(self, tmp_path, rng):
        # a second [x] would otherwise replace the first
        path, lines = self._written(tmp_path, self._small_model(rng))
        grid = lines[lines.index("[x]") : lines.index("[t]")]
        lines += grid
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            io.read_model(path)
        assert str(err.value) == "%s:%d: repeated section [x]" % (path, len(lines) - len(grid) + 1)

    def test_unknown_section_reports_line(self, tmp_path, rng):
        path, lines = self._written(tmp_path, self._small_model(rng))
        lines += ["[notes]", "1"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            io.read_model(path)
        assert str(err.value) == "%s:%d: unknown section [notes]" % (path, len(lines) - 1)

    def test_missing_section(self, tmp_path, rng):
        model = self._small_model(rng)
        path = tmp_path / "model.txt"
        io.write_model(path, model)
        text = path.read_text().replace("[eigenvalues]", "[spectra]")
        path.write_text(text)
        with pytest.raises(ValueError, match="eigenvalues"):
            io.read_model(path)

    def test_missing_header_key(self, tmp_path, rng):
        model = self._small_model(rng)
        path = tmp_path / "model.txt"
        io.write_model(path, model)
        lines = [
            ln for ln in path.read_text().splitlines() if not ln.startswith("seed")
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="seed"):
            io.read_model(path)

    def test_odd_cell_count(self, tmp_path, rng):
        model = self._small_model(rng)
        path = tmp_path / "model.txt"
        io.write_model(path, model)
        lines = path.read_text().splitlines()
        idx = lines.index("[eigenvalues]") + 1
        lines[idx] = lines[idx] + ",0.5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="expected 2 cells, found 3"):
            io.read_model(path)


# cells int() and float() take and numpy's C reader refuses: '_'
# separators and non-ASCII digits are bad cells in every table
FLOAT_ONLY_CELLS = ["1_0", "\u0661\u0662"]


class TestOneCellRule:
    @pytest.mark.parametrize("cell", FLOAT_ONLY_CELLS)
    @pytest.mark.parametrize(
        "text, line_no",
        [("x,0,{}\n0,1,2\n1,3,4\n", 1), ("x,0,1\n0,1,2\n1,3,{}\n", 3)],
        ids=["header", "row"],
    )
    def test_snapshot_cell(self, tmp_path, text, line_no, cell):
        path = tmp_path / "s.csv"
        path.write_text(text.format(cell), encoding="utf-8")
        with pytest.raises(ValueError) as err:
            io.read_snapshot_csv(path)
        assert str(err.value).startswith("%s:%d: bad cell (" % (path, line_no))

    @pytest.mark.parametrize("cell", FLOAT_ONLY_CELLS)
    @pytest.mark.parametrize("section", _MODEL_FIELDS)
    def test_model_cell(self, tmp_path, burgers_model, section, cell):
        path = tmp_path / "model.txt"
        io.write_model(path, burgers_model)
        line_no = put_cell(path, section, cell)
        with pytest.raises(ValueError) as err:
            io.read_model(path)
        assert str(err.value).startswith("%s:%d: bad cell (" % (path, line_no))

    @pytest.mark.parametrize("cell", FLOAT_ONLY_CELLS)
    @pytest.mark.parametrize("name", rt.QualityReport.FIELDS)
    def test_report_field(self, name, cell):
        names = [n for n in rt.QualityReport.FIELDS if n not in ("rank", "seed")]
        report = rt.QualityReport(rank=10, seed=1, **{n: 0.5 for n in names})
        lines = io.report_text(report).splitlines()
        line_no = [ln.partition(" =")[0] for ln in lines].index(name) + 1
        lines[line_no - 1] = "%s = %s" % (name, cell)
        with pytest.raises(ValueError) as err:
            io.parse_report_text("\n".join(lines))
        assert str(err.value).startswith("report line %d: bad %s value (" % (line_no, name))


class TestSweepCsv:
    def test_round_trip(self, tmp_path):
        points = [
            rt.ParetoPoint(rank=1, j1=0.25, j2=-0.5, dominated=True),
            rt.ParetoPoint(rank=2, j1=1.25e-7, j2=-0.999),
            rt.ParetoPoint(
                rank=3, j1=np.inf, j2=np.inf, error="fit failed, rank too high"
            ),
        ]
        path = tmp_path / "sweep.csv"
        io.write_sweep_csv(path, points)
        assert sweep_rows(path) == [
            (1, 0.25, -0.5, True, ""),
            (2, 1.25e-7, -0.999, False, ""),
            (3, np.inf, np.inf, False, "fit failed, rank too high"),
        ]


# finite floats, with -0.0, subnormals and both sides of fmt's notation
# switches at 1e-3 and 1e4 drawn often
REPORT_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [float(v) for v in EDGE_VALUES if np.isfinite(v)]
)


class TestReportParsing:
    @settings(max_examples=300, deadline=None)
    @given(
        rank=st.integers(),
        seed=st.integers(),
        floats=st.lists(REPORT_FLOATS, min_size=5, max_size=5),
    )
    def test_round_trip_bit_identity(self, rank, seed, floats):
        names = [n for n in rt.QualityReport.FIELDS if n not in ("rank", "seed")]
        report = rt.QualityReport(rank=rank, seed=seed, **dict(zip(names, floats)))
        text = io.report_text(report)
        keys = [line.partition(" = ")[0] for line in text.splitlines()]
        assert keys == list(rt.QualityReport.FIELDS)
        back = io.parse_report_text(text)
        assert (back.rank, back.seed) == (rank, seed)
        # float.hex tells -0.0 from 0.0
        assert [getattr(back, n).hex() for n in names] == [v.hex() for v in floats]

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="correlation"):
            io.parse_report_text("rank = 3\nseed = 1\n")

    def test_line_without_equals_rejected(self):
        names = [n for n in rt.QualityReport.FIELDS if n not in ("rank", "seed")]
        report = rt.QualityReport(rank=3, seed=1, **{n: 0.5 for n in names})
        lines = io.report_text(report).splitlines()
        lines.insert(2, "stray text")
        with pytest.raises(ValueError) as err:
            io.parse_report_text("\n".join(lines))
        assert str(err.value) == "report line 3: expected 'key = value'"

    def test_repeated_key_rejected(self):
        names = [n for n in rt.QualityReport.FIELDS if n not in ("rank", "seed")]
        report = rt.QualityReport(rank=3, seed=1, **{n: 0.5 for n in names})
        text = io.report_text(report) + "rank = 5\n"
        with pytest.raises(ValueError) as err:
            io.parse_report_text(text)
        assert str(err.value) == "report line %d: repeated key 'rank'" % len(
            text.splitlines()
        )


class TestSha256:
    def test_known_digest(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"abc")
        expect = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        assert io.file_sha256(path) == expect
