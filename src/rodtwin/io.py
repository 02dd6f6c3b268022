"""Plain-text serialization: snapshot CSV, plot-data CSVs, model files,
sweep CSV, reports.

Every number is written with 17 significant digits so float64 values
survive a write/read cycle bit-exactly.  Magnitudes outside
[1e-3, 1e4) use scientific notation; everything uses '.' as the
decimal separator regardless of locale.  One writer formats every table
of numbers and numpy's C reader parses every one, so a cell means the
same in every file.  The one binary file is the memo generate leaves
beside its dataset: a snapshot CSV with a memo whose digest is the
CSV's is read from the memo's table instead of its text, the table the
parse gives, since the text round trip is exact.  Config files, the
.meta sidecar, the model header and the report share one 'key = value'
line rule, each key given once; '#' comments are allowed only in config
and .meta files.  The numbers of the model header and the report are
cells too; config values are converted by the CLI.  The sweep and
plot-data CSVs are only written.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import os
import re
import warnings
from io import BytesIO

import numpy as np

from . import walk
from .metrics import QualityReport
from .rod import RodModel, SnapshotFault, SnapshotMatrix


# cells per % of the table writer: a constant, as walk.BLOCK_ROWS is
BLOCK_CELLS = 1 << 15

# the format of a cell by (plain, ends a row): see _format
_CODES = np.array([b"%.16e,", b"%.17g,", b"%.16e\n", b"%.17g\n"])


def _format(cells, width, offset=0):
    """Cells of a flat table of width columns, from its index offset on,
    formatted by one %, each followed by ',' or, ending a row, a newline.
    Zeros and magnitudes in [1e-3, 1e4) use %.17g, which writes -0.0 as
    '-0'; everything else, inf and nan included, uses %.16e."""
    mag = np.abs(cells)
    plain = (mag >= 1e-3) & (mag < 1e4) | (cells == 0.0)
    ends = np.arange(offset + 1, offset + cells.size + 1) % width == 0
    codes = _CODES[plain + 2 * ends]
    return codes.tobytes().decode() % tuple(cells.tolist())


def fmt(value):
    """Format one float as the one cell of a _format row."""
    return _format(np.array([float(value)]), 1)[:-1]


def _write_table(handle, rows, axis=None):
    """Write the 2-D float64 rows as lines of cells joined by ',', each
    led by its axis value if given, at most BLOCK_CELLS cells per _format."""
    width = rows.shape[1] + (axis is not None)
    step = max(1, BLOCK_CELLS // width)
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        if axis is not None:
            block = np.column_stack((axis[start : start + step], block))
        cells = block.ravel()
        for offset in range(0, cells.size, BLOCK_CELLS):
            handle.write(_format(cells[offset : offset + BLOCK_CELLS], width, offset))


def _key_value(line, where, seen):
    """The stripped key and value of a 'key = value' line; a line
    without '=', or whose key with its dashes read as underscores is
    already in seen, raises ValueError naming where."""
    key, equals, value = line.partition("=")
    if not equals:
        raise ValueError("%s: expected 'key = value'" % where)
    key = key.strip()
    if key.replace("-", "_") in seen:
        raise ValueError("%s: repeated key '%s'" % (where, key))
    return key, value.strip()


# an integer cell: ASCII digits after an optional sign
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _cell(text, kind):
    """text as the int or float of one cell: an int is ASCII digits after
    an optional sign, a float what numpy's C reader, the reader of every
    table, takes.  Text that kind itself refuses fails with its message;
    kind also takes '1_0' and the digits of other scripts, which fail
    here."""
    value = kind(text)
    if kind is int:
        if not _INTEGER.fullmatch(text):
            raise ValueError("%r is not ASCII digits" % text)
        return value
    try:
        return float(np.loadtxt([text], delimiter=",", comments=None))
    except ValueError as exc:
        raise ValueError(str(exc).partition(" at row ")[0]) from None


def _interleaved(values):
    """Complex values as float64 rows re, im, ...: one per value or row."""
    return np.stack((values.real, values.imag), axis=-1).reshape(len(values), -1)


def _digest(path):
    """The sha256 hex digest of the file at path, and its counts of
    newlines and of commas."""
    digest = hashlib.sha256()
    lines = commas = 0
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
            # numpy counts a block's bytes four times faster than bytes.count
            chars = np.frombuffer(block, np.uint8)
            lines += int(np.count_nonzero(chars == ord("\n")))
            commas += int(np.count_nonzero(chars == ord(",")))
    return digest.hexdigest(), lines, commas


def file_sha256(path):
    return _digest(path)[0]


# ---------------------------------------------------------------- snapshots

def write_snapshot_csv(path, snap, meta=None):
    """Snapshot matrix as CSV: header row x,<times...>, one row per x.

    The header carries the actual time values, making the file
    self-contained.  A meta dict, when given, is written next to the
    data as '<path>.meta' with one 'key = value' line per entry.
    """
    with open(path, "w", newline="") as handle:
        handle.write("x,")
        _write_table(handle, snap.t[None, :])
        _write_table(handle, snap.values, snap.x)
    if meta is not None:
        with open(str(path) + ".meta", "w") as handle:
            handle.writelines("%s = %s\n" % item for item in meta.items())


def _memo_header(rows, cols):
    """The .npy header of a memo of a rows x cols table: one record of
    the CSV's sha256 hex digest and the little-endian float64 table."""
    record = np.dtype([("sha256", "S64"), ("table", "<f8", (rows, cols))])
    header = BytesIO()
    np.lib.format.write_array_header_1_0(
        header,
        {"descr": np.lib.format.dtype_to_descr(record), "fortran_order": False, "shape": ()},
    )
    return header.getvalue()


def write_snapshot_memo(path, snap, digest):
    """Leave '<path>.npy' beside the snapshot CSV at path, whose sha256
    hex digest is digest: a memo of the table read_snapshot_csv parses
    from that CSV, row 0 holding 0 and the times and row i + 1 x_i and
    the values of row i.  It is written a block of rows at a time under
    a temporary name, then renamed into place; its bytes depend on the
    digest and the table alone.
    """
    nx, nt1 = snap.values.shape
    memo = str(path) + ".npy"
    part = memo + ".part"
    try:
        with open(part, "wb") as handle:
            handle.write(_memo_header(nx + 1, nt1 + 1) + digest.encode())
            handle.write(np.concatenate(([0.0], snap.t)).astype("<f8"))
            for start, stop in walk.row_blocks(nx):
                rows = np.column_stack((snap.x[start:stop], snap.values[start:stop]))
                handle.write(rows.astype("<f8", copy=False))
        os.replace(part, memo)
    finally:
        if os.path.exists(part):
            os.remove(part)


def _memo_table(path):
    """The table of the memo beside the snapshot CSV at path, or None
    when there is none that write_snapshot_memo wrote for this file: its
    header must be that of a table of one row per line of the CSV and
    one column per cell of a line, and its digest the CSV's.  Nothing
    else about a memo raises or warns."""
    try:
        with open(str(path) + ".npy", "rb") as memo:
            digest, lines, commas = _digest(path)
            if not lines or commas % lines:
                return None
            shape = (lines, commas // lines + 1)
            header = _memo_header(*shape) + digest.encode()
            size = len(header) + 8 * shape[0] * shape[1]
            if os.fstat(memo.fileno()).st_size != size or memo.read(len(header)) != header:
                return None
            table = np.empty(shape, "<f8")
            return table if memo.readinto(table) == table.nbytes else None
    except OSError:
        return None


class _RowFault(ValueError):
    """A row refused before numpy's reader converts it."""


def _read_rows(path, numbered_lines, width):
    """The (line number, text) pairs of numbered_lines as one float64
    array of width columns, read by numpy's C reader, and the line
    number of each row.  A row of another cell count or holding a
    control character 0x1c-0x1f, which the C reader strips as
    whitespace, or a cell it refuses raises ValueError at its path:line."""
    line_nos = []

    def rows():
        # numpy's reader converts each line before it pulls the next,
        # so its fault is on the last line yielded
        for line_no, line in numbered_lines:
            line_nos.append(line_no)
            if line.count(",") != width - 1:
                raise _RowFault("expected %d cells, found %d" % (width, line.count(",") + 1))
            if any(sep in line for sep in "\x1c\x1d\x1e\x1f"):
                raise _RowFault("bad cell (separator character)")
            yield line

    try:
        with warnings.catch_warnings():
            # no rows: the caller reports what is missing
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(rows(), delimiter=",", comments=None, ndmin=2)
    except _RowFault as exc:
        raise ValueError("%s:%d: %s" % (path, line_nos[-1], exc)) from None
    except ValueError as exc:
        # numpy's reason without its row and column, counted among the
        # lines it was given
        reason = str(exc).partition(" at row ")[0]
        raise ValueError("%s:%d: bad cell (%s)" % (path, line_nos[-1], reason)) from None
    return data.reshape(len(line_nos), width), line_nos


def _snapshot(data):
    """The SnapshotMatrix of a parsed table: 0 and the times, then x_i
    and the values of row i."""
    return SnapshotMatrix(values=data[1:, 1:], x=data[1:, 0], t=data[0, 1:])


def read_snapshot_csv(path):
    """Parse a snapshot CSV back into a SnapshotMatrix, reading it once.

    The header, its 'x' read as 0, and the data rows stream through
    _read_rows into one array, so the text is never held and the field
    is not copied.  Blank lines are skipped.  A malformed file raises
    ValueError at the path:line of its first fault, and what
    SnapshotMatrix rejects at the header for the time grid or else at
    the first row at fault.  When the memo of write_snapshot_memo lies
    beside the file with its digest, its table stands in for the parse;
    any other memo is ignored.
    """
    table = _memo_table(path)
    if table is not None:
        try:
            return _snapshot(table)
        except SnapshotFault:
            pass  # the parse names the line at fault
    with open(path) as handle:
        numbered = ((n, ln) for n, ln in enumerate(handle, 1) if not ln.isspace())
        # an empty file reads as a header without times or rows
        header_no, header = next(numbered, (0, "x"))
        first, comma, times = header.partition(",")
        if first.strip() != "x":
            raise ValueError("%s:%d: header must start with 'x'" % (path, header_no))
        rows = itertools.chain([(header_no, "0" + comma + times)], numbered)
        data, line_nos = _read_rows(path, rows, header.count(",") + 1)
    if len(line_nos) < 3:
        raise ValueError("%s: need a header and at least 2 data rows" % path)
    try:
        return _snapshot(data)
    except SnapshotFault as exc:
        line_no = header_no if exc.axis == "t" else line_nos[exc.index + 1]
        raise ValueError("%s:%d: %s" % (path, line_no, exc)) from None


def read_meta(path):
    """Parse a 'key = value' file, with '#' comments, into a dict of
    strings.  A key's dashes read as underscores, so 'grid-points' and
    'grid_points' are one key, and the second of them is repeated."""
    meta = {}
    with open(path) as handle:
        for line_no, line in enumerate(handle, 1):
            if line.strip() and not line.strip().startswith("#"):
                key, value = _key_value(line, "%s:%d" % (path, line_no), meta)
                meta[key.replace("-", "_")] = value
    return meta


def write_modal_csv(path, axis_name, axis, label, columns):
    """Plot-data CSV of complex per-mode values along one grid axis.

    columns has shape (axis size, number of modes).  The header is
    axis_name,<label>1_re,<label>1_im,...; row i holds axis[i], then
    the (re,im) pair of each mode.
    """
    modes = range(1, columns.shape[1] + 1)
    header = [axis_name] + ["%s%d_%s" % (label, j, p) for j in modes for p in ("re", "im")]
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\n")
        _write_table(handle, _interleaved(columns), axis)


# ------------------------------------------------------------------- models

_MODEL_FORMAT = "3"
_MODEL_HEADER_KEYS = ("format", "nx", "nt", "rank", "seed")


def write_model(path, model):
    """Single-file model format: key=value header, then bracketed sections.

    The header holds format = 3, nx, nt, rank and seed.  [x] and [t]
    hold the grids, one value per line; [left] has nx rows of rank
    cells, [right] rank rows of nt+1 cells and [eigenvalues] rank rows
    of one re,im pair: the fields RodModel holds, as it holds them.
    """
    header = (_MODEL_FORMAT, model.x.size, model.t.size - 1, model.rank, model.seed)
    with open(path, "w", newline="") as handle:
        handle.writelines("%s = %s\n" % item for item in zip(_MODEL_HEADER_KEYS, header))
        for name, rows in (
            ("x", model.x[:, None]),
            ("t", model.t[:, None]),
            ("left", model.left),
            ("right", model.right),
            ("eigenvalues", _interleaved(model.eigenvalues)),
        ):
            handle.write("[%s]\n" % name)
            _write_table(handle, rows)


def _header_int(header, key, path):
    """A header value as an integer cell, a count at least 0 but for the
    seed, and the rank at least 1; a failure names its path:line."""
    line_no, text = header[key]
    try:
        value = _cell(text, int)
        if value < 0 and key != "seed":
            raise ValueError("negative count %d" % value)
        if value == 0 and key == "rank":
            raise ValueError("model rank must be at least 1")
    except ValueError as exc:
        raise ValueError("%s:%d: bad %s value (%s)" % (path, line_no, key, exc)) from None
    return value


def read_model(path):
    """Parse a model file written by write_model.

    The header must hold format = 3, nx, nt, rank and seed and nothing
    else; a file missing any of them, such as one without a format line,
    raises ValueError naming the missing keys.  The sections are read by
    _read_rows and every field reloads bit for bit.  Any other header
    key or format value, a rank below 1, a repeated or unknown section,
    a row with the wrong cell count, a bad cell and what RodModel
    rejects fail at their path:line: a RodModel fault, a non-finite
    cell included, at the row of its axis and index (an empty grid at
    its section).
    """
    header = {}
    sections = {}
    current = None
    with open(path) as handle:
        for line_no, line in enumerate(handle, 1):
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("[") and stripped.endswith("]"):
                name = stripped[1:-1]
                if name in sections:
                    raise ValueError("%s:%d: repeated section [%s]" % (path, line_no, name))
                current = sections[name] = (line_no, [])
            elif current is None:
                key, value = _key_value(stripped, "%s:%d" % (path, line_no), header)
                if key not in _MODEL_HEADER_KEYS:
                    raise ValueError("%s:%d: unknown header key '%s'" % (path, line_no, key))
                header[key] = (line_no, value)
                if key == "format" and value != _MODEL_FORMAT:
                    raise ValueError(
                        "%s:%d: unsupported model format %r (expected %s)"
                        % (path, line_no, value, _MODEL_FORMAT)
                    )
            else:
                current[1].append((line_no, stripped))
    missing = [k for k in _MODEL_HEADER_KEYS if k not in header]
    if missing:
        raise ValueError("%s: missing header keys %s" % (path, missing))
    nx, nt, rank, seed = (_header_int(header, k, path) for k in _MODEL_HEADER_KEYS[1:])
    fields = {}
    for name, n_rows, width in (
        ("x", nx, 1),
        ("t", nt + 1, 1),
        ("left", nx, rank),
        ("right", rank, nt + 1),
        ("eigenvalues", rank, 2),
    ):
        if name not in sections:
            raise ValueError("%s: missing [%s] section" % (path, name))
        section_line, rows = sections[name]
        if len(rows) != n_rows:
            raise ValueError(
                "%s:%d: [%s] must have %d rows" % (path, section_line, name, n_rows)
            )
        fields[name] = _read_rows(path, rows, width)[0]
    for name, (line_no, _) in sections.items():
        if name not in fields:
            raise ValueError("%s:%d: unknown section [%s]" % (path, line_no, name))
    # each re,im pair as it is: re + 1j * im turns an imaginary -0 into +0
    eigenvalues = fields["eigenvalues"].view(complex)[:, 0]
    x, t = fields["x"][:, 0], fields["t"][:, 0]
    try:
        return RodModel(fields["left"], fields["right"], eigenvalues, seed, x, t)
    except SnapshotFault as exc:
        section_line, rows = sections[exc.axis]
        line_no = rows[exc.index][0] if rows else section_line
        raise ValueError("%s:%d: %s" % (path, line_no, exc)) from None


# -------------------------------------------------------------------- sweeps

def write_sweep_csv(path, points):
    """Sweep points as CSV rows under a header: rank, j1, j2, dominated
    (0 or 1) and error (empty unless the rank failed), for plotting; the
    package reads nothing back from it."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["rank", "j1", "j2", "dominated", "error"])
        for p in points:
            writer.writerow(
                [p.rank, fmt(p.j1), fmt(p.j2), int(p.dominated), p.error]
            )


# ------------------------------------------------------------------- reports

# the QualityReport fields written and read as integers; the rest are floats
_INTEGER_FIELDS = ("rank", "seed")


def report_text(report):
    """QualityReport as a flat key=value block, fixed field order."""
    lines = []
    for name in QualityReport.FIELDS:
        value = getattr(report, name)
        text = "%d" % value if name in _INTEGER_FIELDS else fmt(value)
        lines.append("%s = %s" % (name, text))
    return "\n".join(lines) + "\n"


def parse_report_text(text):
    """The QualityReport of a report_text block.  Each field is one cell,
    an integer for rank and seed, and a bad one fails at its line."""
    values = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        if line.strip():
            key, value = _key_value(line, "report line %d" % line_no, values)
            values[key] = (line_no, value)
    missing = [k for k in QualityReport.FIELDS if k not in values]
    if missing:
        raise ValueError("report text missing fields %s" % missing)
    fields = {}
    for name in QualityReport.FIELDS:
        line_no, value = values[name]
        try:
            fields[name] = _cell(value, int if name in _INTEGER_FIELDS else float)
        except ValueError as exc:
            raise ValueError("report line %d: bad %s value (%s)" % (line_no, name, exc)) from None
    return QualityReport(**fields)

