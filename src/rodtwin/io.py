"""Plain-text serialization: snapshot CSV, plot-data CSVs, model files,
sweep CSV, reports.

Every number is written with 17 significant digits so float64 values
survive a write/read cycle bit-exactly.  Magnitudes outside
[1e-3, 1e4) use scientific notation; everything uses '.' as the
decimal separator regardless of locale.  A snapshot CSV is read once,
by numpy's C reader.  Config files, the .meta sidecar, the model header
and the report share one 'key = value' line rule, each key given once;
'#' comments are allowed only in config and .meta files.
"""

from __future__ import annotations

import csv
import hashlib
import warnings

import numpy as np

from .metrics import QualityReport
from .rank_select import ParetoPoint
from .rod import ModelFault, RodModel, SnapshotFault, SnapshotMatrix, _uniform_grid


def _fmt_row(row):
    """A float64 row as cells of 17 significant digits joined by ',',
    formatted by one %.  Zeros and magnitudes in [1e-3, 1e4) use %.17g,
    which writes a negative zero '-0' so that it reads back as -0.0;
    everything else, inf and nan included, uses %.16e."""
    mag = np.abs(row)
    plain = ((mag >= 1e-3) & (mag < 1e4) | (row == 0.0)).tolist()
    return ",".join(["%.17g" if p else "%.16e" for p in plain]) % tuple(row.tolist())


def fmt(value):
    """Format one float as the one cell of a _fmt_row row."""
    return _fmt_row(np.array([float(value)]))


def _write_csv(path, header, axis, rows):
    """A CSV of the header line, then per axis value its row's cells."""
    with open(path, "w", newline="") as handle:
        handle.write(header + "\n")
        for cell, row in zip(_fmt_row(np.asarray(axis, dtype=float)).split(","), rows):
            handle.write(cell + "," + _fmt_row(row) + "\n")


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


def _interleaved(values):
    """A complex vector as float64 re, im, re, im, ..."""
    return np.stack((values.real, values.imag), axis=-1).ravel()


def file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------- snapshots

def write_snapshot_csv(path, snap, meta=None):
    """Snapshot matrix as CSV: header row x,<times...>, one row per x.

    The header carries the actual time values, making the file
    self-contained.  A meta dict, when given, is written next to the
    data as '<path>.meta' with one 'key = value' line per entry.
    """
    _write_csv(path, "x," + _fmt_row(snap.t), snap.x, snap.values)
    if meta is not None:
        with open(str(path) + ".meta", "w") as handle:
            handle.writelines("%s = %s\n" % item for item in meta.items())


class _RowFault(ValueError):
    """A data row refused before numpy's reader converts it."""


def read_snapshot_csv(path):
    """Parse a snapshot CSV back into a SnapshotMatrix, reading it once.

    The data rows stream through numpy's C reader into one array whose
    column 0 is x and whose other columns are the values, so the text
    is never held and the field is not copied.  Blank lines are skipped.
    A malformed file raises ValueError naming its path and the line of
    its first fault; a '1_0' cell, which float() takes, is a bad cell.
    What SnapshotMatrix rejects names the header for a time grid fault
    and otherwise the first row at fault.
    """
    rows = []  # the line number of each data row, in file order

    with open(path) as handle:
        numbered = ((n, ln) for n, ln in enumerate(handle, 1) if not ln.isspace())
        # an empty file reads as a header without times or rows
        header_no, header = next(numbered, (0, "x"))
        cells = header.rstrip("\n").split(",")
        if cells[0].strip() != "x":
            raise ValueError("%s:%d: header must start with 'x'" % (path, header_no))
        try:
            t = np.array([float(c) for c in cells[1:]])
        except ValueError as exc:
            raise ValueError("%s:%d: bad time value (%s)" % (path, header_no, exc))

        def data_rows():
            # numpy's reader converts each line before it pulls the next,
            # so its fault is on the last line yielded
            for line_no, line in numbered:
                rows.append(line_no)
                if line.count(",") != t.size:
                    found = line.count(",") + 1
                    raise _RowFault("expected %d cells, found %d" % (t.size + 1, found))
                # control characters the C reader strips around a cell as
                # whitespace but float() refuses
                if any(sep in line for sep in "\x1c\x1d\x1e\x1f"):
                    raise _RowFault("bad cell (separator character)")
                yield line

        try:
            with warnings.catch_warnings():
                # a header-only file, reported below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(data_rows(), delimiter=",", comments=None, ndmin=2)
        except _RowFault as exc:
            raise ValueError("%s:%d: %s" % (path, rows[-1], exc)) from None
        except ValueError as exc:
            # numpy's reason without its row and column, counted among the
            # lines it was given
            reason = str(exc).partition(" at row ")[0]
            raise ValueError("%s:%d: bad cell (%s)" % (path, rows[-1], reason))
    if len(rows) < 2:
        raise ValueError("%s: need a header and at least 2 data rows" % path)
    try:
        return SnapshotMatrix(values=data[:, 1:], x=data[:, 0], t=t)
    except SnapshotFault as exc:
        line_no = header_no if exc.axis == "t" else rows[exc.index]
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
    header = [axis_name]
    for j in range(columns.shape[1]):
        header += ["%s%d_re" % (label, j + 1), "%s%d_im" % (label, j + 1)]
    _write_csv(path, ",".join(header), axis, map(_interleaved, columns))


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
    header = {
        "format": _MODEL_FORMAT,
        "nx": model.x.size,
        "nt": model.t.size - 1,
        "rank": model.rank,
        "seed": model.seed,
    }
    with open(path, "w", newline="") as handle:
        handle.writelines("%s = %s\n" % item for item in header.items())
        for name, rows in (
            ("x", model.x[:, None]),
            ("t", model.t[:, None]),
            ("left", model.left),
            ("right", model.right),
            ("eigenvalues", _interleaved(model.eigenvalues).reshape(-1, 2)),
        ):
            handle.write("[%s]\n" % name)
            handle.writelines(_fmt_row(row) + "\n" for row in rows)


def _parse_row(cells, line_no, path, width):
    if len(cells) != width:
        raise ValueError(
            "%s:%d: expected %d cells, found %d" % (path, line_no, width, len(cells))
        )
    try:
        return [float(c) for c in cells]
    except ValueError as exc:
        raise ValueError("%s:%d: bad numeric cell (%s)" % (path, line_no, exc))


def _count(text):
    value = int(text)
    if value < 0:
        raise ValueError("negative count %d" % value)
    return value


def _header_number(header, key, convert, path):
    """convert applied to a header value; a failure names its path:line."""
    line_no, text = header[key]
    try:
        return convert(text)
    except ValueError as exc:
        raise ValueError(
            "%s:%d: bad %s value (%s)" % (path, line_no, key, exc)
        ) from None


def read_model(path):
    """Parse a model file written by write_model.

    The header must hold format = 3, nx, nt, rank and seed; a file
    missing any of them, such as one without a format line, raises
    ValueError naming the missing keys.  Every field reloads bit for
    bit.  Any other format value, a row with the wrong cell count, a
    bad or non-finite cell, a grid that is not finite, strictly
    increasing and uniform (at the row at fault, as SnapshotMatrix
    checks it) and a model that is not exactly conjugate (at its first
    bad [eigenvalues] row) are rejected with their path:line.
    """
    with open(path) as handle:
        lines = [ln.rstrip("\n") for ln in handle]
    header = {}
    sections = {}
    current = None
    for line_no, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1]
            sections[current] = (line_no, [])
        elif current is None:
            key, value = _key_value(stripped, "%s:%d" % (path, line_no), header)
            header[key] = (line_no, value)
            if key == "format" and value != _MODEL_FORMAT:
                raise ValueError(
                    "%s:%d: unsupported model format %r (expected %s)"
                    % (path, line_no, value, _MODEL_FORMAT)
                )
        else:
            sections[current][1].append((line_no, stripped.split(",")))
    missing = [k for k in _MODEL_HEADER_KEYS if k not in header]
    if missing:
        raise ValueError("%s: missing header keys %s" % (path, missing))
    nx = _header_number(header, "nx", _count, path)
    nt = _header_number(header, "nt", _count, path)
    rank = _header_number(header, "rank", _count, path)
    seed = _header_number(header, "seed", int, path)
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
        block = [_parse_row(cells, line_no, path, width) for line_no, cells in rows]
        block = np.array(block, dtype=float).reshape(n_rows, width)
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            line_no = rows[int(np.argmin(finite))][0]
            raise ValueError("%s:%d: non-finite value" % (path, line_no))
        fields[name] = block
    try:
        x = _uniform_grid(fields["x"][:, 0], "x")
        t = _uniform_grid(fields["t"][:, 0], "t")
    except SnapshotFault as exc:
        # an empty grid is named at its [x] or [t] line
        section_line, rows = sections[exc.axis]
        line_no = rows[exc.index][0] if rows else section_line
        raise ValueError("%s:%d: %s" % (path, line_no, exc)) from None
    # each re,im pair as it is: re + 1j * im turns an imaginary -0 into +0
    eigenvalues = fields["eigenvalues"].view(complex)[:, 0]
    try:
        return RodModel(fields["left"], fields["right"], eigenvalues, seed, x, t)
    except ModelFault as exc:
        line_no = sections["eigenvalues"][1][exc.index][0]
        raise ValueError("%s:%d: %s" % (path, line_no, exc)) from None


# -------------------------------------------------------------------- sweeps

_SWEEP_HEADER = ["rank", "j1", "j2", "dominated", "error"]


def write_sweep_csv(path, points):
    """Sweep points as CSV rows: rank, j1, j2, dominated, error."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_SWEEP_HEADER)
        for p in points:
            writer.writerow(
                [p.rank, fmt(p.j1), fmt(p.j2), int(p.dominated), p.error]
            )


def read_sweep_csv(path):
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != _SWEEP_HEADER:
            raise ValueError("%s: unexpected sweep CSV header" % path)
        points = []
        for row in reader:
            if not row:
                continue
            where = "%s:%d" % (path, reader.line_num)
            if len(row) != 5:
                raise ValueError("%s: expected 5 cells, found %d" % (where, len(row)))
            try:
                points.append(
                    ParetoPoint(
                        rank=int(row[0]),
                        j1=float(row[1]),
                        j2=float(row[2]),
                        dominated=bool(int(row[3])),
                        error=row[4],
                    )
                )
            except ValueError as exc:
                raise ValueError("%s: bad cell (%s)" % (where, exc))
    return points


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
    values = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        if line.strip():
            key, value = _key_value(line, "report line %d" % line_no, values)
            values[key] = value
    missing = [k for k in QualityReport.FIELDS if k not in values]
    if missing:
        raise ValueError("report text missing fields %s" % missing)
    return QualityReport(
        **{
            name: (int if name in _INTEGER_FIELDS else float)(values[name])
            for name in QualityReport.FIELDS
        }
    )

