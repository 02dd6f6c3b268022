from collections import Counter

import numpy as np
import pytest

import rodtwin as rt
from rodtwin.cli import DEFAULT_SEED

# one line per acceptance criterion, echoed after the run
CRITERION_LINES = []


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


def put_cell(path, section, cell):
    """Write cell as the first cell of the last row of a model file's
    section; returns the line number of that row."""
    lines = path.read_text(encoding="utf-8").splitlines()
    start = lines.index("[%s]" % section) + 1
    line_no = next(
        (i for i in range(start, len(lines)) if lines[i].startswith("[")), len(lines)
    )
    lines[line_no - 1] = ",".join([cell] + lines[line_no - 1].split(",")[1:])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return line_no


@pytest.fixture(scope="session")
def burgers_snapshot():
    return rt.generate_snapshots()


@pytest.fixture(scope="session")
def burgers_2001():
    """The benchmark field on the 2001-point grid of the scaled case."""
    return rt.generate_snapshots(rt.BurgersConfig(grid_points=2001))


@pytest.fixture(scope="session")
def burgers_ip(burgers_snapshot):
    return rt.InnerProduct(burgers_snapshot.dx)


@pytest.fixture(scope="session")
def burgers_model(burgers_snapshot):
    return rt.fit(burgers_snapshot, 10, DEFAULT_SEED)


@pytest.fixture(scope="session")
def burgers_fourier(burgers_snapshot):
    return rt.fourier_decomposition(burgers_snapshot)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def make_snapshot(values, dx=0.1, dt=0.05):
    """Wrap a plain matrix in grids starting at zero."""
    values = np.asarray(values, dtype=float)
    nx, nt1 = values.shape
    return rt.SnapshotMatrix(
        values=values, x=np.arange(nx) * dx, t=np.arange(nt1) * dt
    )


def two_mode_field(scale=1.0):
    """Two damped oscillations on a 41x31 grid, times scale: numerical rank 4."""
    x = np.linspace(0.0, 1.0, 41)
    t = np.arange(31) * 0.05
    values = sum(
        np.outer(np.sin(m * np.pi * x), np.exp(-d * t) * wave(w * t))
        for m, d, w, wave in [
            (1, 0.3, 2.0, np.cos),
            (2, 0.3, 2.0, np.sin),
            (3, 0.1, 5.0, np.cos),
            (4, 0.1, 5.0, np.sin),
        ]
    )
    return rt.SnapshotMatrix(values=scale * values, x=x, t=t)


def degenerate_field(case):
    """A degenerate data set on the 41x31 grid of two_mode_field: all
    zeros, the two-mode field with a zero column at t_5 or at t_0, or
    the rank-one field sin(pi x) 0.9^j."""
    base = two_mode_field()
    values = base.values.copy()
    if case == "all-zero":
        values[:] = 0.0
    elif case == "zero-column-t5":
        values[:, 5] = 0.0
    elif case == "zero-column-t0":
        values[:, 0] = 0.0
    else:
        assert case == "rank-one", case
        values = np.outer(np.sin(np.pi * base.x), 0.9 ** np.arange(base.t.size))
    return rt.SnapshotMatrix(values=values, x=base.x, t=base.t)


def count_calls(monkeypatch, owner, name):
    """A Counter of the calls to owner.name for the rest of the test."""
    calls = Counter()
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls
