import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rodtwin as rt
from rodtwin import empirical, io, rank_select, rod, walk
from rodtwin.walk import BLOCK_ROWS, add_column_sums, row_blocks

from conftest import count_calls, make_snapshot, two_mode_field


class TestAbsoluteError:
    def test_identical_is_zero(self, rng):
        snap = make_snapshot(rng.standard_normal((8, 5)))
        assert rt.absolute_error(snap, snap) == 0.0

    def test_uniform_offset(self, rng):
        values = rng.standard_normal((9, 4))
        snap = make_snapshot(values)
        delta = 1e-3
        shifted = make_snapshot(values + delta)
        # each column norm is delta * sqrt(Nx); the initial column is skipped
        expect = delta * np.sqrt(9)
        assert rt.absolute_error(snap, shifted) == pytest.approx(expect, rel=1e-12)

    def test_initial_column_excluded(self, rng):
        values = rng.standard_normal((9, 4))
        other = values.copy()
        other[:, 0] += 100.0
        assert rt.absolute_error(make_snapshot(values), make_snapshot(other)) == 0.0

    def test_triangle_inequality(self, rng):
        a = make_snapshot(rng.standard_normal((7, 6)))
        b = make_snapshot(rng.standard_normal((7, 6)))
        c = make_snapshot(rng.standard_normal((7, 6)))
        ab = rt.absolute_error(a, b)
        bc = rt.absolute_error(b, c)
        ac = rt.absolute_error(a, c)
        assert ac <= ab + bc + 1e-12

    def test_shape_and_grid_mismatch(self, rng):
        a = make_snapshot(rng.standard_normal((7, 6)))
        b = make_snapshot(rng.standard_normal((7, 5)))
        with pytest.raises(ValueError):
            rt.absolute_error(a, b)
        c = make_snapshot(rng.standard_normal((7, 6)), dx=0.3)
        with pytest.raises(ValueError):
            rt.absolute_error(a, c)


class TestCorrelation:
    def test_self_correlation_is_one(self, rng):
        snap = make_snapshot(rng.standard_normal((10, 5)))
        assert rt.correlation(snap, snap) == pytest.approx(1.0, abs=1e-13)

    def test_positive_scaling_invariance(self, rng):
        values = rng.standard_normal((10, 5))
        snap = make_snapshot(values)
        scaled = make_snapshot(3.7 * values)
        assert rt.correlation(snap, scaled) == pytest.approx(1.0, abs=1e-12)

    def test_sign_flip_keeps_paper_variant(self, rng):
        # the elementwise-square form cannot see a global sign change
        values = rng.standard_normal((10, 5))
        snap = make_snapshot(values)
        flipped = make_snapshot(-values)
        assert rt.correlation(snap, flipped) == pytest.approx(1.0, abs=1e-12)

    def test_bounded_by_one(self, rng):
        for _ in range(10):
            a = make_snapshot(rng.standard_normal((12, 6)))
            b = make_snapshot(rng.standard_normal((12, 6)))
            val = rt.correlation(a, b)
            assert 0.0 <= val <= 1.0 + 1e-12

    def test_cosine_variant(self):
        u = np.array([1.0, 0.0])
        v = np.array([1.0, 1.0])
        a = make_snapshot(np.column_stack([u, u]))
        b = make_snapshot(np.column_stack([u, v]))
        assert rt.correlation(a, b, variant="cosine") == pytest.approx(0.5, rel=1e-12)
        with pytest.raises(ValueError):
            rt.correlation(a, b, variant="pearson")

    def test_zero_column_reported_with_time_index(self, rng):
        values = rng.standard_normal((6, 4))
        other = values.copy()
        other[:, 2] = 0.0
        with pytest.raises(ValueError, match=r"\[2\]"):
            rt.correlation(make_snapshot(values), make_snapshot(other))


class TestQualityReport:
    def test_field_order_matches_declaration(self):
        names = [f.name for f in dataclasses.fields(rt.QualityReport)]
        assert tuple(names) == rt.QualityReport.FIELDS

    def test_benchmark_report_values(
        self, burgers_snapshot, burgers_model, burgers_fourier, burgers_ip
    ):
        rep = rt.quality_report(
            burgers_snapshot, burgers_model, burgers_fourier, burgers_ip
        )
        assert rep.rank == 10
        assert rep.seed == burgers_model.seed
        twin = rt.reconstruct(burgers_model)
        assert rep.absolute_error == rt.absolute_error(burgers_snapshot, twin)
        assert rep.correlation == rt.correlation(burgers_snapshot, twin)
        assert rep.gram_deviation == burgers_model.gram_deviation
        assert rep.rod_projection_norm > rep.fourier_projection_norm

    def test_fourier_score_matches_projection_of_psi(
        self, burgers_snapshot, burgers_model, burgers_fourier, burgers_ip
    ):
        rep = rt.quality_report(
            burgers_snapshot, burgers_model, burgers_fourier, burgers_ip
        )
        direct = empirical.mean_projection_norm(
            burgers_fourier.psi,
            burgers_snapshot.values[:, :-1],
            burgers_ip,
            mode_count=burgers_snapshot.values.shape[0],
        )
        assert rep.fourier_projection_norm == pytest.approx(direct, rel=1e-12)

    def test_mismatched_fourier_modes_rejected(
        self, burgers_snapshot, burgers_model, burgers_ip
    ):
        other = rt.SnapshotMatrix(
            values=burgers_snapshot.values[:, :-1],
            x=burgers_snapshot.x,
            t=burgers_snapshot.t[:-1],
        )
        with pytest.raises(ValueError, match="do not match"):
            rt.quality_report(
                burgers_snapshot,
                burgers_model,
                rt.fourier_decomposition(other),
                burgers_ip,
            )

    _OTHER_IP = "inner product dx %r does not match the data's dx %r"

    @pytest.mark.parametrize(
        "shape, dx, variant, message",
        [
            ((30, 11), 0.1, "paper", "shape mismatch: (30, 11) vs (30, 12)"),
            ((29, 12), 0.1, "paper", "shape mismatch: (29, 12) vs (30, 12)"),
            ((30, 12), 0.2, "paper", "grid mismatch between the two snapshot sets"),
            ((30, 12), 0.1, "pearson", "unknown correlation variant 'pearson'"),
            # (the data's dx, the inner product's dx)
            ((30, 12), (0.1, 1.0), "paper", _OTHER_IP % (1.0, 0.1)),
            ((30, 12), (0.1, 0.1 * (1 + 2e-12)), "cosine", _OTHER_IP % (0.1 * (1 + 2e-12), 0.1)),
        ],
    )
    def test_data_off_the_model_rejected(
        self, rng, monkeypatch, shape, dx, variant, message
    ):
        model = rt.fit(make_snapshot(rng.standard_normal((30, 12))), 3, seed=1)
        data_dx, ip_dx = map(float, np.broadcast_to(dx, 2))
        snap = make_snapshot(rng.standard_normal(shape), dx=data_dx)
        fourier, ip = rt.fourier_decomposition(snap), rt.InnerProduct(ip_dx)
        calls = [lambda: rt.quality_report(snap, model, fourier, ip, variant=variant)]
        if ip_dx != data_dx:
            v0 = snap.values[:, :-1]
            calls.append(lambda: rt.compare_projections(model.modes, fourier, v0, ip))
        elif variant == "paper":
            calls.append(lambda: rank_select.objectives(snap, model))
        else:
            calls.append(lambda: rt.correlation(snap, snap, variant))
        walks = count_calls(monkeypatch, walk, "row_blocks")
        for call in calls:
            with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
                call()
        # each is refused before the data is walked
        assert not walks

    def test_non_finite_field_raises(self):
        # at 1e77 the paper correlation's a^4 overflows and it reads NaN
        snap = two_mode_field(1e77)
        model = rt.fit(snap, 4, seed=0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match=r"^quality report field correlation is not finite \(nan\)$"
        ):
            rt.quality_report(
                snap, model, rt.fourier_decomposition(snap), rt.InnerProduct(snap.dx)
            )

    def test_overflowing_scores_raise_without_warning(self, burgers_snapshot):
        # at 1e160 the squares of the projection scores overflow too; the
        # report names its first non-finite field and no numpy warning leaks
        big = rt.SnapshotMatrix(
            values=burgers_snapshot.values * 1e160, x=burgers_snapshot.x, t=burgers_snapshot.t
        )
        model = rt.fit(big, 10, seed=1)
        fourier, ip = rt.fourier_decomposition(big), rt.InnerProduct(big.dx)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValueError, match=r"^quality report field absolute_error is not finite \(inf\)$"
            ):
                rt.quality_report(big, model, fourier, ip)

    def test_text_round_trip(
        self, burgers_snapshot, burgers_model, burgers_fourier, burgers_ip
    ):
        rep = rt.quality_report(
            burgers_snapshot, burgers_model, burgers_fourier, burgers_ip
        )
        text = io.report_text(rep)
        back = io.parse_report_text(text)
        assert back == rep


# row counts around the block boundaries of the streamed pass
BLOCK_EDGES = (BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3)


def _rel(value, reference):
    return abs(value - reference) / max(abs(reference), 1e-300)


def _dense_scores(exact, twin, variant):
    """Error and correlation written out on the whole matrices."""
    a, b = exact[:, 1:], twin[:, 1:]
    error = np.mean(np.linalg.norm(a - b, axis=0))
    if variant == "paper":
        num = np.sum((a * b) ** 2, axis=0)
        den = np.sqrt(np.sum(a**4, axis=0)) * np.sqrt(np.sum(b**4, axis=0))
    else:
        num = np.sum(a * b, axis=0) ** 2
        den = np.sum(a**2, axis=0) * np.sum(b**2, axis=0)
    return error, np.mean(num / den)


def _dense_projection_score(modes, v0, dx, mode_count):
    inner = dx * (modes.conj().T @ v0)
    return np.sum(np.abs(inner) ** 2 / (dx * np.sum(v0**2, axis=0))) / mode_count


def _copy_rows(twin):
    """The twin of walk.data_pass for a plain matrix."""
    return lambda start, stop, out: np.copyto(out, twin[start:stop])


class TestAddColumnSums:
    @pytest.mark.parametrize("nx", [127, 128, 129, 257, 1000, 2001])
    @pytest.mark.parametrize("ncols", [1, 2, 3, 5, 8, 301])
    def test_blocked_sums_against_unblocked(self, rng, nx, ncols):
        # each block's sums start at zero and are added in block order
        for _ in range(30):
            values = rng.standard_normal((nx, ncols))
            blocked, in_order = np.zeros(ncols), np.zeros(ncols)
            for start, stop in row_blocks(nx):
                block = values[start:stop]
                add_column_sums(blocked, block, block)
                in_order += np.add.reduce(block * block, axis=0)
            if ncols > 1:
                # a C-ordered block of two or more columns sums row by
                # row, as numpy's axis-0 reduction does
                assert np.array_equal(blocked, in_order)
            else:
                # one column sums with unrolled partial sums, numpy's
                # reduction pairwise: the last bits may differ
                np.testing.assert_allclose(blocked, in_order, rtol=1e-13)
            # the kernel's energies are these sums
            _, _, energies, _ = walk.data_pass(values, width=ncols)
            assert np.array_equal(blocked, energies)
            np.testing.assert_allclose(blocked, (values**2).sum(axis=0), rtol=1e-12)


def _kernel_terms(a, b, variant):
    """The terms of the kernel's sums written out on whole matrices: per
    twin d d, x y and y y, then the data's x x, with d = a - b and x, y
    the variant's factors."""
    x, y = (a * a, b * b) if variant == "paper" else (a, b)
    return [(a - b) * (a - b), x * y, y * y, x * x]


def _fsum_reference(terms):
    """Per-column math.fsum of terms, and the fsum of its magnitudes."""
    return (
        np.array([math.fsum(column) for column in terms.T]),
        np.array([math.fsum(column) for column in np.abs(terms).T]),
    )


class TestStreamedPass:
    @settings(max_examples=40, deadline=None)
    @given(
        nx=st.sampled_from((1,) + BLOCK_EDGES),
        ncols=st.integers(2, 12),
        variant=st.sampled_from(walk.VARIANTS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sums_match_dense(self, nx, ncols, variant, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((nx, ncols))
        b = rng.standard_normal((nx, ncols))
        # a plain matrix serves: a SnapshotMatrix needs 2 rows
        (got,), data_sums, _, _ = walk.data_pass(a, [_copy_rows(b)], variant)
        a1, b1 = a[:, 1:], b[:, 1:]
        if variant == "paper":
            expect = [(a1 * b1) ** 2, b1**4, a1**4]
        else:
            expect = [a1 * b1, b1**2, a1**2]
        expect = [(a1 - b1) ** 2] + expect
        for value, terms in zip([*got, data_sums], expect):
            np.testing.assert_allclose(value, terms.sum(axis=0), rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        nx=st.sampled_from((2, 127, 128, 129, 257, 1000)),
        ncols=st.integers(2, 9),
        variant=st.sampled_from(walk.VARIANTS),
        window=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kernel_sums_match_fsum(self, nx, ncols, variant, window, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((nx, ncols))
        b = rng.standard_normal((nx, ncols))
        width = ncols - 1 if window else 0
        runs = {
            order: walk.data_pass(np.asarray(a, order=order), [_copy_rows(b)], variant, width)
            for order in "CF"
        }
        (sums,), data_sums, energies, _ = runs["C"]
        got = [*sums, data_sums]
        # blocks of at most 128 rows summed one after another, each term
        # rounded at most four times: within (nx + 4) eps of the sum of
        # the magnitudes, which 1e-12 bounds for nx <= 1000
        for value, terms in zip(got, _kernel_terms(a[:, 1:], b[:, 1:], variant)):
            exact, magnitude = _fsum_reference(terms)
            assert np.all(np.abs(value - exact) <= 1e-12 * magnitude)
        if window:
            exact, _ = _fsum_reference(a[:, :width] ** 2)
            assert np.all(np.abs(energies - exact) <= 1e-12 * exact)
        # the factors d, a^2 and b^2 are formed in C-ordered block buffers,
        # so their sums do not depend on the data's memory order.  Sums
        # that read the data itself (x y and x x of the cosine variant, and
        # the energies) do: numpy reduces an F-ordered block with unrolled
        # partial sums, and the last bits can differ
        (other_sums,), other_data, _, _ = runs["F"]
        reads_data = (False, variant == "cosine", False, variant == "cosine")
        for value, other, loose in zip(got, [*other_sums, other_data], reads_data):
            if not loose:
                assert np.array_equal(value, other)
            else:
                np.testing.assert_allclose(value, other, rtol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        nx=st.sampled_from((2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1)),
        ncols=st.integers(2, 14),
        variant=st.sampled_from(walk.VARIANTS),
        order=st.sampled_from("CF"),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pass_energies_are_column_energies(self, nx, ncols, variant, order, seed):
        # the report's window of the data and compare_projections' call of
        # the kernel on V0 alone: the energies and the products with a
        # basis must agree bit for bit, one-column windows (ncols = 2) and
        # both memory orders included
        rng = np.random.default_rng(seed)
        a = np.asarray(rng.standard_normal((nx, ncols)), order=order)
        b = rng.standard_normal((nx, ncols))
        basis = rng.standard_normal((nx, 3))
        twin = _copy_rows(b)
        sums, data_sums, energy, (product,) = walk.data_pass(
            a, [twin], variant, ncols - 1, [basis]
        )
        v0 = a[:, :-1]
        _, _, col_sq, (alone,) = walk.data_pass(v0, width=ncols - 1, bases=[basis])
        assert np.array_equal(energy, col_sq)
        assert np.array_equal(product, alone)
        np.testing.assert_allclose(energy, np.sum(v0**2, axis=0), rtol=1e-12)
        np.testing.assert_allclose(product, basis.T @ v0, rtol=1e-9, atol=1e-12)
        # and the window leaves the pass's other sums as they were
        plain, plain_data, _, _ = walk.data_pass(a, [twin], variant)
        assert np.array_equal(sums, plain)
        assert np.array_equal(data_sums, plain_data)

    @settings(max_examples=40, deadline=None)
    @given(
        nx=st.sampled_from((2, 127, 128, 129, 257)),
        ncols=st.integers(2, 12),
        count=st.integers(2, 4),
        variant=st.sampled_from(walk.VARIANTS),
        order=st.sampled_from("CF"),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_twins_of_one_pass_keep_their_own_bits(
        self, nx, ncols, count, variant, order, seed
    ):
        # the twins share the data's factors, not their sums: each twin's
        # sums in an n-twin pass are those of its own one-twin pass
        rng = np.random.default_rng(seed)
        a = np.asarray(rng.standard_normal((nx, ncols)), order=order)
        twins = [_copy_rows(rng.standard_normal((nx, ncols))) for _ in range(count)]
        together, data_sums, _, _ = walk.data_pass(a, twins, variant)
        assert together.shape == (count, 3, ncols - 1)
        for sums, twin in zip(together, twins):
            (alone,), alone_data, _, _ = walk.data_pass(a, [twin], variant)
            assert np.array_equal(sums, alone)
            assert np.array_equal(data_sums, alone_data)

    @settings(max_examples=25, deadline=None)
    @given(
        nx=st.sampled_from((2,) + BLOCK_EDGES),
        ncols=st.integers(3, 14),
        rank=st.integers(1, 4),
        variant=st.sampled_from(walk.VARIANTS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_report_and_objectives_match_dense(self, nx, ncols, rank, variant, seed):
        rng = np.random.default_rng(seed)
        snap = make_snapshot(rng.standard_normal((nx, ncols)))
        rank = min(rank, nx, ncols - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            model = rt.fit(snap, rank, seed=seed % 1000)
            fourier = rt.fourier_decomposition(snap)
            ip = rt.InnerProduct(snap.dx)
            report = rt.quality_report(snap, model, fourier, ip, variant=variant)
            j1, j2 = rank_select.objectives(snap, model)
            twin = rt.reconstruct(model).values
        error, corr = _dense_scores(snap.values, twin, variant)
        v0 = snap.values[:, :-1]
        psi = np.linalg.svd(snap.values, full_matrices=False)[0] / np.sqrt(snap.dx)
        assert _rel(report.absolute_error, error) <= 1e-12
        assert _rel(report.correlation, corr) <= 1e-12
        assert _rel(
            report.rod_projection_norm,
            _dense_projection_score(model.modes, v0, snap.dx, model.modes.shape[1]),
        ) <= 1e-12
        assert _rel(
            report.fourier_projection_norm,
            _dense_projection_score(psi, v0, snap.dx, nx),
        ) <= 1e-12
        assert report.gram_deviation == model.gram_deviation
        assert _rel(j1, error) <= 1e-12
        assert _rel(j2, -_dense_scores(snap.values, twin, "paper")[1]) <= 1e-12


    @settings(max_examples=40, deadline=None)
    @given(
        nx=st.sampled_from((2,) + BLOCK_EDGES),
        ncols=st.integers(3, 14),
        rank=st.integers(1, 4),
        variant=st.sampled_from(walk.VARIANTS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_report_scores_are_compare_projections(
        self, nx, ncols, rank, variant, seed
    ):
        rng = np.random.default_rng(seed)
        snap = make_snapshot(rng.standard_normal((nx, ncols)))
        rank = min(rank, nx, ncols - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            model = rt.fit(snap, rank, seed=seed % 1000)
            fourier = rt.fourier_decomposition(snap)
            ip = rt.InnerProduct(snap.dx)
            report = rt.quality_report(snap, model, fourier, ip, variant=variant)
        rho_rod, rho_fourier, _ = rt.compare_projections(
            model.modes, fourier, snap.values[:, :-1], ip
        )
        assert report.rod_projection_norm == rho_rod
        assert report.fourier_projection_norm == rho_fourier


class TestStreamedEdges:
    @pytest.fixture()
    def tall(self, rng):
        """A rank-3 field whose rows span three blocks, and its model."""
        nx, ncols = 2 * BLOCK_ROWS + 3, 9
        values = rng.standard_normal((nx, 3)) @ rng.standard_normal((3, ncols))
        snap = make_snapshot(values)
        return snap, rt.fit(snap, 3, seed=1)

    def _report(self, snap, model):
        return rt.quality_report(
            snap, model, rt.fourier_decomposition(snap), rt.InnerProduct(snap.dx)
        )

    def test_zero_twin_column_same_message(self, tall):
        snap, model = tall
        right = model.right.copy()
        right[:, 4] = 0.0
        zeroed = dataclasses.replace(model, right=right)
        twin = rt.reconstruct(zeroed)
        with pytest.raises(ValueError) as public:
            rt.correlation(snap, twin)
        assert "time index [4]" in str(public.value)
        with pytest.raises(ValueError, match=r"time index \[4\]") as streamed:
            self._report(snap, zeroed)
        assert str(streamed.value) == str(public.value)
        with pytest.raises(ValueError, match=r"time index \[4\]"):
            rank_select.objectives(snap, zeroed)

    def test_zero_data_column_same_message(self, tall):
        snap, model = tall
        values = snap.values.copy()
        values[:, 0] = 0.0
        zero_first = make_snapshot(values)
        with pytest.raises(ValueError) as public:
            empirical.mean_projection_norm(
                model.modes, values[:, :-1], rt.InnerProduct(snap.dx)
            )
        with pytest.raises(ValueError, match=r"index \[0\]") as streamed:
            self._report(zero_first, model)
        assert str(streamed.value) == str(public.value)
        values[:, 6] = 0.0
        with pytest.raises(ValueError, match=r"time index \[6\]"):
            self._report(make_snapshot(values), model)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_amplitude_rejected(self, tall, bad):
        # such a model is never built, so no report, objective or twin
        # sees it
        snap, model = tall
        right = model.right.copy()
        right[1, 5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            dataclasses.replace(model, right=right)

    def test_overflowing_twin_named(
        self, burgers_snapshot, burgers_model, burgers_fourier
    ):
        # finite modes and amplitudes whose twin overflows: every consumer
        # names the non-finite values, and no numpy warning leaks
        big = dataclasses.replace(
            burgers_model,
            left=burgers_model.left * 1e10,
            right=burgers_model.right * 1e300,
        )
        ip = rt.InnerProduct(burgers_snapshot.dx)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as report:
                rt.quality_report(burgers_snapshot, big, burgers_fourier, ip)
            with pytest.raises(ValueError) as objectives:
                rank_select.objectives(burgers_snapshot, big)
            with pytest.raises(rod.SnapshotFault) as twin:
                rt.reconstruct(big)
        for err in (report, objectives, twin):
            assert str(err.value) == walk.NON_FINITE
        assert twin.value.axis == "values"

    def test_twin_overflowing_only_at_t0_named(
        self, burgers_snapshot, burgers_model, burgers_fourier
    ):
        # no sum reads the t_0 column, so only its own check sees it
        at_t0 = np.where(np.arange(burgers_snapshot.t.size) == 0, 1e300, 1.0)
        big = dataclasses.replace(
            burgers_model,
            left=burgers_model.left * 1e10,
            right=burgers_model.right * at_t0,
        )
        left, right = big.left, big.right
        assert np.isfinite(left @ right[:, 1:]).all()
        ip = rt.InnerProduct(burgers_snapshot.dx)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as report:
                rt.quality_report(burgers_snapshot, big, burgers_fourier, ip)
            with pytest.raises(ValueError) as objectives:
                rank_select.objectives(burgers_snapshot, big)
            with pytest.raises(rod.SnapshotFault) as twin:
                rt.reconstruct(big)
        for err in (report, objectives, twin):
            assert str(err.value) == walk.NON_FINITE

    def test_finite_twin_whose_fourth_power_overflows(
        self, burgers_snapshot, burgers_model, burgers_fourier, monkeypatch
    ):
        # sum b^4 overflows, so the pass scans the twin's rows once more,
        # finds them finite and keeps its sums: the correlation is
        # sum a^2 b^2 / (sqrt(sum a^4) * inf) = 0, as before the fused pass
        big = dataclasses.replace(
            burgers_model,
            left=burgers_model.left * 1e40,
            right=burgers_model.right * 1e40,
        )
        ip = rt.InnerProduct(burgers_snapshot.dx)
        walks = count_calls(monkeypatch, walk, "row_blocks")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = rt.quality_report(burgers_snapshot, big, burgers_fourier, ip)
        assert walks["row_blocks"] == 2
        assert report.correlation == 0.0
        assert report.absolute_error == pytest.approx(3.6063794416159133e80, rel=1e-12)
        # data whose a^4 overflows as well: the rescan finds the twin
        # finite, and the NaN correlation is named
        snap = two_mode_field(1e77)
        model = rt.fit(snap, 4, seed=0)
        walks.clear()
        with pytest.raises(
            ValueError, match=r"^quality report field correlation is not finite \(nan\)$"
        ):
            rt.quality_report(
                snap, model, rt.fourier_decomposition(snap), rt.InnerProduct(snap.dx)
            )
        assert walks["row_blocks"] == 2

    def test_reconstruct_is_the_report_twin(self, tall, monkeypatch):
        # the twin rows the report sums are the reconstruction's, bit for bit
        snap, model = tall
        twin = rt.reconstruct(model).values
        seen = np.full(snap.values.shape, np.nan)
        real = walk.modal_rows

        def recording(left, right):
            rows = real(left, right)

            def record(start, stop, out):
                rows(start, stop, out)
                seen[start:stop] = out

            return record

        monkeypatch.setattr(walk, "modal_rows", recording)
        self._report(snap, model)
        assert np.array_equal(seen, twin)

    def test_public_functions_take_row_blocks_of_the_twin(self, tall):
        # one kernel, the same sums: the public functions on the
        # reconstruction give the report's fields bit for bit
        snap, model = tall
        twin = rt.reconstruct(model)
        fourier, ip = rt.fourier_decomposition(snap), rt.InnerProduct(snap.dx)
        for variant in walk.VARIANTS:
            report = rt.quality_report(snap, model, fourier, ip, variant=variant)
            assert rt.absolute_error(snap, twin) == report.absolute_error
            assert rt.correlation(snap, twin, variant) == report.correlation
        error, j2 = rank_select.objectives(snap, model)
        assert (error, -j2) == (rt.absolute_error(snap, twin), rt.correlation(snap, twin))


def test_report_allocates_under_half_the_field():
    rng = np.random.default_rng(4001)
    nx, ncols, rank = 4001, 1001, 10
    basis = np.linalg.qr(rng.standard_normal((nx, rank)))[0]
    snap = rt.SnapshotMatrix(
        values=basis @ rng.standard_normal((rank, ncols)),
        x=np.linspace(0.0, 1.0, nx),
        t=np.arange(ncols) * 0.01,
    )
    model = rt.fit(snap, rank, seed=1)
    fourier = rt.fourier_decomposition(snap)
    ip = rt.InnerProduct(snap.dx)
    tracemalloc.start()
    try:
        rt.quality_report(snap, model, fourier, ip)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * snap.values.nbytes
