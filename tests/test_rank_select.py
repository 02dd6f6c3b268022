import importlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import rodtwin as rt
from rodtwin import rank_select, rod, walk
from rodtwin.cli import DEFAULT_SEED

from conftest import (
    NOT_INTEGERS,
    NUMPY_INTEGERS,
    count_calls,
    degenerate_field,
    make_snapshot,
    not_an_integer,
    two_mode_field,
)

# the package exports the function rsvd under the module's name
rsvd_module = importlib.import_module("rodtwin.rsvd")


class TestObjectives:
    def test_perfect_twin(self, rng):
        u0 = rng.standard_normal(16)
        values = np.column_stack([u0 * 0.9**i for i in range(8)])
        snap = make_snapshot(values)
        model = rt.fit(snap, 1, seed=0)
        j1, j2 = rank_select.objectives(snap, model)
        assert j1 <= 1e-10
        assert j2 == pytest.approx(-1.0, abs=1e-10)

    def test_error_objective_matches_metric(self, burgers_snapshot, burgers_model):
        j1, j2 = rank_select.objectives(burgers_snapshot, burgers_model)
        twin = rt.reconstruct(burgers_model)
        assert j1 == rt.absolute_error(burgers_snapshot, twin)
        assert j2 == -rt.correlation(burgers_snapshot, twin)
        assert -1.0 <= j2 < 0.0


class TestDominance:
    def _sweep(self, burgers_snapshot):
        return rt.pareto_sweep(burgers_snapshot, 8, seed=1)

    def test_flags_are_consistent(self, burgers_snapshot):
        points = self._sweep(burgers_snapshot)
        sound = [p for p in points if not p.failed]
        for p in sound:
            expect = any(
                q.j1 <= p.j1 and q.j2 <= p.j2 and (q.j1 < p.j1 or q.j2 < p.j2)
                for q in sound
                if q is not p
            )
            assert p.dominated == expect

    def test_at_least_one_point_on_front(self, burgers_snapshot):
        points = self._sweep(burgers_snapshot)
        assert any(not p.dominated and not p.failed for p in points)

    def test_best_error_point_is_on_front(self, burgers_snapshot):
        points = self._sweep(burgers_snapshot)
        best = min((p for p in points if not p.failed), key=lambda p: p.j1)
        assert not best.dominated


class TestSelectRank:
    def test_single_point(self):
        points = [rt.ParetoPoint(rank=3, j1=0.5, j2=-0.9)]
        assert rt.select_rank(points) == 3

    def test_smallest_rank_inside_tolerance(self):
        points = [
            rt.ParetoPoint(rank=5, j1=1e-3, j2=-0.9),
            rt.ParetoPoint(rank=12, j1=1e-8, j2=-0.99),
            rt.ParetoPoint(rank=14, j1=1e-9, j2=-0.999),
        ]
        assert rt.select_rank(points, error_tolerance=1e-6) == 12

    def test_fallback_minimizes_error(self):
        points = [
            rt.ParetoPoint(rank=2, j1=0.4, j2=-0.5),
            rt.ParetoPoint(rank=3, j1=0.1, j2=-0.8),
            rt.ParetoPoint(rank=4, j1=0.3, j2=-0.9),
        ]
        assert rt.select_rank(points, error_tolerance=1e-6) == 3

    def test_failed_points_ignored(self):
        points = [
            rt.ParetoPoint(rank=1, j1=np.inf, j2=np.inf, error="boom"),
            rt.ParetoPoint(rank=2, j1=2e-6, j2=-0.9),
        ]
        assert rt.select_rank(points, error_tolerance=1e-5) == 2
        with pytest.raises(
            ValueError, match="^no successful sweep points; rank 1 failed: boom$"
        ):
            rt.select_rank([points[0]])
        with pytest.raises(ValueError, match="^no successful sweep points$"):
            rt.select_rank([])


class TestParetoSweep:
    @pytest.mark.parametrize("rank_max", NOT_INTEGERS)
    def test_rank_max_that_is_not_an_integer_refused(self, burgers_snapshot, rank_max):
        with pytest.raises(ValueError, match=not_an_integer("rank_max", rank_max)):
            rt.pareto_sweep(burgers_snapshot, rank_max, 1)

    @pytest.mark.parametrize("kind", NUMPY_INTEGERS)
    def test_rank_max_of_any_integer_type(self, burgers_snapshot, kind):
        points = rt.pareto_sweep(burgers_snapshot, kind(3), 1)
        assert points == rt.pareto_sweep(burgers_snapshot, 3, 1)

    def test_rank_one_data_sweep(self, rng):
        u0 = rng.standard_normal(20)
        values = np.column_stack([u0 * 0.85**i for i in range(9)])
        snap = make_snapshot(values)
        with pytest.warns(RuntimeWarning) as record:
            points = rt.pareto_sweep(snap, 5, seed=0)
        # the sketch's QR warns once; each rank's k x k SVD then drops the
        # k - 1 directions beyond the data's rank
        assert [str(w.message) for w in record] == [
            "rank-deficient QR: 4 negligible diagonal entries in R"
        ] + [
            "truncating %d near-zero singular directions before inversion" % n
            for n in (1, 2, 3, 4)
        ]
        assert [p.rank for p in points] == [1, 2, 3, 4, 5]
        # rank 1 already reproduces the data, so it must make the tolerance
        assert points[0].j1 <= 1e-10
        assert rt.select_rank(points) == 1

    def test_deterministic(self, burgers_snapshot):
        a = rt.pareto_sweep(burgers_snapshot, 6, seed=1)
        # a seed of any integer type sweeps as its int
        for seed in (1, np.int64(1), np.uint64(1), np.int32(1)):
            b = rt.pareto_sweep(burgers_snapshot, 6, seed=seed)
            for p, q in zip(a, b):
                assert (p.rank, p.j1, p.j2, p.dominated, p.error) == (
                    q.rank,
                    q.j1,
                    q.j2,
                    q.dominated,
                    q.error,
                )

    def test_rank_max_validation(self, burgers_snapshot):
        with pytest.raises(ValueError, match=re.escape("rank_max 0 outside [1, 101]")):
            rt.pareto_sweep(burgers_snapshot, 0, seed=1)
        with pytest.raises(ValueError, match=re.escape("rank_max 500 outside [1, 101]")):
            rt.pareto_sweep(burgers_snapshot, 500, seed=1)

    def test_non_finite_objectives_fail_their_point(self):
        # scaled by 1e77 the paper correlation's a^4 overflows and j2 is NaN
        snap = two_mode_field(1e77)
        with np.errstate(over="ignore", invalid="ignore"):
            points = rt.pareto_sweep(snap, 4, seed=0)
        assert [p.rank for p in points] == [1, 2, 3, 4]
        for p in points:
            assert p.failed
            assert "non-finite objectives" in p.error and "j2=nan" in p.error
            assert (p.j1, p.j2, p.dominated) == (np.inf, np.inf, False)
        # the error names the first failed rank and why it failed
        with pytest.raises(
            ValueError,
            match=r"no successful sweep points; rank 1 failed: non-finite objectives"
            r" j1=.*, j2=nan$",
        ):
            rt.select_rank(points)

    def test_finite_objectives_unchanged(self):
        points = rt.pareto_sweep(two_mode_field(1.0), 4, seed=0)
        assert not any(p.failed for p in points)
        # the sound sweep of the field, pinned
        expected = [
            (4.431546070170989, -0.5198312964440832),
            (3.322825336507391, -0.7137279394347901),
            (2.2141503773575684, -0.8475271198309516),
        ]
        for p, (j1, j2) in zip(points, expected):
            assert p.j1 == pytest.approx(j1, rel=1e-12)
            assert p.j2 == pytest.approx(j2, rel=1e-12)
        assert points[3].j1 < 1e-13
        assert points[3].j2 == pytest.approx(-1.0, abs=1e-12)
        assert [p.dominated for p in points] == [True, True, True, False]
        assert rt.select_rank(points) == 4

    def test_benchmark_selects_usable_order(self, burgers_snapshot):
        points = rt.pareto_sweep(burgers_snapshot, 20, seed=1)
        assert all(not p.failed for p in points)
        chosen = rt.select_rank(points, error_tolerance=1e-5)
        assert 8 <= chosen <= 15
        j1 = {p.rank: p.j1 for p in points}
        assert j1[chosen] <= 1e-5


def _scoring_walks(rank_max, ncols):
    """The README's count of the sweep's scoring walks: the ranks in
    order, a new walk whenever the next rank's k x ncols coefficients
    would take the walk's total past GROUP_FLOATS floats."""
    walks, held = 1, 0
    for k in range(1, rank_max + 1):
        if held and held + k * ncols > rank_select.GROUP_FLOATS:
            walks, held = walks + 1, 0
        held += k * ncols
    return walks


class TestNestedSketch:
    @settings(max_examples=30, deadline=None)
    @given(
        data_seed=st.integers(0, 2**32 - 1),
        nx=st.integers(3, 60),
        ncols=st.integers(4, 40),
        rank_max=st.integers(1, 10),
        decay=st.floats(0.3, 1.0),
        seed=st.integers(0, 2**63 - 1),
    )
    # data_seed None stands for the 101x301 benchmark
    @example(data_seed=None, nx=0, ncols=0, rank_max=20, decay=0.0, seed=DEFAULT_SEED)
    def test_points_match_per_rank_fits(
        self, burgers_snapshot, data_seed, nx, ncols, rank_max, decay, seed
    ):
        if data_seed is None:
            snap = burgers_snapshot
        else:
            # below full rank, so that every j1 is well away from zero
            rank_max = min(rank_max, nx - 1, ncols - 2)
            g = np.random.default_rng(data_seed)
            m = min(nx, ncols)
            values = (g.standard_normal((nx, m)) * decay ** np.arange(m)) @ (
                g.standard_normal((m, ncols))
            )
            snap = make_snapshot(values)
        for p in rt.pareto_sweep(snap, rank_max, seed):
            if p.failed:
                continue
            j1, j2 = rank_select.objectives(snap, rt.fit(snap, p.rank, seed))
            assert p.j1 == pytest.approx(j1, rel=1e-6, abs=0)
            assert p.j2 == pytest.approx(j2, rel=0, abs=1e-12)

    @pytest.mark.parametrize("reorthonormalize", [False, True])
    def test_fit_is_sketch_then_rank_space_step(self, burgers_snapshot, reorthonormalize):
        snap = burgers_snapshot
        model = rt.fit(snap, 10, DEFAULT_SEED, reorthonormalize=reorthonormalize)
        q, proj = rod.sketch(snap, 10, DEFAULT_SEED)
        basis, eigenvalues, amp = rod.RankSpace(proj).fit(
            10, rt.InnerProduct(snap.dx), reorthonormalize
        )
        # the model's real factors are the lifted real basis and amplitudes
        left, right = model.left, model.right
        assert np.array_equal(left, q @ basis)
        assert np.array_equal(model.eigenvalues, eigenvalues)
        assert np.array_equal(right, amp)

    def test_one_sketch_per_sweep(self, burgers_snapshot, monkeypatch):
        finder = count_calls(monkeypatch, rod, "range_finder")
        draws = count_calls(monkeypatch, rsvd_module, "gaussian_test_matrix")
        rt.pareto_sweep(burgers_snapshot, 20, DEFAULT_SEED)
        assert (finder["range_finder"], draws["gaussian_test_matrix"]) == (1, 1)

    def test_failing_rank_fails_only_its_point(self, rng, monkeypatch):
        real = rod.eig_general

        def fails_at_three(s):
            if s.shape[0] == 3:
                raise rt.LinalgError("boom")
            return real(s)

        monkeypatch.setattr(rod, "eig_general", fails_at_three)
        points = rt.pareto_sweep(make_snapshot(rng.standard_normal((20, 9))), 5, 1)
        assert [p.error for p in points] == [
            "",
            "",
            "stage 'eigendecomposition' failed: boom",
            "",
            "",
        ]
        assert (points[2].j1, points[2].j2) == (np.inf, np.inf)
        assert all(np.isfinite(p.j1) for p in points if not p.failed)

    def test_failing_sketch_fails_every_point(self, rng, monkeypatch):
        def broken(*args):
            raise rt.LinalgError("boom")

        monkeypatch.setattr(rod, "range_finder", broken)
        points = rt.pareto_sweep(make_snapshot(rng.standard_normal((20, 9))), 4, 1)
        assert [p.rank for p in points] == [1, 2, 3, 4]
        assert {p.error for p in points} == {"stage 'rsvd' failed: boom"}
        assert not any(p.dominated for p in points)

    def test_sweep_allocates_under_half_the_field(self, burgers_2001):
        tracemalloc.start()
        try:
            rt.pareto_sweep(burgers_2001, 20, DEFAULT_SEED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * burgers_2001.values.nbytes

    def test_walks_in_groups_of_bounded_coefficients(self, burgers_snapshot, monkeypatch):
        # at rank_max 100 the 101x301 benchmark's C_k hold 1.52M floats in
        # all: ranks 1-82 fill one walk and 83-100 a second.  Holding them
        # all at once took a tracemalloc peak of 14.5 MB, the two walks
        # 10.6 MB; the bound is 1.5 times the GROUP_FLOATS floats of one
        # walk (12.6 MB)
        ncols = burgers_snapshot.values.shape[1]
        assert (_scoring_walks(20, ncols), _scoring_walks(100, ncols)) == (1, 2)
        walks = count_calls(monkeypatch, walk, "row_blocks")
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                # the ranks beyond the data's numerical rank truncate
                warnings.simplefilter("ignore", RuntimeWarning)
                points = rt.pareto_sweep(burgers_snapshot, 100, DEFAULT_SEED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(points) == 100 and not any(p.failed for p in points)
        assert walks["row_blocks"] == _scoring_walks(100, ncols)
        assert peak < 1.5 * 8 * rank_select.GROUP_FLOATS

    def test_benchmark_points_match_fits_as_documented(self, burgers_snapshot):
        # the README's bound on the benchmark: |dj1| / j1 below 5e-8 of
        # fit --rank k at the same seed (measured 1.24e-8)
        snap = burgers_snapshot
        for p in rt.pareto_sweep(snap, 20, DEFAULT_SEED):
            j1, j2 = rank_select.objectives(snap, rt.fit(snap, p.rank, DEFAULT_SEED))
            assert abs(p.j1 - j1) / j1 < 5e-8
            assert p.j2 == pytest.approx(j2, rel=0, abs=1e-12)

    def test_non_finite_twin_fails_only_its_rank(self, rng, monkeypatch):
        snap = make_snapshot(rng.standard_normal((40, 12)))
        sound = rt.pareto_sweep(snap, 5, 1)
        real = rod.RankSpace.fit

        def overflowing_at_three(self, k, ip, reorthonormalize=False):
            basis, eigenvalues, amp = real(self, k, ip, reorthonormalize)
            if k == 3:
                # finite amplitudes whose twin overflows from t_1 on
                amp = amp.copy()
                amp[:, 1:] *= 1e308
            return basis, eigenvalues, amp

        monkeypatch.setattr(rod.RankSpace, "fit", overflowing_at_three)
        walks = count_calls(monkeypatch, walk, "row_blocks")
        with np.errstate(over="ignore", invalid="ignore"):
            points = rt.pareto_sweep(snap, 5, 1)
        # the scoring walk, then rank 3's rows formed again and scanned
        assert walks["row_blocks"] == 2
        assert [p.error for p in points] == ["", "", walk.NON_FINITE, "", ""]
        assert (points[2].j1, points[2].j2) == (np.inf, np.inf)
        for p, q in zip(points, sound):
            if p.rank != 3:
                assert (p.j1, p.j2) == (q.j1, q.j2)


def _explicit_scores(snap, q, c):
    """Error and paper correlation of the explicit twin Q_k Re C_k."""
    twin = rt.SnapshotMatrix(values=q[:, : c.shape[0]] @ c.real, x=snap.x, t=snap.t)
    return rt.absolute_error(snap, twin), rt.correlation(snap, twin)


def _sweep_walk(snap, q, proj, ranks):
    """The (k, C_k) of the ranks, and their points from the sweep's one
    scoring walk."""
    shared, ip = rod.RankSpace(proj), rt.InnerProduct(snap.dx)
    group = []
    for k in ranks:
        coeff, _, amp = shared.fit(k, ip)
        group.append((k, coeff @ amp))
    points = {}
    rank_select._score(snap, q, group, points)
    return group, points


# The walk forms a twin's rows one block at a time and the explicit twin
# in one product, whose entries can differ in the last bit: j1 then moves
# by about eps ||v_j|| / ||v_j - Q_k c_j|| relative.  On the data here it
# did not move at all; on the 2001-point benchmark it moved 9.4e-12.
J1_REL = 1e-12


class TestRankSpaceScoring:
    @settings(max_examples=30, deadline=None)
    @given(
        data_seed=st.integers(0, 2**32 - 1),
        nx=st.integers(3, 60),
        ncols=st.integers(4, 40),
        rank_max=st.integers(1, 10),
        decay=st.floats(0.3, 1.0),
        seed=st.integers(0, 2**63 - 1),
    )
    # data_seed None stands for the 101x301 benchmark
    @example(data_seed=None, nx=0, ncols=0, rank_max=20, decay=0.0, seed=DEFAULT_SEED)
    def test_j1_is_streamed_error_of_explicit_twin(
        self, burgers_snapshot, data_seed, nx, ncols, rank_max, decay, seed
    ):
        if data_seed is None:
            snap = burgers_snapshot
        else:
            # below full rank, so that every j1 is well away from rounding
            rank_max = min(rank_max, nx - 1, ncols - 2)
            g = np.random.default_rng(data_seed)
            m = min(nx, ncols)
            values = (g.standard_normal((nx, m)) * decay ** np.arange(m)) @ (
                g.standard_normal((m, ncols))
            )
            snap = make_snapshot(values)
        q, proj = rod.sketch(snap, rank_max, seed)
        group, points = _sweep_walk(snap, q, proj, range(1, rank_max + 1))
        for k, c in group:
            error, want_corr = _explicit_scores(snap, q, c)
            assert points[k].j1 == pytest.approx(error, rel=J1_REL, abs=0)
            assert -points[k].j2 == pytest.approx(want_corr, rel=0, abs=1e-12)

    def test_benchmark_sweep_data_passes(self, burgers_snapshot, monkeypatch):
        # one walk of the data scores every rank
        walks = count_calls(monkeypatch, walk, "row_blocks")
        points = rt.pareto_sweep(burgers_snapshot, 20, DEFAULT_SEED)
        assert not any(p.failed for p in points)
        assert walks["row_blocks"] == 1

    @pytest.mark.parametrize("nx", [127, 128, 129, 259])
    def test_row_blocks(self, rng, nx):
        # the walk crosses block boundaries
        values = rng.standard_normal((nx, 8)) @ rng.standard_normal((8, 14))
        snap = make_snapshot(values)
        q, proj = rod.sketch(snap, 6, 3)
        group, points = _sweep_walk(snap, q, proj, [6])
        error, want_corr = _explicit_scores(snap, q, group[0][1])
        assert points[6].j1 == pytest.approx(error, rel=J1_REL, abs=0)
        assert -points[6].j2 == pytest.approx(want_corr, rel=0, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 5, 10, 19, 20])
    def test_shared_qr_matches_fresh_factorization(self, burgers_snapshot, k):
        snap = burgers_snapshot
        ip = rt.InnerProduct(snap.dx)
        _, proj = rod.sketch(snap, 20, DEFAULT_SEED)
        shared = rod.RankSpace(proj).fit(k, ip)
        fresh = rod.RankSpace(proj[:k]).fit(k, ip)
        # C = B A and the spectrum do not depend on the modes' phases
        c_shared, c_fresh = shared[0] @ shared[2], fresh[0] @ fresh[2]
        assert np.abs(c_shared - c_fresh).max() <= 1e-12 * np.abs(c_fresh).max()
        assert_allclose(
            np.sort_complex(shared[1]), np.sort_complex(fresh[1]), rtol=0, atol=1e-12
        )


class TestDegenerateData:
    """The README's degenerate-data table, row by row: fit, report and
    sweep at rank 4 on the 41x31 grid."""

    @staticmethod
    def _report(snap, model):
        fourier = rt.fourier_decomposition(snap)
        return rt.quality_report(snap, model, fourier, rt.InnerProduct(snap.dx))

    @staticmethod
    def _sweep_errors(snap):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return [p.error for p in rt.pareto_sweep(snap, 4, seed=1)]

    def test_all_zero_data(self, monkeypatch):
        snap = degenerate_field("all-zero")
        message = "all singular values are negligible; nothing to propagate"
        qr = "^rank-deficient QR: 4 negligible diagonal entries in R$"
        with pytest.warns(RuntimeWarning, match=qr):
            with pytest.raises(ValueError, match="^%s$" % message):
                rt.fit(snap, 4, seed=1)
        # every rank fails in rank space, so the sweep never walks the data
        walks = count_calls(monkeypatch, walk, "row_blocks")
        assert self._sweep_errors(snap) == [message] * 4
        assert walks["row_blocks"] == 0

    def test_zero_column_after_t0(self):
        snap = degenerate_field("zero-column-t5")
        model = rt.fit(snap, 4, seed=1)
        message = "zero column(s) in correlation at time index [5]"
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            self._report(snap, model)
        assert self._sweep_errors(snap) == [message] * 4

    def test_zero_column_at_t0(self):
        snap = degenerate_field("zero-column-t0")
        model = rt.fit(snap, 4, seed=1)
        with pytest.raises(ValueError, match=r"^zero data column\(s\) at index \[0\]$"):
            self._report(snap, model)
        # the objectives skip column 0, so every sweep rank succeeds
        assert self._sweep_errors(snap) == [""] * 4

    def test_rank_above_numerical_rank(self):
        snap = degenerate_field("rank-one")
        with pytest.warns(RuntimeWarning) as record:
            model = rt.fit(snap, 4, seed=1)
        assert [str(w.message) for w in record] == [
            "rank-deficient QR: 3 negligible diagonal entries in R",
            "truncating 3 near-zero singular directions before inversion",
        ]
        assert model.rank == 1
        assert self._report(snap, model).absolute_error < 1e-14
