import dataclasses

import numpy as np
import pytest

import rodtwin as rt
from rodtwin import io

from conftest import make_snapshot


class TestTimeAverage:
    def test_constant(self):
        assert rt.time_average([4.0, 4.0, 4.0]) == 4.0

    def test_small_sequence(self):
        assert rt.time_average([1.0, 2.0, 3.0]) == 2.0

    def test_ramp(self):
        assert rt.time_average(np.arange(101.0)) == 50.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rt.time_average([])


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
        direct = rt.mean_projection_norm(
            burgers_fourier.psi,
            burgers_snapshot.values[:, :-1],
            burgers_ip,
            mode_count=burgers_snapshot.n_space,
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

    def test_text_round_trip(
        self, burgers_snapshot, burgers_model, burgers_fourier, burgers_ip
    ):
        rep = rt.quality_report(
            burgers_snapshot, burgers_model, burgers_fourier, burgers_ip
        )
        text = io.report_text(rep)
        back = io.parse_report_text(text)
        assert back == rep
