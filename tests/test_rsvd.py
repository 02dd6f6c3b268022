import importlib
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rodtwin.linalg import qr_factor, svd_economy
from rodtwin.rsvd import gaussian_test_matrix, range_finder, rsvd

from conftest import NOT_INTEGERS, NUMPY_INTEGERS, not_an_integer

# the package exports the function rsvd under the module's name
rsvd_module = importlib.import_module("rodtwin.rsvd")


class TestGaussianTestMatrix:
    @pytest.mark.parametrize("value", NOT_INTEGERS)
    @pytest.mark.parametrize("name", ["n_rows", "k"])
    def test_count_that_is_not_an_integer_refused(self, name, value):
        counts = dict(n_rows=20, k=2)
        counts[name] = value
        with pytest.raises(ValueError, match=not_an_integer(name, value)):
            gaussian_test_matrix(counts["n_rows"], counts["k"], 1)

    @pytest.mark.parametrize("kind", NUMPY_INTEGERS)
    def test_counts_of_any_integer_type(self, kind):
        draw = gaussian_test_matrix(kind(20), kind(4), 1)
        assert draw.tobytes() == gaussian_test_matrix(20, 4, 1).tobytes()

    def test_deterministic(self):
        a = gaussian_test_matrix(50, 7, 123)
        b = gaussian_test_matrix(50, 7, 123)
        assert np.array_equal(a, b)

    def test_seed_sensitivity(self):
        a = gaussian_test_matrix(50, 7, 123)
        b = gaussian_test_matrix(50, 7, 124)
        assert (a != b).any()

    def test_column_nesting(self):
        # wider draws extend narrower ones for the same seed
        wide = gaussian_test_matrix(40, 9, 5)
        narrow = gaussian_test_matrix(40, 6, 5)
        assert np.array_equal(wide[:, :6], narrow)

    def test_moments(self):
        pooled = np.concatenate(
            [gaussian_test_matrix(500, 4, seed).ravel() for seed in range(5)]
        )
        n = pooled.size
        assert abs(pooled.mean()) < 4.0 / np.sqrt(n)
        assert abs(pooled.var() - 1.0) < 0.1

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            gaussian_test_matrix(3, 5, 0)
        with pytest.raises(ValueError):
            gaussian_test_matrix(3, 0, 0)

    def test_negative_and_huge_seeds_wrap(self):
        a = gaussian_test_matrix(8, 2, -1)
        b = gaussian_test_matrix(8, 2, 2**64 - 1)
        assert np.array_equal(a, b)


class TestRsvd:
    @pytest.mark.parametrize("value", NOT_INTEGERS)
    @pytest.mark.parametrize("name", ["target_rank", "oversampling"])
    def test_count_that_is_not_an_integer_refused(self, rng, name, value):
        counts = dict(target_rank=2, oversampling=0)
        counts[name] = value
        with pytest.raises(ValueError, match=not_an_integer(name, value)):
            rsvd(rng.standard_normal((30, 20)), seed=1, **counts)

    @pytest.mark.parametrize("kind", NUMPY_INTEGERS)
    def test_counts_of_any_integer_type(self, rng, kind):
        v0 = rng.standard_normal((30, 20))
        plain = rsvd(v0, 4, 1, oversampling=2)
        same = rsvd(v0, kind(4), 1, oversampling=kind(2))
        for name in ("U", "sigma", "W"):
            assert getattr(same, name).tobytes() == getattr(plain, name).tobytes(), name

    def test_seed_of_any_integer_type(self, rng):
        # the stream checks its seed: a numpy integer draws its int's
        # stream, and a float is refused even when it is whole
        v0 = rng.standard_normal((30, 20))
        plain, draw = rsvd(v0, 4, 3), gaussian_test_matrix(20, 4, 3)
        for seed in (np.int64(3), np.uint64(3), np.int32(3)):
            assert np.array_equal(gaussian_test_matrix(20, 4, seed), draw)
            same = rsvd(v0, 4, seed)
            for name in ("U", "sigma", "W"):
                assert getattr(same, name).tobytes() == getattr(plain, name).tobytes(), name
        for call in (lambda: rsvd(v0, 4, 3.0), lambda: gaussian_test_matrix(20, 4, 3.0)):
            with pytest.raises(ValueError, match=r"^seed 3\.0 is not an integer$"):
                call()

    def test_exact_rank_two_recovery(self, rng):
        v0 = np.outer(rng.standard_normal(30), rng.standard_normal(20))
        v0 += np.outer(rng.standard_normal(30), rng.standard_normal(20))
        f = rsvd(v0, 2, seed=0)
        back = (f.U * f.sigma) @ f.W.conj().T
        assert np.linalg.norm(back - v0) <= 1e-8 * np.linalg.norm(v0)

    def test_rank_one_scaled_basis(self):
        v0 = np.zeros((6, 4))
        v0[0, 0] = -3.5
        f = rsvd(v0, 1, seed=9)
        assert abs(f.sigma[0] - 3.5) < 1e-12

    def test_determinism(self, rng):
        v0 = rng.standard_normal((25, 18))
        f1 = rsvd(v0, 5, seed=77)
        f2 = rsvd(v0, 5, seed=77)
        assert np.array_equal(f1.U, f2.U)
        assert np.array_equal(f1.sigma, f2.sigma)
        assert np.array_equal(f1.W, f2.W)

    def test_orthonormal_factors(self, rng):
        v0 = rng.standard_normal((40, 30))
        f = rsvd(v0, 8, seed=3)
        assert np.abs(f.U.T @ f.U - np.eye(8)).max() <= 1e-8
        assert np.abs(f.W.T @ f.W - np.eye(8)).max() <= 1e-8
        assert (np.diff(f.sigma) <= 1e-12).all()

    def test_near_optimality_synthetic_decay(self):
        # sigma_i = 2^-i spectrum; randomized residual within 10x of the
        # deterministic truncation residual on every tested seed
        rng = np.random.default_rng(12345)
        qa = np.linalg.qr(rng.standard_normal((101, 101)))[0]
        qb = np.linalg.qr(rng.standard_normal((300, 101)))[0]
        a = (qa * 2.0 ** -np.arange(1, 102)) @ qb.T
        det = svd_economy(a)
        base = np.linalg.norm(
            a - (det.U[:, :10] * det.sigma[:10]) @ det.W[:, :10].conj().T
        )
        for seed in range(20):
            f = rsvd(a, 10, seed)
            resid = np.linalg.norm(a - (f.U * f.sigma) @ f.W.conj().T)
            assert resid <= 10.0 * base

    def test_oversampling_helps(self, rng):
        v0 = rng.standard_normal((60, 50))
        plain = rsvd(v0, 5, seed=2)
        boosted = rsvd(v0, 5, seed=2, oversampling=5)
        det = svd_economy(v0)

        def resid(f):
            return np.linalg.norm(v0 - (f.U * f.sigma) @ f.W.conj().T)

        base = np.linalg.norm(
            v0 - (det.U[:, :5] * det.sigma[:5]) @ det.W[:, :5].conj().T
        )
        assert resid(boosted) <= resid(plain) + 1e-9
        assert resid(boosted) <= 1.2 * base

    def test_degenerate_all_zero(self):
        with pytest.warns(RuntimeWarning, match="all-zero"):
            f = rsvd(np.zeros((10, 6)), 3, seed=0)
        assert_allclose(f.sigma, np.zeros(3))
        assert np.abs(f.U.T @ f.U - np.eye(3)).max() <= 1e-8
        assert np.abs(f.W.T @ f.W - np.eye(3)).max() <= 1e-8

    def test_option_validation(self, rng):
        v0 = rng.standard_normal((10, 8))
        with pytest.raises(ValueError):
            rsvd(v0, 0, seed=0)
        with pytest.raises(ValueError):
            rsvd(v0, 9, seed=0)
        with pytest.raises(ValueError):
            rsvd(v0, 5, seed=0, oversampling=4)


class TestRangeFinder:
    @pytest.fixture()
    def v0_scans(self, monkeypatch):
        """Shapes of the arrays range_finder checks for all zeros."""
        shapes = []
        real = rsvd_module._all_zero

        def spy(a):
            shapes.append(a.shape)
            return real(a)

        monkeypatch.setattr(rsvd_module, "_all_zero", spy)
        return shapes

    def test_nonzero_data_is_not_scanned(self, rng, v0_scans):
        v0 = rng.standard_normal((30, 20))
        q = range_finder(v0, 4, seed=3)
        assert v0_scans.count(v0.shape) == 0
        assert np.array_equal(q, qr_factor(v0 @ gaussian_test_matrix(20, 4, 3))[0])

    def test_zero_data_is_scanned_once(self, v0_scans):
        with pytest.warns(RuntimeWarning, match="all-zero") as record:
            q = range_finder(np.zeros((30, 20)), 4, seed=3)
        assert len(record) == 1
        assert v0_scans.count((30, 20)) == 1
        # the seeded frame, as before the scan moved behind the sample
        assert np.array_equal(q, qr_factor(gaussian_test_matrix(30, 4, 3))[0])

    @pytest.mark.parametrize("shape", [(5,), (0, 4), (4, 0)])
    def test_v0_not_a_nonempty_matrix_rejected(self, shape):
        with pytest.raises(ValueError) as err:
            range_finder(np.ones(shape), 1, seed=3)
        assert str(err.value) == "v0 must be a nonempty 2-D real array"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("func", [range_finder, rsvd])
    def test_non_finite_raw_array_rejected(self, rng, func, bad):
        v0 = rng.standard_normal((30, 20))
        v0[17, 6] = bad
        with pytest.raises(ValueError, match="v0 contains non-finite entries"):
            func(v0, 4, seed=3)

    @pytest.mark.parametrize("func", [range_finder, rsvd])
    def test_overflowing_sample_rejected(self, func):
        # finite entries near the top of the float range whose sample
        # V0 M overflows fail in qr_factor, not as non-finite input
        v0 = np.full((30, 20), 1.5e308)
        v0[::2] *= -1.0
        assert np.isfinite(v0).all()
        with np.errstate(over="ignore"):
            assert not np.isfinite(v0 @ gaussian_test_matrix(20, 4, 3)).all()
            with pytest.raises(ValueError, match="^matrix contains non-finite"):
                func(v0, 4, seed=3)

    def test_finite_data_is_not_copied(self, rng):
        # an elementwise scan of V0 (np.isfinite, V0 != 0, ...) allocates
        # a V0.size-byte mask; freed before the sample is formed, it still
        # lifts the peak by V0.size less the ~0.12 V0.size that the sample
        # and its QR, run alone, take at rank 5
        v0 = rng.standard_normal((2001, 1000))

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        sample_and_qr = peak(
            lambda: qr_factor(v0 @ gaussian_test_matrix(1000, 5, 3))
        )
        sketch = peak(lambda: range_finder(v0, 5, seed=3))
        assert sketch - sample_and_qr < v0.size // 4
