import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import rodtwin as rt
from rodtwin import empirical, walk

from conftest import count_calls, make_snapshot


class TestFourierDecomposition:
    def test_rank_one_mode_is_normalized_column(self, rng):
        u0 = rng.standard_normal(14)
        snap = make_snapshot(np.column_stack([u0, u0]), dx=0.25)
        f = rt.fourier_decomposition(snap)
        assert f.psi.shape == (14, 1)
        ip = rt.InnerProduct(0.25)
        direction = u0 / ip.norm(u0)
        sign = np.sign(f.psi[:, 0] @ direction)
        assert_allclose(sign * f.psi[:, 0], direction, atol=1e-12)

    def test_reconstruction_identity(self, rng):
        snap = make_snapshot(rng.standard_normal((12, 7)))
        f = rt.fourier_decomposition(snap)
        coefficients = snap.dx * (f.psi.T @ snap.values)
        assert np.abs(f.psi @ coefficients - snap.values).max() < 1e-10

    def test_orthonormal_in_discrete_inner_product(self, rng):
        snap = make_snapshot(rng.standard_normal((20, 9)), dx=0.37)
        f = rt.fourier_decomposition(snap)
        gram = snap.dx * (f.psi.conj().T @ f.psi)
        assert np.abs(gram - np.eye(f.psi.shape[1])).max() < 1e-10

    def test_numerical_rank_cutoff(self, rng):
        basis = rng.standard_normal((16, 2))
        values = basis @ rng.standard_normal((2, 5))
        f = rt.fourier_decomposition(make_snapshot(values))
        assert f.psi.shape == (16, 2)

    def test_all_zero_data_keeps_one_direction(self):
        snap = make_snapshot(np.zeros((8, 5)))
        f = rt.fourier_decomposition(snap)
        assert f.psi.shape == (8, 1)
        assert abs(snap.dx * (f.psi[:, 0] @ f.psi[:, 0]) - 1.0) < 1e-12

    def test_sigma_descending(self, burgers_snapshot):
        f = rt.fourier_decomposition(burgers_snapshot)
        # row i of psi^T V has norm sigma_i / sqrt(dx), nonincreasing in i
        sigma = np.linalg.norm(f.psi.T @ burgers_snapshot.values, axis=1)
        assert np.all(np.diff(sigma) <= 1e-12 * sigma[0])
        # dissipative data keeps far fewer active directions than the grid
        assert f.psi.shape[1] < burgers_snapshot.values.shape[0]


class TestProject:
    def test_parallel_component_returned_whole(self, rng):
        u = rng.standard_normal(10)
        ip = rt.InnerProduct(0.1)
        assert_allclose(rt.project(2.0 * u, u, ip), 2.0 * u, atol=1e-12)

    def test_orthogonal_gives_zero(self):
        ip = rt.InnerProduct(1.0)
        phi = np.array([1.0, 0.0, 0.0])
        u = np.array([0.0, 3.0, 0.0])
        assert_allclose(rt.project(phi, u, ip), np.zeros(3), atol=1e-15)

    def test_matches_direct_formula(self, rng):
        dx = 0.05
        phi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        u = rng.standard_normal(8)
        got = rt.project(phi, u, rt.InnerProduct(dx))
        scale = (dx * np.sum(phi * u)) / (dx * np.sum(u * u))
        assert_allclose(got, scale * u, atol=1e-13)

    def test_projection_is_idempotent(self, rng):
        ip = rt.InnerProduct(0.2)
        phi = rng.standard_normal(9)
        u = rng.standard_normal(9)
        once = rt.project(phi, u, ip)
        assert_allclose(rt.project(once, u, ip), once, atol=1e-12)

    def test_zero_column_rejected(self):
        with pytest.raises(ValueError):
            rt.project(np.ones(4), np.zeros(4), rt.InnerProduct(0.5))


class TestMeanProjectionNorm:
    def test_perfectly_aligned_single_pair(self, rng):
        u = rng.standard_normal(12)
        ip = rt.InnerProduct(0.3)
        phi = (u / ip.norm(u))[:, None]
        rho = empirical.mean_projection_norm(phi, u[:, None], ip)
        assert rho == pytest.approx(1.0, abs=1e-12)

    def test_each_aligned_column_contributes_one(self, rng):
        u = rng.standard_normal(12)
        ip = rt.InnerProduct(0.3)
        phi = (u / ip.norm(u))[:, None]
        v0 = np.column_stack([u, 2.0 * u, -0.5 * u])
        rho = empirical.mean_projection_norm(phi, v0, ip)
        assert rho == pytest.approx(3.0, abs=1e-10)

    def test_orthogonal_mode_contributes_zero(self):
        ip = rt.InnerProduct(1.0)
        phi = np.array([[1.0], [0.0]])
        v0 = np.array([[0.0], [2.0]])
        assert empirical.mean_projection_norm(phi, v0, ip) == 0.0

    def test_column_rescale_invariance(self, rng):
        ip = rt.InnerProduct(0.02)
        modes = rng.standard_normal((15, 3)) + 1j * rng.standard_normal((15, 3))
        v0 = rng.standard_normal((15, 6))
        base = empirical.mean_projection_norm(modes, v0, ip)
        scaled = v0.copy()
        scaled[:, 2] *= 17.0
        scaled[:, 4] *= -0.003
        assert empirical.mean_projection_norm(modes, scaled, ip) == pytest.approx(
            base, rel=1e-10
        )

    def test_nominal_mode_count_divides(self, rng):
        ip = rt.InnerProduct(0.1)
        modes = rng.standard_normal((10, 2))
        v0 = rng.standard_normal((10, 5))
        rho = empirical.mean_projection_norm(modes, v0, ip)
        half = empirical.mean_projection_norm(modes, v0, ip, mode_count=4)
        assert half == pytest.approx(rho / 2.0, rel=1e-12)

    def test_mode_count_is_an_integer(self, rng):
        # read through linalg.integer, as fit reads its rank: 10.9 is
        # refused, not truncated to 10, and a numpy integer is its int
        ip = rt.InnerProduct(0.1)
        modes = rng.standard_normal((12, 3))
        v0 = rng.standard_normal((12, 5))
        with pytest.raises(ValueError, match=r"^mode_count 10\.9 is not an integer$"):
            empirical.mean_projection_norm(modes, v0, ip, mode_count=10.9)
        plain = empirical.mean_projection_norm(modes, v0, ip, mode_count=10)
        numpy_int = empirical.mean_projection_norm(modes, v0, ip, mode_count=np.int64(10))
        assert numpy_int.hex() == plain.hex()

    def test_unit_modes_bounded_by_column_count(self, rng):
        # Cauchy-Schwarz: each (mode, column) term is at most 1
        ip = rt.InnerProduct(0.4)
        v0 = rng.standard_normal((11, 7))
        for _ in range(5):
            phi = rng.standard_normal(11)
            phi = (phi / ip.norm(phi))[:, None]
            rho = empirical.mean_projection_norm(phi, v0, ip)
            assert 0.0 <= rho <= 7.0 + 1e-12

    def test_error_cases(self, rng):
        ip = rt.InnerProduct(0.1)
        modes = rng.standard_normal((6, 2))
        v0 = rng.standard_normal((6, 3))
        v0[:, 1] = 0.0
        with pytest.raises(ValueError, match=r"\[1\]"):
            empirical.mean_projection_norm(modes, v0, ip)
        with pytest.raises(ValueError):
            empirical.mean_projection_norm(modes, rng.standard_normal((6, 3)), ip, mode_count=1)


class TestCompareProjections:
    def test_self_comparison_never_dominates(self, rng):
        snap = make_snapshot(rng.standard_normal((9, 6)))
        f = rt.fourier_decomposition(snap)
        ip = rt.InnerProduct(snap.dx)
        v0 = snap.values[:, :-1]
        rod, four, dominates = rt.compare_projections(
            f.psi, f, v0, ip, same_rank=True
        )
        assert rod == four
        assert dominates is False

    def test_default_divisor_is_grid_dimension(self, rng):
        snap = make_snapshot(rng.standard_normal((9, 6)))
        f = rt.fourier_decomposition(snap)
        ip = rt.InnerProduct(snap.dx)
        v0 = snap.values[:, :-1]
        _, four, _ = rt.compare_projections(f.psi, f, v0, ip)
        direct = empirical.mean_projection_norm(f.psi, v0, ip, mode_count=9)
        assert four == pytest.approx(direct, rel=1e-14)

    @pytest.mark.parametrize("same_rank", [False, True])
    def test_mismatched_fourier_modes_rejected(self, rng, same_rank):
        snap = make_snapshot(rng.standard_normal((9, 6)))
        ip = rt.InnerProduct(snap.dx)
        v0 = snap.values[:, :-1]
        modes = rng.standard_normal((9, 2))
        for values in (snap.values[:, :-1], snap.values[1:]):
            f = rt.fourier_decomposition(make_snapshot(values))
            with pytest.raises(ValueError, match="do not match"):
                rt.compare_projections(modes, f, v0, ip, same_rank=same_rank)

    @pytest.mark.parametrize("same_rank", [False, True])
    def test_other_inner_product_rejected(self, rng, same_rank):
        # the scores scale with ip.dx, so it must be the baseline's own
        snap = make_snapshot(rng.standard_normal((9, 6)), dx=0.1)
        f, v0 = rt.fourier_decomposition(snap), snap.values[:, :-1]
        modes = rng.standard_normal((9, 2))
        for dx in (1.0, 0.1 * (1 + 2e-12)):
            message = "^inner product dx %r does not match the data's dx 0.1$" % dx
            with pytest.raises(ValueError, match=message):
                rt.compare_projections(modes, f, v0, rt.InnerProduct(dx), same_rank=same_rank)
        # within 1e-12 of the grid's own step
        near = rt.compare_projections(modes, f, v0, rt.InnerProduct(0.1 * (1 + 1e-13)))
        same = rt.compare_projections(modes, f, v0, rt.InnerProduct(0.1))
        assert near == pytest.approx(same, rel=1e-12)

    @pytest.mark.parametrize("same_rank", [False, True])
    def test_overflowing_score_raises_without_warning(
        self, burgers_snapshot, burgers_model, same_rank
    ):
        # at 1e160 the squared products overflow and the model's score
        # reads NaN: it is named, not reported as non-dominance
        big = rt.SnapshotMatrix(
            values=burgers_snapshot.values * 1e160, x=burgers_snapshot.x, t=burgers_snapshot.t
        )
        fourier, ip = rt.fourier_decomposition(big), rt.InnerProduct(big.dx)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValueError, match=r"^projection score rho_rod is not finite \(nan\)$"
            ):
                rt.compare_projections(
                    burgers_model.modes, fourier, big.values[:, :-1], ip, same_rank
                )

    def test_rank_one_bases_agree(self, rng):
        u0 = rng.standard_normal(13)
        values = np.column_stack([u0 * 0.9**i for i in range(6)])
        snap = make_snapshot(values)
        ip = rt.InnerProduct(snap.dx)
        model = rt.fit(snap, 1, seed=0)
        f = rt.fourier_decomposition(snap)
        rod, four, _ = rt.compare_projections(
            model.modes, f, snap.values[:, :-1], ip, same_rank=True
        )
        assert rod == pytest.approx(four, rel=1e-8)

    def test_column_energies_summed_once(self, rng, monkeypatch):
        # each scorer walks the data once, through the pass kernel; the
        # report sums the energies in its own walk
        snap = make_snapshot(rng.standard_normal((300, 12)))
        model = rt.fit(snap, 3, seed=1)
        ip = rt.InnerProduct(snap.dx)
        f = rt.fourier_decomposition(snap)
        v0 = snap.values[:, :-1]
        walks = count_calls(monkeypatch, walk, "row_blocks")
        for call in (
            lambda: rt.compare_projections(model.modes, f, v0, ip),
            lambda: rt.compare_projections(model.modes, f, v0, ip, same_rank=True),
            lambda: empirical.mean_projection_norm(model.modes, v0, ip),
            lambda: rt.quality_report(snap, model, f, ip),
        ):
            walks.clear()
            call()
            assert walks["row_blocks"] == 1

    def test_benchmark_model_dominates(
        self, burgers_snapshot, burgers_model, burgers_fourier
    ):
        ip = rt.InnerProduct(burgers_snapshot.dx)
        v0 = burgers_snapshot.values[:, :-1]
        rod, four, dominates = rt.compare_projections(
            burgers_model.modes, burgers_fourier, v0, ip
        )
        assert dominates is True
        assert rod > four


def _stacked_score(modes, v0, dx, mode_count):
    """The score from the stacked [Re, Im] rows of every mode, pairs
    and all: sum |<phi_i, u_j>|^2 / <u_j, u_j> / m."""
    inner = dx * (np.vstack([modes.real.T, modes.imag.T]) @ v0)
    return float(np.sum(inner**2 / (dx * np.sum(v0**2, axis=0))) / mode_count)


def _hide_outside_the_walk(monkeypatch, values, columns):
    """Fill values[:, :columns] with NaN except while walk.row_blocks has
    yielded a block: the block's rows hold their true values from its
    yield until the walk moves on.  A read of those columns outside a
    walk then gives NaN."""
    truth = values[:, :columns].copy()
    values[:, :columns] = np.nan
    real = walk.row_blocks

    def hiding(nx):
        for start, stop in real(nx):
            values[start:stop, :columns] = truth[start:stop]
            yield start, stop
            values[start:stop, :columns] = np.nan

    monkeypatch.setattr(walk, "row_blocks", hiding)


class TestWeightedRealBasis:
    @settings(max_examples=60, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(("real", "pair", "complex")), min_size=1, max_size=6),
        nx=st.integers(2, 60),
        ncols=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_stacked_formula(self, kinds, nx, ncols, seed):
        # real modes, exactly conjugate pairs and unpaired complex modes
        rng = np.random.default_rng(seed)
        columns, weights = [], []
        for kind in kinds:
            phi = rng.standard_normal(nx) + 1j * rng.standard_normal(nx)
            if kind == "real":
                columns.append(phi.real + 0j)
                weights.append(1.0)
            elif kind == "pair":
                columns += [phi, phi.conj()]
                weights += [2.0, 2.0]
            else:
                columns.append(phi)
                weights += [1.0, 1.0]
        modes = np.column_stack(columns)
        _, got = empirical._real_basis(modes)
        assert got.tolist() == weights
        v0 = rng.standard_normal((nx, ncols))
        ip = rt.InnerProduct(0.37)
        score = empirical.mean_projection_norm(modes, v0, ip)
        stacked = _stacked_score(modes, v0, ip.dx, modes.shape[1])
        assert score == pytest.approx(stacked, rel=1e-14, abs=0)

    def test_fitted_model_basis_is_its_real_factor(self, burgers_model):
        # a pair's Re and Im columns are the left real factor's columns
        basis, weights = empirical._real_basis(burgers_model.modes)
        assert np.array_equal(basis, burgers_model.left)
        assert weights.tolist() == np.where(
            burgers_model.eigenvalues.imag == 0, 1.0, 2.0
        ).tolist()


class TestProductsInsideTheWalk:
    """Every product with V0 runs inside the pass's walk, block by block:
    with V0 hidden outside the walk the scores keep their bits."""

    @pytest.fixture()
    def tall(self, rng):
        nx, ncols = 2 * walk.BLOCK_ROWS + 3, 9
        values = rng.standard_normal((nx, 3)) @ rng.standard_normal((3, ncols))
        snap = make_snapshot(values + 1e-3 * rng.standard_normal((nx, ncols)))
        return snap, rt.fit(snap, 3, seed=1)

    def test_report_and_compare(self, tall, monkeypatch):
        snap, model = tall
        ip = rt.InnerProduct(snap.dx)
        f = rt.fourier_decomposition(snap)
        v0 = snap.values[:, :-1]
        calls = (
            lambda: rt.quality_report(snap, model, f, ip),
            lambda: rt.compare_projections(model.modes, f, v0, ip),
            lambda: rt.compare_projections(model.modes, f, v0, ip, same_rank=True),
            lambda: empirical.mean_projection_norm(model.modes, v0, ip),
        )
        f.psi  # the SVD reads V itself; decompose before hiding
        want = [call() for call in calls]
        _hide_outside_the_walk(monkeypatch, snap.values, v0.shape[1])
        assert [call() for call in calls] == want

    def test_psi_score_walks_again(self, rng, monkeypatch):
        # a column too small for the closed form: psi is scored in a
        # second walk, not in a product of its own
        values = rng.standard_normal((2 * walk.BLOCK_ROWS + 3, 10))
        values[:, 3] *= 1e-9
        snap = make_snapshot(values)
        ip = rt.InnerProduct(snap.dx)
        f = rt.fourier_decomposition(snap)
        v0 = snap.values[:, :-1]
        f.psi
        modes = v0[:, :1].copy()
        want = rt.compare_projections(modes, f, v0, ip)
        walks = count_calls(monkeypatch, walk, "row_blocks")
        _hide_outside_the_walk(monkeypatch, snap.values, v0.shape[1])
        assert rt.compare_projections(modes, f, v0, ip) == want
        assert walks["row_blocks"] == 2


def _forbid_svd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Fourier SVD was computed")

    monkeypatch.setattr(empirical, "svd_economy", refuse)


class TestLazyBaseline:
    def test_report_and_compare_never_decompose(self, rng, monkeypatch):
        snap = make_snapshot(rng.standard_normal((30, 12)))
        model = rt.fit(snap, 3, seed=1)
        ip = rt.InnerProduct(snap.dx)
        v0 = snap.values[:, :-1]
        _forbid_svd(monkeypatch)
        f = rt.fourier_decomposition(snap)
        report = rt.quality_report(snap, model, f, ip)
        assert report.fourier_projection_norm == 11 / 30
        _, four, _ = rt.compare_projections(model.modes, f, v0, ip)
        assert four == 11 / 30
        other = rt.fourier_decomposition(make_snapshot(snap.values[1:]))
        with pytest.raises(ValueError, match="do not match"):
            rt.compare_projections(model.modes, other, v0, ip)
        with pytest.raises(ValueError, match="do not match"):
            rt.compare_projections(model.modes, other, v0, ip, same_rank=True)
        zero = v0.copy()
        zero[:, 4] = 0.0
        with pytest.raises(ValueError, match=r"index \[4\]"):
            rt.compare_projections(model.modes, f, zero, ip)

    @settings(max_examples=60, deadline=None)
    @given(
        nx=st.integers(2, 40),
        ncols=st.integers(2, 40),
        rank=st.integers(1, 40),
        dx=st.floats(1e-4, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # a column of energy 2.2e-9 against a total of 6.94 fails the bound
    @example(nx=2, ncols=27, rank=1, dx=1.0, seed=83138336)
    def test_closed_form_equals_psi_score(self, nx, ncols, rank, dx, seed):
        # covers nx < nt, nx > nt and, for rank < min(nx, ncols), rank-deficient data
        rng = np.random.default_rng(seed)
        rank = min(rank, nx, ncols)
        values = rng.standard_normal((nx, rank)) @ rng.standard_normal((rank, ncols))
        snap = make_snapshot(values, dx=dx)
        ip = rt.InnerProduct(snap.dx)
        v0 = values[:, :-1]
        f = rt.fourier_decomposition(snap)
        score = rt.compare_projections(v0[:, :1], f, v0, ip)[1]
        direct = empirical.mean_projection_norm(f.psi, v0, ip, mode_count=nx)
        # the documented bound, evaluated as compare_projections does
        col_sq = ip.dx * np.einsum("ij,ij->j", v0, v0)
        frobenius_sq = col_sq.sum() + ip.dx * float(values[:, -1] @ values[:, -1])
        cutoff_sq = empirical.RANK_CUTOFF**2
        if cutoff_sq * frobenius_sq <= np.finfo(float).eps * col_sq.min():
            assert score == (ncols - 1) / nx
        else:
            assert score == direct
        assert score == pytest.approx(direct, rel=1e-12)

    def test_tiny_column_scores_with_psi(self, rng, monkeypatch):
        # the bound fails, so psi is computed; every column still lies in
        # its span, and the psi product keeps the tiny column's accuracy
        values = rng.standard_normal((25, 10))
        values[:, 3] *= 1e-9
        snap = make_snapshot(values)
        ip = rt.InnerProduct(snap.dx)
        v0 = values[:, :-1]
        with monkeypatch.context() as patch:
            _forbid_svd(patch)
            with pytest.raises(AssertionError, match="SVD was computed"):
                f = rt.fourier_decomposition(snap)
                rt.compare_projections(v0[:, :1], f, v0, ip)
        f = rt.fourier_decomposition(snap)
        score = rt.compare_projections(v0[:, :1], f, v0, ip)[1]
        assert score == empirical.mean_projection_norm(f.psi, v0, ip, mode_count=25)
        assert score == pytest.approx(9 / 25, rel=1e-12)
