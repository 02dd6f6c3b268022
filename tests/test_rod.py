import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import rodtwin as rt
from rodtwin import rank_select, rod
from rodtwin.cli import DEFAULT_SEED
from rodtwin.linalg import eig_general
from rodtwin.rsvd import rsvd

from conftest import NOT_INTEGERS, NUMPY_INTEGERS, make_snapshot, not_an_integer


def test_snapshot_matrix_validation():
    with pytest.raises(ValueError):
        rt.SnapshotMatrix(
            values=np.ones((3, 3)), x=np.array([0.0, 1.0, 1.5]), t=np.arange(3.0)
        )
    with pytest.raises(ValueError):
        rt.SnapshotMatrix(
            values=np.ones((2, 3)), x=np.array([0.0, 1.0]), t=np.array([0.0, 2.0, 1.0])
        )
    with pytest.raises(ValueError):
        make_snapshot(np.array([[1.0, np.inf], [0.0, 1.0]]))


def test_snapshot_matrix_shape_must_match_grids():
    with pytest.raises(ValueError) as err:
        rt.SnapshotMatrix(np.zeros((3, 4)), np.arange(3.0), np.arange(5.0))
    assert str(err.value) == "values shape (3, 4) does not match grids (3, 5)"


class TestGridScale:
    """Grid checks scale with the grid's own magnitude."""

    @pytest.mark.parametrize("scale", [1e-14, 1.0, 1e20])
    def test_tiny_uneven_grid_rejected(self, scale):
        # steps 1, 2, 1 times the scale: uneven at every scale
        x = np.array([0.0, 1.0, 3.0, 4.0]) * scale
        with pytest.raises(rod.SnapshotFault) as err:
            rt.SnapshotMatrix(np.ones((4, 3)), x, [0.0, 1.0, 2.0])
        assert (err.value.axis, err.value.index) == ("x", 2)
        with pytest.raises(rod.SnapshotFault) as err:
            rt.SnapshotMatrix(np.ones((3, 4)), [0.0, 1.0, 2.0], x)
        assert (err.value.axis, err.value.index) == ("t", 2)

    @pytest.mark.parametrize("start", [1e6, -1e6 - 1, 1e-300, 0.0])
    def test_offset_linspace_accepted(self, start):
        # linspace rounding moves the steps of the 1e6 grid by 1.2e-8 of
        # the step, 1.2e-16 of the grid's magnitude
        x = np.linspace(start, start + 1.0, 101)
        snap = rt.SnapshotMatrix(np.ones((101, 3)), x, [0.0, 1.0, 2.0])
        assert snap.dx == pytest.approx(0.01, rel=1e-9)

    def test_grid_too_fine_for_its_magnitude_rejected(self):
        # one ulp of 1e13 is a fifth of the step: steps 0.0098 and 0.0117
        x = np.linspace(1e13, 1e13 + 1, 101)
        with pytest.raises(rod.SnapshotFault) as err:
            rt.SnapshotMatrix(np.ones((101, 3)), x, [0.0, 1.0, 2.0])
        assert err.value.axis == "x"
        steps = np.diff(x)
        assert abs(steps[err.value.index - 1] - steps[0]) > 1e-3 * steps[0]

    @pytest.mark.parametrize("dx", [1e-14, 1e-300])
    def test_grids_at_twice_the_step_do_not_match(self, rng, dx):
        values = rng.standard_normal((30, 12))
        model = rt.fit(make_snapshot(values, dx=dx), 3, seed=1)
        other = make_snapshot(values, dx=2 * dx)
        with pytest.raises(ValueError, match="^grid mismatch"):
            rank_select.objectives(other, model)
        assert np.isfinite(rank_select.objectives(make_snapshot(values, dx=dx), model)).all()


def test_inner_product_conventions():
    ip = rt.InnerProduct(0.5)
    f = np.array([1.0 + 1j, 2.0])
    g = np.array([1.0, 1j])
    # <f, g> = dx * sum f conj(g)
    assert ip.dot(f, g) == 0.5 * ((1 + 1j) * 1 + 2.0 * (-1j))
    assert ip.norm(np.array([3.0, 4.0])) == pytest.approx(np.sqrt(0.5 * 25))


def test_snapshot_matrix_scan_holds_no_field_mask(burgers_2001):
    values = burgers_2001.values
    tracemalloc.start()
    try:
        rt.SnapshotMatrix(values=values, x=burgers_2001.x, t=burgers_2001.t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # finiteness is checked one row block at a time
    assert peak < 0.05 * values.nbytes


class TestPropagator:
    def test_unshifted_data_identity_operator(self, rng):
        # v1 = v0 means nothing moves, so the reduced operator is I
        v0 = rng.standard_normal((12, 2)) @ rng.standard_normal((2, 9))
        s = rod.propagator(rsvd(v0, 2, seed=0), v0)
        assert_allclose(s, np.eye(2), atol=1e-10)

    def test_uniform_scaling_spectrum(self, rng):
        v0 = rng.standard_normal((12, 2)) @ rng.standard_normal((2, 9))
        s = rod.propagator(rsvd(v0, 2, seed=0), 2.0 * v0)
        lam = np.sort(eig_general(s)[0].real)
        assert_allclose(lam, [2.0, 2.0], atol=1e-8)

    def test_known_linear_system(self, rng):
        # u_{k+1} = A u_k with a known 2x2 A: the reduced operator is similar to A
        a = np.array([[0.9, 0.3], [-0.2, 0.7]])
        cols = [np.array([1.0, 0.4])]
        for _ in range(10):
            cols.append(a @ cols[-1])
        v = np.column_stack(cols)
        f = rsvd(v[:, :-1], 2, seed=4)
        s = rod.propagator(f, v[:, 1:])
        got = np.sort_complex(eig_general(s)[0])
        want = np.sort_complex(np.linalg.eigvals(a))
        assert_allclose(got, want, atol=1e-8)

    def test_near_zero_direction_truncated(self, rng):
        v0 = np.outer(rng.standard_normal(10), rng.standard_normal(8))
        with pytest.warns(RuntimeWarning) as record:
            s = rod.propagator(rsvd(v0, 2, seed=0), v0)
        assert [str(w.message) for w in record] == [
            "rank-deficient QR: 1 negligible diagonal entries in R",
            "truncating 1 near-zero singular directions before inversion",
        ]
        assert s.shape == (1, 1)


class TestModes:
    def test_identity_eigenvectors_rescale_u(self, rng):
        v0 = rng.standard_normal((30, 12))
        f = rsvd(v0, 4, seed=1)
        ip = rt.InnerProduct(0.1)
        modes = rod.rod_modes(f.U, np.eye(4), ip)
        expected = f.U / np.sqrt(0.1)
        assert_allclose(modes, expected.astype(complex), atol=1e-12)

    def test_symmetric_propagator_gives_orthonormal_modes(self, rng):
        # symmetric dynamics: data built from an orthogonal basis evolving
        # with distinct real decay rates
        basis = np.linalg.qr(rng.standard_normal((40, 3)))[0]
        rates = np.array([0.9, 0.7, 0.4])
        cols = [basis @ (rates**k * np.array([1.0, 1.0, 1.0])) for k in range(12)]
        snap = make_snapshot(np.column_stack(cols))
        model = rt.fit(snap, 3, seed=0)
        dev = rod.mode_gram_deviation(model.modes, rt.InnerProduct(snap.dx))
        assert dev <= 1e-8

    @settings(max_examples=40, deadline=None)
    @given(
        nx=st.sampled_from((2, 7, 40, 129)),
        ncols=st.integers(3, 30),
        data_rank=st.integers(1, 12),
        rank=st.integers(1, 12),
        dx=st.sampled_from((1e-3, 0.1, 7.0)),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**63 - 1),
        reorthonormalize=st.booleans(),
    )
    def test_fit_keeps_every_mode_at_unit_norm(
        self, nx, ncols, data_rank, rank, dx, data_seed, seed, reorthonormalize
    ):
        g = np.random.default_rng(data_seed)
        values = g.standard_normal((nx, data_rank)) @ g.standard_normal((data_rank, ncols))
        rank = min(rank, nx, ncols - 1)
        with warnings.catch_warnings(record=True) as record:
            warnings.filterwarnings("always", "truncating", RuntimeWarning)
            model = rt.fit(make_snapshot(values, dx=dx), rank, seed, reorthonormalize)
        norms = np.sqrt(dx * np.sum(np.abs(model.modes) ** 2, axis=0))
        assert np.abs(norms - 1.0).max() <= 1e-12
        # a mode is lost only with a direction the propagator truncated
        truncated = [str(w.message) for w in record if str(w.message).startswith("truncating")]
        if model.rank < rank:
            assert truncated == [
                "truncating %d near-zero singular directions before inversion"
                % (rank - model.rank)
            ]
        else:
            assert model.rank == rank and not truncated

    def test_unit_norms(self, burgers_model, burgers_ip):
        norms = [burgers_ip.norm(burgers_model.modes[:, j]) for j in range(10)]
        assert_allclose(norms, 1.0, atol=1e-10)

    def test_burgers_gram_deviation_reported(self, burgers_model):
        # near-real conjugate pairs make this basis far from orthonormal;
        # the measured deviation is data, not a failure
        assert 0.0 <= burgers_model.gram_deviation < 1.0


class TestAmplitudes:
    def test_single_column_equal_to_mode(self, rng):
        phi = rng.standard_normal((20, 1))
        ip = rt.InnerProduct(0.05)
        phi = phi / ip.norm(phi[:, 0])
        snap = make_snapshot(np.column_stack([phi[:, 0], phi[:, 0]]), dx=0.05)
        a = rod.amplitudes(phi.astype(complex), snap.values)
        assert_allclose(a, np.ones((1, 2)), atol=1e-10)

    def test_orthonormal_projection_oracle(self, rng):
        basis = np.linalg.qr(rng.standard_normal((25, 4)))[0]
        ip = rt.InnerProduct(0.2)
        phi = (basis / np.sqrt(0.2)).astype(complex)
        snap = make_snapshot(rng.standard_normal((25, 6)), dx=0.2)
        a = rod.amplitudes(phi, snap.values)
        direct = np.array(
            [
                [ip.dot(snap.values[:, i], phi[:, j]) for i in range(6)]
                for j in range(4)
            ]
        )
        assert np.abs(a - direct).max() < 1e-10

    def test_ill_conditioned_warns(self, rng):
        col = rng.standard_normal(15)
        phi = np.column_stack([col, col * (1 + 1e-15)]).astype(complex)
        snap = make_snapshot(rng.standard_normal((15, 4)))
        with pytest.warns(RuntimeWarning) as record:
            rod.amplitudes(phi, snap.values)
        # one fact, one warning: the rank and the condition in one message
        assert len(record) == 1
        message = str(record[0].message)
        assert re.search(r"rank 1 of 2, condition (inf|\d\.\d{3}e\+\d+)", message)


class TestFit:
    @pytest.mark.parametrize("rank", NOT_INTEGERS)
    def test_rank_that_is_not_an_integer_refused(self, burgers_snapshot, rank):
        with pytest.raises(ValueError, match=not_an_integer("rank", rank)):
            rt.fit(burgers_snapshot, rank, 1)

    @pytest.mark.parametrize("kind", NUMPY_INTEGERS)
    def test_rank_of_any_integer_type(self, burgers_snapshot, kind):
        plain = rt.fit(burgers_snapshot, 10, 1)
        model = rt.fit(burgers_snapshot, kind(10), 1)
        assert model.rank == 10
        for name in ("left", "right", "eigenvalues"):
            assert getattr(model, name).tobytes() == getattr(plain, name).tobytes(), name

    def test_geometric_rank_one_sequence(self, rng):
        u0 = rng.standard_normal(18)
        c = 0.8
        cols = [u0 * c**i for i in range(10)]
        snap = make_snapshot(np.column_stack(cols))
        model = rt.fit(snap, 1, seed=0)
        assert model.rank == 1
        assert abs(model.eigenvalues[0] - c) < 1e-8
        ip = rt.InnerProduct(snap.dx)
        direction = u0 / ip.norm(u0)
        aligned = np.abs(ip.dot(model.modes[:, 0], direction))
        assert abs(aligned - 1.0) < 1e-8
        rec = rt.reconstruct(model)
        assert np.linalg.norm(rec.values - snap.values) <= 1e-9 * np.linalg.norm(
            snap.values
        )

    def test_full_rank_reproduction(self, rng):
        values = rng.standard_normal((15, 31))
        snap = make_snapshot(values)
        model = rt.fit(snap, 15, seed=2)
        rel = np.linalg.norm(rt.reconstruct(model).values - values)
        assert rel <= 1e-6 * np.linalg.norm(values)

    def test_rank_bounds(self, burgers_snapshot):
        message = "rank %d outside [1, 101] for this snapshot matrix"
        with pytest.raises(ValueError, match=re.escape(message % 0)):
            rt.fit(burgers_snapshot, 0, seed=0)
        with pytest.raises(ValueError, match=re.escape(message % 102)):
            rt.fit(burgers_snapshot, 102, seed=0)

    def test_monotone_error_in_rank(self, burgers_snapshot):
        errors = []
        for rank in range(1, 17):
            model = rt.fit(burgers_snapshot, rank, DEFAULT_SEED)
            twin = rt.reconstruct(model)
            errors.append(rt.absolute_error(burgers_snapshot, twin))
        for k in range(1, 16):
            assert errors[k] <= errors[k - 1] + 1e-9

    def test_scaling_equivariance(self, burgers_snapshot):
        small = rt.SnapshotMatrix(
            values=burgers_snapshot.values[:, :41],
            x=burgers_snapshot.x,
            t=burgers_snapshot.t[:41],
        )
        scaled = rt.SnapshotMatrix(
            values=2.5 * small.values, x=small.x, t=small.t
        )
        m1 = rt.fit(small, 5, seed=3)
        m2 = rt.fit(scaled, 5, seed=3)
        ip = rt.InnerProduct(small.dx)
        phase = np.array(
            [ip.dot(m2.modes[:, j], m1.modes[:, j]) for j in range(5)]
        )
        assert_allclose(np.abs(phase), 1.0, atol=1e-8)
        expected = phase[:, None] * 2.5 * m1.amplitudes
        assert np.abs(m2.amplitudes - expected).max() < 1e-6

    def test_eigen_residual_invariant(self, burgers_snapshot, burgers_model):
        v0, v1 = burgers_snapshot.values[:, :-1], burgers_snapshot.values[:, 1:]
        f = rsvd(v0, 10, burgers_model.seed)
        s = rod.propagator(f, v1)
        values, vectors = eig_general(s)
        resid = np.linalg.norm(s @ vectors - vectors * values, axis=0)
        assert resid.max() <= 1e-8 * np.linalg.norm(s)
        assert_allclose(np.sort(values), np.sort(burgers_model.eigenvalues))

    def test_reorthonormalize_option(self, burgers_snapshot):
        model = rt.fit(burgers_snapshot, 10, DEFAULT_SEED, reorthonormalize=True)
        dev = rod.mode_gram_deviation(model.modes, rt.InnerProduct(burgers_snapshot.dx))
        assert dev <= 1e-8
        twin = rt.reconstruct(model)
        # the reconstruction spans the same subspace, so accuracy survives
        assert rt.absolute_error(burgers_snapshot, twin) <= 1e-4

    def test_stage_failure_names_the_stage(self, rng, monkeypatch):
        snap = make_snapshot(rng.standard_normal((20, 9)))
        for stage, module, name in [
            ("rank-space QR", np.linalg, "qr"),
            ("rank-space SVD", rod, "svd_economy"),
            ("eigendecomposition", rod, "eig_general"),
        ]:
            real = getattr(module, name)

            def boom(a, *args, real=real):
                # the sketch factors its (20, 3) sample by QR; the
                # rank-space steps factor P0^T, (8, 3), and 3 x 3 matrices
                if a.shape[0] == 20:
                    return real(a, *args)
                raise rt.LinalgError("boom")

            with monkeypatch.context() as patch:
                patch.setattr(module, name, boom)
                with pytest.raises(rt.FitStageError) as info:
                    rt.fit(snap, 3, seed=1)
            assert str(info.value) == "stage '%s' failed: boom" % stage
            assert isinstance(info.value.__cause__, rt.LinalgError)

    def test_stage_value_error_passes_through(self, rng, monkeypatch):
        def reject(s):
            raise ValueError("bad propagator")

        monkeypatch.setattr(rod, "eig_general", reject)
        snap = make_snapshot(rng.standard_normal((20, 9)))
        with pytest.raises(ValueError, match="bad propagator") as info:
            rt.fit(snap, 3, seed=1)
        assert type(info.value) is ValueError


def dense_reference(snap, rank, seed):
    """The nx-sized pipeline: lifted U = Q T, modes U X at unit norm, and
    amplitudes from a least-squares fit against the full snapshot matrix."""
    v0, v1 = snap.values[:, :-1], snap.values[:, 1:]
    f = rsvd(v0, rank, seed)
    s = rod.propagator(f, v1)
    values, vectors = eig_general(s)
    raw = f.U[:, : s.shape[0]] @ vectors
    modes = raw / np.sqrt(snap.dx * np.sum(np.abs(raw) ** 2, axis=0))
    amp = np.linalg.lstsq(modes, snap.values, rcond=None)[0]
    return modes, amp, values


class TestReducedFit:
    @pytest.mark.parametrize("case", ["benchmark", "random_tall"])
    def test_matches_dense_reference(self, case, burgers_snapshot, rng):
        if case == "benchmark":
            snap, rank, seed = burgers_snapshot, 10, DEFAULT_SEED
        else:
            snap, rank, seed = make_snapshot(rng.standard_normal((400, 31))), 12, 5
        modes, amp, values = dense_reference(snap, rank, seed)
        model = rt.fit(snap, rank, seed)
        assert np.abs(model.modes - modes).max() <= 1e-9
        assert_allclose(model.eigenvalues, values, rtol=1e-12, atol=0)
        dense = (modes @ amp).real
        twin = rt.reconstruct(model).values
        assert np.linalg.norm(twin - dense) <= 1e-12 * np.linalg.norm(dense)
        gram = rod.mode_gram_deviation(modes, rt.InnerProduct(snap.dx))
        assert model.gram_deviation == pytest.approx(gram, rel=1e-6, abs=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(
        r=st.integers(1, 8),
        extra_rows=st.integers(0, 40),
        extra_cols=st.integers(1, 30),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_exact_rank_data_reproduced(self, r, extra_rows, extra_cols, data_seed, seed):
        # generalises acceptance criterion 7 to any shape, rank and seed
        g = np.random.default_rng(data_seed)
        values = g.standard_normal((max(2, r + extra_rows), r)) @ g.standard_normal(
            (r, r + extra_cols + 1)
        )
        model = rt.fit(make_snapshot(values), r, seed)
        assert model.rank == r
        err = np.linalg.norm(rt.reconstruct(model).values - values)
        assert err <= 1e-6 * np.linalg.norm(values)


class TestOptimalError:
    """No rank-k matrix is closer to V in the Frobenius norm than its
    truncated SVD (Eckart-Young-Mirsky), so neither is the twin."""

    draws = dict(
        nx=st.sampled_from((2, 7, 40, 127, 129, 300)),
        ncols=st.integers(3, 30),
        rank=st.integers(1, 12),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**63 - 1),
    )

    @staticmethod
    def fit_error(values, rank, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            model = rt.fit(make_snapshot(values), rank, seed)
        return np.linalg.norm(values - rt.reconstruct(model).values)

    @settings(max_examples=40, deadline=None)
    @given(**draws)
    def test_twin_is_no_closer_than_the_truncated_svd(self, nx, ncols, rank, data_seed, seed):
        values = np.random.default_rng(data_seed).standard_normal((nx, ncols))
        rank = min(rank, nx, ncols - 1)
        sigma = np.linalg.svd(values, compute_uv=False)
        optimum = np.sqrt(np.sum(sigma[rank:] ** 2))
        assert self.fit_error(values, rank, seed) >= (1 - 1e-12) * optimum

    @settings(max_examples=40, deadline=None)
    @given(**draws)
    def test_exact_rank_error_is_at_rounding_level(self, nx, ncols, rank, data_seed, seed):
        # 1e-8, a hundredth of criterion 7's bound: the worst of 7,500
        # draws of these shapes was 2.2e-11
        g = np.random.default_rng(data_seed)
        rank = min(rank, nx, ncols - 1)
        values = g.standard_normal((nx, rank)) @ g.standard_normal((rank, ncols))
        assert self.fit_error(values, rank, seed) <= 1e-8 * np.linalg.norm(values)


class TestReconstruct:
    def test_idempotence_at_fixed_rank(self, burgers_snapshot):
        model = rt.fit(burgers_snapshot, 6, seed=0)
        twin = rt.reconstruct(model)
        again = rt.reconstruct(rt.fit(twin, 6, seed=0))
        assert np.abs(again.values - twin.values).max() <= 1e-8

    def test_imaginary_residue_small(self, burgers_model):
        total = burgers_model.modes @ burgers_model.amplitudes
        assert np.abs(total.imag).max() <= 1e-6 * np.abs(total.real).max()

    def test_grid_carried_over(self, burgers_snapshot, burgers_model):
        twin = rt.reconstruct(burgers_model)
        assert np.array_equal(twin.x, burgers_snapshot.x)
        assert np.array_equal(twin.t, burgers_snapshot.t)

    def test_allocates_under_one_and_a_half_fields(self, burgers_2001):
        model = rt.fit(burgers_2001, 10, DEFAULT_SEED)
        tracemalloc.start()
        try:
            twin = rt.reconstruct(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the twin itself is one field; the imaginary part is never
        # whole, and no finiteness mask of the field is made
        assert peak < 1.2 * twin.values.nbytes


def assert_conjugate_exact(model):
    """Each eigenvalue real, with a real mode and amplitude row, or the
    first of an adjacent pair whose second member is its exact conjugate."""
    values, modes, amp = model.eigenvalues, model.modes, model.amplitudes
    j = 0
    while j < values.size:
        if values[j].imag == 0:
            assert not modes[:, j].imag.any() and not amp[j].imag.any(), j
            j += 1
            continue
        assert values[j].imag > 0 and values[j + 1] == np.conj(values[j]), j
        assert np.array_equal(modes[:, j + 1], modes[:, j].conj()), j
        assert np.array_equal(amp[j + 1], amp[j].conj()), j
        j += 2


class TestConjugateForm:
    """Every fitted model is exactly conjugate, so its twin is real, and
    RodModel refuses any other."""

    @settings(max_examples=40, deadline=None)
    @given(
        nx=st.sampled_from((2, 7, 40, 127, 129, 300)),
        ncols=st.integers(3, 30),
        rank=st.integers(1, 12),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**63 - 1),
        reorthonormalize=st.booleans(),
    )
    def test_fitted_models_are_conjugate_exact(
        self, nx, ncols, rank, data_seed, seed, reorthonormalize
    ):
        values = np.random.default_rng(data_seed).standard_normal((nx, ncols))
        rank = min(rank, nx, ncols - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            model = rt.fit(make_snapshot(values), rank, seed, reorthonormalize)
        assert_conjugate_exact(model)
        dense = model.modes @ model.amplitudes
        twin = rt.reconstruct(model).values
        # rounding of the modal sum, entry by entry
        scale = np.abs(model.modes) @ np.abs(model.amplitudes)
        assert (np.abs(twin - dense.real) <= 1e-13 * scale).all()

    def test_real_factors_are_the_twin(self, burgers_model):
        left, right = burgers_model.left, burgers_model.right
        assert left.shape == burgers_model.modes.shape
        assert right.shape == burgers_model.amplitudes.shape
        assert np.array_equal(rt.reconstruct(burgers_model).values, left @ right)

    @pytest.fixture()
    def pair(self, rng):
        """A model of one conjugate pair and one real mode."""
        return rt.RodModel(
            left=rng.standard_normal((6, 3)),
            right=rng.standard_normal((3, 5)),
            eigenvalues=np.array([0.5 + 0.5j, 0.5 - 0.5j, 0.9]),
            seed=0,
            x=np.arange(6) * 0.1,
            t=np.arange(5) * 0.05,
        )

    @pytest.mark.parametrize(
        "field, where, delta, index",
        [
            ("eigenvalues", (1,), 1e-3, 0),
            # a pair without its second member
            ("eigenvalues", (2,), 0.1j, 2),
        ],
    )
    def test_other_models_rejected(self, pair, field, where, delta, index):
        value = getattr(pair, field).copy()
        value[where] += delta
        with pytest.raises(rod.SnapshotFault) as err:
            dataclasses.replace(pair, **{field: value})
        assert (err.value.axis, err.value.index) == ("eigenvalues", index)
        assert str(err.value).startswith("mode %d " % index)

    def test_negative_imaginary_part_first_rejected(self, pair):
        with pytest.raises(rod.SnapshotFault) as err:
            dataclasses.replace(pair, eigenvalues=pair.eigenvalues.conj())
        assert (err.value.axis, err.value.index) == ("eigenvalues", 0)

    @pytest.mark.parametrize("field", ["left", "right", "eigenvalues"])
    def test_non_finite_rejected(self, pair, field):
        bad = getattr(pair, field).copy()
        bad.flat[-1] = np.nan
        with pytest.raises(rod.SnapshotFault, match="non-finite") as err:
            dataclasses.replace(pair, **{field: bad})
        # the entry is in the field's last row
        assert (err.value.axis, err.value.index) == (field, len(bad) - 1)

    @pytest.mark.parametrize(
        "axis, grid, index, what",
        [
            ("x", np.array([0.0]), 0, "needs at least 2 points"),
            ("x", np.array([0.0, 0.1, 0.25, 0.3, 0.4, 0.5]), 2, "must be uniformly spaced"),
            ("t", np.array([0.0, 0.05, 0.05, 0.15, 0.2]), 2, "must be strictly increasing"),
            ("t", np.array([0.0, 0.05, 0.1, np.inf, 0.2]), 3, "contains non-finite entries"),
        ],
    )
    def test_grid_fault_names_axis_and_index(self, pair, axis, grid, index, what):
        # as SnapshotMatrix checks it, so every model can be written and read
        change = {axis: grid}
        if grid.size == 1:
            change["left"] = pair.left[:1]
        with pytest.raises(rod.SnapshotFault) as err:
            dataclasses.replace(pair, **change)
        assert (err.value.axis, err.value.index) == (axis, index)
        assert str(err.value) == "%s grid %s" % (axis, what)

    @pytest.mark.parametrize("field", ["left", "right"])
    def test_complex_factor_rejected(self, pair, field):
        # a complex cell has no place in the model file
        complex_factor = getattr(pair, field) + 0j
        with pytest.raises(ValueError, match="^model left and right factors must be real$"):
            dataclasses.replace(pair, **{field: complex_factor})

    @pytest.mark.parametrize("seed", [2.0, 2.5, "2", None])
    def test_non_integer_seed_rejected(self, pair, seed):
        # the file's seed line is read back as an integer
        with pytest.raises(ValueError, match="^model seed .* is not an integer$"):
            dataclasses.replace(pair, seed=seed)

    def test_fitted_arrays_kept_without_copy(self, burgers_snapshot):
        x, t = burgers_snapshot.x, burgers_snapshot.t
        model = rt.fit(burgers_snapshot, 4, 3)
        again = rt.RodModel(model.left, model.right, model.eigenvalues, np.int64(3), x, t)
        for name in ("left", "right", "eigenvalues"):
            assert getattr(again, name) is getattr(model, name), name
        assert again.x is x and again.t is t
        assert type(again.seed) is int and again.seed == 3
        # a seed of any integer type fits the model of its int
        for seed in (np.int64(3), np.uint64(3), np.int32(3)):
            same = rt.fit(burgers_snapshot, 4, seed)
            for name in ("left", "right", "eigenvalues"):
                assert getattr(same, name).tobytes() == getattr(model, name).tobytes(), name
            assert type(same.seed) is int and same.seed == 3
        with pytest.raises(ValueError, match=r"^seed 3\.0 is not an integer$"):
            rt.fit(burgers_snapshot, 4, 3.0)

    def test_rank_zero_rejected(self, pair):
        with pytest.raises(ValueError, match="^model rank must be at least 1$"):
            dataclasses.replace(
                pair, left=pair.left[:, :0], right=pair.right[:0], eigenvalues=pair.eigenvalues[:0]
            )

    def test_rank_is_the_number_of_eigenvalues(self, pair, burgers_model):
        assert (pair.rank, burgers_model.rank) == (3, 10)

    @pytest.mark.parametrize(
        "change, message",
        [
            # amplitudes of two modes against three modes and eigenvalues
            (
                lambda m: {"right": m.right[:2]},
                "model amplitudes shape (2, 5) is not (3, 5)",
            ),
            # a t grid one point shorter than the amplitude columns
            (
                lambda m: {"t": m.t[:-1]},
                "model amplitudes shape (3, 5) is not (3, 4)",
            ),
            (
                lambda m: {"x": np.arange(7) * 0.1},
                "model modes shape (6, 3) is not (7, 3)",
            ),
            (
                lambda m: {"eigenvalues": m.eigenvalues[:, None]},
                "model eigenvalues shape (3, 1) is not (3,)",
            ),
        ],
    )
    def test_shape_mismatch_names_field(self, pair, change, message):
        with pytest.raises(ValueError) as err:
            dataclasses.replace(pair, **change(pair))
        assert str(err.value) == message


@pytest.mark.parametrize("reorthonormalize", [False, True])
def test_fit_and_report_never_form_the_complex_views(
    burgers_snapshot, burgers_fourier, monkeypatch, reorthonormalize
):
    def refuse(model):
        raise AssertionError("a complex view of the model was formed")

    for name in ("modes", "amplitudes"):
        monkeypatch.setattr(rt.RodModel, name, property(refuse))
    snap = burgers_snapshot
    model = rt.fit(snap, 10, DEFAULT_SEED, reorthonormalize)
    rt.quality_report(snap, model, burgers_fourier, rt.InnerProduct(snap.dx))
    rank_select.objectives(snap, model)
    rt.reconstruct(model)
    # a sweep records a failing rank instead of raising
    assert not any(p.failed for p in rt.pareto_sweep(snap, 12, DEFAULT_SEED))
    with pytest.raises(AssertionError, match="complex view"):
        model.modes


_WARNING_CASES = {
    "propagator": lambda v: rod.propagator(rsvd(v, 2, seed=0), v),
    "fit": lambda v: rt.fit(make_snapshot(v), 2, seed=0),
    "pareto_sweep": lambda v: rt.pareto_sweep(make_snapshot(v), 3, seed=0),
    "rsvd_all_zero": lambda v: rsvd(np.zeros_like(v), 2, seed=0),
}


@pytest.mark.parametrize("case", sorted(_WARNING_CASES))
def test_warnings_point_at_caller(case, rng):
    u0 = rng.standard_normal(20)
    values = np.column_stack([u0 * 0.85**i for i in range(9)])
    with pytest.warns(RuntimeWarning) as record:
        _WARNING_CASES[case](values)
    assert {w.filename for w in record} == {__file__}
