"""Kernel tests, each factorization checked against an independent route:
Jacobi rotations for singular values, characteristic-polynomial root
finding for eigenvalues, sign-change bisection on the recurrence for
the Gauss-Hermite nodes, and the normal equations for least squares.
"""

import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import rodtwin as rt
from rodtwin import empirical, linalg, rod
from rodtwin.burgers import gauss_hermite
from rodtwin.linalg import (
    SvdFactors,
    eig_general,
    least_squares,
    numerical_rank,
    qr_factor,
    svd_economy,
)

from conftest import make_snapshot, two_mode_field


def jacobi_eigenvalues(a, sweeps=60):
    """Cyclic Jacobi iteration for a symmetric matrix; returns sorted values."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(a**2) - np.sum(np.diag(a) ** 2))
        if off < 1e-14 * max(1.0, np.abs(np.diag(a)).max()):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = 0.5 * np.arctan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))


def char_poly_coeffs(a):
    """Characteristic polynomial by the trace recurrence, leading coeff 1."""
    n = a.shape[0]
    coeffs = [1.0]
    m = np.array(a, dtype=float)
    for k in range(1, n + 1):
        c = -np.trace(m) / k
        coeffs.append(c)
        m = a @ (m + c * np.eye(n))
    return np.array(coeffs)


def durand_kerner_roots(coeffs, iterations=400):
    """Simultaneous-iteration roots of a monic polynomial."""
    n = len(coeffs) - 1
    roots = (0.4 + 0.9j) ** np.arange(1, n + 1)
    for _ in range(iterations):
        vals = np.polyval(coeffs, roots)
        new = roots.copy()
        for i in range(n):
            denom = np.prod(roots[i] - np.delete(roots, i))
            new[i] = roots[i] - vals[i] / denom
        if np.abs(new - roots).max() < 1e-13:
            roots = new
            break
        roots = new
    return roots


class TestQr:
    def test_identity(self):
        q, r = qr_factor(np.eye(3))
        assert_allclose(np.abs(q), np.eye(3), atol=1e-14)
        assert_allclose(np.abs(r), np.eye(3), atol=1e-14)

    def test_pythagorean_column(self):
        a = np.array([[3.0, 0.0], [4.0, 0.0]])
        with pytest.warns(RuntimeWarning, match="rank-deficient"):
            q, r = qr_factor(a)
        assert_allclose(np.abs(q[:, 0]), [0.6, 0.8], atol=1e-14)
        assert abs(abs(r[0, 0]) - 5.0) < 1e-14

    def test_reconstruction_random(self, rng):
        a = rng.standard_normal((20, 5))
        q, r = qr_factor(a)
        assert np.linalg.norm(q @ r - a) <= 1e-10 * np.linalg.norm(a)
        assert np.abs(q.T @ q - np.eye(5)).max() < 1e-10

    def test_wide_rejected(self):
        with pytest.raises(ValueError):
            qr_factor(np.ones((2, 3)))

    @pytest.mark.parametrize("x_scale, data_scale", [(1e26, 1.0), (1.0, 1e-20)])
    def test_negligible_relative_to_largest_entry(self, x_scale, data_scale):
        # the rank-4 two-mode field keeps all four directions at rank 4;
        # scaling the grid (the reorthonormalizing QR) or the data (the
        # range finder's QR) must not make R's diagonal look negligible
        base = two_mode_field(data_scale)
        snap = rt.SnapshotMatrix(values=base.values, x=base.x * x_scale, t=base.t)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model = rt.fit(snap, 4, 1, reorthonormalize=x_scale != 1.0)
        assert model.rank == 4

    def test_zero_matrix_flags_every_entry(self):
        with pytest.warns(RuntimeWarning, match="3 negligible diagonal entries"):
            qr_factor(np.zeros((5, 3)))


class TestSvd:
    def test_diagonal(self):
        f = svd_economy(np.diag([3.0, 1.0]))
        assert_allclose(f.sigma, [3.0, 1.0], atol=1e-14)

    def test_rank_one_outer(self, rng):
        a = rng.standard_normal(7)
        b = rng.standard_normal(5)
        f = svd_economy(np.outer(a, b))
        assert abs(f.sigma[0] - np.linalg.norm(a) * np.linalg.norm(b)) < 1e-12
        assert f.sigma[1:].max() < 1e-12 * f.sigma[0]

    def test_against_jacobi_oracle(self, rng):
        a = rng.standard_normal((30, 10))
        f = svd_economy(a)
        oracle = np.sqrt(np.maximum(jacobi_eigenvalues(a.T @ a), 0.0))[::-1]
        assert_allclose(f.sigma, oracle, rtol=1e-8, atol=1e-8)

    def test_reconstruction_and_order(self, rng):
        for trial in range(5):
            m = int(rng.integers(2, 100))
            n = int(rng.integers(2, 100))
            a = rng.standard_normal((m, n))
            f = svd_economy(a)
            k = min(m, n)
            assert f.sigma.shape == (k,)
            assert (np.diff(f.sigma) <= 1e-12).all()
            back = (f.U * f.sigma) @ f.W.conj().T
            assert np.linalg.norm(back - a) <= 1e-9 * np.linalg.norm(a)
            assert np.abs(f.U.conj().T @ f.U - np.eye(k)).max() < 1e-10
            assert np.abs(f.W.conj().T @ f.W - np.eye(k)).max() < 1e-10

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            svd_economy(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestEigGeneral:
    def test_diagonal(self):
        values = eig_general(np.diag([2.0, 5.0]))[0]
        assert_allclose(sorted(values.real), [2.0, 5.0], atol=1e-12)
        assert np.abs(values.imag).max() < 1e-12

    def test_rotation_spectrum(self):
        values = eig_general(np.array([[0.0, -1.0], [1.0, 0.0]]))[0]
        got = np.sort_complex(values)
        assert_allclose(got, [-1j, 1j], atol=1e-12)

    def test_conjugate_pairs_adjacent(self, rng):
        s = rng.standard_normal((6, 6))
        values = eig_general(s)[0]
        i = 0
        while i < 6:
            v = values[i]
            if abs(v.imag) > 1e-12:
                assert abs(values[i + 1] - np.conj(v)) < 1e-9
                i += 2
            else:
                i += 1

    def test_residuals_and_unit_vectors(self, rng):
        s = rng.standard_normal((12, 12))
        values, vectors = eig_general(s)
        norm_s = np.linalg.norm(s)
        resid = np.linalg.norm(s @ vectors - vectors * values, axis=0)
        assert resid.max() <= 1e-8 * norm_s
        assert_allclose(np.linalg.norm(vectors, axis=0), 1.0, atol=1e-12)

    def test_symmetric_input_real_values(self, rng):
        s = rng.standard_normal((9, 9))
        s = s + s.T
        values = eig_general(s)[0]
        assert np.abs(values.imag).max() <= 1e-9 * np.linalg.norm(s)

    @pytest.mark.parametrize(
        "s, message",
        [
            (np.ones((2, 3)), "eig_general needs a square matrix, got 2x3"),
            (np.array([[1.0, 1j], [0.0, 2.0]]), "eig_general expects a real matrix"),
        ],
    )
    def test_non_square_or_complex_refused(self, s, message):
        with pytest.raises(ValueError) as err:
            eig_general(s)
        assert str(err.value) == message

    def test_char_poly_oracle(self, rng):
        # independent route: trace-recurrence characteristic polynomial,
        # then simultaneous root iteration
        s = rng.standard_normal((8, 8))
        values = eig_general(s)[0]
        roots = durand_kerner_roots(char_poly_coeffs(s))
        remaining = list(values)
        for root in roots:
            dist = [abs(root - lam) for lam in remaining]
            j = int(np.argmin(dist))
            assert dist[j] < 1e-6
            remaining.pop(j)


class TestEigSymTridiag:
    """The symmetric tridiagonal Jacobi matrix of the Hermite recurrence,
    as gauss_hermite solves it."""

    def test_hermite_recurrence_matrix(self):
        # eigenvalues must be the degree-10 Hermite roots; find those
        # independently by sign-change bisection on the recurrence
        n = 10
        values = gauss_hermite(n).nodes
        assert_allclose(values, -values[::-1], atol=1e-12)

        def hermite(x):
            hk1, hk = 0.0, 1.0
            for k in range(n):
                hk1, hk = hk, 2.0 * x * hk - 2.0 * k * hk1
            return hk

        grid = np.linspace(-4.0, 4.0, 20001)
        sign = np.sign([hermite(g) for g in grid])
        roots = []
        for i in np.flatnonzero(np.diff(sign) != 0):
            lo, hi = grid[i], grid[i + 1]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if hermite(lo) * hermite(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            roots.append(0.5 * (lo + hi))
        assert len(roots) == n
        assert_allclose(values, np.array(roots), atol=1e-10)


class TestLeastSquares:
    def test_identity(self, rng):
        b = rng.standard_normal((4, 3))
        assert_allclose(least_squares(np.eye(4), b), b, atol=1e-14)

    def test_consistent_overdetermined(self, rng):
        a = rng.standard_normal((10, 4))
        x_true = rng.standard_normal((4, 2))
        x = least_squares(a, a @ x_true)
        assert_allclose(x, x_true, atol=1e-10)

    def test_normal_equations_oracle(self, rng):
        a = rng.standard_normal((20, 4))
        b = rng.standard_normal((20, 3))
        x = least_squares(a, b)
        grad = a.T @ (a @ x - b)
        assert np.linalg.norm(grad) <= 1e-8 * np.linalg.norm(a) * np.linalg.norm(b)

    def test_rank_deficient_minimum_norm(self, rng):
        a = np.zeros((6, 3))
        a[:, 0] = rng.standard_normal(6)
        b = rng.standard_normal((6, 1))
        with pytest.warns(RuntimeWarning, match="minimum-norm"):
            x = least_squares(a, b)
        # components outside the column space must stay zero
        assert x.shape == (3, 1)
        assert np.abs(x[1:]).max() < 1e-12

    def test_vector_right_hand_side_refused(self):
        with pytest.raises(ValueError, match="B must be a nonempty 2-D array"):
            least_squares(np.eye(3), np.ones(3))

    def test_row_mismatch(self):
        with pytest.raises(ValueError):
            least_squares(np.eye(3), np.ones((4, 1)))

    @pytest.mark.parametrize("shape", [(4, 4), (12, 5), (40, 20), (3, 1)])
    def test_matches_lstsq_with_many_right_hand_sides(self, rng, shape):
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        b = rng.standard_normal((shape[0], 301))
        want = np.linalg.lstsq(a, b, rcond=1e-12)[0]
        got = least_squares(a, b)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_cutoff_is_that_of_lstsq(self, rng):
        # one singular value just above and one just below 1e-12 sigma_max
        u = np.linalg.qr(rng.standard_normal((8, 4)))[0]
        w = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        a = (u * [1.0, 0.5, 2e-12, 5e-13]) @ w.T
        b = rng.standard_normal((8, 3))
        with pytest.warns(RuntimeWarning, match=r"rank 3 of 4") as record:
            got = least_squares(a, b)
        assert len(record) == 1
        want, _, rank, _ = np.linalg.lstsq(a, b, rcond=1e-12)
        assert rank == 3
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    def test_zero_matrix_gives_zero_solution(self):
        with pytest.warns(RuntimeWarning, match=r"rank 0 of 2, condition inf"):
            x = least_squares(np.zeros((5, 2)), np.ones((5, 3)))
        assert np.array_equal(x, np.zeros((2, 3)))


@st.composite
def spectra(draw):
    """Nonnegative values around the cutoff of their largest: zeros, the
    largest, 1e-12 of it exactly, one ulp either side, and random ones."""
    top = draw(st.floats(1e-200, 1e200))
    edge = 1e-12 * top
    named = {
        "zero": 0.0,
        "top": top,
        "edge": edge,
        "above": np.nextafter(edge, np.inf),
        "below": np.nextafter(edge, 0.0),
    }
    cells = st.one_of(st.sampled_from(sorted(named)), st.floats(0.0, 1.0))
    picks = draw(st.lists(cells, min_size=1, max_size=8))
    return np.array([named[p] if isinstance(p, str) else p * top for p in picks])


def _warned_count(warned, pattern, default):
    """The count a site's one warning reports, or default without one."""
    found = [re.search(pattern, str(w.message)) for w in warned]
    found = [m for m in found if m]
    assert len(found) <= 1
    return int(found[0].group(1)) if found else default


class TestNumericalRank:
    """numerical_rank against the inline rules each of its four sites used
    before it: the count of values above 1e-12 of the largest."""

    @settings(max_examples=200, deadline=None)
    @given(values=spectra())
    @example(values=np.zeros(3))
    @example(values=np.array([0.0, 2.5, 0.0]))
    @example(values=np.array([1.0, 1e-12]))
    @example(values=np.array([1.0, np.nextafter(1e-12, 1.0)]))
    def test_matches_the_inline_rules_at_every_site(self, values):
        n = values.size
        ordered = np.sort(values)[::-1]
        eye = np.eye(n)
        # qr_factor: negligible diagonal entries of R, at most 1e-12 of the largest
        small = int(np.count_nonzero(values <= 1e-12 * values.max()))
        # least_squares, rod._drop_tiny_singular and FourierModes.psi:
        # above 1e-12 * sigma[0]
        above = int(np.count_nonzero(ordered > 1e-12 * ordered[0]))
        assert numerical_rank(values) == n - small == above

        # R of a diagonal matrix is the matrix: every reflector is the identity
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            qr_factor(np.diag(values))
        assert _warned_count(warned, r"^rank-deficient QR: (\d+)", 0) == small

        factors = SvdFactors(U=eye, sigma=ordered, W=eye)
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            with mock.patch.object(linalg, "svd_economy", lambda a: factors):
                least_squares(eye, eye)
        assert _warned_count(warned, r"\(rank (\d+) of", n) == above

        with mock.patch.object(empirical, "svd_economy", lambda a: factors):
            psi = empirical.FourierModes(values=eye, dx=1.0).psi
        assert psi.shape[1] == max(1, above)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            if above == 0:
                with pytest.raises(ValueError, match="all singular values are negligible"):
                    rod.propagator(factors, eye)
            else:
                assert rod.propagator(factors, eye).shape == (above, above)


def _no_convergence(*args, **kwargs):
    raise np.linalg.LinAlgError("no convergence")


_REAL_EIG = np.linalg.eig


def _shifted_eig(s):
    """np.linalg.eig with every eigenvalue off by one: no pair fits."""
    values, vectors = _REAL_EIG(s)
    return values + 1.0, vectors


class TestLapackFailures:
    """numpy's LinAlgError and a bad eigenpair become LinalgError with the
    kernel's own message, which fit reports as the stage that failed."""

    CASES = [
        ("svd", _no_convergence, "SVD did not converge: no convergence", "rank-space SVD"),
        (
            "eig",
            _no_convergence,
            "eigensolver did not converge: no convergence",
            "eigendecomposition",
        ),
        (
            "eig",
            _shifted_eig,
            "eigenpair residual 1.000e+00 exceeds 1e-8 * ||S||_F",
            "eigendecomposition",
        ),
    ]

    @pytest.mark.parametrize("name, patched, message, stage", CASES)
    def test_kernel_raises_linalg_error(self, monkeypatch, name, patched, message, stage):
        kernel = svd_economy if name == "svd" else eig_general
        monkeypatch.setattr(np.linalg, name, patched)
        with pytest.raises(rt.LinalgError) as info:
            kernel(np.diag([3.0, 2.0, 1.0]))
        assert str(info.value) == message

    @pytest.mark.parametrize("name, patched, message, stage", CASES)
    def test_fit_names_the_stage(self, rng, monkeypatch, name, patched, message, stage):
        snap = make_snapshot(rng.standard_normal((20, 9)))
        monkeypatch.setattr(np.linalg, name, patched)
        with pytest.raises(rt.FitStageError) as info:
            rt.fit(snap, 3, seed=1)
        assert str(info.value) == "stage '%s' failed: %s" % (stage, message)
        assert isinstance(info.value.__cause__, rt.LinalgError)
