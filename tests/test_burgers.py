import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import rodtwin as rt

from conftest import NOT_INTEGERS, NUMPY_INTEGERS, not_an_integer


def hermite_value(n, x):
    """Physicists' Hermite polynomial H_n at x by the three-term recurrence."""
    h_prev, h = 1.0, 2.0 * x
    if n == 0:
        return h_prev
    for k in range(1, n):
        h_prev, h = h, 2.0 * x * h - 2.0 * k * h_prev
    return h


def direct_cosine_u(x, t, cfg, rule):
    """exact_u's quadrature with one cosine per (x, node) pair: the
    exponent -cos(pi (x - z s)) / (2 nu pi) formed directly."""
    spread = math.sqrt(4.0 * cfg.nu * t)
    c = 1.0 / (2.0 * cfg.nu * math.pi)
    expo = -np.cos(np.pi * (x[:, None] - rule.nodes * spread)) * c
    g = np.exp(expo - expo.max(axis=-1, keepdims=True))
    numer = 4.0 * cfg.nu * np.sum(g * (rule.weights * rule.nodes), axis=-1)
    denom = spread * np.sum(g * rule.weights, axis=-1)
    return numer / denom


def gaussian_moment(m):
    """integral of z^m exp(-z^2) over the line: 0 for odd m."""
    if m % 2:
        return 0.0
    return math.sqrt(math.pi) * math.prod(range(1, m, 2)) / 2.0 ** (m // 2)


class TestGaussHermite:
    @pytest.mark.parametrize("order", NOT_INTEGERS)
    def test_order_that_is_not_an_integer_refused(self, order):
        with pytest.raises(ValueError, match=not_an_integer("quadrature order", order)):
            rt.gauss_hermite(order)

    @pytest.mark.parametrize("kind", NUMPY_INTEGERS)
    def test_order_of_any_integer_type(self, kind):
        rule, plain = rt.gauss_hermite(kind(10)), rt.gauss_hermite(10)
        assert rule.nodes.tobytes() == plain.nodes.tobytes()
        assert rule.weights.tobytes() == plain.weights.tobytes()

    def test_order_one(self):
        rule = rt.gauss_hermite(1)
        assert rule.nodes.tolist() == [0.0]
        assert rule.weights[0] == pytest.approx(math.sqrt(math.pi), abs=1e-15)

    def test_order_two_closed_form(self):
        rule = rt.gauss_hermite(2)
        assert_allclose(rule.nodes, [-1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-14)
        assert_allclose(rule.weights, [math.sqrt(math.pi) / 2] * 2, atol=1e-14)

    def test_weights_sum_to_sqrt_pi(self):
        for n in (1, 2, 3, 5, 10, 25, 50, 100):
            rule = rt.gauss_hermite(n)
            assert abs(rule.weights.sum() - math.sqrt(math.pi)) <= 1e-10

    def test_second_moment(self):
        rule = rt.gauss_hermite(10)
        got = np.sum(rule.weights * rule.nodes**2)
        assert got == pytest.approx(math.sqrt(math.pi) / 2, abs=1e-12)

    def test_polynomial_exactness(self):
        for n in (2, 5, 10, 20):
            rule = rt.gauss_hermite(n)
            for m in range(0, 2 * n, 2):
                got = np.sum(rule.weights * rule.nodes**m)
                assert got == pytest.approx(gaussian_moment(m), rel=1e-10)
            for m in range(1, 2 * n, 2):
                got = np.sum(rule.weights * rule.nodes**m)
                scale = np.sum(rule.weights * np.abs(rule.nodes) ** m)
                assert abs(got) <= 1e-10 * max(scale, 1.0)

    def test_node_symmetry(self):
        for n in (3, 8, 51, 100):
            rule = rt.gauss_hermite(n)
            assert np.all(np.diff(rule.nodes) > 0)
            assert np.abs(rule.nodes + rule.nodes[::-1]).max() <= 1e-12
            assert np.abs(rule.weights - rule.weights[::-1]).max() <= 1e-12

    def test_closed_form_weights_low_order(self):
        # w_i = 2^(n-1) n! sqrt(pi) / (n^2 H_{n-1}(x_i)^2), safe below n ~ 20
        for n in (3, 7, 12, 15):
            rule = rt.gauss_hermite(n)
            log_pref = (
                (n - 1) * math.log(2.0)
                + math.lgamma(n + 1)
                + 0.5 * math.log(math.pi)
                - 2.0 * math.log(n)
            )
            for x, w in zip(rule.nodes, rule.weights):
                log_w = log_pref - 2.0 * math.log(abs(hermite_value(n - 1, x)))
                assert w == pytest.approx(math.exp(log_w), rel=1e-9)

    def test_against_library_rule(self):
        # 100 is the benchmark's order; hermgauss returns NaN at 500
        for n in (10, 100, 200):
            nodes, weights = np.polynomial.hermite.hermgauss(n)
            rule = rt.gauss_hermite(n)
            assert_allclose(rule.nodes, nodes, atol=1e-10)
            assert_allclose(rule.weights, weights, atol=1e-10)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            rt.gauss_hermite(0)
        with pytest.raises(ValueError):
            rt.gauss_hermite(501)


class TestExactU:
    def test_initial_condition_branch(self):
        x = np.linspace(0, 2, 41)
        assert np.array_equal(rt.exact_u(x, 0.0), -np.sin(np.pi * x))
        assert rt.exact_u(0.5, 0.0) == pytest.approx(-1.0, abs=1e-15)
        assert isinstance(rt.exact_u(0.25, 0.0), float)
        assert isinstance(rt.exact_u(0.25, 0.5), float)

    def test_boundary_values_stay_pinned(self):
        for t in (0.01, 0.5, 1.5, 3.0):
            for x in (0.0, 1.0, 2.0):
                assert abs(rt.exact_u(x, t)) <= 1e-6

    def test_antisymmetry_about_midpoint(self):
        s = np.linspace(0.05, 0.9, 18)
        for t in (0.05, 1.0, 2.7):
            left = rt.exact_u(1.0 - s, t)
            right = rt.exact_u(1.0 + s, t)
            scale = max(np.abs(left).max(), 1e-30)
            assert np.abs(left + right).max() <= 1e-8 * max(scale, 1.0)

    def test_refined_quadrature_agreement(self):
        sampler = np.random.default_rng(123)
        xs = 0.1 + 1.8 * sampler.random(40)
        ts = 0.01 + 2.9 * sampler.random(40)
        fine = rt.gauss_hermite(200)
        worst = 0.0
        for x, t in zip(xs, ts):
            a = rt.exact_u(float(x), float(t))
            b = rt.exact_u(float(x), float(t), rule=fine)
            worst = max(worst, abs(a - b))
        assert worst <= 5e-8

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            rt.exact_u(0.5, -0.1)

    @settings(max_examples=60, deadline=None)
    @given(
        x=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=16),
        t=st.floats(0.01, 3.0),
        nu=st.floats(1e-3, 1.0),
        order=st.sampled_from([20, 100, 200]),
    )
    def test_angle_sum_matches_direct_cosine(self, x, t, nu, order):
        cfg = rt.BurgersConfig(nu=nu, quad_order=order)
        rule = rt.gauss_hermite(order)
        x = np.array(x)
        got = rt.exact_u(x, t, cfg, rule)
        want = direct_cosine_u(x, t, cfg, rule)
        # relative to max|u| of the field, max|u(x, 0)| = 1 by the maximum
        # principle; the solution has exact zeros, so no pointwise bound
        assert np.abs(got - want).max() <= 1e-10

    def test_small_viscosity_stays_finite(self):
        # a fixed shift by 1/(2 nu pi) would underflow every term of some x
        cfg = rt.BurgersConfig(nu=1e-4)
        rule = rt.gauss_hermite(cfg.quad_order)
        x = np.linspace(0, 2, 101)
        for t in (0.01, 1.0, 3.0):
            u = rt.exact_u(x, t, cfg, rule)
            assert np.isfinite(u).all()
            assert np.abs(u - direct_cosine_u(x, t, cfg, rule)).max() <= 1e-10

    def test_array_shape_kept(self):
        x = np.linspace(0, 2, 12)
        for t in (0.0, 0.7):
            grid = rt.exact_u(x.reshape(3, 4), t)
            assert grid.shape == (3, 4)
            assert_allclose(grid.ravel(), rt.exact_u(x, t), rtol=0, atol=1e-15)


class TestGenerateSnapshots:
    def test_reference_grid(self, burgers_snapshot):
        snap = burgers_snapshot
        assert snap.values.shape == (101, 301)
        assert snap.dx == pytest.approx(0.02)
        assert snap.dt == pytest.approx(0.01)
        assert snap.x[-1] == pytest.approx(2.0)
        assert snap.t[-1] == pytest.approx(3.0)

    def test_first_column_is_initial_condition(self, burgers_snapshot):
        assert np.array_equal(
            burgers_snapshot.values[:, 0], -np.sin(np.pi * burgers_snapshot.x)
        )

    def test_amplitude_bound(self, burgers_snapshot):
        assert np.abs(burgers_snapshot.values).max() <= 1.0 + 1e-3

    def test_energy_dissipates(self, burgers_snapshot):
        energy = np.linalg.norm(burgers_snapshot.values, axis=0)
        assert np.all(np.diff(energy) <= 1e-10)

    def test_custom_config(self):
        cfg = rt.BurgersConfig(grid_points=11, t_final=0.1, dt=0.05)
        snap = rt.generate_snapshots(cfg)
        assert snap.values.shape == (11, 3)
        assert snap.dx == pytest.approx(0.2)

    def test_columns_are_exact_u(self):
        cfg = rt.BurgersConfig(grid_points=31, t_final=0.5, dt=0.05)
        rule = rt.gauss_hermite(cfg.quad_order)
        snap = rt.generate_snapshots(cfg)
        for j, t in enumerate(snap.t):
            assert np.array_equal(snap.values[:, j], rt.exact_u(snap.x, t, cfg, rule))

    @pytest.mark.parametrize("nu", [0.05, 0.01, 0.007, 0.005, 0.004])
    def test_resolved_viscosity_is_silent(self, nu):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            snap = rt.generate_snapshots(rt.BurgersConfig(nu=nu))
        assert np.abs(snap.values).max() <= 1.0

    @pytest.mark.parametrize("nu", [3e-3, 1e-3])
    def test_maximum_principle_breach_warns_once(self, nu):
        with pytest.warns(RuntimeWarning) as record:
            snap = rt.generate_snapshots(rt.BurgersConfig(nu=nu))
        assert len(record) == 1
        message = str(record[0].message)
        assert "quad_order 100" in message
        assert "nu = %g" % nu in message
        assert record[0].filename == __file__
        # the field is still returned, as computed
        assert np.abs(snap.values).max() > 1.5

    @pytest.mark.parametrize("name", ["nu", "t_final", "dt", "length"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_config_rejected(self, name, value):
        with pytest.raises(ValueError, match="%s must be finite" % name):
            rt.BurgersConfig(**{name: value})

    @pytest.mark.parametrize(
        "t_final, dt", [(0.025, 0.01), (3.0, 0.007), (0.001, 0.01)]
    )
    def test_t_final_off_the_step_rejected(self, t_final, dt):
        # each would write times that end away from t_final
        with pytest.raises(ValueError) as err:
            rt.BurgersConfig(t_final=t_final, dt=dt)
        assert str(err.value) == (
            "t_final = %r must be one or more whole steps of dt = %r" % (t_final, dt)
        )

    @pytest.mark.parametrize("t_final, dt", [(1e300, 1e-300), (1.5e308, 0.5)])
    def test_step_count_past_the_float_range_rejected(self, t_final, dt):
        # refused before any grid is built: t_final / dt is inf
        with pytest.raises(ValueError) as err:
            rt.BurgersConfig(t_final=t_final, dt=dt)
        assert str(err.value) == (
            "t_final = %r over dt = %r is more steps than a float holds" % (t_final, dt)
        )

    @pytest.mark.parametrize("value", NOT_INTEGERS)
    @pytest.mark.parametrize("name", ["grid_points", "quad_order"])
    def test_count_that_is_not_an_integer_rejected(self, name, value):
        with pytest.raises(ValueError, match=not_an_integer(name, value)):
            rt.BurgersConfig(**{name: value})

    @pytest.mark.parametrize("kind", NUMPY_INTEGERS)
    def test_counts_of_any_integer_type(self, kind):
        cfg = rt.BurgersConfig(grid_points=kind(11), quad_order=kind(20), t_final=0.1, dt=0.05)
        assert (type(cfg.grid_points), type(cfg.quad_order)) == (int, int)
        assert cfg == rt.BurgersConfig(grid_points=11, quad_order=20, t_final=0.1, dt=0.05)
        assert rt.generate_snapshots(cfg).values.shape == (11, 3)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            rt.BurgersConfig(nu=-1.0)
        with pytest.raises(ValueError):
            rt.BurgersConfig(grid_points=1)
        with pytest.raises(ValueError):
            rt.BurgersConfig(quad_order=0)
        with pytest.raises(ValueError):
            rt.BurgersConfig(dt=-0.01)
        with pytest.raises(ValueError, match="^length must be positive$"):
            rt.BurgersConfig(length=0.0)
