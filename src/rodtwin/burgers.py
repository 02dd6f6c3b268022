"""Exact viscous-Burgers benchmark data.

The initial-value problem

    u_t + u u_x = nu u_xx,   u(x, 0) = -sin(pi x),   u(0, t) = u(L, t) = 0

on [0, 2] has a closed-form solution through the Cole-Hopf substitution:
after mapping to the heat equation, the solution is a ratio of two
integrals of the transformed initial profile against a Gaussian kernel.
Substituting z = (x - y) / sqrt(4 nu t) turns both into integrals
against exp(-z^2), which n-point Gauss-Hermite quadrature evaluates as

    u(x, t) = [ sum_i w_i 4 nu z_i g(z_i) ] / [ sqrt(4 nu t) sum_i w_i g(z_i) ]

with g(z) = exp(-cos(pi (x - z sqrt(4 nu t))) / (2 nu pi)).  The
cosine is taken by the angle sum cos(pi x) cos(pi z s) + sin(pi x)
sin(pi z s), s = sqrt(4 nu t): per time that is one (points, 2) @ (2,
nodes) product of O(points + nodes) sines and cosines instead of a
cosine per (point, node) pair, and numerator and denominator come from
one product of g with the columns w z and w.  At nu = 0.01 the exponent
spans roughly +-15.9; numerator and denominator share that factor, so
each point's exponents are shifted by their maximum before
exponentiation and the shift cancels in the ratio.  A constant shift
by c = 1/(2 nu pi) would underflow every term of some points once
2c > 745, i.e. below nu ~ 4.3e-4.  Below t = 1e-12 the ratio
degenerates (sqrt(4 nu t) in the denominator) and the analytic limit,
the initial condition itself, is returned.

Nodes and weights come from the Golub-Welsch construction: eigenvalues
and first eigenvector components of the Jacobi matrix of the Hermite
recurrence.  The textbook closed-form weight expression overflows near
n = 100 and is used only as a low-order cross-check in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import integer, warn
from .rod import SnapshotMatrix

T_EPS = 1e-12


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite nodes and weights, nodes ascending."""

    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class BurgersConfig:
    """Benchmark parameters; the defaults define the reference dataset."""

    length: float = 2.0
    t_final: float = 3.0
    nu: float = 1e-2
    grid_points: int = 101
    dt: float = 0.01
    quad_order: int = 100

    def __post_init__(self):
        for name in ("grid_points", "quad_order"):
            object.__setattr__(self, name, integer(getattr(self, name), name))
        for name in ("nu", "t_final", "dt", "length"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite" % name)
        if self.nu <= 0:
            raise ValueError("nu must be positive")
        if self.t_final <= 0 or self.dt <= 0:
            raise ValueError("t_final and dt must be positive")
        # t_grid ends at t_final only for a whole number of steps; the
        # quotient is rounded (3.0 / 0.01 is 299.99999999999994)
        steps = self.t_final / self.dt
        if math.isinf(steps):
            raise ValueError(
                "t_final = %r over dt = %r is more steps than a float holds"
                % (self.t_final, self.dt)
            )
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(
                "t_final = %r must be one or more whole steps of dt = %r"
                % (self.t_final, self.dt)
            )
        if self.length <= 0:
            raise ValueError("length must be positive")
        if self.grid_points < 2:
            raise ValueError("need at least 2 grid points")
        if not 1 <= self.quad_order <= 500:
            raise ValueError("quad_order must lie in [1, 500]")

    @property
    def dx(self):
        return self.length / (self.grid_points - 1)

    @property
    def x_grid(self):
        return np.linspace(0.0, self.length, self.grid_points)

    @property
    def t_grid(self):
        n_steps = int(round(self.t_final / self.dt))
        return np.arange(n_steps + 1) * self.dt


def gauss_hermite(n):
    """Gauss-Hermite rule of order n for integrals against exp(-z^2).

    Exact for polynomials up to degree 2n - 1.  The Jacobi matrix (zero
    diagonal, off-diagonal sqrt(i/2)) is solved densely by np.linalg.eigh,
    as fast as a tridiagonal solver at n <= 500; weights are sqrt(pi)
    times the squared first eigenvector components.
    """
    n = integer(n, "quadrature order")
    if not 1 <= n <= 500:
        raise ValueError("quadrature order must lie in [1, 500]")
    off = np.sqrt(np.arange(1, n) / 2.0)
    values, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    weights = math.sqrt(math.pi) * vectors[0] ** 2
    return QuadratureRule(nodes=values, weights=weights)


def exact_u(x, t, cfg=None, rule=None):
    """Exact solution at coordinates x (scalar or array) and time t.

    For t below T_EPS the initial condition -sin(pi x) is returned; the
    quadrature form is singular there and tends to it analytically.
    """
    cfg = cfg or BurgersConfig()
    rule = rule or gauss_hermite(cfg.quad_order)
    x = np.asarray(x, dtype=float)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t < T_EPS:
        out = -np.sin(np.pi * x)
        return out if out.ndim else float(out)
    spread = math.sqrt(4.0 * cfg.nu * t)
    c = 1.0 / (2.0 * cfg.nu * math.pi)
    # -c cos(pi (x - z s)) by the angle sum: one (..., 2) @ (2, n) product
    # from O(size x + n) sines and cosines
    angle = np.pi * rule.nodes * spread
    expo = np.stack((np.cos(np.pi * x), np.sin(np.pi * x)), axis=-1) @ (
        -c * np.stack((np.cos(angle), np.sin(angle)))
    )
    # exponents reach +-c; shift by the row max before exp, the shift
    # cancels between numerator and denominator
    expo -= expo.max(axis=-1, keepdims=True)
    g = np.exp(expo, out=expo)
    sums = g @ np.stack((rule.weights * rule.nodes, rule.weights), axis=-1)
    numer = 4.0 * cfg.nu * sums[..., 0]
    denom = spread * sums[..., 1]
    if np.any(np.abs(denom) < 1e-300):
        raise ArithmeticError("quadrature denominator underflow")
    out = numer / denom
    return out if out.ndim else float(out)


def generate_snapshots(cfg=None):
    """Sample the exact solution on the configured grid.

    Returns a SnapshotMatrix with one column per time sample, the first
    being the initial condition.  Deterministic: no randomness involved.

    The exact solution obeys the maximum principle: |u| never exceeds
    the bound 1 of the initial profile -sin(pi x) (its supremum over the
    line, which a coarse grid may miss).  At small nu the quadrature
    does not resolve the kernel and breaks that bound (max|u| is 1.70
    at nu = 3e-3 and 2.04 at nu = 1e-3 with the default order), so a
    field more than 1e-6 above it raises one warning naming nu and the
    quadrature order.
    """
    cfg = cfg or BurgersConfig()
    rule = gauss_hermite(cfg.quad_order)
    x = cfg.x_grid
    t = cfg.t_grid
    values = np.empty((x.size, t.size))
    for j, tj in enumerate(t):
        values[:, j] = exact_u(x, tj, cfg, rule)
    peak = max(float(values.max()), -float(values.min()))
    if peak > 1.0 + 1e-6:
        warn(
            "max|u| = %.6g exceeds the maximum-principle bound 1 of the"
            " initial condition: quad_order %d does not resolve nu = %g"
            % (peak, cfg.quad_order, cfg.nu)
        )
    return SnapshotMatrix(values=values, x=x, t=t)
