"""Fluid trajectory and Gaussian moment propagation.

Solves, with one shared fixed-step RK4 integrator,

    rho'  = F(rho)                     (fluid / law of large numbers)
    M'    = dF(rho) M                  (mean of the Gaussian deviation)
    V'    = dF V + V dF' + B B'        (covariance, B = dispersion)
    Phi'  = dF(rho) Phi                (fundamental solution, Phi(0) = I)

plus the cumulative-arrival process Y (one coordinate per transition),
whose Gaussian moments are propagated on the augmented vector
z = (X(0), Y) with block dynamics  dY = dQ(rho) L (dX0 + H dY)  and
independent Poisson noise diag(Q(rho)) on the Y block.  Keeping X(0)
inside z makes Cov(X(0), Y(t)) available directly, which the
travel-time tail needs.
"""

from __future__ import annotations

import numpy as np

from .model import TransitionSystem

__all__ = [
    "GaussianTimeline",
    "CumulativeTimeline",
    "solve_fluid",
    "solve_moments",
    "cross_covariance",
    "solve_cumulative_moments",
]


def _as_system(spec):
    if isinstance(spec, TransitionSystem):
        return spec
    return spec.system()


def _check_psd(V, what="covariance"):
    V = np.asarray(V, dtype=float)
    if not np.allclose(V, V.T, atol=1e-12):
        raise ValueError(f"{what} must be symmetric")
    w = np.linalg.eigvalsh(V)
    if w.min() < -1e-9 * max(np.trace(V), 1.0):
        raise ValueError(f"{what} must be positive semidefinite")
    return V


class GaussianTimeline:
    """Mean/covariance solution on a uniform time grid.

    `rho` is the fluid trajectory, `M` the mean of the linearized
    deviation (so the approximating mean of the density process is
    rho + M), `V` its covariance, `phi` the fundamental solution."""

    def __init__(self, system, times, rho, M, V, phi, step):
        self.system = system
        self.times = times
        self.rho = rho
        self.M = M
        self.V = V
        self.phi = phi
        self.step = step

    @property
    def mean(self):
        return self.rho + self.M

    def index_of(self, t):
        k = int(round((t - self.times[0]) / self.step))
        if k < 0 or k >= len(self.times) or abs(self.times[k] - t) > 1e-9:
            raise ValueError(f"t={t} is not on the solved grid")
        return k


def _grid(horizon, step):
    if step <= 0:
        raise ValueError("step must be positive")
    n = max(1, int(np.ceil(horizon / step - 1e-12)))
    h = horizon / n
    return n, h


def solve_fluid(spec, rho0, horizon, step=1e-3):
    """Fluid trajectory rho' = F(rho) by fixed-step RK4; densities are
    clamped to [0, rho_jam] after each step."""
    sys = _as_system(spec)
    sys.check_domain(rho0)
    n, h = _grid(horizon, step)
    rho = np.asarray(rho0, dtype=float).copy()
    times = np.empty(n + 1)
    out = np.empty((n + 1, sys.n_state))
    times[0], out[0] = 0.0, rho
    F = sys.drift
    for k in range(n):
        k1 = F(rho)
        k2 = F(rho + 0.5 * h * k1)
        k3 = F(rho + 0.5 * h * k2)
        k4 = F(rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        np.clip(rho, 0.0, sys.rho_jam, out=rho)
        times[k + 1], out[k + 1] = (k + 1) * h, rho
    return times, out


def solve_moments(spec, rho0, M0, V0, horizon, step=1e-3) -> GaussianTimeline:
    """Joint RK4 solve of (rho, M, V, Phi); V is re-symmetrized after
    every step to suppress round-off drift."""
    sys = _as_system(spec)
    sys.check_domain(rho0)
    V0 = _check_psd(V0, "initial covariance")
    n, h = _grid(horizon, step)
    ns = sys.n_state
    rho = np.asarray(rho0, dtype=float).copy()
    M = np.asarray(M0, dtype=float).copy()
    V = V0.copy()
    phi = np.eye(ns)

    times = np.empty(n + 1)
    rhos = np.empty((n + 1, ns))
    Ms = np.empty((n + 1, ns))
    Vs = np.empty((n + 1, ns, ns))
    phis = np.empty((n + 1, ns, ns))
    times[0], rhos[0], Ms[0], Vs[0], phis[0] = 0.0, rho, M, V, phi

    def deriv(r, m, v, p):
        Q = sys.rates(r)
        J = sys.drift_jacobian(r)
        B = sys.LH * np.sqrt(Q)[None, :]
        return (sys.LH @ Q, J @ m, J @ v + v @ J.T + B @ B.T, J @ p)

    for k in range(n):
        a1 = deriv(rho, M, V, phi)
        a2 = deriv(*(x + 0.5 * h * d for x, d in zip((rho, M, V, phi), a1)))
        a3 = deriv(*(x + 0.5 * h * d for x, d in zip((rho, M, V, phi), a2)))
        a4 = deriv(*(x + h * d for x, d in zip((rho, M, V, phi), a3)))
        rho, M, V, phi = (
            x + (h / 6.0) * (d1 + 2 * d2 + 2 * d3 + d4)
            for x, d1, d2, d3, d4 in zip((rho, M, V, phi), a1, a2, a3, a4)
        )
        np.clip(rho, 0.0, sys.rho_jam, out=rho)
        V = 0.5 * (V + V.T)
        times[k + 1] = (k + 1) * h
        rhos[k + 1], Ms[k + 1], Vs[k + 1], phis[k + 1] = rho, M, V, phi
    return GaussianTimeline(sys, times, rhos, Ms, Vs, phis, h)


def cross_covariance(timeline: GaussianTimeline, s, t):
    """Gamma(s, t) = Cov(rho(s), rho(t)) for grid points s <= t.

    Computed by forward propagation of G' = G dF(rho(u))^T from
    G(s) = V(s) — no fundamental-solution inversion — re-running the
    same RK4 steps for rho so the linearization points coincide with
    the original solve."""
    if s > t:
        raise ValueError("need s <= t")
    sys = timeline.system
    ks, kt = timeline.index_of(s), timeline.index_of(t)
    h = timeline.step
    rho = timeline.rho[ks].copy()
    G = timeline.V[ks].copy()

    def deriv(r, g):
        return sys.drift(r), g @ sys.drift_jacobian(r).T

    for _ in range(kt - ks):
        a1 = deriv(rho, G)
        a2 = deriv(rho + 0.5 * h * a1[0], G + 0.5 * h * a1[1])
        a3 = deriv(rho + 0.5 * h * a2[0], G + 0.5 * h * a2[1])
        a4 = deriv(rho + h * a3[0], G + h * a3[1])
        rho = rho + (h / 6.0) * (a1[0] + 2 * a2[0] + 2 * a3[0] + a4[0])
        G = G + (h / 6.0) * (a1[1] + 2 * a2[1] + 2 * a3[1] + a4[1])
        np.clip(rho, 0.0, sys.rho_jam, out=rho)
    return G


class CumulativeTimeline:
    """Gaussian moments of z = (X(0), Y) on a declared time grid.

    `cov[k]` is the covariance of z at grid point k; the constant X(0)
    block keeps Cov(X(0), Y(t)) explicit.  `props[k]` is the linearized
    state-transition matrix over grid interval k, so covariances across
    grid points follow as Cov(z_a, z_b) = cov[a] (T_{b-1} ... T_a)^T."""

    def __init__(self, system, times, x0_mean, y_mean, cov, props):
        self.system = system
        self.times = times
        self.x0_mean = x0_mean  # vehicles per (cell, class)
        self.y_mean = y_mean  # (n_grid, n_trans)
        self.cov = cov  # (n_grid, n+K, n+K)
        self.props = props
        self.n = system.n_state
        self.K = system.n_trans

    def z_mean(self, k):
        return np.concatenate([self.x0_mean, self.y_mean[k]])

    def cross(self, a, b):
        """Cov(z(t_a), z(t_b)) for grid indices a <= b."""
        if a > b:
            raise ValueError("need a <= b")
        G = self.cov[a]
        for k in range(a, b):
            G = G @ self.props[k].T
        return G


def solve_cumulative_moments(spec, rho0, time_grid, x0_cov=None,
                             step=1e-3, x0_feedback=True) -> CumulativeTimeline:
    """Moments of the cumulative transition counts Y on `time_grid`
    (sorted, starting at the evaluation time, taken as relative 0).

    `x0_cov` is the covariance of the initial density vector (zero for
    a deterministic start); it is converted to vehicle counts and seeds
    the X(0) block of the augmented covariance.

    With `x0_feedback` the initial-count fluctuation perturbs the
    transition rates through the linearized state map (the physically
    consistent choice, under which flow conservation gradually cancels
    the initial uncertainty out of long-lag cumulative flows).  Without
    it, X(0) is exogenous observer uncertainty: it stays in the joint
    vector but the rate linearization is taken around the fluid path
    only — the convention of the route-comparison studies, where the
    initial covariance models a driver's uncertainty about the queue
    ahead rather than physical dispersion."""
    sys = _as_system(spec)
    sys.check_domain(rho0)
    grid = np.asarray(time_grid, dtype=float)
    if len(grid) < 1 or np.any(np.diff(grid) <= 0):
        raise ValueError("time grid must be strictly increasing")
    ns, K = sys.n_state, sys.n_trans
    ell = sys.state_lengths
    if x0_cov is None:
        x0_cov = np.zeros((ns, ns))
    x0_cov = _check_psd(np.asarray(x0_cov, dtype=float), "initial covariance")

    rho = np.asarray(rho0, dtype=float).copy()
    ybar = np.zeros(K)
    C = np.zeros((ns + K, ns + K))
    C[:ns, :ns] = (ell[:, None] * x0_cov) * ell[None, :]

    times = grid - grid[0]
    y_means = np.empty((len(grid), K))
    covs = np.empty((len(grid), ns + K, ns + K))
    props = []
    y_means[0], covs[0] = ybar, C
    LH = sys.LH
    Ldiag = 1.0 / ell

    def deriv(r, y, c, T):
        Q = sys.rates(r)
        dQ = sys.rate_jacobian(r)
        A = np.zeros((ns + K, ns + K))
        if x0_feedback:
            A[ns:, :ns] = dQ * Ldiag[None, :]
        A[ns:, ns:] = (dQ @ LH)
        dC = A @ c + c @ A.T
        dC[ns:, ns:] += np.diag(Q)
        return LH @ Q, Q, dC, A @ T

    for g in range(len(grid) - 1):
        span = times[g + 1] - times[g]
        nsub = max(1, int(np.ceil(span / step - 1e-12)))
        h = span / nsub
        T = np.eye(ns + K)
        for _ in range(nsub):
            a1 = deriv(rho, ybar, C, T)
            a2 = deriv(*(x + 0.5 * h * d for x, d in zip((rho, ybar, C, T), a1)))
            a3 = deriv(*(x + 0.5 * h * d for x, d in zip((rho, ybar, C, T), a2)))
            a4 = deriv(*(x + h * d for x, d in zip((rho, ybar, C, T), a3)))
            rho, ybar, C, T = (
                x + (h / 6.0) * (d1 + 2 * d2 + 2 * d3 + d4)
                for x, d1, d2, d3, d4 in zip((rho, ybar, C, T), a1, a2, a3, a4)
            )
            np.clip(rho, 0.0, sys.rho_jam, out=rho)
            C = 0.5 * (C + C.T)
        y_means[g + 1], covs[g + 1] = ybar, C
        props.append(T)
    return CumulativeTimeline(sys, times, ell * np.asarray(rho0, dtype=float),
                              y_means, covs, props)
