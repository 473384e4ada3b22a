"""Fluid trajectory and Gaussian moment propagation.

Solves, with one shared fixed-step RK4 integrator,

    rho'  = F(rho)                     (fluid / law of large numbers)
    V'    = dF V + V dF' + LH diag(Q) LH'   (covariance)

plus the cumulative transition counts Y (one coordinate per
transition), counted from the start: their mean follows the fluid
rates Q(rho) and their covariance C, zero at the start, obeys
C' = A C + C A' + diag Q(rho) with A(rho) = dQ(rho) LH, the rate
Jacobian composed with the count-to-density map.  The cumulative solve
stores P C P' for the rows of a weight matrix P (the travel-time tail
passes one row per class; all of Y by default).  From a fixed point of
the fluid drift on a uniform grid, rho stays put and these equations
are time-invariant: each grid interval is then one exact step,
C <- E C E' + W with E = exp(A h) and the noise integral W from Van
Loan's block exponential (1978), in place of RK4, and C is never
formed: C_k = sum_{i<k} E^i W E'^i, so one vector recursion v <- v E
per row of P gives its entries.  Every solver covers each interval of
the caller's increasing `time_grid` (taken relative to its first
point) with equal RK4 steps of at most `step`, and stores results at
the grid points only: cross-time covariances of the densities and the
fundamental solution are computed on demand by one forward propagator
G' = G dF(rho)^T along `solve_moments`' own RK4 steps.
"""

from __future__ import annotations

import numpy as np

from .stationary import is_at_rest

__all__ = [
    "GaussianTimeline",
    "CumulativeTimeline",
    "solve_fluid",
    "solve_moments",
    "cross_covariance",
    "fundamental_solution",
    "solve_cumulative_moments",
]


def _psd(C):
    """Whether C is finite with no eigenvalue below -1e-9 max(trace C, 1),
    by a Cholesky factorization of the shifted matrix (its lower triangle)."""
    shifted = np.array(C, dtype=float)
    shifted.reshape(-1)[::len(C) + 1] += 1e-9 * max(np.trace(C), 1.0)
    try:
        L = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(np.trace(L)))


def _check_psd(V, n, what):
    """V as a float array, checked to be an (n, n) symmetric PSD matrix."""
    V = np.asarray(V, dtype=float)
    if V.shape != (n, n):
        raise ValueError(f"{what} must have shape ({n}, {n}), got {V.shape}")
    if not (np.allclose(V, V.T, atol=1e-12) and _psd(V)):
        raise ValueError(f"{what} must be symmetric positive semidefinite")
    return V


def _rk4(sys, deriv, state, h):
    """One classical RK4 step of the tuple `state`, whose first entry is
    rho; rho is then clamped to [0, rho_jam].  Every solver steps
    through here, so equal inputs give bit-identical densities."""
    a1 = deriv(*state)
    a2 = deriv(*(x + 0.5 * h * d for x, d in zip(state, a1)))
    a3 = deriv(*(x + 0.5 * h * d for x, d in zip(state, a2)))
    a4 = deriv(*(x + h * d for x, d in zip(state, a3)))
    state = tuple(x + (h / 6.0) * (d1 + 2 * d2 + 2 * d3 + d4)
                  for x, d1, d2, d3, d4 in zip(state, a1, a2, a3, a4))
    np.clip(state[0], 0.0, sys.rho_jam, out=state[0])
    return state


def _step(sys, deriv, state, h, halvings=10):
    """RK4 step of `state` = (rho, ..., C), C re-symmetrized.  A step that
    leaves C indefinite (its stages straddle a kink of the rates at a
    stiff slope) is redone as two half steps, at most `halvings` deep.
    Returns the new state and the lengths of the substeps taken."""
    *rest, C = _rk4(sys, deriv, state, h)
    C = 0.5 * (C + C.T)
    if _psd(C):
        return (*rest, C), [h]
    if not halvings:
        raise FloatingPointError(f"indefinite covariance at step {h:.3e} h")
    mid, first = _step(sys, deriv, state, 0.5 * h, halvings - 1)
    end, second = _step(sys, deriv, mid, 0.5 * h, halvings - 1)
    return end, first + second


class GaussianTimeline:
    """Mean/covariance solution at the points of the caller's time grid.

    `rho` is the fluid trajectory, which is the mean of the Gaussian
    approximation of the density process, `V` its covariance and
    `substeps[k]` the RK4 steps taken from grid point k to k + 1.  The
    mean of the linearized deviation from a start M0,
    Phi(t, 0) M0, comes from `fundamental_solution`."""

    def __init__(self, system, times, rho, V, substeps):
        self.system = system
        self.times = times
        self.rho = rho
        self.V = V
        self.substeps = substeps
        self.M = self.phi = None  # read only by perfbench/tracer.py

    def index_of(self, t):
        k = int(np.searchsorted(self.times, t - 1e-9))
        if k >= len(self.times) or abs(self.times[k] - t) > 1e-9:
            raise ValueError(f"t={t} is not on the solved grid")
        return k


def _steps(span, step):
    """The ceil(span / step) equal RK4 steps that cover `span`."""
    n = max(1, int(np.ceil(span / step - 1e-12)))
    return [span / n] * n


def _grid(time_grid, step):
    """Finite, strictly increasing `time_grid` relative to its first point."""
    if not step > 0:
        raise ValueError("step must be positive")
    grid = np.asarray(time_grid, dtype=float)
    if (grid.ndim != 1 or len(grid) < 1 or not np.isfinite(grid).all()
            or np.any(np.diff(grid) <= 0)):
        raise ValueError("time grid must be finite and strictly increasing")
    return grid - grid[0]


def _march(advance, state, times, step, record=lambda state: state):
    """Covers each interval of `times` with the `_steps` of at most
    `step`, each taken by advance(state, h) -> (state, substeps taken).
    Returns record(state) at every grid point, one array per entry, and
    the substeps taken per interval."""
    out = [np.full((len(times),) + np.shape(x), x) for x in record(state)]
    substeps = []
    for g in range(len(times) - 1):
        substeps.append([])
        for h in _steps(times[g + 1] - times[g], step):
            state, taken = advance(state, h)
            substeps[g] += taken
        for o, x in zip(out, record(state)):
            o[g + 1] = x
    return out, substeps


def solve_fluid(spec, rho0, time_grid, step=1e-3):
    """Fluid trajectory rho' = F(rho) at the points of `time_grid` by
    fixed-step RK4; densities are clamped to [0, rho_jam] after each
    step.  Returns the grid relative to its first point and rho there."""
    sys = spec.system()
    sys.check_domain(rho0)
    times = _grid(time_grid, step)

    def advance(state, h):
        return _rk4(sys, lambda r: (sys.drift(r),), state, h), [h]
    (rho,), _ = _march(advance, (np.asarray(rho0, dtype=float),), times, step)
    return times, rho


def solve_moments(spec, rho0, V0, time_grid, step=1e-3) -> GaussianTimeline:
    """Joint RK4 solve of (rho, V) at the points of `time_grid`; V is
    re-symmetrized after every step to suppress round-off drift."""
    sys = spec.system()
    sys.check_domain(rho0)
    V = _check_psd(V0, sys.n_state, "initial covariance")
    times = _grid(time_grid, step)

    def deriv(r, v):
        Q = sys.rates(r)
        JV = sys.drift_jacobian(r) @ v  # V is symmetric, so V J' = (J V)'
        return sys.LH @ Q, JV + JV.T + (sys.LH * Q) @ sys.LH.T

    (rhos, Vs), substeps = _march(
        lambda s, h: _step(sys, deriv, s, h), (np.asarray(rho0, dtype=float), V),
        times, step)
    return GaussianTimeline(sys, times, rhos, Vs, substeps)


def _forward(timeline: GaussianTimeline, s, t, start):
    """G(t) of G' = G dF(rho)^T from G(s) = start(index of s), s <= t,
    re-running the timeline's RK4 substeps from rho(s), so that the
    linearization points are those of its solve."""
    if s > t:
        raise ValueError("need s <= t")
    ks, kt = timeline.index_of(s), timeline.index_of(t)
    sys = timeline.system
    state = (np.array(timeline.rho[ks], dtype=float), np.array(start(ks), dtype=float))
    for h in (h for k in range(ks, kt) for h in timeline.substeps[k]):
        state = _rk4(sys, lambda r, g: (sys.drift(r), g @ sys.drift_jacobian(r).T),
                     state, h)
    return state[1]


def cross_covariance(timeline: GaussianTimeline, s, t):
    """Gamma(s, t) = Cov(rho(s), rho(t)) for grid points s <= t, by
    forward propagation from G(s) = V(s) (no fundamental-solution
    inversion)."""
    return _forward(timeline, s, t, lambda k: timeline.V[k])


def fundamental_solution(timeline: GaussianTimeline, s, t):
    """Phi(t, s) for grid points s <= t: the solution of
    Phi' = dF(rho) Phi with Phi(s, s) = I, propagated on demand."""
    return _forward(timeline, s, t, lambda k: np.eye(timeline.system.n_state)).T


def _uniform_step(times):
    """The spacing of `times` (from 0) if every interval equals it to
    1e-9 relative, else None."""
    if len(times) < 2:
        return None
    h = times[-1] / (len(times) - 1)
    return h if np.all(np.abs(np.diff(times) - h) <= 1e-9 * h) else None


def _exact_step(A, N, h):
    """E = e^{A h} and W = int_0^h e^{A s} N e^{A' s} ds.  Van Loan's
    block exponential (1978) runs on h / 2^k with ||A||_1 h / 2^k <= 1/2,
    then k doublings W <- E W E' + W, E <- E E: over a long h the block
    exponential holds e^{-A h}, and W cancels catastrophically in it."""
    from scipy.linalg import expm
    n = len(A)
    k = int(np.ceil(np.log2(max(2.0 * np.linalg.norm(A, 1) * h, 1.0))))
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n], block[:n, n:], block[n:, n:] = -A, N, A.T
    P = expm(block * (h / 2**k))
    E = P[n:, n:].T
    W = E @ P[:n, n:]
    for _ in range(k):
        W = E @ W @ E.T + W
        E = E @ E
    return E, 0.5 * (W + W.T)


def _exact_covariances(E, W, P, n):
    """P C_g P' at n grid points of C_g <- E C_{g-1} E' + W from C_0 = 0,
    without forming C_g: with the row vectors v_{c,i} = w_c E^i of each
    row w_c of P, entry (a, b) is sum_{i<g} v_{a,i} W v_{b,i}'.  Each row
    advances its own vectors, and entries a <= b are computed and
    mirrored, so a variance does not depend on the rows beside it and
    each P C_g P' is symmetric bit for bit.  W is checked once; a
    variance below -1e-9 max(its scale, 1), the scale being what its
    terms could reach from a PSD W, is reported."""
    if not _psd(W):
        raise FloatingPointError("indefinite noise integral of the exact step")
    v = np.empty((len(P), n - 1, P.shape[1]))
    for c, w in enumerate(P):
        for g in range(n - 1):
            v[c, g] = w if g == 0 else v[c, g - 1] @ E
    cov = np.zeros((n, len(P), len(P)))
    for a in range(len(P)):
        vW = v[a] @ W
        for b in range(a, len(P)):
            cov[1:, a, b] = cov[1:, b, a] = np.cumsum((vW * v[b]).sum(axis=1))
        scale = np.cumsum((v[a] * v[a]).sum(axis=1)) * np.trace(W)
        bad = ~(cov[1:, a, a] >= -1e-9 * np.maximum(scale, 1.0))
        if bad.any():
            raise FloatingPointError(
                f"negative projected variance at exact step {np.argmax(bad)}")
    return cov


def _project(P, C):
    """P C P' entry by entry from (w_a C) w_b, a <= b, mirrored: a
    variance does not depend on the rows beside it."""
    out = np.empty((len(P), len(P)))
    for a, wC in enumerate(w @ C for w in P):
        for b in range(a, len(P)):
            out[a, b] = out[b, a] = wC @ P[b]
    return out


class CumulativeTimeline:
    """Gaussian moments of the cumulative counts Y on a declared grid.

    `y_mean[k]` is the mean of Y at grid point k and `cov[k]` = P C P'
    the covariance there of the rows of P, the solve's `weights` (all
    of Y, so C itself, by default).  `x0_mean` holds the initial counts
    per (cell, class)."""

    def __init__(self, system, times, x0_mean, y_mean, cov):
        self.system = system
        self.times = times
        self.x0_mean = x0_mean  # vehicles per (cell, class)
        self.y_mean = y_mean  # (n_grid, n_trans)
        self.cov = cov  # (n_grid, p, p)
        self.props = []  # never stored; read only by perfbench/tracer.py


def solve_cumulative_moments(spec, rho0, time_grid, *, step=1e-3,
                             weights=None) -> CumulativeTimeline:
    """Moments of the cumulative transition counts Y on `time_grid`
    (sorted, starting at the evaluation time, taken as relative 0),
    from Y = 0 with zero covariance.

    `weights`, a (p, n_trans) array P, selects the rows whose covariance
    P C P' the timeline stores as `cov` (n_grid, p, p); None stands for
    the identity, so that `cov` holds C.  If rho0 is at rest
    (`stationary.is_at_rest`) and the grid uniform to 1e-9 relative,
    each grid interval is one exact step of the then time-invariant
    moment equations, in O(p K^2) per grid point through one vector
    recursion per row (`_exact_covariances`); otherwise RK4 steps of at
    most `step` cover each interval, propagating C and storing P C P'."""
    sys = spec.system()
    sys.check_domain(rho0)
    times = _grid(time_grid, step)
    K = sys.n_trans
    P = np.eye(K) if weights is None else np.asarray(weights, dtype=float)
    if P.ndim != 2 or P.shape[1] != K:
        raise ValueError(f"weights must have shape (p, {K})")

    rho = np.asarray(rho0, dtype=float)
    ybar = np.zeros(K)

    def deriv(r, y, c):
        Q = sys.rates(r)
        AC = sys.rate_jacobian(r) @ sys.LH @ c  # C is symmetric, so C A' = (A C)'
        dC = AC + AC.T
        dC.reshape(-1)[::K + 1] += Q
        return sys.LH @ Q, Q, dC

    h = _uniform_step(times)
    if h is not None and is_at_rest(sys, rho):
        # rho stays put, so Y' = A Y + noise is time-invariant: each grid
        # interval is the same exact step
        Q = sys.rates(rho)
        E, W = _exact_step(sys.rate_jacobian(rho) @ sys.LH, np.diag(Q), h)
        y_means = np.cumsum(np.vstack([ybar, np.tile(Q * h, (len(times) - 1, 1))]),
                            axis=0)
        covs = _exact_covariances(E, W, P, len(times))
    else:
        (y_means, covs), _ = _march(
            lambda s, h: _step(sys, deriv, s, h), (rho, ybar, np.zeros((K, K))),
            times, step, record=lambda s: (s[1], _project(P, s[2])))
    return CumulativeTimeline(sys, times, sys.state_lengths * rho, y_means, covs)
