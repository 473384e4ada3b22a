"""Stationary Gaussian fixed point and long-run performance metrics.

The fixed point (mu, V) of the moment equations is found by
pseudo-transient continuation for mu (Kelley & Keyes 1998), a damped
Newton iteration mu <- mu + (I / tau - J)^-1 F(mu) whose pseudo time
step tau grows as the drift residual falls, followed by one Lyapunov
solve J V + V J' + B B' = 0 (Bartels-Stewart) once J is Hurwitz at mu.
Where the continuation stalls or lands on a point with a non-decaying
mode, the forward-Euler iteration mu_{k+1} = mu_k + F(mu_k) dt with the
matching update for V runs from zero instead, as in the paper.  Per-cell
discrete marginals are obtained by integrating the stationary Gaussian
over unit-count rectangles (continuity correction), and performance
metrics are sums of a state function against those marginals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eig, eigvals, solve_continuous_lyapunov
from scipy.linalg.lapack import dgesv
from scipy.special import ndtr
from scipy.stats import multivariate_normal

from .model import TransitionSystem

__all__ = [
    "StationaryPoint",
    "DiscreteMarginal",
    "FixedPointError",
    "stationary_fixed_point",
    "is_at_rest",
    "cell_marginal",
    "joint_marginal",
    "stationary_metric",
    "deterministic_metric",
]


# mu is at rest when ||F(mu)||_inf <= DRIFT_RTOL max(1, ||Q(mu)||_inf):
# the stopping rule of the continuation, and the test by which a
# cumulative-moment solve takes its exact time-invariant steps.
DRIFT_RTOL = 1e-12
PTC_MAX_ITER = 1000
# J counts as Hurwitz when every eigenvalue has
# Re < -HURWITZ_MARGIN max(1, ||J||_inf).
HURWITZ_MARGIN = 1e-9
# Euler steps without a new minimum of the step distance, once mu has
# stopped moving, after which the distance is taken to sit on V's
# rounding floor.
STALL_STEPS = 1000


class FixedPointError(RuntimeError):
    def __init__(self, msg, drift_residual, lyapunov_residual):
        super().__init__(msg)
        self.drift_residual = drift_residual
        self.lyapunov_residual = lyapunov_residual


@dataclass
class StationaryPoint:
    system: TransitionSystem
    mu: np.ndarray  # veh/km
    V: np.ndarray
    drift_residual: float  # ||F(mu)||_inf
    lyapunov_residual: float
    iterations: int
    method: str = "euler"  # "ptc" (continuation + Lyapunov) or "euler"


@dataclass
class DiscreteMarginal:
    cell: int  # 1-based
    cls: int  # 1-based
    support: np.ndarray  # veh/km, {0, 1/l, ..., X_jam/l}
    probs: np.ndarray

    @property
    def mean(self):
        return float(np.dot(self.support, self.probs))


def stationary_fixed_point(spec, dt=0.001, tol=1e-9,
                           max_iter=2_000_000) -> StationaryPoint:
    """The fixed point (mu, V) of the moment equations.

    mu is found by pseudo-transient continuation from zero (`_ptc`, whose
    first pseudo time step is `dt`) and V by a Lyapunov solve at mu,
    provided that the drift Jacobian J there is Hurwitz.  If the
    continuation misses its residual within PTC_MAX_ITER steps, or J
    has a non-decaying mode, the forward-Euler iteration of the paper
    (`_euler`, with `dt`, `tol` and `max_iter`) runs from zero instead;
    `method` says which of the two produced the point."""
    sys = spec.system()
    mu, iterations = _ptc(sys, dt)
    note = ""
    if mu is not None:
        J = sys.drift_jacobian(mu)
        critical = _critical_cells(sys, J)
        if not critical:
            B = sys.dispersion(mu)
            V = solve_continuous_lyapunov(J, -B @ B.T)
            V = 0.5 * (V + V.T)
            return StationaryPoint(
                sys, mu, V, float(np.abs(sys.drift(mu)).max()),
                float(np.abs(J @ V + V @ J.T + B @ B.T).max()), iterations,
                "ptc")
        note = (f"; the continuation point has non-decaying modes in "
                f"cells {critical}")
    return _euler(sys, dt, tol, max_iter, note)


def _at_rest(F, Q):
    return np.abs(F).max() <= DRIFT_RTOL * max(1.0, np.abs(Q).max())


def is_at_rest(sys, rho) -> bool:
    """Whether rho is a fixed point of the fluid drift F = LH Q to the
    relative residual DRIFT_RTOL."""
    Q = sys.rates(rho)
    return bool(_at_rest(sys.LH @ Q, Q))


def _ptc(sys, dt):
    """mu by pseudo-transient continuation (Kelley & Keyes 1998):
    mu <- clip(mu + (I / tau - J)^-1 F(mu)) from zero, with tau = dt at
    first and then scaled by the ratio of successive residual norms
    (switched evolution relaxation).  Returns mu, or None if the drift
    residual misses DRIFT_RTOL within PTC_MAX_ITER steps, and the number
    of steps taken."""
    LH, eye = sys.LH, np.eye(sys.n_state)
    mu = np.zeros(sys.n_state)
    Q = sys.rates(mu)
    F = LH @ Q
    res, tau = np.linalg.norm(F), dt
    for it in range(PTC_MAX_ITER + 1):
        if _at_rest(F, Q):
            return mu, it
        if it == PTC_MAX_ITER:
            break
        _, _, step, info = dgesv(eye / tau - LH @ sys.rate_jacobian(mu), F)
        if info:  # singular
            break
        mu = np.clip(mu + step, 0.0, sys.rho_jam)
        Q = sys.rates(mu)
        F = LH @ Q
        new = np.linalg.norm(F)
        if not np.isfinite(new):
            break
        # switched evolution relaxation, capped to keep tau finite
        tau, res = min(tau * res / max(new, 1e-300), 1e12), new
    return None, it


def _margin(J):
    return HURWITZ_MARGIN * max(1.0, np.abs(J).sum(axis=1).max())


def _critical_cells(sys, J):
    """1-based cells (or the network's cell labels) that carry the
    non-decaying modes of J, those whose eigenvalues have
    Re >= -HURWITZ_MARGIN max(1, ||J||_inf): the states holding at least
    a tenth of the largest eigenvector entry.  Empty if J is Hurwitz."""
    margin = _margin(J)
    if eigvals(J).real.max() < -margin:
        return []
    lam, vec = eig(J)
    bad = lam.real >= -margin
    weight = np.abs(vec[:, bad]).max(axis=1)
    cells = sorted({int(s) // sys.m for s in np.flatnonzero(weight >= 0.1 * weight.max())})
    if sys.cell_labels is not None:
        return [sys.cell_labels[c] for c in cells]
    return [c + 1 for c in cells]


@np.errstate(over="ignore", invalid="ignore")
def _euler(sys, dt, tol, max_iter, note=""):
    """Forward-Euler fixed-point iteration from (0, 0); stops when the
    Euclidean distance between consecutive stacked (mu, V) iterates
    drops below tol.  Raises FixedPointError, with `note` appended, as
    soon as that distance or V is no longer finite (the iteration has
    diverged; numpy's overflow warnings are silenced, so that the error
    is the only signal), or once mu stops moving while the then linear
    update of V does not contract: mu's update does not read V, so from
    there on V <- V + dt (J V + V J' + B B') with J and B fixed, whose
    rates are |1 + dt (l_i + l_j)| over the eigenvalues l of J.  A contracting
    update shrinks the distance at every step until rounding noise in V
    sets a floor; if the distance makes no new minimum for STALL_STEPS
    steps, that floor lies above tol and it raises too."""
    ns = sys.n_state
    LH = sys.LH
    mu = np.zeros(ns)
    V = np.zeros((ns, ns))
    moving = True
    for it in range(1, max_iter + 1):
        Q = sys.rates(mu)
        dQ = sys.rate_jacobian(mu)
        F = LH @ Q
        J = LH @ dQ
        B = LH * np.sqrt(Q)[None, :]
        Vdot = J @ V + V @ J.T + B @ B.T
        dmu = F * dt
        dV = Vdot * dt
        new = np.clip(mu + dmu, 0.0, sys.rho_jam)
        if moving and np.array_equal(new, mu):
            moving = False
            lam = eigvals(J)
            rate = np.abs(1.0 + dt * (lam[:, None] + lam[None, :])).max()
            if rate >= 1.0 - dt * _margin(J):
                raise FixedPointError(
                    f"iteration cannot converge: mu is fixed from step {it} "
                    f"and the V update does not contract (rate {rate:.6f})"
                    + note, float(np.abs(F).max()), float(np.abs(Vdot).max()))
            floor, floor_it = np.inf, it
        mu = new
        V = V + dV
        dist = np.sqrt(np.dot(dmu, dmu) + np.sum(dV * dV))
        if not (np.isfinite(dist) and np.isfinite(V).all()):
            raise FixedPointError(
                f"iteration diverged at step {it} (step distance {dist:.3e})"
                + note, float(np.abs(F).max()), float(np.abs(Vdot).max()))
        if dist < tol:
            return StationaryPoint(
                sys, mu, 0.5 * (V + V.T),
                float(np.abs(sys.drift(mu)).max()),
                float(np.abs(Vdot).max()), it, "euler")
        if not moving:
            if dist < floor:
                floor, floor_it = dist, it
            elif it - floor_it >= STALL_STEPS:
                raise FixedPointError(
                    f"iteration cannot reach tol {tol:.3e}: mu is fixed and the "
                    f"step distance floors at {floor:.3e} (no new minimum "
                    f"since step {floor_it})" + note,
                    float(np.abs(F).max()), float(np.abs(Vdot).max()))
    raise FixedPointError(
        f"no fixed point after {max_iter} iterations "
        f"(last step distance {dist:.3e})" + note,
        float(np.abs(F).max()), float(np.abs(Vdot).max()))


def cell_marginal(point: StationaryPoint, cell, cls=1) -> DiscreteMarginal:
    """Discrete marginal of the vehicle density in one (cell, class):
    the stationary Gaussian integrated over rectangles of half-width
    1/(2*l) around each attainable density, renormalized."""
    sys = point.system
    idx = (cell - 1) * sys.m + (cls - 1)
    if not 0 <= idx < sys.n_state:
        raise ValueError("cell/class out of range")
    ell = sys.state_lengths[idx]
    mu, var = point.mu[idx], point.V[idx, idx]
    support = np.arange(sys.x_jam[idx] + 1) / ell
    if var <= 1e-24:
        probs = np.zeros(len(support))
        probs[int(np.clip(round(mu * ell), 0, sys.x_jam[idx]))] = 1.0
        return DiscreteMarginal(cell, cls, support, probs)
    sd = np.sqrt(var)
    hi = ndtr((support + 0.5 / ell - mu) / sd)
    lo = ndtr((support - 0.5 / ell - mu) / sd)
    probs = np.maximum(hi - lo, 0.0)
    return DiscreteMarginal(cell, cls, support, probs / probs.sum())


def joint_marginal(point: StationaryPoint, cells, cls=1):
    """Joint rectangle marginal over up to 3 cells: returns a list of
    support tuples and their probabilities.  Cost grows as the product
    of the per-cell support sizes (capped at 1e6)."""
    if len(cells) > 3:
        raise ValueError("joint marginals are limited to 3 cells")
    sys = point.system
    idxs = [(c - 1) * sys.m + (cls - 1) for c in cells]
    ells = sys.state_lengths[idxs]
    supports = [np.arange(sys.x_jam[i] + 1) / l for i, l in zip(idxs, ells)]
    if np.prod([len(s) for s in supports]) > 1e6:
        raise ValueError("joint support exceeds 1e6 points")
    mean = point.mu[idxs]
    cov = point.V[np.ix_(idxs, idxs)]
    cov = cov + 1e-12 * np.trace(cov) * np.eye(len(idxs))
    mvn = multivariate_normal(mean=mean, cov=cov, allow_singular=True)
    pts = list(itertools.product(*supports))
    h = 0.5 / ells
    # rectangle probability by inclusion-exclusion over box corners
    probs = np.zeros(len(pts))
    for signs in itertools.product((1.0, -1.0), repeat=len(idxs)):
        corner = np.asarray(pts) + np.asarray(signs) * h
        probs += np.prod(signs) * mvn.cdf(corner)
    probs = np.maximum(probs, 0.0)
    return pts, probs / probs.sum()


def stationary_metric(f, marginal) -> float:
    """Expectation of f under a discrete (joint) marginal."""
    if isinstance(marginal, DiscreteMarginal):
        return float(sum(f(x) * p for x, p in zip(marginal.support, marginal.probs)))
    pts, probs = marginal
    return float(sum(f(x) * p for x, p in zip(pts, probs)))


def deterministic_metric(f, marginal) -> float:
    """f evaluated at the marginal mean (rather than the mean of f)."""
    if isinstance(marginal, DiscreteMarginal):
        return float(f(marginal.mean))
    pts, probs = marginal
    mean = np.einsum("ij,i->j", np.asarray(pts, dtype=float), probs)
    return float(f(mean))
