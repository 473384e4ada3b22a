"""Stationary Gaussian fixed point and long-run performance metrics.

The fixed point (mu, V) of the moment equations is found by the plain
forward-Euler iteration mu_{k+1} = mu_k + F(mu_k) dt and the matching
Lyapunov update for V, starting from zero.  Per-cell discrete marginals
are obtained by integrating the stationary Gaussian over unit-count
rectangles (continuity correction), and performance metrics are sums of
a state function against those marginals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr
from scipy.stats import multivariate_normal

from .model import TransitionSystem

__all__ = [
    "StationaryPoint",
    "DiscreteMarginal",
    "FixedPointError",
    "stationary_fixed_point",
    "cell_marginal",
    "joint_marginal",
    "stationary_metric",
    "deterministic_metric",
]


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
    """Forward-Euler fixed-point iteration from (0, 0); stops when the
    Euclidean distance between consecutive stacked (mu, V) iterates
    drops below tol.  Raises FixedPointError as soon as that distance
    or V is no longer finite (the iteration has diverged)."""
    sys = spec.system()
    ns = sys.n_state
    LH = sys.LH
    mu = np.zeros(ns)
    V = np.zeros((ns, ns))
    for it in range(1, max_iter + 1):
        Q = sys.rates(mu)
        dQ = sys.rate_jacobian(mu)
        F = LH @ Q
        J = LH @ dQ
        B = LH * np.sqrt(Q)[None, :]
        Vdot = J @ V + V @ J.T + B @ B.T
        dmu = F * dt
        dV = Vdot * dt
        mu = np.clip(mu + dmu, 0.0, sys.rho_jam)
        V = V + dV
        dist = np.sqrt(np.dot(dmu, dmu) + np.sum(dV * dV))
        if not (np.isfinite(dist) and np.isfinite(V).all()):
            raise FixedPointError(
                f"iteration diverged at step {it} (step distance {dist:.3e})",
                float(np.abs(F).max()), float(np.abs(Vdot).max()))
        if dist < tol:
            return StationaryPoint(
                sys, mu, 0.5 * (V + V.T),
                float(np.abs(sys.drift(mu)).max()),
                float(np.abs(Vdot).max()), it)
    raise FixedPointError(
        f"no fixed point after {max_iter} iterations "
        f"(last step distance {dist:.3e})",
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
