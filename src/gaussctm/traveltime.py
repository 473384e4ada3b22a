"""Travel-time survival curves and moments from the Gaussian
approximation of the cumulative-arrival process.

A vehicle entering cell i at time t with X0 vehicles ahead of it in
cells i..i+k exits cell i+k once the cumulative outflow of cell i+k
(counted from t) reaches X0, overtaking within a class being neglected.
The tail P(T > x) is therefore the probability that the Gaussian
variable D = Y_out(x) - X0 is still negative at lag x.  X0 carries
the covariance given for the start, scaled from densities to counts,
as exogenous uncertainty about the queue ahead: the rates are
linearized about the fluid path alone, so the fluctuation of Y does
not depend on X0.  D therefore has mean E Y_out(x) - E X0 and variance
Var Y_out(x) + w'Cov(X0)w, w the mask of cells i..i+k.  One
cumulative-moment solve, asked for Var Y_out(x) alone (one weight row
per class), serves every requested class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import _check_psd, solve_cumulative_moments, solve_moments

__all__ = ["TailCurve", "GridCoverageError", "travel_time_tail",
           "travel_time_moments", "default_grid"]

HOURS_PER_SECOND = 1.0 / 3600.0


class GridCoverageError(ValueError):
    pass


@dataclass
class TailCurve:
    i: int  # 1-based origin cell
    k: int  # span: exit from cell i+k
    j: int  # 1-based vehicle class
    t: float  # reference time (h)
    grid: np.ndarray  # seconds
    values: np.ndarray  # P(T > x), nonincreasing in x


def default_grid(x_max_s, n=1001):
    """n equidistant lags in [0, x_max] seconds."""
    return np.linspace(0.0, x_max_s, n)


def travel_time_tail(spec, state0, i, k, j, t, grid, x0_cov=None,
                     step=1e-3):
    """Survival curve of the travel time through cells i..i+k for class
    j, for a vehicle entering at time t with the system started in
    state0 (densities; optional Gaussian covariance x0_cov).

    `grid` holds the lags x in seconds, finite, nonnegative ascending.
    `j` may also be a sequence of classes: one cumulative-moment solve
    then serves them all, and a list of curves is returned."""
    sys = spec.system()
    m = sys.m
    d = sys.n_cells
    classes = [j] if np.isscalar(j) else list(j)
    if not (1 <= i and i + k <= d):
        raise ValueError("cell span out of range")
    if not all(1 <= c <= m for c in classes):
        raise ValueError("class index out of range")
    if not 0 <= t < np.inf:
        raise ValueError(f"entry time t must be finite and nonnegative, not {t}")
    grid = np.asarray(grid, dtype=float)
    if not (np.isfinite(grid).all() and np.all(grid >= 0) and np.all(np.diff(grid) > 0)):
        raise ValueError("grid must be finite, nonnegative and ascending")

    ns = sys.n_state
    rho_t = np.asarray(state0, dtype=float)
    cov_t = (np.zeros((ns, ns)) if x0_cov is None
             else _check_psd(x0_cov, ns, "x0_cov"))
    if t > 0:
        tl = solve_moments(sys, rho_t, cov_t, [0.0, t], step)
        rho_t, cov_t = tl.rho[-1], tl.V[-1]

    grid_h = grid * HOURS_PER_SECOND
    solve_grid = grid_h if grid_h[0] == 0.0 else np.concatenate([[0.0], grid_h])
    offset = len(solve_grid) - len(grid_h)
    ahead, outflow = zip(*(_weights(sys, i, k, jc) for jc in classes))
    cum = solve_cumulative_moments(sys, rho_t, solve_grid, step=step,
                                   weights=np.array(outflow))
    ell = sys.state_lengths
    counts_cov = (ell[:, None] * cov_t) * ell[None, :]

    curves = []
    for c, (w_x, w_y, jc) in enumerate(zip(ahead, outflow, classes)):
        mean = cum.y_mean[offset:] @ w_y + w_x @ cum.x0_mean
        var = cum.var[offset:, c] + w_x @ counts_cov @ w_x
        curves.append(TailCurve(i, k, jc, t, grid, _tail(mean, var)))
    return curves[0] if np.isscalar(j) else curves


def _weights(sys, i, k, j):
    """(w_x, w_y) with D = w_x'X(0) + w_y'Y = Y_out(x) - X0 for class j
    over cells i..i+k: w_x is -1 on cells i..i+k, w_y picks the
    cumulative outflow of cell i+k."""
    m = sys.m
    w_x = np.zeros(sys.n_state)
    w_x[(i - 1) * m + (j - 1):(i + k) * m:m] = -1.0
    w_y = np.zeros(sys.n_trans)
    w_y[(i + k) * m + (j - 1)] = 1.0
    return w_x, w_y


def _tail(mean, var):
    """P(D < 0) for Gaussian D of the given means and variances, made a
    proper (nonincreasing) tail."""
    from scipy.special import ndtr
    spread = var > 1e-18
    values = np.where(spread, ndtr(-mean / np.sqrt(np.where(spread, var, 1.0))),
                      mean < 0)
    np.clip(values, 0.0, 1.0, out=values)
    return np.minimum.accumulate(values)


def travel_time_moments(curve: TailCurve):
    """(mean, std) in seconds by tail integration: the curve is
    restricted to x >= 0, renormalized to the positive-mass part, and
    integrated by the trapezoid rule."""
    x, S = curve.grid, curve.values
    if S[-1] >= 1e-3:
        raise GridCoverageError(
            f"grid too short: residual tail mass {S[-1]:.3e} at "
            f"x = {x[-1]:.1f} s")
    if S[0] <= 0:
        return 0.0, 0.0
    St = S / S[0]
    mean = float(np.trapezoid(St, x))
    ex2 = float(np.trapezoid(2.0 * x * St, x))
    return mean, float(np.sqrt(max(ex2 - mean * mean, 0.0)))
