"""Exact event-driven simulation of the vehicle-count Markov chain.

Ground truth for the Gaussian approximations: the state is the integer
vector of vehicle counts per (cell, class); each transition moves one
vehicle, with exponential holding times at the current total rate and
the next transition drawn proportionally to its rate (Gillespie's direct
method), from exponential and uniform variates drawn in blocks.  A count
stands for its density in the system's `count_density`.  For a Daganzo
kernel of links only (a segment) each link rate is the smaller of two
capped candidate flows, each a function of one cell's count: the loop
reads them from tables indexed by count, built once per run, and
refreshes after an event only the rates that read the changed cells
(Gibson & Bruck 2000); any other kernel gives one whole-array `rates`
call per event; with two or more classes, that path also gives zero
rate to an arrival that would fill its cell past the jam occupancy.
A run records only the event times and the fired transitions; the
counts and the boundary rate sums are derived from these when first
read.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate

import numpy as np

from .flux import _DaganzoKernel, check_occupancy

__all__ = ["Trajectory", "SimulationError", "simulate",
           "estimate_throughput", "ensemble_moments", "EnsembleMoments"]

# variates per generator call, doubling from the first to the last so
# that short runs do not draw thousands they never use
_FIRST_BLOCK, _BLOCK = 256, 4096


class SimulationError(RuntimeError):
    """A transition moved a count outside [0, x_jam] (inconsistent rates)."""


class Trajectory:
    """One realization: event times and the index of the transition fired
    at each event; the counts after each event and the piecewise-constant
    boundary rates (for time-average flow estimators) follow from the
    initial counts, the fired transitions and the run's count `tables`
    (`_link_rates`; None on the whole-array path)."""

    def __init__(self, system, x0, times, trans, horizon, absorbed, tables):
        self.system = system
        self.x0 = x0
        self.times = np.asarray(times)  # t_0 = 0 plus one entry per event
        self.trans = np.asarray(trans, dtype=np.int64)  # (n_events,)
        self.horizon = horizon
        self.absorbed = absorbed
        self.tables = tables

    @cached_property
    def counts(self):
        """Counts after each event, (n_times, n_state): x0 plus the
        running sum of the fired transitions' columns of H."""
        steps = np.empty((len(self.times), self.system.n_state), dtype=np.int64)
        steps[0] = self.x0
        steps[1:] = self.system.H.T[self.trans]
        return np.cumsum(steps, axis=0, out=steps)

    def _count_path(self, state):
        """Counts of one state after each event, (n_times,)."""
        steps = np.empty(len(self.times), dtype=np.int64)
        steps[0] = self.x0[state]
        steps[1:] = self.system.H[state, self.trans]
        return np.cumsum(steps, out=steps)

    @cached_property
    def arrival_rate(self):
        """Summed rate of the arrivals on [times[k], times[k+1]) (the last
        interval runs to the horizon)."""
        return self._rate_sum(self.system.src < 0)

    @cached_property
    def departure_rate(self):
        """Summed rate of the departures, as `arrival_rate`."""
        return self._rate_sum(self.system.dst < 0)

    def _rate_sum(self, mask):
        """Summed rates of the transitions in `mask` per interval, as the
        loop evaluated them: from the count tables along each cell's count
        path, or `_bounded_rates` at each visited state's densities."""
        links = np.flatnonzero(mask).tolist()
        # summed from 0 in transition order, as the loop summed them
        total = np.zeros(len(self.times))
        if self.tables is None:
            rates = _bounded_rates(self.system)
            q = np.array([rates(rho) for rho in self._densities(self.counts)])
            for i in links:
                total += q[:, i]
            return total
        path = cache(self._count_path)  # one path per cell read
        for i in links:
            _, c0, A, c1, B = self.tables[i]
            total += np.minimum(np.array(A)[path(c0)], np.array(B)[path(c1)])
        return total

    def _densities(self, counts):
        """The `count_density` of each state's count in `counts` (..., n_state)."""
        return self.system.count_density[np.arange(self.system.n_state), counts]

    @property
    def n_events(self):
        return len(self.trans)

    def state_at(self, t):
        """Counts at time t (piecewise constant, right-continuous)."""
        if not 0 <= t <= self.horizon:  # NaN too
            raise ValueError("time outside trajectory horizon")
        k = np.searchsorted(self.times, t, side="right") - 1
        return self.counts[k]

    def density_at(self, t):
        return self._densities(self.state_at(t))

    def cumulative_counts(self):
        """Realized cumulative transition counts Y(t) per transition,
        aligned with `times` (Y[0] = 0)."""
        Y = np.zeros((len(self.times), self.system.n_trans), dtype=np.int64)
        Y[1:] = np.cumsum(np.eye(self.system.n_trans, dtype=np.int64)[self.trans],
                          axis=0)
        return Y


def _link_rates(sys):
    """For a Daganzo kernel of links only, per transition k the tuples
    (i + 1, cell, table, cell, table of i's sending and receiving candidates)
    of every transition i whose rate reads k's source or destination cell
    (from the kernel's Jacobian sparsity), and last the tuples of all
    transitions.  A table holds max(0, min(scale (off + sgn rho), cap))
    per count of its cell at its `count_density` rho (all inf for a None
    candidate), so that rate i is the smaller of its two entries.  None
    for any other kernel."""
    kern = sys.kernel
    if not isinstance(kern, _DaganzoKernel) or kern.nd or kern.nm:
        return None
    idx = kern.idx.tolist()
    rho = sys.count_density[kern.idx]
    lin = kern.scale[:, None] * (kern.off[:, None] + kern.sgn[:, None] * rho)
    lin = np.minimum(lin, kern.cap[:, None])
    tab = np.where(lin > 0.0, lin, 0.0).tolist()
    rows = [(k + 1, idx[2 * k], tab[2 * k], idx[2 * k + 1], tab[2 * k + 1])
            for k in range(sys.n_trans)]
    reads = [set() for _ in range(sys.n_state + 1)]  # reads[-1]: the boundary
    for r, c in zip(kern.rows.tolist(), kern.cols.tolist()):
        reads[c].add(r)
    return [[rows[k] for k in sorted(reads[s] | reads[d])]
            for s, d in zip(sys.src.tolist(), sys.dst.tolist())] + [rows]


def _bounded_rates(sys):
    """rho -> sys.rates(rho), where for m >= 2 classes a transition whose
    arrival would fill its destination cell past the jam occupancy gets
    rate 0: iff G[k] @ rho > thr[k], the sum over the cell's classes of
    rho / rho_jam, after the arrival, above 1 to 1e-9 as in
    `check_occupancy`.  The two-class supply stays positive below full
    occupancy, and one class-j vehicle adds L_j / (N l) to it.  One class
    needs no bound: its receiving rate is already 0 at x_jam."""
    rates = sys.rates
    if sys.m == 1:
        return rates
    into = np.flatnonzero(sys.dst >= 0)
    d = sys.dst[into]
    G = np.zeros((sys.n_trans, sys.n_state))
    for j in range(sys.m):
        state = d - d % sys.m + j
        G[into, state] = 1.0 / sys.rho_jam[state]
    thr = np.full(sys.n_trans, np.inf)
    thr[into] = 1.0 + 1e-9 - 1.0 / (sys.rho_jam[d] * sys.state_lengths[d])

    def bounded(rho):
        q = rates(rho)
        q[G @ rho > thr] = 0.0
        return q
    return bounded


def simulate(spec, initial_counts, horizon, seed=0) -> Trajectory:
    """Run one exact realization over [0, horizon] (h), 0 < horizon < inf.

    `initial_counts` are integer vehicle counts per (cell, class), within
    the jam count of each single-class cell and the jam occupancy of each
    multi-class cell.  The variates come from `np.random.default_rng(seed)`:
    `seed` is an int, a `SeedSequence` or a `Generator`, which is used as
    is.  Zero total rate absorbs the chain (recorded, not an error).
    """
    if not 0 < horizon < np.inf:
        raise ValueError("horizon must be positive and finite")
    sys = spec.system()
    x0 = np.asarray(initial_counts)
    if x0.shape != (sys.n_state,):
        raise ValueError(f"initial counts must have shape ({sys.n_state},)")
    if not np.all(x0 == np.rint(x0)):
        raise ValueError("initial counts must be integers")
    x0 = x0.astype(np.int64)
    # a two-class start is bounded by occupancy, as `_bounded_rates` bounds
    # the chain, not by the rounded-up x_jam of each class alone
    check_occupancy(x0, sys.x_jam if sys.m == 1 else sys.rho_jam * sys.state_lengths,
                    sys.m, "initial counts")
    rng = np.random.default_rng(seed)

    n = sys.n_trans
    after = _link_rates(sys)  # after[-1]: before the first event, every rate
    rates = _bounded_rates(sys)
    x_jam, dens, counts = sys.x_jam.tolist(), sys.count_density.tolist(), x0.tolist()
    rho = [r[c] for r, c in zip(dens, counts)]  # the whole-array path's densities
    src, dst = sys.src.tolist(), sys.dst.tolist()  # -1 at the boundary
    q = [0.0] * (n + 1)  # q[i + 1]: rate i, after a 0 that starts the running sums

    times, trans = [0.0], []
    t = 0.0
    block = _FIRST_BLOCK // 2
    exps = unis = ()
    j = block
    k = s = d = -1
    absorbed = False
    while True:
        if after is None:
            # the last event's two cells (the boundary, -1, rewrites the last
            # state's density unchanged)
            rho[s], rho[d] = dens[s][counts[s]], dens[d][counts[d]]
            q = [0.0, *rates(np.array(rho)).tolist()]
        else:
            for i, i0, A, i1, B in after[k]:
                a, b = A[counts[i0]], B[counts[i1]]
                q[i] = a if a < b else b
        cum = list(accumulate(q))  # exact running sums
        total = cum[-1]
        if total <= 1e-13:
            absorbed = True
            break
        if j == block:
            block = min(2 * block, _BLOCK)
            exps = rng.standard_exponential(block).tolist()
            unis = rng.random(block).tolist()
            j = 0
        t += exps[j] / total
        if t >= horizon:
            break
        # proportional selection: the first k with u total < cum[k + 1]
        u = unis[j] * total
        j += 1
        k = bisect_right(cum, u) - 1
        if k == n:  # u rounded up to the total: the last positive rate
            k = bisect_left(cum, total) - 1
        times.append(t)
        trans.append(k)
        s, d = src[k], dst[k]
        if s >= 0:
            counts[s] -= 1
            if counts[s] < 0:
                raise SimulationError(f"{sys.labels[k]}: state {s} below 0")
        if d >= 0:
            counts[d] += 1
            if counts[d] > x_jam[d]:
                raise SimulationError(f"{sys.labels[k]}: state {d} above jam")

    return Trajectory(sys, x0, times, trans, horizon, absorbed, after and after[-1])


def estimate_throughput(traj: Trajectory, t_start, t_end) -> float:
    """Time-average arrival rate over [t_start, t_end], integrating the
    piecewise-constant rate along the trajectory."""
    if not (np.isfinite(t_start) and np.isfinite(t_end)):
        raise ValueError("window bounds must be finite")
    if t_end <= t_start:
        raise ValueError("empty estimation window")
    if t_start < 0:
        raise ValueError("window starts before time 0")
    if t_end > traj.horizon + 1e-12:
        raise ValueError("window extends past trajectory horizon")
    edges = np.append(traj.times, traj.horizon)
    lo = np.clip(edges[:-1], t_start, t_end)
    hi = np.clip(edges[1:], t_start, t_end)
    return float(np.dot(traj.arrival_rate, hi - lo)) / (t_end - t_start)


@dataclass
class EnsembleMoments:
    times: np.ndarray
    mean: np.ndarray  # (n_times, n_state) densities
    cov: np.ndarray  # (n_times, n_state, n_state)
    mean_se: np.ndarray  # (n_times, n_state) standard error of the mean
    replications: int


def ensemble_moments(spec, initial_counts, horizon, sample_times,
                     replications, seed=0) -> EnsembleMoments:
    """Empirical mean/covariance of the density vector at each sample
    time across `replications` independent runs over [0, horizon]; run r
    draws from stream r of `SeedSequence(seed).spawn(replications)`."""
    if replications < 2:
        raise ValueError("covariance estimation needs at least 2 replications")
    if not 0 < horizon < np.inf:  # before the sample times, which it bounds
        raise ValueError("horizon must be positive and finite")
    sys = spec.system()
    sample_times = np.asarray(sample_times, dtype=float)
    if not np.all((0 <= sample_times) & (sample_times <= horizon)):  # NaN too
        raise ValueError("sample times must lie within the horizon")
    samples = np.empty((replications, len(sample_times), sys.n_state))
    for r, stream in enumerate(np.random.SeedSequence(seed).spawn(replications)):
        traj = simulate(sys, initial_counts, horizon, stream)
        idx = np.searchsorted(traj.times, sample_times, side="right") - 1
        samples[r] = traj._densities(traj.counts[idx])
    mean = samples.mean(axis=0)
    sd = samples.std(axis=0, ddof=1)
    cov = np.empty((len(sample_times), sys.n_state, sys.n_state))
    for k in range(len(sample_times)):
        cov[k] = np.cov(samples[:, k, :], rowvar=False, ddof=1).reshape(
            sys.n_state, sys.n_state)
    return EnsembleMoments(sample_times, mean, cov,
                           sd / np.sqrt(replications), replications)
