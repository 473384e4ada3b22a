"""Exact event-driven simulation of the vehicle-count Markov chain.

Ground truth for the Gaussian approximations: the state is the integer
vector of vehicle counts per (cell, class); each transition moves one
vehicle, with exponential holding times at the current total rate and
the next transition drawn proportionally to its rate (Gillespie's direct
method), from exponential and uniform variates drawn in blocks.  For a
Daganzo kernel of links only (a segment) the loop evaluates the kernel's
expression per transition and refreshes, after an event, only the rates
that read the changed cells (Gibson & Bruck 2000); any other kernel
gives one whole-array `rates` call per event.  A run records the event
times, the fired transitions and the boundary rate sums; the counts are
derived from these when first read.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import itemgetter

import numpy as np

from .flux import _DaganzoKernel

__all__ = ["SimConfig", "Trajectory", "SimulationError", "simulate",
           "estimate_throughput", "ensemble_moments", "EnsembleMoments"]

# variates per generator call, doubling from the first to the last so
# that short runs do not draw thousands they never use
_FIRST_BLOCK, _BLOCK = 256, 4096


@dataclass(frozen=True)
class SimConfig:
    horizon: float  # h
    seed: int = 0
    replications: int = 1

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.replications < 1:
            raise ValueError("need at least one replication")


class SimulationError(RuntimeError):
    """A transition moved a count outside [0, x_jam] (inconsistent rates)."""


class Trajectory:
    """One realization: event times, the index of the transition fired
    at each event, and the piecewise-constant boundary rates (for
    time-average flow estimators); the counts after each event follow
    from the initial counts and the fired transitions."""

    def __init__(self, system, x0, times, trans, arr_rate, dep_rate,
                 horizon, absorbed):
        self.system = system
        self.x0 = x0
        self.times = np.asarray(times)  # t_0 = 0 plus one entry per event
        self.trans = np.asarray(trans, dtype=np.int64)  # (n_events,)
        # rate on the interval [times[k], times[k+1]) (last one runs to horizon)
        self.arrival_rate = np.asarray(arr_rate)
        self.departure_rate = np.asarray(dep_rate)
        self.horizon = horizon
        self.absorbed = absorbed

    @cached_property
    def counts(self):
        """Counts after each event, (n_times, n_state): x0 plus the
        running sum of the fired transitions' columns of H."""
        steps = np.empty((len(self.times), self.system.n_state), dtype=np.int64)
        steps[0] = self.x0
        steps[1:] = self.system.H.T[self.trans]
        return np.cumsum(steps, axis=0, out=steps)

    @property
    def n_events(self):
        return len(self.trans)

    def state_at(self, t):
        """Counts at time t (piecewise constant, right-continuous)."""
        if t < 0 or t > self.horizon:
            raise ValueError("time outside trajectory horizon")
        k = np.searchsorted(self.times, t, side="right") - 1
        return self.counts[k]

    def density_at(self, t):
        return self.state_at(t) / self.system.state_lengths

    def cumulative_counts(self):
        """Realized cumulative transition counts Y(t) per transition,
        aligned with `times` (Y[0] = 0)."""
        Y = np.zeros((len(self.times), self.system.n_trans), dtype=np.int64)
        Y[1:] = np.cumsum(np.eye(self.system.n_trans, dtype=np.int64)[self.trans],
                          axis=0)
        return Y


def _link_rates(sys):
    """For a Daganzo kernel of links only, per transition k the tuples
    (i, idx, scale, off, sgn, cap of its sending candidate, then of its
    receiving one) of every transition i whose rate reads k's source or
    destination cell (from the kernel's Jacobian sparsity), and last the
    tuples of all transitions.  None for any other kernel."""
    kern = sys.kernel
    if not isinstance(kern, _DaganzoKernel) or kern.nd or kern.nm:
        return None
    idx = kern.idx.reshape(-1, 2).tolist()
    par = np.stack([kern.scale, kern.off, kern.sgn, kern.cap],
                   axis=1).reshape(-1, 2, 4).tolist()
    rows = [(k, i0, *a, i1, *b) for k, ((i0, i1), (a, b)) in enumerate(zip(idx, par))]
    reads = [set() for _ in range(sys.n_state + 1)]  # reads[-1]: the boundary
    for r, c in zip(kern.rows.tolist(), kern.cols.tolist()):
        reads[c].add(r)
    return [[rows[k] for k in sorted(reads[s] | reads[d])]
            for s, d in zip(sys.src.tolist(), sys.dst.tolist())] + [rows]


def _sum_over(idx):
    """q -> the sum of q[i] over idx, in order."""
    if len(idx) == 1:
        return itemgetter(idx[0])
    return lambda q: sum([q[i] for i in idx], 0.0)


def simulate(spec, initial_counts, cfg: SimConfig, rng=None) -> Trajectory:
    """Run one exact realization over [0, cfg.horizon].

    `initial_counts` are integer vehicle counts per (cell, class).  If a
    generator is supplied it is used as-is; otherwise one is seeded from
    cfg.seed.  Zero total rate absorbs the chain (recorded, not an error).
    """
    sys = spec.system()
    x0 = np.asarray(initial_counts)
    if x0.shape != (sys.n_state,):
        raise ValueError(f"initial counts must have shape ({sys.n_state},)")
    if not np.all(x0 == np.rint(x0)):
        raise ValueError("initial counts must be integers")
    x0 = x0.astype(np.int64)
    if np.any(x0 < 0) or np.any(x0 > sys.x_jam):
        raise ValueError("initial counts outside [0, x_jam]")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)

    n = sys.n_trans
    inv_len = (1.0 / sys.state_lengths).tolist()
    x_jam = sys.x_jam.tolist()
    # a full cell holds rho_jam where x_jam * (1 / l) rounds below it, so
    # that its receiving rate is exactly 0
    full = np.maximum(sys.x_jam * np.array(inv_len), sys.rho_jam).tolist()
    counts = x0.tolist()
    rho = [c * il if c < x else f for c, x, il, f in zip(counts, x_jam, inv_len, full)]
    src, dst = sys.src.tolist(), sys.dst.tolist()  # -1 at the boundary
    arr_sum = _sum_over(np.flatnonzero(sys.src < 0).tolist())
    dep_sum = _sum_over(np.flatnonzero(sys.dst < 0).tolist())
    after = _link_rates(sys)  # after[-1]: before the first event, every rate
    q = [0.0] * n

    times, trans, arr_rate, dep_rate = [0.0], [], [], []
    t, horizon = 0.0, cfg.horizon
    block = _FIRST_BLOCK // 2
    exps = unis = ()
    j = block
    k = -1
    absorbed = False
    while True:
        if after is None:
            q = sys.rates(np.array(rho)).tolist()
        else:
            for i, i0, a0, o0, s0, c0, i1, a1, o1, s1, c1 in after[k]:
                # max(0, min(min(f0, c0), min(f1, c1))) without calls
                f0 = a0 * (o0 + s0 * rho[i0])
                f1 = a1 * (o1 + s1 * rho[i1])
                v = f0 if f0 < c0 else c0
                v = v if v < f1 else f1
                v = v if v < c1 else c1
                q[i] = v if v > 0.0 else 0.0
        cum = list(accumulate(q, initial=0.0))  # exact running sums
        total = cum[-1]
        arr_rate.append(arr_sum(q))
        dep_rate.append(dep_sum(q))
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
            rho[s] = counts[s] * inv_len[s]
        if d >= 0:
            c = counts[d] = counts[d] + 1
            if c > x_jam[d]:
                raise SimulationError(f"{sys.labels[k]}: state {d} above jam")
            rho[d] = c * inv_len[d] if c < x_jam[d] else full[d]

    return Trajectory(sys, x0, times, trans, arr_rate, dep_rate, horizon,
                      absorbed)


def estimate_throughput(traj: Trajectory, t_start, t_end) -> float:
    """Time-average arrival rate over [t_start, t_end], integrating the
    piecewise-constant rate along the trajectory."""
    if t_end <= t_start:
        raise ValueError("empty estimation window")
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


def ensemble_moments(spec, initial_counts, cfg: SimConfig,
                     sample_times) -> EnsembleMoments:
    """Empirical mean/covariance of the density vector at each sample
    time across independent replications (seed streams spawned from
    cfg.seed by replication index)."""
    if cfg.replications < 2:
        raise ValueError("covariance estimation needs at least 2 replications")
    sys = spec.system()
    sample_times = np.asarray(sample_times, dtype=float)
    if np.any(sample_times < 0) or np.any(sample_times > cfg.horizon):
        raise ValueError("sample times must lie within the horizon")
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.replications)
    samples = np.empty((cfg.replications, len(sample_times), sys.n_state))
    for r in range(cfg.replications):
        traj = simulate(sys, initial_counts, cfg, rng=np.random.default_rng(streams[r]))
        idx = np.searchsorted(traj.times, sample_times, side="right") - 1
        samples[r] = traj.counts[idx] / sys.state_lengths
    mean = samples.mean(axis=0)
    sd = samples.std(axis=0, ddof=1)
    cov = np.empty((len(sample_times), sys.n_state, sys.n_state))
    for k in range(len(sample_times)):
        cov[k] = np.cov(samples[:, k, :], rowvar=False, ddof=1).reshape(
            sys.n_state, sys.n_state)
    return EnsembleMoments(sample_times, mean, cov,
                           sd / np.sqrt(cfg.replications), cfg.replications)
