"""Exact event-driven simulation of the vehicle-count Markov chain.

Ground truth for the Gaussian approximations: the state is the integer
vector of vehicle counts per (cell, class); each transition moves one
vehicle, with exponential holding times at the current total rate and
the next transition drawn proportionally to its rate.  Only the rate
blocks that depend on the changed cells are recomputed after an event.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SimConfig", "Trajectory", "SimulationError", "simulate",
           "estimate_throughput", "ensemble_moments", "EnsembleMoments"]

_RESUM_EVERY = 4096  # events between full re-summations of the total rate


@dataclass(frozen=True)
class SimConfig:
    horizon: float  # h
    seed: int = 0
    replications: int = 1
    warmup: float = 0.0  # h, discarded before estimation windows

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.warmup < 0:
            raise ValueError("warm-up must be nonnegative")


class SimulationError(RuntimeError):
    """A transition moved a count outside [0, x_jam] (inconsistent rates)."""


class Trajectory:
    """One realization: event times, counts after each event, the index
    of the transition fired at each event, and the piecewise-constant
    boundary rates (for time-average flow estimators)."""

    def __init__(self, system, times, counts, trans, arr_rate, dep_rate,
                 horizon, absorbed):
        self.system = system
        self.times = np.asarray(times)  # t_0 = 0 plus one entry per event
        self.counts = np.asarray(counts, dtype=np.int64)  # (n_times, n_state)
        self.trans = np.asarray(trans, dtype=np.int64)  # (n_events,)
        # rate on the interval [times[k], times[k+1]) (last one runs to horizon)
        self.arrival_rate = np.asarray(arr_rate)
        self.departure_rate = np.asarray(dep_rate)
        self.horizon = horizon
        self.absorbed = absorbed

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

    inv_len = [1.0 / l for l in sys.state_lengths]
    counts = [int(c) for c in x0]
    rho = [c * il for c, il in zip(counts, inv_len)]
    x_jam = [int(v) for v in sys.x_jam]
    src = [None if s < 0 else int(s) for s in sys.src]
    dst = [None if d < 0 else int(d) for d in sys.dst]
    arr_idx = [t for t in range(sys.n_trans) if src[t] is None]
    dep_idx = [t for t in range(sys.n_trans) if dst[t] is None]
    # (first transition, rate_py, end) per block; blocks without rate_py
    # read their slice of one array rates call per event
    blocks = [(b.offset, b.rate_py, b.offset + len(b.srcs)) for b in sys.blocks]
    array_rates = any(f is None for _, f, _ in blocks)
    state_to_blocks = sys.state_to_blocks

    q = [0.0] * sys.n_trans
    total = 0.0
    times, states, trans, arr_rate, dep_rate = [], [], [], [], []
    t = 0.0
    horizon = cfg.horizon
    exp = rng.exponential
    uni = rng.random
    absorbed = False
    n_ev = 0
    touched = range(sys.n_state)  # at the start, every block is computed
    while True:
        # refresh only the rate blocks that depend on the changed cells
        seen = set()
        qa = sys.rates(np.array(rho)).tolist() if array_rates else None
        for cell in touched:
            for bi in state_to_blocks[cell]:
                if bi in seen:
                    continue
                seen.add(bi)
                o, f, e = blocks[bi]
                for j, v in enumerate(f(rho) if f else qa[o:e], o):
                    v = v if v > 0.0 else 0.0
                    total += v - q[j]
                    q[j] = v
        if n_ev % _RESUM_EVERY == 0:
            total = sum(q)  # squash round-off drift in the running sum
        times.append(t)
        states.append(list(counts))
        arr_rate.append(sum(q[i] for i in arr_idx))
        dep_rate.append(sum(q[i] for i in dep_idx))

        if total <= 1e-13:
            absorbed = True
            break
        t += exp(1.0 / total)
        if t >= horizon:
            break
        # proportional selection by linear scan
        u = uni() * total
        acc = 0.0
        k = sys.n_trans - 1
        for i in range(sys.n_trans):
            acc += q[i]
            if u < acc:
                k = i
                break
        trans.append(k)
        s, d = src[k], dst[k]
        touched = []
        if s is not None:
            counts[s] -= 1
            if counts[s] < 0:
                raise SimulationError(f"{sys.labels[k]}: state {s} below 0")
            rho[s] = counts[s] * inv_len[s]
            touched.append(s)
        if d is not None:
            counts[d] += 1
            if counts[d] > x_jam[d]:
                raise SimulationError(f"{sys.labels[k]}: state {d} above jam")
            rho[d] = counts[d] * inv_len[d]
            touched.append(d)
        n_ev += 1

    return Trajectory(sys, times, states, trans, arr_rate, dep_rate,
                      horizon, absorbed)


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
