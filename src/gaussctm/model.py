"""Static segment/network specifications and their assembled dynamics.

A specification is compiled into a :class:`TransitionSystem`: flat
arrays of unit-vehicle transitions, each moving one vehicle from a
source to a destination cell (-1 across the boundary), together with
the state-dependent rate of each transition and its gradient.
Everything downstream (exact simulation, fluid/diffusion ODEs,
stationary analysis) works off this one object.

The rates are compiled once into an array kernel (index and parameter
arrays over transitions and junctions), so `rates(rho)` is a few
`np.minimum` reductions over whole arrays and `rate_jacobian(rho)` fills
a fixed sparsity pattern from masks marking each rate's active branch.
The exact simulator evaluates a junction-free Daganzo kernel's
expression one transition at a time from the same arrays.
At a kink, links and the two-class flux use a slope only when its branch
is strictly active, as `flux` does; Daganzo's (1995) diverges and merges
average the slopes of tied candidates, keeping symmetric branches
symmetric.  The per-boundary `FluxFunction` methods are the reference.

State flattening is cell-major, class-minor: the density of class j in
cell i sits at index i*m + j.  Network states concatenate the roads in
declaration order, padding cells being ordinary one-cell roads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flux import DaganzoFlux, FluxFunction, TwoClassFlux

__all__ = [
    "SegmentSpec",
    "RoadSpec",
    "Diverge",
    "Merge",
    "NetworkSpec",
    "NetworkConfigError",
    "TransitionSystem",
    "build_segment_system",
    "build_network_system",
    "rate_vector",
    "incidence_matrices",
    "drift",
    "drift_jacobian",
    "dispersion",
    "network_rate_vector",
]


class NetworkConfigError(ValueError):
    """Inconsistent junction wiring, routing parameters or road flux."""


class TransitionSystem:
    """Cells plus unit-vehicle transitions with state-dependent rates,
    computed by `kernel` (see the module docstring)."""

    def __init__(self, lengths, m, rho_jam, src, dst, labels, kernel,
                 cell_labels=None):
        self.m = m
        self.n_cells = len(lengths)
        self.lengths = np.asarray(lengths, dtype=float)
        self.n_state = self.n_cells * m
        # per state index: cell length and jam density of that (cell, class)
        self.state_lengths = np.repeat(self.lengths, m)
        self.rho_jam = np.asarray(rho_jam, dtype=float)
        self.x_jam = np.rint(self.rho_jam * self.state_lengths).astype(int)
        self.cell_labels = cell_labels
        self.kernel = kernel

        self.n_trans = len(src)
        self.src = np.array([-1 if s is None else s for s in src], dtype=int)
        self.dst = np.array([-1 if d is None else d for d in dst], dtype=int)
        self.labels = labels
        self._jac_index = kernel.rows * self.n_state + kernel.cols

        H = np.zeros((self.n_state, self.n_trans))
        t = np.arange(self.n_trans)
        H[self.dst[self.dst >= 0], t[self.dst >= 0]] = 1.0
        H[self.src[self.src >= 0], t[self.src >= 0]] -= 1.0
        self.H = H
        self.L = np.diag(1.0 / self.state_lengths)
        self.LH = H / self.state_lengths[:, None]

    def system(self):
        """The system itself: solvers call `spec.system()` on either."""
        return self

    def check_domain(self, rho):
        rho = np.asarray(rho, dtype=float)
        if rho.shape != (self.n_state,):
            raise ValueError(f"state must have shape ({self.n_state},)")
        if np.any(rho < -1e-12) or np.any(rho > self.rho_jam + 1e-9):
            raise ValueError("density outside [0, rho_jam]")

    def rates(self, rho):
        q = self.kernel.rates(np.asarray(rho, dtype=float))
        np.maximum(q, 0.0, out=q)
        return q

    def rate_jacobian(self, rho):
        dq = np.bincount(self._jac_index,
                         weights=self.kernel.jacobian(np.asarray(rho, dtype=float)),
                         minlength=self.n_trans * self.n_state)
        return dq.reshape(self.n_trans, self.n_state)

    def drift(self, rho):
        return self.LH @ self.rates(rho)

    def drift_jacobian(self, rho):
        return self.LH @ self.rate_jacobian(rho)

    def dispersion(self, rho):
        return self.LH * np.sqrt(self.rates(rho))[None, :]


# ---------------------------------------------------------------------------
# array kernels


class _DaganzoKernel:
    """Rates of a single-class Daganzo segment or network from one array
    of candidate flows.  A candidate (cell, DaganzoParams, sending, cap)
    is the sending flow min(v_f rho, cap) of an upstream cell or the
    receiving flow min(w (rho_max - rho), cap) of a downstream one, both
    min(scale (off + sgn rho), cap), with cap q_max lowered to any
    external demand or departure bound; None is a +inf candidate.
    * links (src, dst, params, cap), src or dst None at arrivals and
      departures: min(sending, receiving), strict slopes;
    * diverges (upstream, [(branch, p_b), ...]): branch b gets
      p_b min(D, min_b R_b / p_b), padded to the largest branch count;
    * merges (a, b, downstream, (p_a, p_b)): if D_a + D_b fit into the
      supply R each passes its demand, else a gets the median of
      (D_a, R - D_b, p_a R).
    Junctions average the slopes of tied candidates."""

    def __init__(self, links, diverges=(), merges=()):
        K = self.K = 1 + max((len(br) for _, br in diverges), default=0)
        cands = [c for s, d, p, cap in links for c in (
            None if s is None else (s, p, True, cap),
            None if d is None else (d, p, False, cap))]
        # Jacobian entries (transition, candidate whose cell is the column)
        ent = [(k // 2, k) for k, c in enumerate(cands) if c is not None]
        nl, n_link, div, owner, trans_p = len(links), len(ent), [], [], []
        for i, (up, branches) in enumerate(diverges):
            pad, c0 = K - 1 - len(branches), len(cands)
            cands += [up] + [c for c, _ in branches] + [None] * pad
            div += [1.0] + [p for _, p in branches] + [1.0] * pad
            for _, p in branches:
                ent += [(nl + len(owner), c0 + k) for k in range(1 + len(branches))]
                owner.append(i)
                trans_p.append(p)
        self.nd, self.nm = len(owner), len(merges)
        self.div_sl = slice(2 * nl, len(cands))
        n_div = len(ent) - n_link
        # merge rows a, b by their own upstream, the other upstream and
        # the downstream cell
        for i, m in enumerate(merges):
            t, c0 = nl + self.nd + 2 * i, len(cands)
            ent += [(t, c0), (t, c0 + 1), (t, c0 + 2),
                    (t + 1, c0 + 1), (t + 1, c0), (t + 1, c0 + 2)]
            cands += m[:3]
        table = [(0, 1.0, np.inf, 1.0, np.inf) if c is None else
                 (c[0], c[1].v_f, 0.0, 1.0, c[3]) if c[2] else
                 (c[0], c[1].w, c[1].rho_max, -1.0, c[3]) for c in cands]
        idx, self.scale, self.off, self.sgn, self.cap = np.array(table).reshape(-1, 5).T
        self.idx, self.slope = idx.astype(int), self.scale * self.sgn
        ent = np.array(ent, dtype=int).reshape(-1, 2)
        self.rows, self.cols = ent[:, 0], self.idx[ent[:, 1]]
        self.link_ent = ent[:n_link, 1]
        self.div, self.owner, self.trans_p = np.array(div), np.array(owner), np.array(trans_p)
        div_ent = ent[n_link:n_link + n_div]
        self.div_ent = div_ent[:, 1] - self.div_sl.start
        self.ent_p = self.trans_p[div_ent[:, 0] - nl]
        self.p = np.array([m[3] for m in merges], dtype=float).reshape(-1, 2)

    def _lin(self, rho):
        return self.scale * (self.off + self.sgn * rho[self.idx])

    def _merge(self, flow):
        D, R = flow[:, :2], flow[:, 2:]
        free = D[:, :1] + D[:, 1:] <= R
        c = (D, R - D[:, ::-1], self.p * R)
        med = np.maximum(np.minimum(D, c[1]), np.minimum(np.maximum(D, c[1]), c[2]))
        return free, c, med

    def rates(self, rho):
        flow = np.minimum(self._lin(rho), self.cap)
        parts = [flow[:self.div_sl.start].reshape(-1, 2).min(axis=1)]
        if self.nd:
            total = (flow[self.div_sl] / self.div).reshape(-1, self.K).min(axis=1)
            parts.append(self.trans_p * total[self.owner])
        if self.nm:
            m = flow[self.div_sl.stop:].reshape(-1, 3)
            free, _, med = self._merge(m)
            parts.append(np.where(free, m[:, :2], med).ravel())
        return np.concatenate(parts)

    def jacobian(self, rho):
        lin = self._lin(rho)
        flow = np.minimum(lin, self.cap)
        slope = np.where(lin < self.cap, self.slope, 0.0)
        f, s = (x[:self.div_sl.start].reshape(-1, 2) for x in (flow, slope))
        parts = [np.where(f < f[:, ::-1], s, 0.0).ravel()[self.link_ent]]
        if self.nd:
            vals = (flow[self.div_sl] / self.div).reshape(-1, self.K)
            active = vals == vals.min(axis=1, keepdims=True)
            avg = (np.where(active, (slope[self.div_sl] / self.div).reshape(-1, self.K), 0.0)
                   / active.sum(axis=1, keepdims=True))
            parts.append(self.ent_p * avg.ravel()[self.div_ent])
        if self.nm:
            free, c, med = self._merge(flow[self.div_sl.stop:].reshape(-1, 3))
            s = slope[self.div_sl.stop:].reshape(-1, 3)
            dD, dR = s[:, :2], s[:, 2:]
            # active candidates; a free merge passes its own demand
            a0 = (c[0] == med) | free
            a1 = (c[1] == med) & ~free
            a2 = (c[2] == med) & ~free
            n = a0.astype(float) + a1 + a2
            out = np.empty(dD.shape + (3,))
            out[..., 0] = np.where(a0, dD, 0.0) / n
            out[..., 1] = np.where(a1, -dD[:, ::-1], 0.0) / n
            out[..., 2] = np.where(a1, dR, 0.0) / n + np.where(a2, self.p * dR, 0.0) / n
            parts.append(out.ravel())
        return np.concatenate(parts)


class _TwoClassKernel:
    """`TwoClassFlux` at all d+1 boundaries of a segment.  Boundary b
    passes the raw occupancy demands g_b (lam * L for the arrivals,
    rho * L * v_f of cell b-1 otherwise) through min(sum g_b, capacity,
    supply of cell b), shared in proportion to g_b; departures are
    further capped at nu per class.  Branch slopes follow
    `TwoClassFlux._shared`: only a strictly active branch has one."""

    def __init__(self, f: TwoClassFlux, d, lam, nu):
        self.d, self.L, self.v = d, f.lengths, f.v_free
        self.g_in = (np.asarray(lam, dtype=float) * f.lengths)[None, :]
        self.nu = np.asarray(nu, dtype=float)
        self.cap, self.w_occ, self.N = f.capacity_occ, f.w_occ, f.params.N
        self.cap_out = np.array([self.cap])  # departures meet no supply
        self.dlin = -self.w_occ * f.lengths  # slope of the backward wave
        # entries (b, j, k): flow j of boundary b+1 by density k of its
        # sending cell b, then flow j of boundary b by density k of its
        # receiving cell b
        b, j, k = np.indices((d, 2, 2))
        self.rows = np.concatenate([(2 * b + 2 + j).ravel(), (2 * b + j).ravel()])
        self.cols = np.tile((2 * b + k).ravel(), 2)

    def _shared(self, rho):
        R = rho.reshape(self.d, 2)
        g = np.concatenate((self.g_in, R * self.L * self.v))
        lin = self.w_occ * (self.N - R @ self.L)
        # min(capacity, supply of the receiving cell) per boundary
        lim = np.concatenate((np.minimum(self.cap, lin), self.cap_out))
        total = g.sum(axis=1)
        live = total > 0.0
        eff = np.where(live, np.minimum(total, lim), 0.0)
        shares = g / np.where(live, total, 1.0)[:, None]
        return lin, lim, total, live, eff, shares

    def rates(self, rho):
        *_, eff, shares = self._shared(rho)
        q = shares * eff[:, None] / self.L
        q[-1] = np.minimum(q[-1], self.nu)
        return q.ravel()

    def jacobian(self, rho):
        lin, lim, total, live, eff, shares = self._shared(rho)
        ratio = eff / np.where(live, total, 1.0)  # <= 1: no overflow
        # d flow_j / d g_k: the shares move, and on the free branch so does eff
        dflow = (np.eye(2) - shares[:, :, None]) * ratio[:, None, None]
        dflow += np.where((live & (total < lim))[:, None, None],
                          shares[:, :, None], 0.0)
        send = dflow[1:] * (self.L * self.v) / self.L[:, None]
        send[-1] *= (shares[-1] * eff[-1] / self.L < self.nu)[:, None]
        # congested: the backward-wave supply is strictly the binding limit
        cong = live[:-1] & (lin < np.minimum(self.cap, total[:-1]))
        recv = np.where(cong[:, None, None],
                        shares[:-1, :, None] * self.dlin / self.L[:, None], 0.0)
        return np.concatenate([send.ravel(), recv.ravel()])


# ---------------------------------------------------------------------------
# segments


@dataclass(frozen=True)
class SegmentSpec:
    """A single road segment: d cells in series with boundary arrivals
    at cell 1 (bounded by lam) and departures at cell d (bounded by nu)."""

    d: int
    lengths: tuple  # km per cell, length d
    flux: FluxFunction
    lam: tuple  # veh/h per class
    nu: tuple  # veh/h per class

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("need at least one cell")
        if len(self.lengths) != self.d:
            raise ValueError("lengths must have one entry per cell")
        if any(l <= 0 for l in self.lengths):
            raise ValueError("cell lengths must be positive")
        if len(self.lam) != self.flux.m or len(self.nu) != self.flux.m:
            raise ValueError("lam/nu must have one entry per class")
        if any(x < 0 for x in self.lam) or any(x < 0 for x in self.nu):
            raise ValueError("boundary rates must be nonnegative")

    @staticmethod
    def uniform(d, cell_length, flux, lam, nu) -> "SegmentSpec":
        lam = tuple(np.atleast_1d(lam).astype(float))
        nu = tuple(np.atleast_1d(nu).astype(float))
        return SegmentSpec(d, (float(cell_length),) * d, flux, lam, nu)

    @property
    def m(self):
        return self.flux.m

    def system(self) -> TransitionSystem:
        return build_segment_system(self)


def build_segment_system(spec: SegmentSpec) -> TransitionSystem:
    f = spec.flux
    m, d = f.m, spec.d
    lam = np.asarray(spec.lam, dtype=float)
    nu = np.asarray(spec.nu, dtype=float)
    if isinstance(f, DaganzoFlux):
        p = f.params
        caps = [min(lam[0], p.q_max)] + [p.q_max] * (d - 1) + [min(nu[0], p.q_max)]
        kernel = _DaganzoKernel([(b - 1 if b else None, b if b < d else None, p, cap)
                                 for b, cap in enumerate(caps)])
    elif isinstance(f, TwoClassFlux):
        kernel = _TwoClassKernel(f, d, lam, nu)
    else:
        raise TypeError(f"no array kernel for {type(f).__name__}")

    # boundary b, class j: cell b-1 -> cell b, None beyond either end
    bj = [(b, j) for b in range(d + 1) for j in range(m)]
    src = [(b - 1) * m + j if b else None for b, j in bj]
    dst = [b * m + j if b < d else None for b, j in bj]
    labels = [f"q[{b},{j + 1}]" for b, j in bj]
    return TransitionSystem(spec.lengths, m, np.tile(f.rho_jam, d), src, dst,
                            labels, kernel)


# ---------------------------------------------------------------------------
# networks


@dataclass(frozen=True)
class RoadSpec:
    name: str
    n_cells: int
    cell_length: float  # km
    flux: FluxFunction


@dataclass(frozen=True)
class Diverge:
    """Last cell of `upstream` splits into the first cells of the branch
    roads with fixed routing probabilities."""

    upstream: str
    branches: tuple  # ((road_name, probability), ...)


@dataclass(frozen=True)
class Merge:
    """Last cells of the upstream roads merge into the first cell of
    `downstream`; priorities give each upstream's share of capacity."""

    upstreams: tuple  # ((road_name, priority), ...)
    downstream: str


@dataclass(frozen=True)
class NetworkSpec:
    roads: tuple  # RoadSpec in declaration order
    links: tuple = ()  # (road_a, road_b): last cell of a feeds first of b
    diverges: tuple = ()
    merges: tuple = ()
    arrivals: tuple = ()  # (road_name, lam veh/h) into the road's first cell
    departures: tuple = ()  # (road_name, nu veh/h) from the road's last cell

    def __post_init__(self):
        names = [r.name for r in self.roads]
        if len(set(names)) != len(names):
            raise NetworkConfigError("duplicate road names")
        for r in self.roads:
            if not isinstance(r.flux, DaganzoFlux):
                raise NetworkConfigError(f"road {r.name}: network assembly "
                                         "supports single-class Daganzo roads only")
        known = set(names)
        junction_cells = set()
        for dv in self.diverges:
            probs = [p for _, p in dv.branches]
            if dv.upstream not in known or any(b not in known for b, _ in dv.branches):
                raise NetworkConfigError("diverge references unknown road")
            if abs(sum(probs) - 1.0) > 1e-12 or any(p <= 0 for p in probs):
                raise NetworkConfigError("diverge routing probabilities must sum to 1")
            junction_cells.add((dv.upstream, "last"))
            junction_cells.update((b, "first") for b, _ in dv.branches)
        for mg in self.merges:
            prios = [p for _, p in mg.upstreams]
            if mg.downstream not in known or any(u not in known for u, _ in mg.upstreams):
                raise NetworkConfigError("merge references unknown road")
            if len(mg.upstreams) != 2:
                raise NetworkConfigError("merges must have exactly two upstream roads")
            if abs(sum(prios) - 1.0) > 1e-12 or any(p <= 0 for p in prios):
                raise NetworkConfigError("merge priorities must sum to 1")
            junction_cells.add((mg.downstream, "first"))
            junction_cells.update((u, "last") for u, _ in mg.upstreams)
        for kind, end, ends in (("arrival", "first", self.arrivals),
                                ("departure", "last", self.departures)):
            for road, _ in ends:
                if (road, end) in junction_cells:
                    raise NetworkConfigError(
                        f"{kind} cell of {road} also participates in a junction")

    def system(self) -> TransitionSystem:
        return build_network_system(self)


def build_network_system(net: NetworkSpec) -> TransitionSystem:
    params = {r.name: r.flux.params for r in net.roads}
    lengths, rho_jam, cell_labels = [], [], []
    first, last = {}, {}
    for r in net.roads:
        first[r.name] = len(lengths)
        for i in range(r.n_cells):
            lengths.append(r.cell_length)
            rho_jam.append(float(r.flux.rho_jam[0]))
            cell_labels.append(f"{r.name}[{i + 1}]")
        last[r.name] = len(lengths) - 1

    links, src, dst, labels = [], [], [], []

    def link(s, d, p, label, bound=np.inf):
        links.append((s, d, p, min(bound, p.q_max)))
        src.append(s)
        dst.append(d)
        labels.append(label)

    # intra-road links and explicit road-to-road links (downstream flux)
    for r in net.roads:
        for i in range(r.n_cells - 1):
            c = first[r.name] + i
            link(c, c + 1, params[r.name], f"{r.name}[{i + 1}->{i + 2}]")
    for a, b in net.links:
        link(last[a], first[b], params[b], f"{a}->{b}")
    for road, lam in net.arrivals:
        link(None, first[road], params[road], f"arrival->{road}", lam)
    for road, nu in net.departures:
        link(last[road], None, params[road], f"{road}->departure", nu)

    def cand(road, sending):  # demand of the last cell or supply of the first
        return (last if sending else first)[road], params[road], sending, params[road].q_max

    diverges, merges = [], []
    for dv in net.diverges:
        diverges.append((cand(dv.upstream, True),
                         [(cand(b, False), p) for b, p in dv.branches]))
        src += [last[dv.upstream]] * len(dv.branches)
        dst += [first[b] for b, _ in dv.branches]
        labels += [f"{dv.upstream}->{b}" for b, _ in dv.branches]
    for mg in net.merges:
        (ra, pa), (rb, pb) = mg.upstreams
        merges.append((cand(ra, True), cand(rb, True), cand(mg.downstream, False),
                       (pa, pb)))
        src += [last[ra], last[rb]]
        dst += [first[mg.downstream]] * 2
        labels += [f"{ra}->{mg.downstream}", f"{rb}->{mg.downstream}"]

    return TransitionSystem(lengths, 1, rho_jam, src, dst, labels,
                            _DaganzoKernel(links, diverges, merges), cell_labels)


# ---------------------------------------------------------------------------
# spec-level operations


def _checked(state, spec):
    sys = spec.system()
    sys.check_domain(state)
    return sys


def rate_vector(state, spec: SegmentSpec) -> np.ndarray:
    """Transition rates q_{b,j}, b = 0..d, lexicographic in (b, j)."""
    return _checked(state, spec).rates(state)


def incidence_matrices(spec: SegmentSpec):
    """The diagonal cell-length inverse L and the inflow/outflow
    incidence H with drift F = L H Q."""
    sys = spec.system()
    return sys.L, sys.H


def drift(state, spec: SegmentSpec) -> np.ndarray:
    return _checked(state, spec).drift(state)


def drift_jacobian(state, spec: SegmentSpec) -> np.ndarray:
    return _checked(state, spec).drift_jacobian(state)


def dispersion(state, spec: SegmentSpec) -> np.ndarray:
    return _checked(state, spec).dispersion(state)


def network_rate_vector(state, net: NetworkSpec):
    """All transition rates of the assembled network, with labels."""
    sys = _checked(state, net)
    return sys.rates(state), list(sys.labels)
