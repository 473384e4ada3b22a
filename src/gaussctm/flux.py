"""Fundamental diagrams: parameters, compiled kernels, per-boundary views.

`DaganzoFlux` and `TwoClassFlux` hold a diagram's parameters; their
`kernel(d, lam, nu)` compiles a d-cell segment into the one implementation
of the diagram: the flow min(sending, receiving) at every boundary and its
slopes, a linear branch contributing its slope only when it is *strictly*
active (at a tie the derivative is 0).  The per-boundary methods read
one boundary of a one- or two-cell kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DaganzoParams",
    "TwoClassParams",
    "FluxFunction",
    "DaganzoFlux",
    "TwoClassFlux",
]


@dataclass(frozen=True)
class DaganzoParams:
    """Triangular fundamental diagram: free-flow speed v_f (km/h),
    backward wave speed w (km/h), jam density rho_max (veh/km) and a
    capacity cap q_max (veh/h)."""

    v_f: float
    w: float
    rho_max: float
    q_max: float

    def __post_init__(self):
        for name in ("v_f", "w", "rho_max", "q_max"):
            if not getattr(self, name) > 0:  # NaN too
                raise ValueError(f"Daganzo parameter {name} must be positive, "
                                 f"not {getattr(self, name)}")


@dataclass(frozen=True)
class TwoClassParams:
    """Two-class diagram parameters: per-class free-flow speeds (km/h),
    critical speed v_c (km/h), effective vehicle lengths L1/L2 (km),
    lane count N and the regime parameter beta in (0, 1)."""

    v_f1: float
    v_f2: float
    v_c: float
    L1: float
    L2: float
    N: int
    beta: float

    def __post_init__(self):
        if not (self.v_f1 >= self.v_f2 > 0):
            raise ValueError("require v_f1 >= v_f2 > 0")
        if not self.v_c > 0:  # NaN too
            raise ValueError(f"require v_c > 0, not {self.v_c}")
        if not (0 < self.L1 <= self.L2):
            raise ValueError("require 0 < L1 <= L2")
        if not self.N >= 1:
            raise ValueError("require N >= 1")
        if not (0 < self.beta < 1):
            raise ValueError("require beta in (0, 1)")


def check_occupancy(amounts, jam, m, what="density"):
    """Raise ValueError unless `amounts` per (cell, class), cell-major
    with m classes, are finite, nonnegative and fill no cell past jam:
    the sum over a cell's classes of amount / jam, `jam` being the jam
    density (or count) of each class alone, is at most 1 to 1e-9.  This is the
    occupancy bound of the two-class diagram, whose jam densities are
    N / L_j, and rho <= rho_max for the triangular one."""
    a = np.asarray(amounts, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"non-finite {what}")
    if not np.all(a >= -1e-12):
        raise ValueError(f"negative {what}")
    if not np.all((a / jam).reshape(-1, m).sum(axis=1) <= 1.0 + 1e-9):
        raise ValueError(f"{what} fills a cell past its jam occupancy")


class FluxFunction:
    """A diagram of m classes, read one boundary at a time from the
    kernel that its subclass compiles.  Densities and flows are per-class
    vectors (veh/km, veh/h), gradients m x m: (j, k) = d flow_j / d rho_k."""

    def _boundary(self, b, cells, lam=0.0, nu=0.0):
        """Boundary b of the kernel of len(cells) cells: its flows, then
        their gradients by each cell.  Bounds meet boundary b only if it
        is the first (lam) or the last (nu)."""
        m, n = self.m, len(cells)
        k = self.kernel(n, np.broadcast_to(lam, m), np.broadcast_to(nu, m))
        rho = np.concatenate(cells, dtype=float)
        J = np.zeros(((n + 1) * m, n * m))
        J[k.rows, k.cols] = k.jacobian(rho)
        rows = slice(b * m, b * m + m)
        return (k.rates(rho)[rows], *(J[rows, i * m:i * m + m] for i in range(n)))

    def flux(self, rho_send, rho_recv):
        """Flow between two cells, min(sending, receiving)."""
        return self._boundary(1, (rho_send, rho_recv))[0]

    def flux_grad(self, rho_send, rho_recv):
        return self._boundary(1, (rho_send, rho_recv))[1:]

    def inflow(self, lam, rho_recv):
        """Arrival flow: external demand lam through the receiving supply."""
        return self._boundary(0, (rho_recv,), lam=lam)[0]

    def inflow_grad(self, lam, rho_recv):
        return self._boundary(0, (rho_recv,), lam=lam)[1]

    def outflow(self, rho_send, nu):
        """Boundary departure flow: sending demand truncated at nu."""
        return self._boundary(1, (rho_send,), nu=nu)[0]

    def outflow_grad(self, rho_send, nu):
        return self._boundary(1, (rho_send,), nu=nu)[1]

    def demand(self, rho):
        """Sending flow of a cell: its outflow with no bound."""
        return self.outflow(rho, np.inf)

    def demand_grad(self, rho):
        return self.outflow_grad(rho, np.inf)


class DaganzoFlux(FluxFunction):
    """Single-class triangular flux."""

    m = 1

    def __init__(self, params: DaganzoParams):
        self.params = params

    @property
    def rho_jam(self) -> np.ndarray:
        return np.array([self.params.rho_max])

    def kernel(self, d, lam, nu):
        p = self.params
        caps = [min(lam[0], p.q_max)] + [p.q_max] * (d - 1) + [min(nu[0], p.q_max)]
        return _DaganzoKernel([(b - 1 if b else None, b if b < d else None, p, cap)
                               for b, cap in enumerate(caps)])

    # scalar views, kept by name: perfbench/tracer.py wraps each of them
    def sending_scalar(self, rho: float) -> float:
        return float(self.demand([rho])[0])

    def sending_grad_scalar(self, rho: float) -> float:
        return float(self.demand_grad([rho])[0, 0])

    def receiving_scalar(self, rho: float) -> float:
        return float(self.inflow(np.inf, [rho])[0])

    def receiving_grad_scalar(self, rho: float) -> float:
        return float(self.inflow_grad(np.inf, [rho])[0, 0])


class TwoClassFlux(FluxFunction):
    """Two-class flux with shared road space measured in occupancy
    (density times effective vehicle length, summed over classes).

    Free-flow regime: each class moves at its own free-flow speed while
    the aggregate occupancy demand stays below the occupancy capacity
    C = v_c * beta * N.  Beyond that the boundary is congested: supply
    follows a backward wave in occupancy, w_occ * (N - occupancy), which
    reaches zero at full occupancy, and the two classes share the
    available supply in proportion to their sending flows.
    """

    m = 2

    def __init__(self, params: TwoClassParams):
        self.params = p = params
        self.lengths = np.array([p.L1, p.L2])
        self.v_free = np.array([p.v_f1, p.v_f2])
        self.capacity_occ = p.v_c * p.beta * p.N
        # backward wave speed in occupancy units: supply hits capacity at
        # occupancy beta*N and zero at occupancy N
        self.w_occ = self.capacity_occ / (p.N * (1.0 - p.beta))

    @property
    def rho_jam(self) -> np.ndarray:
        return self.params.N / self.lengths

    def kernel(self, d, lam, nu):
        return _TwoClassKernel(self, d, lam, nu)


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
    Junctions average the slopes of tied candidates.  `rates` and the
    branch masks read one evaluation of the candidates per rho (`_flows`)."""

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
        self._key = None  # rho.tobytes() of the flows held by `_flows`

    def _flows(self, rho):
        """Raw candidates, capped link pairs, diverge quotients and their row
        minima, and per merge (free, its candidates, their median) at rho;
        the last result is kept, keyed on rho's value (callers clip in place)."""
        key = rho.tobytes()
        if key == self._key:
            return self._last
        lin = self.scale * (self.off + self.sgn * rho[self.idx])
        flow = np.minimum(lin, self.cap)
        vals = total = merge = None
        if self.nd:
            vals = (flow[self.div_sl] / self.div).reshape(-1, self.K)
            total = vals.min(axis=1)
        if self.nm:
            m = flow[self.div_sl.stop:].reshape(-1, 3)
            D, R = m[:, :2], m[:, 2:]
            c = (D, R - D[:, ::-1], self.p * R)
            med = np.maximum(np.minimum(D, c[1]), np.minimum(np.maximum(D, c[1]), c[2]))
            merge = (D[:, :1] + D[:, 1:] <= R, c, med)
        self._key, self._last = key, (lin, flow[:self.div_sl.start].reshape(-1, 2),
                                      vals, total, merge)
        return self._last

    def _masks(self, rho):
        """The branch masks that fix the Jacobian: candidates below their
        cap, the binding side of each link, the active candidates of each
        diverge, and per merge whether it is free and which of its three
        candidates equal the median (None without diverges or merges)."""
        lin, f, vals, total, merge = self._flows(rho)
        active = None if vals is None else vals == total[:, None]
        free, at_med = None, (None,) * 3
        if self.nm:
            free, c, med = merge
            at_med = tuple(x == med for x in c)
        return (lin < self.cap, f < f[:, ::-1], active, free) + at_med

    def regime(self, rho):
        """`_masks` as a bytes key: equal keys give bit-identical
        Jacobians, since `jacobian` reads nothing else of rho."""
        return b"".join([m.tobytes() for m in self._masks(rho) if m is not None])

    def rates(self, rho):
        _, f, _, total, merge = self._flows(rho)
        parts = [np.minimum(f[:, 0], f[:, 1])]
        if self.nd:
            parts.append(self.trans_p * total[self.owner])
        if self.nm:
            free, (D, *_), med = merge
            parts.append(np.where(free, D, med).ravel())
        return np.concatenate(parts)

    def jacobian(self, rho):
        below, order, active, free, *at_med = self._masks(rho)
        slope = np.where(below, self.slope, 0.0)
        s = slope[:self.div_sl.start].reshape(-1, 2)
        parts = [np.where(order, s, 0.0).ravel()[self.link_ent]]
        if self.nd:
            avg = (np.where(active, (slope[self.div_sl] / self.div).reshape(-1, self.K), 0.0)
                   / active.sum(axis=1, keepdims=True))
            parts.append(self.ent_p * avg.ravel()[self.div_ent])
        if self.nm:
            s = slope[self.div_sl.stop:].reshape(-1, 3)
            dD, dR = s[:, :2], s[:, 2:]
            # active candidates; a free merge passes its own demand
            a0 = at_med[0] | free
            a1 = at_med[1] & ~free
            a2 = at_med[2] & ~free
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
    further capped at nu per class.  Only a strictly active branch of
    the min has a slope."""

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
