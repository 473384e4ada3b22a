"""Per-boundary reference formulas of both fundamental diagrams, written
out independently of the compiled kernels in `gaussctm.flux`.  Only a
strictly active branch of a min has a slope: at a tie it is 0."""

import numpy as np


# Daganzo triangle, on a DaganzoParams record and one density


def sending(p, rho):
    return min(p.v_f * rho, p.q_max)


def sending_grad(p, rho):
    return p.v_f if p.v_f * rho < p.q_max else 0.0


def receiving(p, rho):
    return min(p.w * (p.rho_max - rho), p.q_max)


def receiving_grad(p, rho):
    return -p.w if p.w * (p.rho_max - rho) < p.q_max else 0.0


# two-class shared occupancy, on a TwoClassFlux's derived constants


def shared(f, g, supply=None):
    """Per-class occupancy flow for raw demands g through the capacity
    and an optional occupancy supply, shared in proportion to g; returns
    (flow, d flow / d g, d flow / d supply)."""
    total = float(g.sum())
    if total <= 0.0:
        return np.zeros(2), np.zeros((2, 2)), np.zeros(2)
    cap = f.capacity_occ
    eff = min(total, cap) if supply is None else min(total, cap, supply)
    shares = g / total
    dflow = (np.eye(2) - shares[:, None]) * (eff / total)
    dsupply = np.zeros(2)
    if eff == total and total < cap and (supply is None or total < supply):
        dflow += shares[:, None]
    elif supply is not None and eff == supply and supply < total and supply < cap:
        dsupply = shares
    return shares * eff, dflow, dsupply


def boundary(f, rho_send=None, rho_recv=None, lam=None, nu=None):
    """(flow, d flow / d rho_send, d flow / d rho_recv) per class at a
    boundary between a sending cell (None: the external demand lam) and
    a receiving cell (None: the departure bound nu)."""
    if f.m == 1:
        p = f.params
        s, ds = ((lam[0], 0.0) if rho_send is None else
                 (sending(p, rho_send[0]), sending_grad(p, rho_send[0])))
        r, dr = ((nu[0], 0.0) if rho_recv is None else
                 (receiving(p, rho_recv[0]), receiving_grad(p, rho_recv[0])))
        return (np.array([min(s, r)]), np.array([[ds if s < r else 0.0]]),
                np.array([[dr if r < s else 0.0]]))
    L, v = f.lengths, f.v_free
    g = np.asarray(lam, dtype=float) * L if rho_send is None else rho_send * L * v
    supply, dsupply_drho = None, np.zeros(2)
    if rho_recv is not None:
        wave = f.w_occ * (f.params.N - float(rho_recv @ L))
        supply = min(f.capacity_occ, wave)
        if wave < f.capacity_occ:
            dsupply_drho = -f.w_occ * L
    flow, dflow, dsupply = shared(f, g, supply)
    q = flow / L
    dsend = (dflow @ np.diag(L * v)) / L[:, None]
    drecv = np.outer(dsupply, dsupply_drho) / L[:, None]
    if rho_recv is None:
        nu = np.asarray(nu, dtype=float)
        dsend = dsend * (q < nu)[:, None]
        q = np.minimum(q, nu)
    return q, dsend, drecv
