"""Fundamental diagrams and discrete flux functions.

The flux between two adjacent cells is the Riemann solution
min(sending, receiving).  Derivatives at the kinks of the piecewise
expressions follow a fixed one-sided convention: a linear branch only
contributes its slope when it is *strictly* the active branch, so at a
tie (capacity plateau, sending/receiving crossover) the derivative is 0.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DaganzoParams",
    "TwoClassParams",
    "FluxFunction",
    "DaganzoFlux",
    "TwoClassFlux",
    "daganzo_sending",
    "daganzo_receiving",
    "discrete_flux",
    "two_class_flux",
    "flux_jacobian",
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
        if self.v_f <= 0 or self.w <= 0 or self.rho_max <= 0 or self.q_max <= 0:
            raise ValueError("Daganzo parameters must be positive")


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
        if not (self.v_f1 >= self.v_f2 > 0) or self.v_c <= 0:
            raise ValueError("require v_f1 >= v_f2 > 0 and v_c > 0")
        if not (0 < self.L1 <= self.L2):
            raise ValueError("require 0 < L1 <= L2")
        if self.N < 1:
            raise ValueError("require N >= 1")
        if not (0 < self.beta < 1):
            raise ValueError("require beta in (0, 1)")


class FluxFunction(ABC):
    """Per-boundary discrete flux: sending demand of the upstream cell,
    supply of the downstream cell, and the realized per-class flow.

    All densities are per-class vectors (length m, veh/km); all flows
    are per-class vectors in veh/h.  Gradients are m x m matrices with
    entry (j, k) = d flow_j / d rho_k.
    """

    m: int

    @property
    @abstractmethod
    def rho_jam(self) -> np.ndarray:
        """Per-class jam density when the class occupies the cell alone."""

    @property
    @abstractmethod
    def q_max(self) -> np.ndarray:
        """Per-class capacity when the class occupies the boundary alone."""

    @abstractmethod
    def check_domain(self, rho: np.ndarray) -> None:
        """Raise ValueError if rho is outside the admissible region."""

    @abstractmethod
    def demand(self, rho: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def demand_grad(self, rho: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def flux(self, rho_send: np.ndarray, rho_recv: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def flux_grad(
        self, rho_send: np.ndarray, rho_recv: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]: ...

    @abstractmethod
    def inflow(self, lam: np.ndarray, rho_recv: np.ndarray) -> np.ndarray:
        """Boundary arrival flow: external demand lam through the supply
        of the receiving cell."""

    @abstractmethod
    def inflow_grad(self, lam: np.ndarray, rho_recv: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def outflow(self, rho_send: np.ndarray, nu: np.ndarray) -> np.ndarray:
        """Boundary departure flow: sending demand truncated at nu."""

    @abstractmethod
    def outflow_grad(self, rho_send: np.ndarray, nu: np.ndarray) -> np.ndarray: ...


class DaganzoFlux(FluxFunction):
    """Single-class triangular flux."""

    m = 1

    def __init__(self, params: DaganzoParams):
        self.params = params

    @property
    def rho_jam(self) -> np.ndarray:
        return np.array([self.params.rho_max])

    @property
    def q_max(self) -> np.ndarray:
        return np.array([self.params.q_max])

    def check_domain(self, rho):
        r = float(np.asarray(rho).reshape(-1)[0])
        if not (0.0 <= r <= self.params.rho_max):
            raise ValueError(f"density {r} outside [0, {self.params.rho_max}]")

    # scalar kernels, shared with the vector interface below

    def sending_scalar(self, rho: float) -> float:
        return min(self.params.v_f * rho, self.params.q_max)

    def sending_grad_scalar(self, rho: float) -> float:
        return self.params.v_f if self.params.v_f * rho < self.params.q_max else 0.0

    def receiving_scalar(self, rho: float) -> float:
        return min(self.params.w * (self.params.rho_max - rho), self.params.q_max)

    def receiving_grad_scalar(self, rho: float) -> float:
        p = self.params
        return -p.w if p.w * (p.rho_max - rho) < p.q_max else 0.0

    def demand(self, rho):
        return np.array([self.sending_scalar(float(rho[0]))])

    def demand_grad(self, rho):
        return np.array([[self.sending_grad_scalar(float(rho[0]))]])

    def flux(self, rho_send, rho_recv):
        s = self.sending_scalar(float(rho_send[0]))
        r = self.receiving_scalar(float(rho_recv[0]))
        return np.array([min(s, r)])

    def flux_grad(self, rho_send, rho_recv):
        s = self.sending_scalar(float(rho_send[0]))
        r = self.receiving_scalar(float(rho_recv[0]))
        ds = self.sending_grad_scalar(float(rho_send[0])) if s < r else 0.0
        dr = self.receiving_grad_scalar(float(rho_recv[0])) if r < s else 0.0
        return np.array([[ds]]), np.array([[dr]])

    def inflow(self, lam, rho_recv):
        r = self.receiving_scalar(float(rho_recv[0]))
        return np.array([min(float(lam[0]), r)])

    def inflow_grad(self, lam, rho_recv):
        r = self.receiving_scalar(float(rho_recv[0]))
        dr = self.receiving_grad_scalar(float(rho_recv[0])) if r < float(lam[0]) else 0.0
        return np.array([[dr]])

    def outflow(self, rho_send, nu):
        s = self.sending_scalar(float(rho_send[0]))
        return np.array([min(s, float(nu[0]))])

    def outflow_grad(self, rho_send, nu):
        s = self.sending_scalar(float(rho_send[0]))
        ds = self.sending_grad_scalar(float(rho_send[0])) if s < float(nu[0]) else 0.0
        return np.array([[ds]])


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
        self.params = params
        p = params
        self.lengths = np.array([p.L1, p.L2])
        self.v_free = np.array([p.v_f1, p.v_f2])
        self.capacity_occ = p.v_c * p.beta * p.N
        # backward wave speed in occupancy units: supply hits capacity at
        # occupancy beta*N and zero at occupancy N
        self.w_occ = self.capacity_occ / (p.N * (1.0 - p.beta))

    @property
    def rho_jam(self) -> np.ndarray:
        return self.params.N / self.lengths

    @property
    def q_max(self) -> np.ndarray:
        return self.capacity_occ / self.lengths

    def check_domain(self, rho):
        rho = np.asarray(rho, dtype=float)
        if np.any(rho < 0):
            raise ValueError("negative density")
        if float(rho @ self.lengths) > self.params.N + 1e-12:
            raise ValueError("occupancy exceeds lane count")

    def _occ_demand(self, rho):
        """Raw per-class occupancy demand and its diagonal gradient."""
        return rho * self.lengths * self.v_free

    def _supply_occ(self, rho_recv: np.ndarray) -> float:
        occ = float(rho_recv @ self.lengths)
        return min(self.capacity_occ, self.w_occ * (self.params.N - occ))

    def _supply_occ_grad(self, rho_recv: np.ndarray) -> np.ndarray:
        occ = float(rho_recv @ self.lengths)
        if self.w_occ * (self.params.N - occ) < self.capacity_occ:
            return -self.w_occ * self.lengths
        return np.zeros(2)

    def _shared(self, g: np.ndarray, supply: float | None):
        """Per-class occupancy flow for raw demands g through an optional
        occupancy supply; returns (flow, d flow/d g, d flow/d supply)."""
        total = float(g.sum())
        if total <= 0.0:
            return np.zeros(2), np.zeros((2, 2)), np.zeros(2)
        cap = self.capacity_occ
        eff = min(total, cap) if supply is None else min(total, cap, supply)
        shares = g / total
        flow = shares * eff
        # d shares_j / d g_k times eff; eff / total <= 1, whereas 1 / total
        # overflows for a subnormal total
        dflow = (np.eye(2) - shares[:, None]) * (eff / total)
        dsupply = np.zeros(2)
        if eff == total and total < cap and (supply is None or total < supply):
            deff_dg = np.ones(2)
            dflow += shares[:, None] * deff_dg[None, :]
        elif supply is not None and eff == supply and supply < total and supply < cap:
            dsupply = shares
        return flow, dflow, dsupply

    def demand(self, rho):
        flow, _, _ = self._shared(self._occ_demand(rho), None)
        return flow / self.lengths

    def demand_grad(self, rho):
        _, dflow, _ = self._shared(self._occ_demand(rho), None)
        dg = np.diag(self.lengths * self.v_free)
        return (dflow @ dg) / self.lengths[:, None]

    def flux(self, rho_send, rho_recv):
        flow, _, _ = self._shared(self._occ_demand(rho_send), self._supply_occ(rho_recv))
        return flow / self.lengths

    def flux_grad(self, rho_send, rho_recv):
        g = self._occ_demand(rho_send)
        supply = self._supply_occ(rho_recv)
        _, dflow, dsupply = self._shared(g, supply)
        dg = np.diag(self.lengths * self.v_free)
        dsend = (dflow @ dg) / self.lengths[:, None]
        drecv = np.outer(dsupply, self._supply_occ_grad(rho_recv)) / self.lengths[:, None]
        return dsend, drecv

    def inflow(self, lam, rho_recv):
        g = np.asarray(lam, dtype=float) * self.lengths
        flow, _, _ = self._shared(g, self._supply_occ(rho_recv))
        return flow / self.lengths

    def inflow_grad(self, lam, rho_recv):
        g = np.asarray(lam, dtype=float) * self.lengths
        _, _, dsupply = self._shared(g, self._supply_occ(rho_recv))
        return np.outer(dsupply, self._supply_occ_grad(rho_recv)) / self.lengths[:, None]

    def outflow(self, rho_send, nu):
        d = self.demand(rho_send)
        return np.minimum(d, np.asarray(nu, dtype=float))

    def outflow_grad(self, rho_send, nu):
        d = self.demand(rho_send)
        grad = self.demand_grad(rho_send)
        active = (d < np.asarray(nu, dtype=float)).astype(float)
        return grad * active[:, None]


# convenience entry points on raw parameter records


def daganzo_sending(rho: float, p: DaganzoParams) -> float:
    """Sending flow min(v_f * rho, q_max) of the triangular diagram."""
    if not (0.0 <= rho <= p.rho_max):
        raise ValueError(f"density {rho} outside [0, {p.rho_max}]")
    return min(p.v_f * rho, p.q_max)


def daganzo_receiving(rho: float, p: DaganzoParams) -> float:
    """Receiving flow min(w * (rho_max - rho), q_max)."""
    if not (0.0 <= rho <= p.rho_max):
        raise ValueError(f"density {rho} outside [0, {p.rho_max}]")
    return min(p.w * (p.rho_max - rho), p.q_max)


def discrete_flux(rho_send, rho_recv, f: FluxFunction) -> np.ndarray:
    """Per-class flow across a boundary, min(sending, receiving)."""
    rho_send = np.atleast_1d(np.asarray(rho_send, dtype=float))
    rho_recv = np.atleast_1d(np.asarray(rho_recv, dtype=float))
    f.check_domain(rho_send)
    f.check_domain(rho_recv)
    return f.flux(rho_send, rho_recv)


def two_class_flux(rho_send, rho_recv, p: TwoClassParams) -> np.ndarray:
    """Two-class boundary flow for the shared-occupancy diagram."""
    return discrete_flux(rho_send, rho_recv, TwoClassFlux(p))


def flux_jacobian(rho_send, rho_recv, f: FluxFunction):
    """Partial derivatives of discrete_flux w.r.t. both density vectors.

    Returns (d flux / d rho_send, d flux / d rho_recv), each m x m.
    """
    rho_send = np.atleast_1d(np.asarray(rho_send, dtype=float))
    rho_recv = np.atleast_1d(np.asarray(rho_recv, dtype=float))
    f.check_domain(rho_send)
    f.check_domain(rho_recv)
    return f.flux_grad(rho_send, rho_recv)
