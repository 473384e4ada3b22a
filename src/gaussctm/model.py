"""Static segment/network specifications and their assembled dynamics.

A specification is compiled into a :class:`TransitionSystem`: flat
arrays of unit-vehicle transitions, each moving one vehicle from a
source to a destination cell (-1 across the boundary), together with
the state-dependent rate of each transition and its gradient.
Everything downstream (exact simulation, fluid/diffusion ODEs,
stationary analysis) works off this one object.

The rates are compiled once into an array kernel of `gaussctm.flux`
(index and parameter arrays over transitions and junctions), so
`rates(rho)` is a few `np.minimum` reductions over whole arrays and
`rate_jacobian(rho)` fills a fixed sparsity pattern from masks marking
each rate's active branch; a Daganzo kernel evaluates its candidate flows
once per density vector, for `rates` and the masks both.  The Daganzo flux
is piecewise linear, so its Jacobian is piecewise constant: a function of
those masks alone (the branch regime).  Each system memoizes it per regime,
and the drift Jacobian LH dq beside it, as read-only arrays; the two-class
shares vary continuously, so that Jacobian is computed anew.
The exact simulator evaluates a junction-free Daganzo kernel's
expression one transition at a time from the same arrays.
At a kink, links and the two-class flux use a slope only when its branch
is strictly active; Daganzo's (1995) diverges and merges average the
slopes of tied candidates, keeping symmetric branches symmetric.  The
per-boundary formulas in `tests/flux_reference.py` are the reference
that the kernels are tested against.

State flattening is cell-major, class-minor: the density of class j in
cell i sits at index i*m + j.  Network states concatenate the roads in
declaration order, padding cells being ordinary one-cell roads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .flux import (DaganzoFlux, FluxFunction, TwoClassFlux, _DaganzoKernel,
                   check_occupancy)

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
]


class NetworkConfigError(ValueError):
    """Inconsistent junction wiring, routing parameters or road flux."""


class TransitionSystem:
    """Cells plus unit-vehicle transitions with state-dependent rates,
    computed by `kernel` (see the module docstring).  `count_density` is
    the density that each whole count of each state stands for."""

    def __init__(self, lengths, m, rho_jam, src, dst, labels, kernel,
                 cell_labels=None):
        self.m = m
        self.n_cells = len(lengths)
        self.lengths = np.asarray(lengths, dtype=float)
        self.n_state = self.n_cells * m
        # per state index: cell length and jam density of that (cell, class)
        self.state_lengths = np.repeat(self.lengths, m)
        self.rho_jam = np.asarray(rho_jam, dtype=float)
        # the smallest count at which the clipped receiving rate is zero,
        # read as whole within 1e-9 relative
        jam = self.rho_jam * self.state_lengths
        whole = np.rint(jam)
        self.x_jam = np.where(np.abs(jam - whole) <= 1e-9 * jam, whole,
                              np.ceil(jam)).astype(int)
        self.cell_labels = cell_labels
        self.kernel = kernel
        # (rate Jacobian dq, drift Jacobian LH dq) by branch regime (kernels
        # that have one), and the pair rate_jacobian read last
        self._jac_memo = {} if hasattr(kernel, "regime") else None
        self._last_pair = None, None

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
        self.LH = H / self.state_lengths[:, None]

    def system(self):
        """The system itself: solvers call `spec.system()` on either."""
        return self

    @cached_property
    def count_density(self):
        """(n_state, max x_jam + 1): x * (1 / l) for a count x below x_jam
        and exactly rho_jam from x_jam on, so that a full cell has zero
        supply and lies in the domain where x_jam / l passes rho_jam."""
        x = np.arange(self.x_jam.max() + 1)
        return np.where(x < self.x_jam[:, None],
                        x * (1.0 / self.state_lengths[:, None]), self.rho_jam[:, None])

    def check_domain(self, rho):
        rho = np.asarray(rho, dtype=float)
        if rho.shape != (self.n_state,):
            raise ValueError(f"state must have shape ({self.n_state},)")
        check_occupancy(rho, self.rho_jam, self.m)

    def rates(self, rho):
        q = self.kernel.rates(np.asarray(rho, dtype=float))
        np.maximum(q, 0.0, out=q)
        return q

    def rate_jacobian(self, rho):
        """d rates / d rho, (n_trans, n_state).  A Daganzo kernel's
        Jacobian is piecewise constant, fixed by its branch regime: it is
        computed once per regime and returned read-only thereafter."""
        rho = np.asarray(rho, dtype=float)
        if self._jac_memo is None:
            return self._jacobian(rho)
        key = self.kernel.regime(rho)
        pair = self._jac_memo.get(key)
        if pair is None:
            dq = self._jacobian(rho)
            J = self.LH @ dq
            dq.flags.writeable = J.flags.writeable = False
            pair = self._jac_memo[key] = dq, J
        self._last_pair = pair
        return pair[0]

    def _jacobian(self, rho):
        dq = np.bincount(self._jac_index, weights=self.kernel.jacobian(rho),
                         minlength=self.n_trans * self.n_state)
        return dq.reshape(self.n_trans, self.n_state)

    def drift(self, rho):
        return self.LH @ self.rates(rho)

    def drift_jacobian(self, rho):
        """LH @ rate_jacobian(rho): the memo's read-only J beside a memoized
        rate Jacobian, a fresh array otherwise."""
        dq = self.rate_jacobian(rho)
        memo_dq, J = self._last_pair
        return J if dq is memo_dq else self.LH @ dq


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
        if not isinstance(self.flux, FluxFunction):
            raise TypeError(f"flux must be a FluxFunction, not {type(self.flux).__name__}")
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
        if isinstance(self.flux, TwoClassFlux):
            # an infinite demand has no class shares: inf / inf in the kernel
            for j, x in enumerate(self.lam, 1):
                if not np.isfinite(x):
                    raise ValueError(f"arrival bound of class {j} must be "
                                     f"finite for a two-class flux, not {x}")

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
    kernel = f.kernel(d, spec.lam, spec.nu)

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
