"""Stochastic cell-transmission traffic model with Gaussian-process
approximations: exact Markov-chain simulation, fluid/diffusion moment
ODEs, stationary performance metrics, travel-time distributions,
route-choice utilities, merge/diverge networks, and a chi-squared
normality-validation pipeline for flow data."""

from .flux import DaganzoFlux, DaganzoParams, TwoClassFlux, TwoClassParams
from .model import (Diverge, Merge, NetworkConfigError, NetworkSpec, RoadSpec,
                    SegmentSpec, TransitionSystem, build_network_system,
                    build_segment_system)
from .simulator import (SimulationError, Trajectory, ensemble_moments,
                        estimate_throughput, simulate)
from .gaussian import (CumulativeTimeline, GaussianTimeline, cross_covariance,
                       fundamental_solution, solve_cumulative_moments,
                       solve_fluid, solve_moments)
from .stationary import (DiscreteMarginal, StationaryPoint, cell_marginal,
                         deterministic_metric, joint_marginal,
                         stationary_fixed_point, stationary_metric)
from .traveltime import (TailCurve, default_grid, travel_time_moments,
                         travel_time_tail)
from .routechoice import (RouteSummary, indifference_c, select_route, utility)

__version__ = "0.1.0"
