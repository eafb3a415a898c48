"""Online maximum-weight matching with deadlines.

Exact-rational simulators for deadline matching markets, the greedy /
postponed-greedy / deferred-acceptance policy family with auction duals,
batching under random arrival order, and covering-LP certificates with an
exact simplex backend.
"""

from .departures import (DepartureModel, deterministic, geometric,
                         hazard_alpha, sample_departures, tabulated)
from .engine import (BranchingLimitExceeded, MarketView, MatchViolation,
                     OnlinePolicy, ReportRow, RunResult, competitive_report,
                     enumerate_branches, exact_expectation, simulate,
                     validate_matching, write_report_csv)
from .gallery import (NamedInstance, RootFive, game_value,
                      golden_ratio_fixed_point, make_instance,
                      optimal_online_bounds)
from .graphs import (ArrivalOrder, InstanceFormatError, Matching,
                     OnlineInstance, WeightedGraph, as_rational,
                     build_online_graph, format_rational, instance_from_json,
                     instance_to_json, load_instance, matching_weight,
                     save_instance)
from .masks import (PeriodicBatching, batched_graph, batching_from_order,
                    combine, contract_cycle_mask, cycle_power, is_cover,
                    multiply, path_power, enumerate_periodic_batchings,
                    enumerate_periodic_permutations)
from .coverlp import (CoverCertificate, CoverLPResult, certified_inflation,
                      contract_expand, extend_cover, load_certificate,
                      lookahead_cover, quadratic_inflation, save_certificate,
                      solve_cover_lp, solve_cover_lp_direct,
                      verify_certificate)
from .offline import (AuctionMarket, DualReport, SizeLimitError,
                      arrival_window_matching_value, batched_matching_value,
                      hungarian_bipartite, max_weight_matching_exact,
                      max_weight_matching_value, offline_optimum,
                      realized_offline_optimum, realized_online_graph,
                      verify_offline_dual)
from .policies import (BatchingPolicy, DynamicDeferredAcceptance,
                       FreeDisposalGreedy, NaiveGreedy, NonBipartiteError,
                       PatientBaseline, PostponedGreedy, batching, dda,
                       greedy_free_disposal, infer_roles, make_policy, naive_greedy,
                       patient_baseline, pg_stochastic, postponed_greedy)

__all__ = [name for name in dir() if not name.startswith("_")]
