"""goodnet: simulator and exact solvers for symmetric 0/1 energy networks.

The library models networks of threshold units with symmetric weights
that collectively maximize a quadratic goodness function (equivalently,
minimize energy).  It provides:

* exact fixed-point arithmetic and a line-oriented network file format;
* brute-force and cutset-conditioned exact solvers as ground truth;
* classic per-unit rules (threshold, stochastic) and the
  tree-optimizing rule that finds exact optima on acyclic regions,
  plus its cycle-cutset extension;
* scheduler models (central round robin, whose fixed order also
  serves scripted schedules; central random; synchronous;
  fair-exclusion) with fairness checkers, a deterministic simulation
  engine, and experiment harnesses for the known negative results and
  guarantees.
"""

from .weights import Weight
from .network import Network, ParseError, parse_network, serialize_network
from .fixtures import (
    chain2i,
    example51,
    fig1,
    fixture,
    illegal_ring,
    random_network,
    ring6,
)
from .oracle import (
    CutsetPlan,
    brute_force_optima,
    cutset_exact_optimize,
    greedy_cutset,
    is_acyclic_without,
    plan_from_members,
    tree_conditioned_max,
)
from .rules import (
    ActivationRegister,
    Legality,
    LocalView,
    NeighborView,
    activation_step,
    boltzmann_step,
    cutset_goodness_step,
    goodness_step,
    hopfield_step,
    legality_map,
    tree_direct_step,
)
from .schedulers import (
    CentralRandom,
    CentralRoundRobin,
    FairExclusion,
    SynchronousAll,
    check_fair_exclusion,
    check_fairness,
    parse_scheduler,
)
from .engine import (
    apply_event,
    assignment_of,
    build_view,
    illegal_count,
    initial_registers,
    perturb,
    replay_deltas,
    run,
)
from .experiments import (
    cutset_dominance_experiment,
    dominance_experiment,
    non_tree_nodes,
)
from .cli import result_line, trace_line

__version__ = "0.1.0"
