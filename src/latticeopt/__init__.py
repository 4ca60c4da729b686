"""Exact lattice test sets for integer programs, from kernel vectors up.

The pipeline: integer kernel bases (lattice), saturated generating sets
(toric), reduced vector Groebner bases (groebner), Graver bases (graver),
augmentation solvers (augment), opportunity cost matrices for two-stage
stochastic programs (opcost), instance generators (instances), and a small
brute-force oracle (oracle) used for cross-checks throughout.
"""

from .lattice import (CostOrder, IntMatrix, IntVector, VectorSet, as_vector,
                      kernel_basis)
from .oracle import (INFEASIBLE_IN_BOX, OPTIMAL, IpOutcome, IpProblem,
                     OracleResourceError, enumerate_graver_in_box,
                     solve_bruteforce)
from .groebner import GroebnerBasis, buchberger, normal_form, orient
from .toric import ToricGenerators, test_set, toric_generating_set
from .graver import (GraverBasis, GraverResourceError, SipBlockStructure,
                     contains_groebner, graver_basis, lift_sip_graver)
from .augment import (ArtificialSystem, AugmentResult, PreparedMoves,
                      artificial_system, phase_one_feasible, prepare_moves)
from .opcost import (CELL_INFEASIBLE, CELL_OK, BuildCounters, DecisionList,
                     METHOD_GRAVER, METHOD_KERNEL, METHOD_ORACLE,
                     OppCostMatrix, Scenario, SipInstance, opcost_graver,
                     opcost_kernel, opcost_oracle, rhs,
                     single_scenario_decisions)
from .instances import (HsConfig, SndConfig, gen_hs, gen_snd, hs_feasible,
                        instance_from_json, instance_to_json)

__version__ = "0.1.0"

__all__ = [
    "ArtificialSystem", "AugmentResult", "BuildCounters", "CELL_INFEASIBLE",
    "CELL_OK", "CostOrder", "DecisionList", "GraverBasis",
    "GraverResourceError", "GroebnerBasis", "HsConfig", "INFEASIBLE_IN_BOX",
    "IntMatrix", "IntVector", "IpOutcome", "IpProblem", "METHOD_GRAVER",
    "METHOD_KERNEL", "METHOD_ORACLE", "OPTIMAL", "OppCostMatrix",
    "OracleResourceError", "PreparedMoves", "Scenario", "SipBlockStructure",
    "SipInstance", "SndConfig", "ToricGenerators", "VectorSet",
    "artificial_system", "as_vector", "buchberger", "contains_groebner",
    "enumerate_graver_in_box", "gen_hs", "gen_snd",
    "graver_basis", "hs_feasible", "instance_from_json", "instance_to_json",
    "kernel_basis", "lift_sip_graver", "normal_form", "opcost_graver",
    "opcost_kernel", "opcost_oracle", "orient", "phase_one_feasible",
    "prepare_moves", "rhs", "single_scenario_decisions", "solve_bruteforce",
    "test_set", "toric_generating_set",
]
