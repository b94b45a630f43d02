"""soundmdp: explicit-state MDP solving with certified result intervals.

The package splits into the data model (`model`), the MDPX text format and
model generators (`modelio`), qualitative graph analyses and end-component
elimination (`graph`), the iterative solvers (`solvers`), an exact rational
reference solver (`oracle`), and the solve pipeline plus benchmark harness
(`pipeline`, `bench`, `cli`).
"""

from .errors import (GeneratorError, IterationCapExceeded, ModelError, OracleError,
                     ParseError, PipelineError, SolveTimeout, SolverError, SoundMdpError)
from .graph import (EndComponent, QuotientMap, eliminate_end_components,
                    mec_decomposition, prob0_set, prob1_set, s_infinity)
from .model import (Branch, Mdp, Property, PropertyKind, Transition, Violation,
                    branch, exact, make_goals_absorbing, make_property,
                    rebase_initial, strip_rewards, transition, validate)
from .modelio import (ModelDocument, generate_example_me, generate_random,
                      generate_slow_chain, parse_explicit, write_explicit)
from .oracle import oracle_exact, oracle_values, solve_linear
from .pipeline import PipelineResult, SolveOptions, solve
from .solvers import (BellmanProblem, ErrorCriterion, SolveOutcome, bellman_apply, gsvi,
                      interval_iteration, ovi, plain_vi, probability_problem,
                      reward_problem, reward_upper_init)

__version__ = "0.1.0"

__all__ = [
    "Branch", "Transition", "Mdp", "Property", "PropertyKind", "Violation",
    "branch", "transition", "exact", "validate", "make_property",
    "make_goals_absorbing", "strip_rewards", "rebase_initial",
    "ModelDocument", "parse_explicit", "write_explicit",
    "generate_example_me", "generate_random", "generate_slow_chain",
    "prob0_set", "prob1_set", "s_infinity",
    "EndComponent", "QuotientMap", "mec_decomposition",
    "eliminate_end_components",
    "BellmanProblem", "ErrorCriterion", "SolveOutcome",
    "bellman_apply", "gsvi", "plain_vi", "ovi", "interval_iteration",
    "probability_problem", "reward_problem", "reward_upper_init",
    "oracle_values", "oracle_exact", "solve_linear",
    "SolveOptions", "PipelineResult", "solve",
    "SoundMdpError", "ModelError", "ParseError", "GeneratorError", "SolverError",
    "IterationCapExceeded", "SolveTimeout", "OracleError", "PipelineError",
]
