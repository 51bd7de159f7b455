"""Values, weighted payoffs, irregularity, ergodic structure and belief-measure
diagnostics for finite POMDPs with history-dependent stage weights."""

from .chain import (ErgodicDecomposition, MarkovChain, ergodic_decomposition,
                    liminf_value_transducer, mixing_threshold, product_chain)
from .errors import (BudgetExceededError, InvalidInputError, PomdpEvalError,
                     ScenarioValidationError, TruncationError)
from .evaluations import (ConditionalTable, EvalContext, Evaluation,
                          IrregularityReport, McEstimate, block_smooth,
                          conditional_evaluation, conditional_table,
                          eta_horizon, evaluation_from_spec, irregularity_exact,
                          irregularity_mc, irregularity_supremum,
                          make_evaluation)
from .instances import (SCENARIOS, builtin_scenario, builtin_strategy,
                        observed_random_chain)
from .measures import (DisintegrationTable, OccupationResult, SupportedMeasure,
                       disintegrate, image_measure, invariance_residual,
                       kr_distance, occupation_measure)
from .model import (ObservedHistory, Pomdp, Scenario, bayes_update,
                    belief_key, canonical_belief, dirac_belief, has_known_payoffs,
                    known_payoff_lift, known_payoff_partition, lift_belief,
                    load_scenario, make_belief, pomdp_from_tables, uniform_belief)
from .playspace import enumerate_plays, simulate_plays
from .strategies import (BehaviorStrategy, RandomBehaviorStrategy,
                         ScheduleStrategy, StationaryStrategy, Strategy,
                         Transducer, always_strategy, belief_tracking_strategy,
                         block_switch_strategy, doubling_strategy,
                         enumerate_transducers, transducer_from_dict,
                         transducer_to_dict, uniform_strategy)
from .values import (ValueReport, asymptotic_value_estimate,
                     limsup_belief_payoff_mc, value_discounted, value_n,
                     value_n_sequence, weighted_payoff_chain,
                     weighted_payoff_exact, weighted_payoff_mc)

__version__ = "0.1.0"
