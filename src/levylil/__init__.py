"""Small-time path laws for Levy and Levy-type (Feller) processes.

Evaluate characteristic exponents and maximal symbols, derive the norming
functions that govern small-time path behaviour, classify the associated
improper integrals, simulate paths, and verify the probability inequalities
by Monte Carlo.
"""

from .classifiers import (TestVerdict, classify_integral_at_zero, lower_tail_test,
                          symbol_liminf_test, upper_function_test)
from .errors import (ClassifierError, DegenerateMeasureError, InverseUndefinedError,
                     IteratedLogDomainError, LevyLilError, LevyOnlyError,
                     QuadratureError, RhoOutOfRangeError, SectorViolationError)
from .measures import (AffineClampedProfile, AtomicMeasure, ConstantProfile,
                       LevyTriplet, PowerLawMeasure, SinusoidalProfile,
                       TabulatedMeasure, TanhRampProfile, measure_from_dict,
                       profile_from_dict)
from .mc import (ChungStatistic, ProbabilityEstimate, chung_statistic,
                 empirical_charfn, empirical_charfn_bound, estimate_sup_probability,
                 etemadi_check, maximal_inequality_check, multi_interval_decay,
                 resolution_drift, spitzer_estimate)
from .norming import (KappaEstimate, NormingFunction, build_norming_function,
                      ball_extremum, chung_rate, iterated_log_factor, kappa_estimate,
                      kappa_reference_bound, pU_ball_extremum, u_inverse, u_of_R,
                      upper_norming_v)
from .scenario import SCENARIO_SCHEMA, SchemaError, run_scenario, write_schema
from .simulate import (CompoundPoissonProcess, PathEnsemble, PathGrid, StableLikeProcess,
                       SymmetricStableProcess, load_ensemble_jsonl, process_from_dict,
                       process_from_triplet, save_ensemble_jsonl, simulate_ensemble)
from .symbols import (SectorEstimate, SymbolFamily, build_lower_envelope,
                      build_symbol_family, check_integrability, eval_exponent, eval_pU,
                      sector_estimate, stable_levy_constant, tail_mass)

__version__ = "0.1.0"
