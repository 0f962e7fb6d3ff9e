"""Latent-state LQR: learn a near-optimal controller from nonlinear
observations of an unobserved linear system.

The toolkit bundles a seeded simulator, exact linear-control numerics, a
least-squares regression oracle over structured decoder classes, the three
learning phases (coarse decoding, system identification, on-policy decoder
learning), and a Monte-Carlo evaluation harness.
"""

from .benchmarks import CATALOG, make_benchmark_instance, parameter_bounds
from .control import (ControllabilityInfo, DareSolution, StabilityCert,
                      controllability, optimal_policy, open_loop_state_cov, psd_project,
                      solve_dare, solve_lyapunov, strong_stability_cert)
from .errors import (ConvergenceError, DegenerateSpectrumError,
                     IllConditionedCovarianceError, InfeasibleBurnInError, LatentLqrError,
                     NumericalError, UnstableMatrixError, ValidationError)
from .evaluate import (AlignmentResult, EvalReport, align_decoder, bayes_map,
                       decoder_errors_by_time, estimate_cost, estimate_gap, mean_stderr,
                       similarity_from_ground_truth, trajectory_costs)
from .phase1 import (IdBatch, Phase1Config, Phase1Output, burn_in_kappa0,
                     collect_id_data, fit_coarse_decoder)
from .phase2 import SysIdEstimates, fit_cost, fit_dynamics, fit_noise_cov, run_sysid
from .phase3 import (DecoderStack, LearnedPolicy, NoiseShaping, OnPolicyHalf, Phase3Config,
                     build_noise_shaping, collect_onpolicy, compute_policy,
                     decoder_update, default_clip_radius, fit_residual_regressors,
                     learn_initial_state, sigma_from_epsilon)
from .pipeline import (ExperimentConfig, PipelineResult, evaluate_policy, load_config,
                       parse_config, run_pipeline)
from .regression import (DecoderClass, FittedRegressor, StructuredClass, erm_fit,
                         erm_fit_increment, fit_linear_map)
from .system import (EmissionModel, PolicyDef, SystemSpec, TrajectoryBatch, rollout,
                     rollout_columns)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
