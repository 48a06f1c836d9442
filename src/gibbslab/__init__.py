"""Generalization-error toolkit for measure-valued training maps.

The package studies trainers that map an empirical data measure to a
probability measure over parameters (entropy-regularized objectives
solved on dense grids, interacting particle simulations, and
closed-form maps), exposes the functional-derivative calculus of the
trained measure in the data, and benchmarks several Monte Carlo routes
to the mean weak and strong generalization errors together with
computable upper bounds.

Modules
-------
measures
    Empirical data measures, grid measures (a particle cloud is one,
    on its particles), and convex combinations between them.
losses
    Mean-field network losses (activation x outer loss) and expected
    parametric losses, with values, first measure derivatives and
    growth envelopes.
gibbs
    Entropy-regularized objective, exponential-tilt fixed point solver,
    prior pair with moment bounds, and the particle sampler.
funcderiv
    Linear-functional derivative checks, the curvature kernel and the
    trained-measure derivative ``dm/dnu`` via a Fredholm system.
genbench
    Population models, trainers, generalization-error estimation
    routes as reductions over replicate blocks, bound constants, and
    exact enumeration oracles.
cli
    JSON-config experiment runner (``gibbslab run / verify``).
"""

from .measures import (DataMeasure, DataPoint, GridMeasure, ParticleMeasure,
                       convex_combination, empirical_from_arrays, resample,
                       uniform_grid, uniform_grid_1d)
from .losses import (ExpectedParamLoss, NNLoss, activation,
                     linear_regression_param_loss, loss_dm, loss_value,
                     mean_squared_param_loss, outer_loss, risk,
                     zero_param_loss)
from .gibbs import (GibbsConfig, GibbsConvergenceError, GibbsSolution,
                    PriorPair, Regularizer, default_regularizer, gibbs_map,
                    kl_divergence, mfld_sample, objective, prior_kl,
                    prior_moment_bound, solve_gibbs)
from .funcderiv import (TrainedDerivatives, check_linear_derivative, dm_dnu,
                        finite_diff_dm_dnu, gauss_legendre_01)
from .genbench import (BoundConstants, ConstantTrainer, DiscretePopulation,
                       ExplicitGaussianMeanTrainer, GaussianScalarPopulation,
                       GenEstimate, GridGibbsTrainer, LgeUpperReport,
                       MFLDTrainer, NoiselessLinePopulation, PopulationModel,
                       RateFit, ReplicateError, RiskBoundReport,
                       convex_lower_bound_check, enumerate_exact_gen,
                       estimate_routes, gaussian_bump_on_grid,
                       gaussian_mean_oracle, gaussian_mean_setup,
                       gibbs_bound_constants, lge, lge_upper_terms,
                       noiseless_line_setup, population_risk_bound,
                       rate_fit, wge_direct, wge_representation,
                       wge_resampled)

__version__ = "0.1.0"

__all__ = [
    "DataMeasure", "DataPoint", "GridMeasure", "ParticleMeasure",
    "convex_combination", "empirical_from_arrays", "resample",
    "uniform_grid", "uniform_grid_1d",
    "ExpectedParamLoss", "NNLoss", "activation",
    "linear_regression_param_loss", "loss_dm", "loss_value",
    "mean_squared_param_loss", "outer_loss", "risk", "zero_param_loss",
    "GibbsConfig", "GibbsConvergenceError", "GibbsSolution", "PriorPair",
    "Regularizer", "default_regularizer", "gibbs_map", "kl_divergence",
    "mfld_sample", "objective", "prior_kl", "prior_moment_bound",
    "solve_gibbs",
    "TrainedDerivatives", "check_linear_derivative", "dm_dnu",
    "finite_diff_dm_dnu", "gauss_legendre_01",
    "BoundConstants", "ConstantTrainer", "DiscretePopulation",
    "ExplicitGaussianMeanTrainer", "GaussianScalarPopulation", "GenEstimate",
    "GridGibbsTrainer", "LgeUpperReport", "MFLDTrainer",
    "NoiselessLinePopulation", "PopulationModel", "RateFit",
    "ReplicateError", "RiskBoundReport", "convex_lower_bound_check",
    "enumerate_exact_gen", "estimate_routes",
    "gaussian_bump_on_grid", "gaussian_mean_oracle", "gaussian_mean_setup",
    "gibbs_bound_constants", "lge", "lge_upper_terms",
    "noiseless_line_setup", "population_risk_bound", "rate_fit",
    "wge_direct", "wge_representation", "wge_resampled",
    "__version__",
]
