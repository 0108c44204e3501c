"""Variable-selection contests on simulated sparse case-control data."""

from .errors import (
    CommitmentError,
    ConfigurationError,
    ContestError,
    DatasetFormatError,
    DegenerateOutcomeError,
    EnumerationBudgetError,
    SimulationBudgetError,
    StratificationError,
    UndefinedRateError,
    UnsupportedFitError,
    ValidationError,
)
from .glm import (
    CvPlan,
    FitResult,
    PatternTable,
    bootstrap_fits,
    bootstrap_resample,
    cv_deviance,
    default_lambda_grid,
    expit,
    fit_lasso_path,
    fit_logistic,
    lasso_lambda_max,
    log_likelihood,
    log_likelihood_gradient,
    make_folds,
    wald_pvalues,
)
from .scoring import (
    DEFAULT_WEIGHTS,
    WEIGHT_PRESETS,
    ScoreReport,
    ScoringWeights,
    brier_score,
    confusion_counts,
    contest_score,
    log_score,
    rank_leaderboard,
    youden_index,
)
from .selectors import (
    BASELINES,
    METHODS,
    SelectorSpec,
    Submission,
    run_selector,
    select_baseline,
    select_team_a,
    select_team_b,
    select_team_c,
    select_team_d,
)
from .sim import (
    Confounder,
    Dataset,
    GroundTruth,
    SimulationConfig,
    draw_ground_truth,
    prevalence_grid,
    simulate_dataset,
)
from .tournament import (
    MethodSummary,
    ReplicateRow,
    TournamentConfig,
    run_replicate,
    run_tournament,
)

__version__ = "0.1.0"
