"""Direct adaptive LQR from input-output data.

Past input-output windows of an unknown linear plant form an exact
(non-minimal) state; a singular-value reduction compresses them to a
minimal coordinate; sample covariances of the reduced data parameterize
every achievable closed loop, and one projected gradient step per sample
tracks the LQR-optimal feedback gain online.  No plant model is fitted
beyond the least-squares model the covariances define, on which the step is
taken in gain coordinates (see :mod:`deepo.lqr_core`).

Typical entry points: :func:`deepo.engine.offline_init` +
:func:`deepo.engine.run_online` for the control loop, and
:func:`deepo.harness.run_scenario` for a configured end-to-end run.
"""

from .engine import (
    DeepoConfig,
    DeepoState,
    StepRecord,
    control_step,
    ingest_and_update,
    offline_init,
    offline_init_direct,
    run_online,
)
from .errors import (
    ConfigInvalid,
    DeepoError,
    DegenerateData,
    DimensionMismatch,
    IllConditioned,
    InsufficientHistory,
    LagTooSmall,
    NoConvergence,
    NonFinite,
    NotStable,
    NotSymmetric,
    RankDeficient,
    Unstable,
    Unstabilizable,
)
from .harness import (
    AdaptationSummary,
    RunSummary,
    ScenarioConfig,
    load_scenario,
    parse_scenario,
    run_adaptation_scenario,
    run_scenario,
)
from .lqr_core import (
    ClosedLoop,
    DataCovariances,
    LqrWeights,
    Model,
    Nullspace,
    closed_loop,
    cov_init,
    cov_update,
    data_cost,
    gradient,
    identity_weights,
    initial_policy,
)
from .plant import PlantModel, SwitchEvent, SwitchSchedule, SwitchingPlant, make_surrogate_converter
from .realization import IoHistory, ReductionMap, reduce_svd, stack_window

__version__ = "0.1.0"

__all__ = [
    "AdaptationSummary",
    "ClosedLoop",
    "ConfigInvalid",
    "DataCovariances",
    "DeepoConfig",
    "DeepoError",
    "DeepoState",
    "DegenerateData",
    "DimensionMismatch",
    "IllConditioned",
    "InsufficientHistory",
    "IoHistory",
    "LagTooSmall",
    "LqrWeights",
    "Model",
    "Nullspace",
    "NoConvergence",
    "NonFinite",
    "NotStable",
    "NotSymmetric",
    "PlantModel",
    "RankDeficient",
    "ReductionMap",
    "RunSummary",
    "ScenarioConfig",
    "StepRecord",
    "SwitchEvent",
    "SwitchSchedule",
    "SwitchingPlant",
    "Unstable",
    "Unstabilizable",
    "closed_loop",
    "control_step",
    "cov_init",
    "cov_update",
    "data_cost",
    "gradient",
    "identity_weights",
    "ingest_and_update",
    "initial_policy",
    "load_scenario",
    "make_surrogate_converter",
    "offline_init",
    "offline_init_direct",
    "parse_scenario",
    "reduce_svd",
    "run_adaptation_scenario",
    "run_online",
    "run_scenario",
    "stack_window",
    "__version__",
]
