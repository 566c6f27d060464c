"""Baseline auto-tuners and device-mapping baselines.

Search-based and Bayesian-optimisation tuners treat the simulator as the
black-box objective the paper's ytopt / OpenTuner / BLISS treat real
executions as; the device-mapping baselines (Grewe et al., DeepTune,
inst2vec) reproduce the classical comparison points of Table 3.
"""

from repro.tuners.space import (
    SearchSpace,
    full_search_space,
    thread_search_space,
)
from repro.tuners.base import BlackBoxTuner, TuningResult, make_objective
from repro.tuners.exhaustive import ExhaustiveTuner
from repro.tuners.random_search import RandomSearchTuner
from repro.tuners.opentuner_like import OpenTunerLike
from repro.tuners.bayesian import BLISSTuner, GaussianProcess, YtoptTuner
from repro.tuners.campaign import (
    SimObjectiveSpec,
    TUNER_CLASSES,
    TuningCampaign,
    make_tuner,
)
from repro.tuners.devmap_baselines import (
    DeepTuneBaseline,
    GreweBaseline,
    Inst2VecBaseline,
    StaticMappingBaseline,
)

__all__ = [
    "SearchSpace",
    "thread_search_space",
    "full_search_space",
    "TuningResult",
    "BlackBoxTuner",
    "make_objective",
    "ExhaustiveTuner",
    "RandomSearchTuner",
    "OpenTunerLike",
    "GaussianProcess",
    "YtoptTuner",
    "BLISSTuner",
    "StaticMappingBaseline",
    "GreweBaseline",
    "DeepTuneBaseline",
    "Inst2VecBaseline",
    "SimObjectiveSpec",
    "TUNER_CLASSES",
    "TuningCampaign",
    "make_tuner",
]
