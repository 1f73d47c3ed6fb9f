"""Auto-tuning: exhaustive search and the model-based acceleration.

* :mod:`repro.tuning.space` — the (TX, TY, RX, RY) parameter space with
  the paper's search constraints (i)-(iv) of section IV-C.
* :mod:`repro.tuning.exhaustive` — run every feasible configuration on the
  simulator; rank by measured MPoint/s.
* :mod:`repro.tuning.perfmodel` — the paper's analytical performance model,
  Eqns (6)-(14), implemented verbatim.
* :mod:`repro.tuning.modelbased` — the section VI procedure: rank all
  configurations by the model, execute only the top beta% on the
  simulator, return the best measured one.
* :mod:`repro.tuning.evaluator` — the per-trial measurement seam shared
  by all tuners.
* :mod:`repro.tuning.vectorized` — the batch evaluator over the
  vectorized simulator core, every tuner's measurement backend.
* :mod:`repro.tuning.robust` — crash-safe, self-healing tuning sessions:
  retries, per-config quarantine, resume journal, graceful degradation.
"""

import importlib
from typing import Any

from repro.tuning.space import ParameterSpace, default_space
from repro.tuning.result import TuneEntry, TuneResult
from repro.tuning.evaluator import (
    SimTrialEvaluator,
    Trial,
    TrialEvaluator,
    TrialOutcome,
)
from repro.tuning.exhaustive import exhaustive_tune
from repro.tuning.perfmodel import PaperModel, ModelInputs
from repro.tuning.modelbased import model_based_tune
from repro.tuning.stochastic import stochastic_tune

#: Exported lazily (PEP 562): the vectorized evaluator pulls in
#: repro.gpusim.batch and the resilient session repro.obs.recordlog, and
#: ``python -m`` on either module must be the first to import it.
_LAZY_EXPORTS = {
    "VectorTrialEvaluator": "repro.tuning.vectorized",
    "ResilientEvaluator": "repro.tuning.robust",
    "RetryPolicy": "repro.tuning.robust",
    "RobustTuningSession": "repro.tuning.robust",
    "SessionResult": "repro.tuning.robust",
    "TrialJournal": "repro.tuning.robust",
}


def __getattr__(name: str) -> Any:
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


__all__ = [
    "ParameterSpace",
    "default_space",
    "TuneEntry",
    "TuneResult",
    "TrialEvaluator",
    "Trial",
    "TrialOutcome",
    "SimTrialEvaluator",
    "VectorTrialEvaluator",
    "exhaustive_tune",
    "PaperModel",
    "ModelInputs",
    "model_based_tune",
    "stochastic_tune",
    "ResilientEvaluator",
    "RetryPolicy",
    "RobustTuningSession",
    "SessionResult",
    "TrialJournal",
]
