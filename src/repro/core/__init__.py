"""DL2SQL — the paper's tight-integration contribution.

Transforms a neural model (:class:`repro.tensor.Model`) into relational
tables plus a sequence of SQL statements whose execution *is* the forward
pass, entirely inside the database:

* :mod:`repro.core.featuremap` — Algorithm 1 (tensor -> FeatureMap table);
* :mod:`repro.core.mapping` — Algorithm 2 (kernel mapping tables);
* :mod:`repro.core.sqlgen` — the Q1..Q5 statement templates per operator;
* :mod:`repro.core.compiler` — whole-model compilation (with the Fig. 11
  pre-join strategies), per keyframe or batched;
* :mod:`repro.core.runner` — loads the compiled model into a Database and
  runs inference on one keyframe or a batch;
* :mod:`repro.core.cost_model` — the customized cost model (Eqs. 3–8);
* :mod:`repro.core.selectivity` — nUDF selectivity from class histograms
  (Eqs. 9–10);
* :mod:`repro.core.hints` — the hint-aware cost model behind DL2SQL-OP.
"""

from repro.core.compiler import (
    CompiledModel,
    PreJoin,
    compile_model,
    compile_model_batched,
)
from repro.core.runner import BatchInferenceResult, Dl2SqlModel
from repro.core.cost_model import CustomCostModel, LayerCostEstimate
from repro.core.selectivity import NudfSelectivity
from repro.core.hints import HintAwareCostModel, make_op_config

__all__ = [
    "BatchInferenceResult",
    "CompiledModel",
    "CustomCostModel",
    "Dl2SqlModel",
    "HintAwareCostModel",
    "LayerCostEstimate",
    "NudfSelectivity",
    "PreJoin",
    "compile_model",
    "compile_model_batched",
    "make_op_config",
]
