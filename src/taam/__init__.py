"""Task-aware adaptive modulation for class-incremental node classification.

A frozen random graph backbone is steered by one small modulator per task;
task identity at inference is recovered by nearest-prototype retrieval over
propagated features.  See the README for the CLI and file formats.
"""

from .backbone import Backbone, init_backbone
from .classifier import ClassifierHead
from .config import RunConfig, make_config
from .graph import SparseGraph, generate_sbm, induced_subgraph, normalize_adjacency, propagate
from .harness import (
    TaskSpec,
    TaskStream,
    average_accuracy,
    average_forgetting,
    build_stream,
    run_continual,
)
from .modulator import Modulator, SiteParams, clone_structural, init_modulator, modulate
from .prototypes import Prototype, PrototypeBank, compute_prototype, task_aware_init
from .tensor import Tape, Tensor, grad_check
from .training import Adam, class_weights, train_task

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "Backbone",
    "ClassifierHead",
    "Modulator",
    "Prototype",
    "PrototypeBank",
    "RunConfig",
    "SiteParams",
    "SparseGraph",
    "Tape",
    "TaskSpec",
    "TaskStream",
    "Tensor",
    "average_accuracy",
    "average_forgetting",
    "build_stream",
    "class_weights",
    "clone_structural",
    "compute_prototype",
    "generate_sbm",
    "grad_check",
    "induced_subgraph",
    "init_backbone",
    "init_modulator",
    "make_config",
    "modulate",
    "normalize_adjacency",
    "propagate",
    "run_continual",
    "task_aware_init",
    "train_task",
]
