"""`harness.build_stream` with RunConfig's default protocol and split."""

import numpy as np

from taam.config import RunConfig
from taam.harness import build_stream

_DEFAULTS = RunConfig()
DEFAULT_SPLIT = {"train_frac": _DEFAULTS.train_frac, "val_frac": _DEFAULTS.val_frac}


def default_stream(g, **kwargs):
    """`build_stream(g, **kwargs)`, with each of classes_per_task, train_frac
    and val_frac that `kwargs` leaves out taken from RunConfig's defaults."""
    classes_per_task, _ = _DEFAULTS.protocol_spec()
    return build_stream(g, **{"classes_per_task": classes_per_task, **DEFAULT_SPLIT, **kwargs})


def dropped_classes(g, stream):
    """The classes of `g` that are in no task of `stream`, ascending."""
    kept = {c for task in stream.tasks for c in task.classes}
    return [int(c) for c in np.unique(g.labels) if c not in kept]
