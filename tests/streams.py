"""`harness.build_stream` with RunConfig's default protocol and split."""

from taam.config import RunConfig
from taam.harness import build_stream

_DEFAULTS = RunConfig()


def default_stream(g, **kwargs):
    """`build_stream(g, **kwargs)`, with each of classes_per_task, train_frac
    and val_frac that `kwargs` leaves out taken from RunConfig's defaults."""
    classes_per_task, _ = _DEFAULTS.protocol_spec()
    split = {"train_frac": _DEFAULTS.train_frac, "val_frac": _DEFAULTS.val_frac}
    return build_stream(g, **{"classes_per_task": classes_per_task, **split, **kwargs})
