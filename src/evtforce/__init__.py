"""Event-camera force regression for soft grippers.

Synthesize deterministic DVS grasp recordings, accumulate them into
labeled event frames, and fit a small vision-transformer regressor whose
gradients come from the package's own reverse-mode autodiff engine.
"""

from .events import (
    EventStream,
    read_events,
    slice_window,
    write_events,
)
from .frames import (
    FrameDataset,
    FrameSpec,
    accumulate_frame,
    build_dataset,
    read_frame_dataset,
    write_frame_dataset,
)
from .synth import (
    ForceProfile,
    GripperScene,
    events_from_intensity_pair,
    force_to_deflection,
    make_grasp_profile,
    render_intensity,
    synthesize_recording,
)
from .training import (
    Metrics,
    TrainConfig,
    adam_step,
    evaluate,
    mse_loss,
    predict_forces,
    regression_metrics,
    split_dataset,
    train,
)
from .vit import (
    ViTConfig,
    ViTModel,
    count_params,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)

__version__ = "0.1.0"

__all__ = [
    "EventStream",
    "read_events",
    "slice_window",
    "write_events",
    "FrameDataset",
    "FrameSpec",
    "accumulate_frame",
    "build_dataset",
    "read_frame_dataset",
    "write_frame_dataset",
    "ForceProfile",
    "GripperScene",
    "events_from_intensity_pair",
    "force_to_deflection",
    "make_grasp_profile",
    "render_intensity",
    "synthesize_recording",
    "Metrics",
    "TrainConfig",
    "adam_step",
    "evaluate",
    "mse_loss",
    "predict_forces",
    "regression_metrics",
    "split_dataset",
    "train",
    "ViTConfig",
    "ViTModel",
    "count_params",
    "forward",
    "init_params",
    "load_checkpoint",
    "save_checkpoint",
    "__version__",
]
