"""Point cloud classifiers trained to survive geometric distribution shifts."""

from .geometry import (
    PointCloud,
    TransformSpec,
    apply_transform,
    distance_thin,
    drop_nearest,
    normalize_unit_ball,
    random_unit_vector,
    self_occlude,
    transform_rows,
)
from .meta import (
    TaskSet,
    TrainConfig,
    build_task_set,
    meta_train_step,
    meta_validate,
    sample_task_indices,
    train,
    update_probabilities,
)

__version__ = "0.1.0"

__all__ = [
    "PointCloud",
    "TransformSpec",
    "TaskSet",
    "TrainConfig",
    "apply_transform",
    "build_task_set",
    "distance_thin",
    "drop_nearest",
    "meta_train_step",
    "meta_validate",
    "normalize_unit_ball",
    "random_unit_vector",
    "sample_task_indices",
    "self_occlude",
    "train",
    "transform_rows",
    "update_probabilities",
    "__version__",
]
