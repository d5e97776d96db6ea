"""Point cloud classifiers trained to survive geometric distribution shifts."""

from .geometry import (
    PointCloud,
    TransformSpec,
    apply_transform,
    density_rows,
    dropping_rows,
    normalize_unit_ball,
    occlusion_rows,
    random_unit_vector,
    transform_rows,
)
from .meta import (
    Run,
    TaskSet,
    TrainConfig,
    build_task_set,
    meta_validate,
    sample_task_indices,
    train,
    update_probabilities,
)

__version__ = "0.1.0"

__all__ = [
    "PointCloud",
    "TransformSpec",
    "Run",
    "TaskSet",
    "TrainConfig",
    "apply_transform",
    "build_task_set",
    "density_rows",
    "dropping_rows",
    "meta_validate",
    "normalize_unit_ball",
    "occlusion_rows",
    "random_unit_vector",
    "sample_task_indices",
    "train",
    "transform_rows",
    "update_probabilities",
    "__version__",
]
