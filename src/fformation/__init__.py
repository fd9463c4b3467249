"""F-formation and approach-angle recognition from 2D skeletal keypoints."""

__version__ = "0.1.0"

from .features import F_ANGLE, F_GROUP, F_NODE, FEATURE_CATALOG_VERSION
from .pose import (
    APPROACH_ANGLES,
    FORMATIONS,
    GROUP,
    GROUP_LABELS,
    KEYPOINT_NAMES,
    OUTLIER,
    ConfidenceBin,
    PersonPose,
    Scene,
    SceneTruth,
    bin_confidence,
    load_scenes,
    parse_scenes,
    save_scenes,
    write_scenes,
)

__all__ = [
    "APPROACH_ANGLES",
    "FORMATIONS",
    "GROUP",
    "GROUP_LABELS",
    "KEYPOINT_NAMES",
    "OUTLIER",
    "ConfidenceBin",
    "F_ANGLE",
    "F_GROUP",
    "F_NODE",
    "FEATURE_CATALOG_VERSION",
    "PersonPose",
    "Scene",
    "SceneTruth",
    "bin_confidence",
    "load_scenes",
    "parse_scenes",
    "save_scenes",
    "write_scenes",
    "__version__",
]
