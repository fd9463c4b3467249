"""Feature extraction: per-node chain observations and fixed-length group vectors.

Two consumers, two layouts:

* node features (dimension 26) describe one pose in its left-to-right chain
  context and feed the group/outlier chain model;
* group feature vectors (dimension 309 = 3 slots x 17 keypoints x 6 + 3
  presence flags) describe up to three people and feed the formation and
  angle classifiers. The angle classifier additionally receives the
  formation as a one-hot suffix (dimension 313).
"""
from __future__ import annotations

import numpy as np

from .errors import VersionMismatchError
from .pose import (
    CONF,
    FORMATIONS,
    KEYPOINT_INDEX,
    NUM_KEYPOINTS,
    X,
    Y,
    ConfidenceBin,
    Scene,
    confidence_bins,
)

FEATURE_CATALOG_VERSION = "node26-group309-v1"


def check_catalog(version, source: str) -> None:
    """VersionMismatchError unless `source` (a model file or bundle) was
    built for this library's feature catalog."""
    if version != FEATURE_CATALOG_VERSION:
        raise VersionMismatchError(
            f"{source} built for catalog {version!r}, "
            f"library provides {FEATURE_CATALOG_VERSION!r}"
        )


# Shoulder-span denominator floor: avoids division by zero when both
# shoulders project to the same pixel column under extreme occlusion.
SHOULDER_EPS = 1e-6

# Value used for the neighbor-gap features when there is no neighbor.
# Real gaps are normalized by image width so they stay well below this.
NO_NEIGHBOR_GAP = 2.0

_STAT_NAMES = (
    "shoulder_width_ratio",
    "facing_score",
    "back_facing",
    "mean_confidence",
    "bin_frac_low",
    "bin_frac_medium",
    "bin_frac_high",
    "bin_frac_very_high",
)
STATS_PER_POSE = len(_STAT_NAMES)

NODE_FEATURE_NAMES = (
    ("gap_left", "gap_right")
    + _STAT_NAMES
    + tuple("left_" + n for n in _STAT_NAMES)
    + tuple("right_" + n for n in _STAT_NAMES)
)
F_NODE = len(NODE_FEATURE_NAMES)

GROUP_SLOTS = 3
ENTRIES_PER_KEYPOINT = 6  # x_norm, y_norm, 4-way confidence-bin one-hot
SLOT_WIDTH = NUM_KEYPOINTS * ENTRIES_PER_KEYPOINT
F_GROUP = GROUP_SLOTS * SLOT_WIDTH + GROUP_SLOTS
F_ANGLE = F_GROUP + len(FORMATIONS)


_NOSE = KEYPOINT_INDEX["nose"]
_LEFT_EYE, _RIGHT_EYE = KEYPOINT_INDEX["leftEye"], KEYPOINT_INDEX["rightEye"]
_LEFT_EAR, _RIGHT_EAR = KEYPOINT_INDEX["leftEar"], KEYPOINT_INDEX["rightEar"]
_LEFT_SHOULDER = KEYPOINT_INDEX["leftShoulder"]
_RIGHT_SHOULDER = KEYPOINT_INDEX["rightShoulder"]


_BINS = np.arange(len(ConfidenceBin))


def _stats(points: np.ndarray, image_width) -> np.ndarray:
    """The 8 per-pose statistics of stacked poses, (..., 17, 3) -> (..., 8);
    image_width broadcasts against the leading dimensions."""
    x = points[..., X]
    conf = points[..., CONF]
    ls, rs = x[..., _LEFT_SHOULDER], x[..., _RIGHT_SHOULDER]
    span = np.abs(ls - rs)
    out = np.empty(points.shape[:-2] + (STATS_PER_POSE,))
    out[..., 0] = span / image_width
    out[..., 1] = (x[..., _NOSE] - 0.5 * (ls + rs)) / np.maximum(span, SHOULDER_EPS)
    out[..., 2] = (
        (conf[..., _LEFT_EYE] < 0.25)
        & (conf[..., _RIGHT_EYE] < 0.25)
        & (conf[..., _LEFT_EAR] >= 0.25)
        & (conf[..., _RIGHT_EAR] >= 0.25)
    )
    out[..., 3] = conf.mean(axis=-1)
    in_bin = confidence_bins(conf)[..., None] == _BINS
    out[..., 4:8] = in_bin.sum(axis=-2) / NUM_KEYPOINTS
    return out


def stacked_chain_features(points: np.ndarray, anchors: np.ndarray, widths) -> np.ndarray:
    """Node features (B, n, F_NODE) of B chains of n poses each.

    points (B, n, 17, 3) holds each chain's keypoint arrays in chain order,
    anchors (B, n) their anchor x and widths (B,) the image widths. Row i
    of a chain depends only on its poses i-1, i, i+1; missing neighbors
    contribute the gap sentinel and a zero statistics block. Every pose's
    statistics are computed once.
    """
    widths = np.asarray(widths, dtype=float)[:, None]
    stats = _stats(points, widths)
    gaps = (anchors[:, 1:] - anchors[:, :-1]) / widths
    out = np.zeros(anchors.shape + (F_NODE,))
    out[:, :, 0:2] = NO_NEIGHBOR_GAP
    out[:, 1:, 0] = gaps
    out[:, :-1, 1] = gaps
    out[:, :, 2:10] = stats
    out[:, 1:, 10:18] = stats[:, :-1]
    out[:, :-1, 18:26] = stats[:, 1:]
    return out


def chain_features(scene: Scene) -> np.ndarray:
    """Node features, shape (n, F_NODE), of a left-to-right ordered scene.

    One scene: the benchmark's output checks score a scene's chain with it."""
    if not scene.poses:
        raise ValueError("a chain needs at least one pose")
    return stacked_chain_features(
        np.stack([p.points for p in scene.poses])[None],
        np.array([[p.anchor for p in scene.poses]]),
        [scene.image_width],
    )[0]


def stacked_group_features(points: np.ndarray, sizes, widths, heights) -> np.ndarray:
    """Group vectors (G, F_GROUP) of G groups of 1-3 poses.

    points (G, GROUP_SLOTS, 17, 3): slot s of group g holds its s-th member
    left to right for s < sizes[g]; later slots are ignored. widths and
    heights (G,) are the image sizes. Coordinates are centered and scaled by
    the image half-extent and clamped to [-1, 1] (projections may land
    slightly off-frame). Empty slots stay zero with presence flag 0.
    """
    present = np.arange(GROUP_SLOTS) < np.asarray(sizes)[:, None]
    half_w = (np.asarray(widths, dtype=float) / 2.0)[:, None, None]
    half_h = (np.asarray(heights, dtype=float) / 2.0)[:, None, None]
    slots = np.empty(points.shape[:-1] + (ENTRIES_PER_KEYPOINT,))
    slots[..., 0] = np.clip((points[..., X] - half_w) / half_w, -1.0, 1.0)
    slots[..., 1] = np.clip((points[..., Y] - half_h) / half_h, -1.0, 1.0)
    slots[..., 2:] = confidence_bins(points[..., CONF])[..., None] == _BINS
    slots[~present] = 0.0
    out = np.empty((len(points), F_GROUP))
    entries = GROUP_SLOTS * SLOT_WIDTH  # slot entries, then presence flags
    out[:, :entries] = slots.reshape(len(points), entries)
    out[:, entries:] = present
    return out


def angle_features(X: np.ndarray, formations) -> np.ndarray:
    """Group vectors (G, F_GROUP) plus each row's (predicted or gold)
    formation as a one-hot suffix: (G, F_ANGLE)."""
    if X.ndim != 2 or X.shape[1] != F_GROUP:
        raise ValueError(f"expected (G, {F_GROUP}) group vectors, got {X.shape}")
    bad = [f for f in formations if f not in FORMATIONS]
    if bad:
        raise ValueError(f"unknown formation {bad[0]!r}")
    one_hot = np.eye(len(FORMATIONS))[[FORMATIONS.index(f) for f in formations]]
    return np.hstack([X, one_hot])
