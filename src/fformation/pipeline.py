"""End-to-end orchestration: CRF filtering, formation/angle prediction,
the rule-based head-orientation baseline, and model-bundle persistence.
"""
from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import crf as crf_mod
from . import svm as svm_mod
from .errors import DataError, VersionMismatchError
from .features import (
    F_ANGLE,
    F_GROUP,
    FEATURE_CATALOG_VERSION,
    angle_features,
    chain_features,
    group_features,
)
from .pose import (
    APPROACH_ANGLES,
    FORMATIONS,
    GROUP,
    OUTLIER,
    PersonPose,
    Scene,
    anchor_x,
    left_to_right_permutation,
    order_left_to_right,
)

ORIENT_LEFT = "left"
ORIENT_RIGHT = "right"
ORIENT_FRONT = "front"

FRONT_BAND_FRACTION = 0.15  # of face-box width, either side of its midline
GAP_SHOULDER_FACTOR = 1.5
FACE_CONFIDENCE = 0.25
# The rule baseline only "sees" people its detector stage would find: poses
# with almost every keypoint below the Low-bin ceiling do not count.
MIN_VISIBLE_KEYPOINTS = 5

REASON_TOO_FEW_VISIBLE = "too_few_visible_poses"

JOINT_CLASSES = tuple(f"{f}@{a}" for f in FORMATIONS for a in APPROACH_ANGLES)

REASON_NO_PEOPLE = "no_people"
REASON_TOO_SMALL = "group_too_small"
REASON_OVERFLOW = "group_overflow"
REASON_NO_RULE = "no_rule_matched"


def joint_class(formation: str, angle_deg: int) -> str:
    if formation not in FORMATIONS or angle_deg not in APPROACH_ANGLES:
        raise ValueError(f"invalid joint class ({formation!r}, {angle_deg!r})")
    return f"{formation}@{angle_deg}"


def parse_joint_class(cls: str) -> tuple[str, int]:
    formation, _, angle = cls.rpartition("@")
    return formation, int(angle)


@dataclass(frozen=True)
class Detection:
    frame_id: str
    membership: tuple[str, ...]  # aligned with the input scene's pose order
    member_indices: tuple[int, ...]
    formation: str | None = None
    angle_deg: int | None = None
    joint: tuple[str, int] | None = None
    scores: dict = field(default_factory=dict)
    reason: str | None = None
    overflow: bool = False


def detection_to_dict(det: Detection) -> dict:
    return {
        "frame_id": det.frame_id,
        "membership": list(det.membership),
        "formation": det.formation,
        "angle_deg": det.angle_deg,
        "joint": (
            {"formation": det.joint[0], "angle_deg": det.joint[1]}
            if det.joint is not None
            else None
        ),
        "scores": det.scores,
        "reason": det.reason,
    }


def write_detections(detections, stream) -> None:
    for det in detections:
        stream.write(json.dumps(detection_to_dict(det)) + "\n")


def _ordered_chain(scene: Scene):
    """Left-to-right permutation, the reordered scene, and its chain features."""
    perm = left_to_right_permutation(scene)
    ordered_poses = tuple(scene.poses[i] for i in perm)
    ordered = Scene(
        scene.frame_id, scene.image_width, scene.image_height, ordered_poses, None
    )
    return perm, ordered, crf_mod.ChainInstance(chain_features(ordered))


def _membership_from_chain(crf_model: crf_mod.CrfModel, chain, perm):
    """Viterbi labels and G-marginals, mapped back to the input pose order.

    The marginals are clipped to [0, 1]: forward-backward rounding can put
    them a few ulps outside.
    """
    labels_ordered = crf_mod.viterbi(crf_model, chain)
    marg, _ = crf_mod.marginals(crf_model, chain)
    g_ordered = np.clip(marg[:, 0], 0.0, 1.0)
    membership = [""] * len(perm)
    g_prob = [0.0] * len(perm)
    for pos, src in enumerate(perm):
        membership[src] = labels_ordered[pos]
        g_prob[src] = float(g_ordered[pos])
    member_positions = [p for p, lab in enumerate(labels_ordered) if lab == GROUP]
    return tuple(membership), g_prob, member_positions


def _group_slice(ordered: Scene, member_positions: list[int]):
    """First three left-to-right members and whether the group overflowed."""
    overflow = len(member_positions) > 3
    take = member_positions[:3]
    poses = [ordered.poses[p] for p in take]
    return poses, overflow


def _no_people(scene: Scene) -> Detection:
    """The defined result for a frame without any pose."""
    return Detection(
        frame_id=scene.frame_id,
        membership=(),
        member_indices=(),
        scores={"membership_g_prob": []},
        reason=REASON_NO_PEOPLE,
    )


def detect(
    scene: Scene,
    crf_model: crf_mod.CrfModel,
    formation_svm: svm_mod.SvmModel | None = None,
    angle_svm: svm_mod.SvmModel | None = None,
    *,
    joint_svm: svm_mod.SvmModel | None = None,
    timings: dict | None = None,
) -> Detection:
    """Membership by the CRF filter, then the requested heads on its group.

    The cascade (formation_svm and angle_svm) predicts the formation, then
    the angle with the formation fed as a feature. The joint head
    (joint_svm) predicts one of the 28 (formation, angle) classes into
    `joint`; without the cascade, formation and angle are its class's. The
    CRF runs once whichever heads are filled.
    """
    if (formation_svm is None) != (angle_svm is None):
        raise ValueError("the cascade needs both formation_svm and angle_svm")
    heads = [m for m in (formation_svm, angle_svm, joint_svm) if m is not None]
    if not heads:
        raise ValueError("detect needs the cascade heads, the joint head or both")
    _check_bundle_versions(crf_model, *heads)
    if not scene.poses:
        if timings is not None:
            timings.update(features=0.0, crf=0.0, svm=0.0)
        return _no_people(scene)
    t0 = time.perf_counter()
    perm, ordered, chain = _ordered_chain(scene)
    t1 = time.perf_counter()
    membership, g_prob, member_positions = _membership_from_chain(
        crf_model, chain, perm
    )
    t2 = time.perf_counter()
    scores = {"membership_g_prob": g_prob}
    member_indices = tuple(sorted(perm[p] for p in member_positions))
    if len(member_positions) < 2:
        if timings is not None:
            timings["features"] = t1 - t0
            timings["crf"] = t2 - t1
            timings["svm"] = 0.0
        return Detection(
            frame_id=scene.frame_id,
            membership=membership,
            member_indices=member_indices,
            scores=scores,
            reason=REASON_TOO_SMALL,
        )
    poses, overflow = _group_slice(ordered, member_positions)
    gfv = group_features(poses, scene.image_width, scene.image_height)
    formation = angle_deg = joint = None
    if formation_svm is not None:
        formation, scores["formation"] = svm_mod.predict(formation_svm, gfv)
        afv = angle_features(gfv, formation)
        angle_cls, scores["angle"] = svm_mod.predict(angle_svm, afv)
        angle_deg = int(angle_cls)
    if joint_svm is not None:
        cls, scores["joint"] = svm_mod.predict(joint_svm, gfv)
        joint = parse_joint_class(cls)
        if formation_svm is None:
            formation, angle_deg = joint
    t3 = time.perf_counter()
    if timings is not None:
        timings["features"] = t1 - t0
        timings["crf"] = t2 - t1
        timings["svm"] = t3 - t2
    return Detection(
        frame_id=scene.frame_id,
        membership=membership,
        member_indices=member_indices,
        formation=formation,
        angle_deg=angle_deg,
        joint=joint,
        scores=scores,
        reason=REASON_OVERFLOW if overflow else None,
        overflow=overflow,
    )


# ---------------------------------------------------------------------------
# Rule-based baseline: head orientation from eye placement in the face box.


def head_orientation(pose: PersonPose) -> str:
    """left / right / front from where the eyes sit within the face box.

    The face box spans the confident face keypoints (nose, eyes, ears). When
    both eyes are confident, their midpoint relative to the box midline
    decides the orientation, with a +-15%-of-width front band. Otherwise the
    head is called front (the rule's stated fallback).
    """
    face_names = ("nose", "leftEye", "rightEye", "leftEar", "rightEar")
    face = [pose.kp(n) for n in face_names]
    confident = [k for k in face if k.confidence >= FACE_CONFIDENCE]
    le, re = pose.kp("leftEye"), pose.kp("rightEye")
    if (
        len(confident) < 2
        or le.confidence < FACE_CONFIDENCE
        or re.confidence < FACE_CONFIDENCE
    ):
        return ORIENT_FRONT
    xs = [k.x for k in confident]
    box_left, box_right = min(xs), max(xs)
    midline = (box_left + box_right) / 2.0
    band = FRONT_BAND_FRACTION * (box_right - box_left)
    eye_mid = (le.x + re.x) / 2.0
    if eye_mid < midline - band:
        return ORIENT_LEFT
    if eye_mid > midline + band:
        return ORIENT_RIGHT
    return ORIENT_FRONT


def _pixel_shoulder_width(pose: PersonPose) -> float:
    return abs(pose.kp("leftShoulder").x - pose.kp("rightShoulder").x)


def rule_classify(scene: Scene) -> Detection:
    """Head-orientation baseline over the largest two or three poses.

    Matches per adjacent left-to-right pair: mutually facing -> face-to-face;
    equal orientations within 1.5 mean shoulder widths -> side-by-side;
    exactly one front within the same gap -> L-shaped; three poses with at
    least two distinct orientations -> triangle. When several rules match,
    the lowest-priority one in the order face-to-face > triangle > L-shaped
    > side-by-side wins (specific pair evidence defers to the weaker, more
    generic match). No angle is predicted.
    """
    if len(scene.poses) < 2:
        raise ValueError("rule baseline needs at least two poses")
    visible = [
        i
        for i, p in enumerate(scene.poses)
        if int(np.sum(p.confidences() >= FACE_CONFIDENCE)) >= MIN_VISIBLE_KEYPOINTS
    ]
    if len(visible) < 2:
        membership = tuple(
            GROUP if i in visible else OUTLIER for i in range(len(scene.poses))
        )
        return Detection(
            frame_id=scene.frame_id,
            membership=membership,
            member_indices=tuple(visible),
            formation=None,
            scores={},
            reason=REASON_TOO_FEW_VISIBLE,
        )
    widths = [_pixel_shoulder_width(p) for p in scene.poses]
    k = 3 if len(visible) >= 3 else 2
    largest = sorted(visible, key=lambda i: -widths[i])[:k]
    selected = sorted(largest, key=lambda i: anchor_x(scene.poses[i]))
    orientations = [head_orientation(scene.poses[i]) for i in selected]

    matches = set()
    for pos in range(len(selected) - 1):
        a, b = selected[pos], selected[pos + 1]
        oa, ob = orientations[pos], orientations[pos + 1]
        gap = abs(anchor_x(scene.poses[b]) - anchor_x(scene.poses[a]))
        mean_sw = (widths[a] + widths[b]) / 2.0
        gap_ok = gap < GAP_SHOULDER_FACTOR * mean_sw
        if oa == ORIENT_RIGHT and ob == ORIENT_LEFT:
            matches.add("face-to-face")
        if oa == ob and gap_ok:
            matches.add("side-by-side")
        if ((oa == ORIENT_FRONT) != (ob == ORIENT_FRONT)) and gap_ok:
            matches.add("L-shaped")
    if len(selected) == 3 and len(set(orientations)) >= 2:
        matches.add("triangle")

    formation = None
    for candidate in ("face-to-face", "triangle", "L-shaped", "side-by-side"):
        if candidate in matches:
            formation = candidate  # keep scanning: the last match wins

    membership = tuple(
        GROUP if i in selected else OUTLIER for i in range(len(scene.poses))
    )
    return Detection(
        frame_id=scene.frame_id,
        membership=membership,
        member_indices=tuple(sorted(selected)),
        formation=formation,
        scores={"orientations": orientations},
        reason=None if formation is not None else REASON_NO_RULE,
    )


# ---------------------------------------------------------------------------
# Training-set assembly from labeled scenes.


def build_crf_chains(scenes) -> list[crf_mod.ChainInstance]:
    chains = []
    for scene in scenes:
        if scene.truth is None or scene.truth.membership is None:
            raise DataError(f"scene {scene.frame_id!r} lacks membership truth")
        ordered = order_left_to_right(scene)
        chains.append(
            crf_mod.ChainInstance(
                features=chain_features(ordered),
                labels=crf_mod.labels_to_indices(ordered.truth.membership),
            )
        )
    return chains


def _gold_group(scene: Scene):
    """Left-to-right gold members of a labeled scene (at most 3)."""
    ordered = order_left_to_right(scene)
    members = [
        p
        for p, lab in zip(ordered.poses, ordered.truth.membership)
        if lab == GROUP
    ]
    return members[:3]


def predicted_group_poses(scene: Scene, crf_model) -> list[PersonPose] | None:
    """The left-to-right group the detector would feed the classifiers.

    None when fewer than two people survive the filtering (detect() refuses
    to name a formation there, so such scenes yield no training sample).
    """
    perm, ordered, chain = _ordered_chain(scene)
    _, _, member_positions = _membership_from_chain(crf_model, chain, perm)
    if len(member_positions) < 2:
        return None
    poses, _ = _group_slice(ordered, member_positions)
    return poses


def training_groups(scenes, crf_model=None) -> list[list[PersonPose] | None]:
    """Per scene, the group its classifier training sample is built from.

    With a CRF, the filtered group the classifiers will see at detection
    time (None where fewer than two people survive, a scene that then
    yields no sample), found with one CRF decode per scene; without one,
    the gold group.
    """
    groups = []
    for scene in scenes:
        if scene.truth is None or scene.truth.membership is None:
            raise DataError(f"scene {scene.frame_id!r} lacks membership truth")
        if crf_model is None:
            groups.append(_gold_group(scene))
        else:
            groups.append(predicted_group_poses(scene, crf_model))
    return groups


def build_formation_data(scenes, groups) -> tuple[np.ndarray, np.ndarray]:
    """Formation training rows from `training_groups(scenes, ...)`."""
    X, y = [], []
    for scene, members in zip(scenes, groups, strict=True):
        t = scene.truth
        if t is None or t.membership is None or t.formation is None:
            raise DataError(f"scene {scene.frame_id!r} lacks formation truth")
        if members is None:
            continue
        X.append(group_features(members, scene.image_width, scene.image_height))
        y.append(t.formation)
    return np.array(X), np.array(y)


def build_angle_data(scenes, groups) -> tuple[np.ndarray, np.ndarray]:
    """Angle training vectors use the gold formation one-hot (teacher forcing)."""
    X, y = [], []
    for scene, members in zip(scenes, groups, strict=True):
        t = scene.truth
        if t is None or t.membership is None or t.formation is None or t.angle_deg is None:
            raise DataError(f"scene {scene.frame_id!r} lacks angle truth")
        if members is None:
            continue
        gfv = group_features(members, scene.image_width, scene.image_height)
        X.append(angle_features(gfv, t.formation))
        y.append(str(t.angle_deg))
    return np.array(X), np.array(y)


def build_joint_data(scenes, groups) -> tuple[np.ndarray, np.ndarray]:
    X, y = [], []
    for scene, members in zip(scenes, groups, strict=True):
        t = scene.truth
        if t is None or t.membership is None or t.formation is None or t.angle_deg is None:
            raise DataError(f"scene {scene.frame_id!r} lacks joint truth")
        if members is None:
            continue
        X.append(group_features(members, scene.image_width, scene.image_height))
        y.append(joint_class(t.formation, t.angle_deg))
    return np.array(X), np.array(y)


ANGLE_CLASSES = tuple(str(a) for a in APPROACH_ANGLES)


# ---------------------------------------------------------------------------
# Model bundle persistence: one directory, one manifest, atomic loading.

BUNDLE_FORMAT_VERSION = 1
_BUNDLE_FILES = {
    "crf": "crf.json",
    "formation": "svm_formation.json",
    "angle": "svm_angle.json",
    "joint": "svm_joint.json",
}


@dataclass
class ModelBundle:
    crf: crf_mod.CrfModel
    formation_svm: svm_mod.SvmModel
    angle_svm: svm_mod.SvmModel
    joint_svm: svm_mod.SvmModel
    # How L-BFGS ended: {"converged", "n_iters", "final_grad_inf_norm"};
    # None when the CRF's training run is unknown.
    crf_training: dict | None = None


def _check_bundle_versions(*models) -> None:
    versions = {m.feature_catalog_version for m in models}
    versions.add(FEATURE_CATALOG_VERSION)
    if len(versions) != 1:
        raise VersionMismatchError(
            f"feature catalog versions disagree: {sorted(versions)}"
        )


def _training_record(bundle: ModelBundle) -> dict:
    """How the bundle was trained. No wall times: bundles must stay
    byte-identical across reruns with the same seed."""
    svms = {
        "formation": bundle.formation_svm,
        "angle": bundle.angle_svm,
        "joint": bundle.joint_svm,
    }
    return {
        "crf": bundle.crf_training,
        "svm": {
            name: {"gamma": m.gamma, "n_support_vectors": m.n_support_vectors}
            for name, m in svms.items()
        },
    }


def save_models(bundle: ModelBundle, path) -> None:
    os.makedirs(path, exist_ok=True)
    manifest = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "feature_catalog_version": FEATURE_CATALOG_VERSION,
        "files": dict(_BUNDLE_FILES),
        "training": _training_record(bundle),
    }
    crf_mod.save_crf(bundle.crf, os.path.join(path, _BUNDLE_FILES["crf"]))
    svm_mod.save_svm(bundle.formation_svm, os.path.join(path, _BUNDLE_FILES["formation"]))
    svm_mod.save_svm(bundle.angle_svm, os.path.join(path, _BUNDLE_FILES["angle"]))
    svm_mod.save_svm(bundle.joint_svm, os.path.join(path, _BUNDLE_FILES["joint"]))
    with open(os.path.join(path, "manifest.json"), "w", encoding="utf-8", newline="\n") as fp:
        json.dump(manifest, fp)
        fp.write("\n")


def load_models(path) -> ModelBundle:
    manifest_path = os.path.join(path, "manifest.json")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fp:
            manifest = json.load(fp)
    except FileNotFoundError:
        raise DataError(f"no model bundle manifest at {manifest_path}")
    except json.JSONDecodeError as exc:
        raise DataError(f"corrupt bundle manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataError(f"bundle manifest {manifest_path} is not a JSON object")
    if manifest.get("format_version") != BUNDLE_FORMAT_VERSION:
        raise DataError(
            f"unsupported bundle format_version {manifest.get('format_version')!r}"
        )
    catalog = manifest.get("feature_catalog_version")
    if catalog != FEATURE_CATALOG_VERSION:
        raise VersionMismatchError(
            f"bundle built for catalog {catalog!r}, "
            f"library provides {FEATURE_CATALOG_VERSION!r}"
        )
    files = manifest.get("files")
    if not isinstance(files, dict) or not all(
        isinstance(files.get(key), str) for key in _BUNDLE_FILES
    ):
        raise DataError(
            f"bundle manifest {manifest_path} must name a file for each of "
            f"{sorted(_BUNDLE_FILES)}, got {files!r}"
        )
    training = manifest.get("training", {})
    if not isinstance(training, dict):
        raise DataError(f"bundle manifest {manifest_path}: malformed training block")
    bundle = ModelBundle(
        crf=crf_mod.load_crf(os.path.join(path, files["crf"])),
        formation_svm=svm_mod.load_svm(os.path.join(path, files["formation"])),
        angle_svm=svm_mod.load_svm(os.path.join(path, files["angle"])),
        joint_svm=svm_mod.load_svm(os.path.join(path, files["joint"])),
        crf_training=training.get("crf"),
    )
    _check_bundle_versions(
        bundle.crf, bundle.formation_svm, bundle.angle_svm, bundle.joint_svm
    )
    for key, model, width in (
        ("formation", bundle.formation_svm, F_GROUP),
        ("angle", bundle.angle_svm, F_ANGLE),
        ("joint", bundle.joint_svm, F_GROUP),
    ):
        if model.support_vectors.shape[1] != width:
            raise DataError(
                f"{key} svm {files[key]!r} has {model.support_vectors.shape[1]}-wide "
                f"support vectors, its features are {width} wide"
            )
    return bundle
