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
from .errors import DataError
from .features import (
    F_ANGLE,
    F_GROUP,
    FEATURE_CATALOG_VERSION,
    GROUP_SLOTS,
    angle_features,
    check_catalog,
    stacked_chain_features,
    stacked_group_features,
)
from .pose import (
    APPROACH_ANGLES,
    CONF,
    FORMATIONS,
    GROUP,
    KEYPOINT_INDEX,
    NUM_KEYPOINTS,
    OUTLIER,
    X,
    PersonPose,
    Scene,
    read_json,
    require_truth,
    write_json,
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
ANGLE_CLASSES = tuple(str(a) for a in APPROACH_ANGLES)

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
    formation: str | None = None
    angle_deg: int | None = None
    joint: tuple[str, int] | None = None
    scores: dict = field(default_factory=dict)
    reason: str | None = None


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


# Scenes per batch in detect_many: bounds the feature matrices and SVM
# kernel blocks held at once.
DETECT_BATCH = 512


def _chain_blocks(scenes) -> list[tuple[list[int], np.ndarray, np.ndarray]]:
    """The scenes' chains, one block per pose count n >= 1, shortest first:
    (the scenes' indices in input order, their left-to-right permutations
    (B, n), their chain features in that order (B, n, F_NODE)). A scene
    without a pose has no chain and is in no block. Detection and training
    decode these blocks as they are, and the CRF trains on them in this
    order: its objective sums the blocks in turn, and the sum's rounding
    steers Newton's steps, so the order fixes the trained weights.
    """
    by_count: dict[int, list[int]] = {}
    for i, scene in enumerate(scenes):
        if scene.poses:
            by_count.setdefault(len(scene.poses), []).append(i)
    blocks = []
    for n, idx in sorted(by_count.items()):
        group = [scenes[i] for i in idx]
        anchors = np.array([[p.anchor for p in s.poses] for s in group])
        perms = np.argsort(anchors, axis=1, kind="stable")
        points = np.stack([p.points for s in group for p in s.poses])
        rows = np.arange(len(group))[:, None]
        feats = stacked_chain_features(
            points.reshape(len(group), n, NUM_KEYPOINTS, 3)[rows, perms],
            anchors[rows, perms],
            [s.image_width for s in group],
        )
        blocks.append((idx, perms, feats))
    return blocks


def _gold_labels(scenes, idx, perms) -> np.ndarray:
    """Gold label indices (B, n) of a block's scenes, in chain order."""
    rows = [[scenes[i].truth.membership[m] for m in perm] for i, perm in zip(idx, perms)]
    return np.array([crf_mod.labels_to_indices(row) for row in rows])


def _kept_members(perm: np.ndarray, labels: np.ndarray) -> list[int] | None:
    """Pose indices of the chain positions labelled G, left to right; None
    below two members, where detection names no formation and training
    builds no row."""
    members = perm[labels == crf_mod.LABEL_INDEX[GROUP]].tolist()
    return members if len(members) >= 2 else None


def _group_rows(scenes, kept) -> np.ndarray:
    """Classifier rows (len(kept), F_GROUP) in one batch: kept holds (scene
    index, its _kept_members) pairs, and the first GROUP_SLOTS members of
    each fill the slots. Detection and training both build their rows here,
    so the heads train on the rows they classify.
    """
    sizes = [min(len(members), GROUP_SLOTS) for _, members in kept]
    points = np.zeros((len(kept), GROUP_SLOTS, NUM_KEYPOINTS, 3))
    for g, ((i, members), size) in enumerate(zip(kept, sizes)):
        points[g, :size] = [scenes[i].poses[m].points for m in members[:size]]
    return stacked_group_features(
        points,
        sizes,
        [scenes[i].image_width for i, _ in kept],
        [scenes[i].image_height for i, _ in kept],
    )


def _no_people(scene: Scene) -> Detection:
    """The defined result for a frame without any pose."""
    return Detection(
        frame_id=scene.frame_id,
        membership=(),
        scores={"membership_g_prob": []},
        reason=REASON_NO_PEOPLE,
    )


def _detect_batch(scenes, crf_model, formation_svm, angle_svm, joint_svm):
    """Detections for a list of scenes, plus (features, crf, svm) seconds."""
    t0 = time.perf_counter()
    blocks = _chain_blocks(scenes)
    if not blocks:
        return [_no_people(scene) for scene in scenes], (0.0, 0.0, 0.0)
    t1 = time.perf_counter()
    decoded = []
    for _, _, feats in blocks:
        labels, marg = crf_mod.decode_batch(crf_model, feats, marginals=True)
        # forward-backward rounding can put a marginal a few ulps outside [0, 1]
        decoded.append((labels, np.clip(marg[:, :, 0], 0.0, 1.0)))
    t2 = time.perf_counter()

    fields = {}  # scene index -> Detection fields
    kept = []  # (scene index, its _kept_members)
    for (idx, perms, _), (labels, g_probs) in zip(blocks, decoded):
        for i, perm, lab, g in zip(idx, perms, labels, g_probs):
            membership = np.empty(len(perm), dtype=int)
            membership[perm] = lab
            g_prob = np.empty(len(perm))
            g_prob[perm] = g
            members = _kept_members(perm, lab)
            fields[i] = dict(
                frame_id=scenes[i].frame_id,
                membership=tuple(crf_mod.indices_to_labels(membership)),
                scores={"membership_g_prob": g_prob.tolist()},
                reason=REASON_TOO_SMALL,
            )
            if members is not None:
                kept.append((i, members))
    # Rows in scene order: a row's scores can move in the last bits with the
    # rows around it (svm.predict_many).
    kept.sort()

    if kept:
        X = _group_rows(scenes, kept)
        formations = svm_mod.predict_many(formation_svm, X)
        Xa = angle_features(X, [f for f, _ in formations])
        angles = svm_mod.predict_many(angle_svm, Xa)
        if joint_svm is not None:
            joints = svm_mod.predict_many(joint_svm, X)
        for g, (i, members) in enumerate(kept):
            det = fields[i]
            det["reason"] = REASON_OVERFLOW if len(members) > GROUP_SLOTS else None
            scores = det["scores"]
            det["formation"], scores["formation"] = formations[g]
            angle, scores["angle"] = angles[g]
            det["angle_deg"] = int(angle)
            if joint_svm is not None:
                cls, scores["joint"] = joints[g]
                det["joint"] = parse_joint_class(cls)
    t3 = time.perf_counter()
    detections = [
        Detection(**fields[i]) if i in fields else _no_people(scene)
        for i, scene in enumerate(scenes)
    ]
    return detections, (t1 - t0, t2 - t1, t3 - t2)


def detect_many(
    scenes,
    crf_model: crf_mod.CrfModel,
    formation_svm: svm_mod.SvmModel,
    angle_svm: svm_mod.SvmModel,
    *,
    joint_svm: svm_mod.SvmModel | None = None,
    timings: dict | None = None,
) -> list[Detection]:
    """Membership by the CRF filter, then the heads on its group, for every
    scene.

    The cascade predicts the formation (formation_svm), then the angle
    (angle_svm) with the formation fed as a feature. The joint head
    (joint_svm), when given, also predicts one of the 28 (formation, angle)
    classes into `joint`; it leaves the cascade's fields as they are.

    Scenes are batched: one Viterbi and one forward-backward per chain
    length, and one SVM decision per head over all groups. The result for
    a scene equals detect() on it alone, except that SVM scores can differ
    in the last bits (see svm.predict_many). `timings`, when given,
    receives the seconds spent on features, crf and svm.
    """
    scenes = list(scenes)
    detections = []
    spent = np.zeros(3)
    for start in range(0, len(scenes), DETECT_BATCH):
        batch, seconds = _detect_batch(
            scenes[start : start + DETECT_BATCH],
            crf_model,
            formation_svm,
            angle_svm,
            joint_svm,
        )
        detections.extend(batch)
        spent += seconds
    if timings is not None:
        timings.update(zip(("features", "crf", "svm"), spent.tolist()))
    return detections


def detect(
    scene: Scene,
    crf_model: crf_mod.CrfModel,
    formation_svm: svm_mod.SvmModel,
    angle_svm: svm_mod.SvmModel,
    *,
    joint_svm: svm_mod.SvmModel | None = None,
    timings: dict | None = None,
) -> Detection:
    """detect_many on one scene: the CRF filter once, then the heads."""
    return detect_many(
        [scene],
        crf_model,
        formation_svm,
        angle_svm,
        joint_svm=joint_svm,
        timings=timings,
    )[0]


# ---------------------------------------------------------------------------
# Rule-based baseline: head orientation from eye placement in the face box.


_FACE = [
    KEYPOINT_INDEX[n] for n in ("nose", "leftEye", "rightEye", "leftEar", "rightEar")
]
_SHOULDERS = [KEYPOINT_INDEX["leftShoulder"], KEYPOINT_INDEX["rightShoulder"]]


def head_orientation(pose: PersonPose) -> str:
    """left / right / front from where the eyes sit within the face box.

    The face box spans the confident face keypoints (nose, eyes, ears). When
    both eyes are confident, their midpoint relative to the box midline
    decides the orientation, with a +-15%-of-width front band. Otherwise the
    head is called front (the rule's stated fallback).
    """
    face = pose.points[_FACE].tolist()
    _, left_eye, right_eye, _, _ = face
    xs = [x for x, _, c in face if c >= FACE_CONFIDENCE]
    if (
        len(xs) < 2
        or left_eye[CONF] < FACE_CONFIDENCE
        or right_eye[CONF] < FACE_CONFIDENCE
    ):
        return ORIENT_FRONT
    box_left, box_right = min(xs), max(xs)
    midline = (box_left + box_right) / 2.0
    band = FRONT_BAND_FRACTION * (box_right - box_left)
    eye_mid = (left_eye[X] + right_eye[X]) / 2.0
    if eye_mid < midline - band:
        return ORIENT_LEFT
    if eye_mid > midline + band:
        return ORIENT_RIGHT
    return ORIENT_FRONT


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
        raise DataError(
            f"scene {scene.frame_id!r} has fewer than two poses; "
            "the rule baseline needs at least two"
        )
    points = np.stack([p.points for p in scene.poses])
    n_confident = (points[:, :, CONF] >= FACE_CONFIDENCE).sum(axis=1)
    visible = np.flatnonzero(n_confident >= MIN_VISIBLE_KEYPOINTS).tolist()
    if len(visible) < 2:
        membership = tuple(
            GROUP if i in visible else OUTLIER for i in range(len(scene.poses))
        )
        return Detection(
            frame_id=scene.frame_id,
            membership=membership,
            formation=None,
            scores={},
            reason=REASON_TOO_FEW_VISIBLE,
        )
    shoulders = points[:, _SHOULDERS, X]
    widths = np.abs(shoulders[:, 0] - shoulders[:, 1]).tolist()
    anchors = [p.anchor for p in scene.poses]
    k = 3 if len(visible) >= 3 else 2
    largest = sorted(visible, key=lambda i: -widths[i])[:k]
    selected = sorted(largest, key=lambda i: anchors[i])
    orientations = [head_orientation(scene.poses[i]) for i in selected]

    matches = set()
    for pos in range(len(selected) - 1):
        a, b = selected[pos], selected[pos + 1]
        oa, ob = orientations[pos], orientations[pos + 1]
        gap = abs(anchors[b] - anchors[a])
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
        formation=formation,
        scores={"orientations": orientations},
        reason=None if formation is not None else REASON_NO_RULE,
    )


# ---------------------------------------------------------------------------
# Training-set assembly from labeled scenes.


def build_crf_chains(scenes) -> list[tuple[np.ndarray, np.ndarray]]:
    """crf.train's blocks: per block of _chain_blocks, its chain features
    (B, n, F_NODE) and gold label indices (B, n). DataError when no scene
    has a pose."""
    require_truth(scenes, ("membership",))
    blocks = [
        (feats, _gold_labels(scenes, idx, perms))
        for idx, perms, feats in _chain_blocks(scenes)
    ]
    if not blocks:
        raise DataError("no training scene has a pose")
    return blocks


def training_rows(scenes, crf_model, fields) -> tuple[np.ndarray, list]:
    """The classifier rows of the scenes whose chain keeps a group, in scene
    order, and those scenes' truths. Every scene must carry its membership
    and each truth field in `fields`.

    With a CRF the chain labels are its Viterbi labels, one batched decode
    per block of _chain_blocks, so the heads train on the rows detection
    builds; without one (crf_model None), the gold labels.
    """
    require_truth(scenes, ("membership", *fields))
    kept = []  # (scene index, its _kept_members)
    for idx, perms, feats in _chain_blocks(scenes):
        if crf_model is None:
            labels = _gold_labels(scenes, idx, perms)
        else:
            labels, _ = crf_mod.decode_batch(crf_model, feats)
        for i, perm, lab in zip(idx, perms, labels):
            members = _kept_members(perm, lab)
            if members is not None:
                kept.append((i, members))
    kept.sort()
    return _group_rows(scenes, kept), [scenes[i].truth for i, _ in kept]


def build_formation_data(X, truths) -> tuple[np.ndarray, np.ndarray]:
    """The formation head's rows and labels from training_rows."""
    return X, np.array([t.formation for t in truths])


def build_angle_data(X, truths) -> tuple[np.ndarray, np.ndarray]:
    """Angle rows append the gold formation one-hot (teacher forcing)."""
    Xa = angle_features(X, [t.formation for t in truths])
    return Xa, np.array([str(t.angle_deg) for t in truths])


def build_joint_data(X, truths) -> tuple[np.ndarray, np.ndarray]:
    return X, np.array([joint_class(t.formation, t.angle_deg) for t in truths])


# Classifier head -> (its rows and labels from training_rows, its classes in
# score order, the width of its feature rows, the truth fields it reads).
HEADS = {
    "formation": (build_formation_data, FORMATIONS, F_GROUP, ("formation",)),
    "angle": (build_angle_data, ANGLE_CLASSES, F_ANGLE, ("formation", "angle_deg")),
    "joint": (build_joint_data, JOINT_CLASSES, F_GROUP, ("formation", "angle_deg")),
}


# ---------------------------------------------------------------------------
# Model bundle persistence: one directory of fixed file names, one manifest.

BUNDLE_FORMAT_VERSION = 1
MANIFEST_FILE = "manifest.json"
CRF_FILE = "crf.json"


@dataclass
class ModelBundle:
    crf: crf_mod.CrfModel
    formation_svm: svm_mod.SvmModel
    angle_svm: svm_mod.SvmModel
    joint_svm: svm_mod.SvmModel
    # How the CRF's Newton run ended: {"converged", "n_iters",
    # "final_grad_inf_norm", "final_loss"}; None when the run is unknown.
    crf_training: dict | None = None


def _svm_file(head: str) -> str:
    return f"svm_{head}.json"


def _bundle_file(path, name: str) -> str:
    """The path of one of a bundle's files; DataError naming it when absent."""
    file = os.path.join(path, name)
    if not os.path.isfile(file):
        raise DataError(f"model bundle {path} has no {name}")
    return file


def save_models(bundle: ModelBundle, path) -> None:
    os.makedirs(path, exist_ok=True)
    svms = {head: getattr(bundle, f"{head}_svm") for head in HEADS}
    crf_mod.save_crf(bundle.crf, os.path.join(path, CRF_FILE))
    for head, model in svms.items():
        svm_mod.save_svm(model, os.path.join(path, _svm_file(head)))
    # How the bundle was trained. No wall times: bundles must stay
    # byte-identical across reruns with the same seed.
    training = {
        "crf": bundle.crf_training,
        "svm": {
            head: {"gamma": m.gamma, "n_support_vectors": m.n_support_vectors}
            for head, m in svms.items()
        },
    }
    manifest = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "feature_catalog_version": FEATURE_CATALOG_VERSION,
        "training": training,
    }
    write_json(os.path.join(path, MANIFEST_FILE), manifest)


def load_models(path) -> ModelBundle:
    """The bundle saved at `path`: manifest.json, crf.json and
    svm_<head>.json for each head of HEADS, whose classes and feature
    width each SVM must have. A `files` map in the manifest is ignored."""
    manifest = read_json(_bundle_file(path, MANIFEST_FILE), "bundle manifest")
    if not isinstance(manifest, dict):
        raise DataError(f"bundle manifest of {path} is not a JSON object")
    if manifest.get("format_version") != BUNDLE_FORMAT_VERSION:
        raise DataError(
            f"unsupported bundle format_version {manifest.get('format_version')!r}"
        )
    check_catalog(manifest.get("feature_catalog_version"), f"bundle {path}")
    training = manifest.get("training", {})
    if not isinstance(training, dict):
        raise DataError(f"bundle manifest of {path}: malformed training block")
    crf_model = crf_mod.load_crf(_bundle_file(path, CRF_FILE))
    svms = {}
    for head, (_, classes, width, _) in HEADS.items():
        name = _svm_file(head)
        model = svm_mod.load_svm(_bundle_file(path, name))
        if model.classes != classes:
            raise DataError(
                f"{name} has classes {list(model.classes)}, "
                f"the {head} head has {list(classes)}"
            )
        if model.support_vectors.shape[1] != width:
            raise DataError(
                f"{name} has {model.support_vectors.shape[1]}-wide support "
                f"vectors, the {head} head's features are {width} wide"
            )
        svms[f"{head}_svm"] = model
    return ModelBundle(crf=crf_model, **svms, crf_training=training.get("crf"))
