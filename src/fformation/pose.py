"""Skeleton and scene domain types, confidence binning, pose ordering, and
the package's JSON I/O: Scene JSONL and the one reader and writer of JSON
documents (model files, manifests, reports, configs, annotations).

A scene is one image frame's worth of detected people. Every person carries
exactly 17 named keypoints; keypoints a detector could not see are stored as
confidence 0 at (0, 0) rather than omitted, so every pose has a fixed shape:
one read-only (17, 3) float array of (x, y, confidence) rows.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from enum import IntEnum
from typing import IO, Iterable

import numpy as np

from .errors import DataError

KEYPOINT_NAMES = (
    "nose",
    "leftEye",
    "rightEye",
    "leftEar",
    "rightEar",
    "leftShoulder",
    "rightShoulder",
    "leftElbow",
    "rightElbow",
    "leftWrist",
    "rightWrist",
    "leftHip",
    "rightHip",
    "leftKnee",
    "rightKnee",
    "leftAnkle",
    "rightAnkle",
)
KEYPOINT_INDEX = {name: i for i, name in enumerate(KEYPOINT_NAMES)}
NUM_KEYPOINTS = len(KEYPOINT_NAMES)
_SORTED_NAMES = sorted(KEYPOINT_NAMES)

# Columns of a pose's keypoint array.
X, Y, CONF = 0, 1, 2

GROUP = "G"
OUTLIER = "O"
GROUP_LABELS = (GROUP, OUTLIER)

FORMATIONS = ("face-to-face", "side-by-side", "L-shaped", "triangle")
APPROACH_ANGLES = (-90, -60, -30, 0, 30, 60, 90)

# Anchor x uses only keypoints at or above this confidence, falling back to
# all 17 when none qualify.
ANCHOR_CONFIDENCE = 0.5


class ConfidenceBin(IntEnum):
    LOW = 0
    MEDIUM = 1
    HIGH = 2
    VERY_HIGH = 3


# Lower edges of the MEDIUM, HIGH and VERY_HIGH bins.
CONFIDENCE_BIN_EDGES = (0.25, 0.5, 0.75)


def bin_confidence(c: float) -> ConfidenceBin:
    """Quantize a confidence into four bins.

    Bins are lower-inclusive, upper-exclusive, with the last bin closed:
    [0, 0.25) [0.25, 0.5) [0.5, 0.75) [0.75, 1.0]. One value: the tests'
    oracle for confidence_bins, which the program runs.
    """
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"confidence {c!r} outside [0, 1]")
    return ConfidenceBin(sum(c >= edge for edge in CONFIDENCE_BIN_EDGES))


def confidence_bins(conf: np.ndarray) -> np.ndarray:
    """bin_confidence over an array of confidences already known to lie in
    [0, 1]; integer bin indices of the same shape."""
    return np.searchsorted(CONFIDENCE_BIN_EDGES, conf, side="right")


def json_number(name: str, value, kind=numbers.Real):
    """`value`, after the one check that a value read from outside is a
    finite number of `kind` (numbers.Integral for an integer): ValueError
    naming `name` otherwise. A bool is never a number."""
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if kind is numbers.Integral else "a number"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _canonical_rows(person_id, names: list, rows: list) -> list:
    """Rows reordered to KEYPOINT_NAMES order; each name must occur once."""
    if tuple(names) == KEYPOINT_NAMES:
        return rows
    if sorted(names) != _SORTED_NAMES:
        missing = set(KEYPOINT_NAMES) - set(names)
        extra = [n for n in names if names.count(n) > 1]
        raise ValueError(
            f"pose {person_id!r} must contain each keypoint exactly once"
            f" (missing={sorted(missing)}, duplicated={sorted(set(extra))})"
        )
    by_name = dict(zip(names, rows))
    return [by_name[name] for name in KEYPOINT_NAMES]


def _checked_points(person_ids: list, rows) -> np.ndarray:
    """Keypoint rows of P poses as one read-only (P, 17, 3) float array,
    after checking every x and y is finite and every confidence in [0, 1]."""
    pts = np.array(rows, dtype=float)
    if pts.shape != (len(person_ids), NUM_KEYPOINTS, 3):
        raise ValueError(
            f"each pose needs {NUM_KEYPOINTS} keypoint rows of (x, y, confidence),"
            f" got shape {pts.shape[1:]}"
        )
    conf = pts[..., CONF]
    ok = np.isfinite(pts[..., :CONF]).all(axis=-1)
    if not ok.all():
        p, k = np.argwhere(~ok)[0]
        raise ValueError(
            f"pose {person_ids[p]!r}: non-finite coordinates for {KEYPOINT_NAMES[k]}"
        )
    ok = (conf >= 0.0) & (conf <= 1.0)
    if not ok.all():
        p, k = np.argwhere(~ok)[0]
        raise ValueError(
            f"pose {person_ids[p]!r}: confidence {float(conf[p, k])!r}"
            f" for {KEYPOINT_NAMES[k]} outside [0, 1]"
        )
    pts.flags.writeable = False
    return pts


@dataclass(frozen=True, eq=False)
class PersonPose:
    """One person's 17 keypoints: `points` is a read-only (17, 3) float array
    of (x, y, confidence) rows in KEYPOINT_NAMES order.

    Equality is value equality (same id, same numbers).
    """

    person_id: str
    points: np.ndarray
    # Horizontal anchor: the mean x of the keypoints at or above
    # ANCHOR_CONFIDENCE, or of all 17 when none reaches it (fully occluded
    # people still need an order). Computed once, when the pose is made:
    # every ordering and gap reads it.
    anchor: float = field(init=False, repr=False)

    def __post_init__(self):
        self._set_points(_checked_points([self.person_id], [self.points])[0])

    def _set_points(self, points: np.ndarray) -> None:
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "anchor", _anchor(points))

    @classmethod
    def _many(cls, person_ids: list, rows) -> tuple[PersonPose, ...]:
        """Poses from the rows of P poses, checked in one pass over them all."""
        if not person_ids:
            return ()
        poses = []
        for person_id, points in zip(person_ids, _checked_points(person_ids, rows)):
            pose = object.__new__(cls)  # the checks above are __post_init__'s
            object.__setattr__(pose, "person_id", person_id)
            pose._set_points(points)
            poses.append(pose)
        return tuple(poses)

    def __eq__(self, other):
        if not isinstance(other, PersonPose):
            return NotImplemented
        return self.person_id == other.person_id and np.array_equal(
            self.points, other.points
        )

    def __hash__(self):
        return hash(self.person_id)


def _anchor(points: np.ndarray) -> float:
    xs = points[:, X]
    confident = xs[points[:, CONF] >= ANCHOR_CONFIDENCE]
    if len(confident):
        xs = confident
    return float(np.add.reduce(xs)) / len(xs)  # what xs.mean() computes


@dataclass(frozen=True)
class SceneTruth:
    membership: tuple[str, ...] | None = None
    formation: str | None = None
    angle_deg: int | None = None

    def __post_init__(self):
        if self.membership is not None:
            bad = [m for m in self.membership if m not in GROUP_LABELS]
            if bad:
                raise ValueError(f"membership labels must be G or O, got {bad}")
        if self.formation is not None and self.formation not in FORMATIONS:
            raise ValueError(f"unknown formation {self.formation!r}")
        if self.angle_deg is not None and self.angle_deg not in APPROACH_ANGLES:
            raise ValueError(f"unknown approach angle {self.angle_deg!r}")


@dataclass(frozen=True)
class Scene:
    frame_id: str
    image_width: int
    image_height: int
    poses: tuple[PersonPose, ...]
    truth: SceneTruth | None = None

    def __post_init__(self):
        if self.image_width <= 0 or self.image_height <= 0:
            raise ValueError("image dimensions must be positive")
        if (
            self.truth is not None
            and self.truth.membership is not None
            and len(self.truth.membership) != len(self.poses)
        ):
            raise ValueError(
                f"scene {self.frame_id!r}: {len(self.truth.membership)} membership"
                f" labels for {len(self.poses)} poses"
            )


def require_truth(scenes, fields) -> None:
    """DataError naming the first scene that lacks one of the truth fields
    `fields` (SceneTruth attribute names)."""
    for scene in scenes:
        for f in fields:
            if scene.truth is None or getattr(scene.truth, f) is None:
                raise DataError(f"scene {scene.frame_id!r} lacks {f} truth")


def left_to_right_permutation(scene: Scene) -> list[int]:
    """Stable ordering of pose indices by ascending anchor x."""
    anchors = [p.anchor for p in scene.poses]
    return np.argsort(anchors, kind="stable").tolist()


# ---------------------------------------------------------------------------
# Scene JSONL: one scene object per line, UTF-8, LF-terminated.


def scene_to_dict(scene: Scene) -> dict:
    doc = {
        "frame_id": scene.frame_id,
        "image_width": scene.image_width,
        "image_height": scene.image_height,
        "poses": [
            {
                "person_id": p.person_id,
                "keypoints": [
                    {"name": name, "x": x, "y": y, "confidence": c}
                    for name, (x, y, c) in zip(KEYPOINT_NAMES, p.points.tolist())
                ],
            }
            for p in scene.poses
        ],
        "truth": None,
    }
    if scene.truth is not None:
        doc["truth"] = {
            "membership": list(scene.truth.membership)
            if scene.truth.membership is not None
            else None,
            "formation": scene.truth.formation,
            "angle_deg": scene.truth.angle_deg,
        }
    return doc


def _poses_from_dicts(docs) -> tuple[PersonPose, ...]:
    person_ids, rows = [], []
    for doc in docs:
        person_id = str(doc["person_id"])
        kps = doc["keypoints"]
        values = [(k["x"], k["y"], k["confidence"]) for k in kps]
        for value in (v for row in values for v in row):
            # a JSON number parses as an int or a float; all else fails here
            if type(value) is not float and type(value) is not int:
                json_number(f"pose {person_id!r}: a keypoint value", value)
        rows.append(_canonical_rows(person_id, [k["name"] for k in kps], values))
        person_ids.append(person_id)
    return PersonPose._many(person_ids, rows)


def _truth_from_dict(doc) -> SceneTruth | None:
    if doc is None:
        return None
    if not isinstance(doc, dict):
        raise ValueError(f"truth must be an object or null, not {type(doc).__name__}")
    membership = doc.get("membership")
    if membership is not None and not isinstance(membership, list):
        # a string would pass as one label per character
        raise ValueError(f"membership must be a list of labels, got {membership!r}")
    angle_deg = doc.get("angle_deg")
    if angle_deg is not None and type(angle_deg) is not int:
        # 30.0 and false would pass SceneTruth (30.0 == 30, False == 0) and
        # then miss the "30" and "0" classes
        raise ValueError(f"approach angle {angle_deg!r} is not an integer")
    return SceneTruth(
        membership=tuple(membership) if membership is not None else None,
        formation=doc.get("formation"),
        angle_deg=angle_deg,
    )


def scene_from_dict(doc: dict) -> Scene:
    if not isinstance(doc, dict):
        raise ValueError(f"a scene must be a JSON object, not {type(doc).__name__}")
    try:
        return Scene(
            frame_id=str(doc["frame_id"]),
            image_width=json_number("image_width", doc["image_width"], numbers.Integral),
            image_height=json_number("image_height", doc["image_height"], numbers.Integral),
            poses=_poses_from_dicts(doc["poses"]),
            truth=_truth_from_dict(doc.get("truth")),
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"scene object missing or malformed field: {exc}") from exc


def parse_scenes(stream: IO) -> list[Scene]:
    """Parse Scene JSONL from a text or byte stream.

    Unknown fields are ignored. Errors carry the 1-based line number.
    """
    scenes = []
    for lineno, raw in enumerate(stream, start=1):
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        line = raw.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"line {lineno}: invalid JSON: {exc}", lineno=lineno) from exc
        try:
            scenes.append(scene_from_dict(doc))
        except ValueError as exc:
            raise DataError(f"line {lineno}: {exc}", lineno=lineno) from exc
    return scenes


def write_scenes(scenes: Iterable[Scene], stream: IO) -> None:
    for scene in scenes:
        stream.write(json.dumps(scene_to_dict(scene)) + "\n")


def load_scenes(path) -> list[Scene]:
    with open(path, "r", encoding="utf-8") as fp:
        return parse_scenes(fp)


def save_scenes(scenes: Iterable[Scene], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        write_scenes(scenes, fp)


# ---------------------------------------------------------------------------
# JSON documents: every model file, manifest, report, config and annotation
# file is read and written here.


def read_json(path, what: str):
    """The JSON document at `path`; DataError naming `what` when it does not
    parse. A missing file raises FileNotFoundError."""
    with open(path, "r", encoding="utf-8") as fp:
        try:
            return json.load(fp)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise DataError(f"corrupt {what} {path}: {exc}") from exc


def write_json(path, doc, **dump_options) -> None:
    """`doc` as one UTF-8 JSON document at `path`, LF-terminated."""
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        # json.dump never uses the C encoder; the one-shot json.dumps can.
        fp.write(json.dumps(doc, **dump_options) + "\n")


def check_header(doc, kind: str, format_version: int) -> None:
    """DataError unless `doc` is a JSON object of this model kind and file
    format version."""
    if not isinstance(doc, dict):
        raise DataError(
            f"malformed {kind} model file: a {type(doc).__name__}, not an object"
        )
    if doc.get("kind") != kind:
        raise DataError(f"not a {kind} model file (kind={doc.get('kind')!r})")
    if doc.get("format_version") != format_version:
        raise DataError(
            f"unsupported {kind} format_version {doc.get('format_version')!r} "
            f"(this library reads version {format_version}); retrain the model"
        )


# ---------------------------------------------------------------------------
# EGO-GROUP-style annotation adapter.
#
# Annotation schema (documented in README.md; the dataset itself is not
# bundled): a JSON document
#   {"frames": [{"frame": str, "width": int, "height": int,
#                "people": [{"id": str, "keypoints": {name: [x, y, conf]}}],
#                "groups": [[person_id, ...], ...]}]}
# Keypoint names absent from a person's map become confidence-0 points at
# (0, 0). People listed in any group get label G, everyone else O.


def convert_ego_group(doc: dict) -> list[Scene]:
    frames = doc.get("frames") if isinstance(doc, dict) else None
    if not isinstance(frames, list):
        raise DataError("annotation document has no 'frames' list")
    scenes = []
    for fidx, frame in enumerate(frames):
        try:
            if not isinstance(frame, dict):
                raise ValueError(f"a frame must be an object, not {type(frame).__name__}")
            groups = frame.get("groups", [])
            if not (isinstance(groups, list) and all(isinstance(g, list) for g in groups)):
                raise ValueError("'groups' must be a list of person-id lists")
            grouped = {pid for group in groups for pid in group}
            poses = []
            membership = []
            for person in frame["people"]:
                pid = str(person["id"])
                kps = person.get("keypoints", {})
                if not isinstance(kps, dict):
                    raise ValueError(f"person {pid!r}: keypoints must be an object")
                points = np.zeros((NUM_KEYPOINTS, 3))
                for k, name in enumerate(KEYPOINT_NAMES):
                    if name in kps:
                        x, y, c = (json_number(f"{name} of {pid!r}", v) for v in kps[name])
                        points[k] = x, y, c
                poses.append(PersonPose(pid, points))
                membership.append(GROUP if pid in grouped else OUTLIER)
            scenes.append(
                Scene(
                    frame_id=str(frame["frame"]),
                    image_width=json_number("width", frame["width"], numbers.Integral),
                    image_height=json_number("height", frame["height"], numbers.Integral),
                    poses=tuple(poses),
                    truth=SceneTruth(membership=tuple(membership)),
                )
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"frame {fidx}: {exc}") from exc
    return scenes


def convert_ego_group_file(in_path, out_path) -> int:
    scenes = convert_ego_group(read_json(in_path, "annotation file"))
    save_scenes(scenes, out_path)
    return len(scenes)
