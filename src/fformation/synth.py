"""Synthetic labeled scenes: formation templates, stick bodies, pinhole camera.

World frame: meters, z up, o-space center at the origin. The camera sits on a
circle of radius = distance around the origin at azimuth = approach angle
(degrees, counterclockwise from +x) and looks at the o-space center. Members
stand in one of four formation templates and face per template; outliers
stand in r-space (beyond 1.5x the p-space radius) with random headings.

Per-keypoint confidence = base(depth) * visibility, where visibility drops to
0.15 when the keypoint's line of sight crosses another person's bounding
cylinder, when it projects off-frame, or (face landmarks only) when the person
faces away from the camera. Keypoints behind the camera become confidence-0
points at (0, 0). A scene renders in one array pass over its B bodies:
(B, 17, 3) keypoints, one projection, one (body, occluder, keypoint)
occlusion test, and one check of the B poses.

Everything is driven by per-scene seeded generators, with members and
outliers on separate substreams so the same seed renders identical members
with or without outliers. Pixel noise is always drawn, as the last draw on
each substream, so noise_px 0 draws exact zeros and shifts no other draw.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import PlacementError
from .pose import (
    APPROACH_ANGLES,
    FORMATIONS,
    GROUP,
    KEYPOINT_NAMES,
    OUTLIER,
    PersonPose,
    Scene,
    SceneTruth,
    json_number,
)

# Default member spacing per formation, meters. Side-by-side partners stand
# close; conversational formations leave arm's-plus room.
DEFAULT_FORMATION_SCALE = {
    "face-to-face": 1.0,
    "side-by-side": 0.55,
    "L-shaped": 1.0,
    "triangle": 1.1,
}

BODY_HEIGHT = 1.7
SHOULDER_WIDTH = 0.40
HIP_WIDTH = 0.30
BODY_RADIUS = 0.25
CAMERA_HEIGHT = 1.2
LOOK_AT_HEIGHT = 1.0
OCCLUDED_VISIBILITY = 0.15
TRAIN_FRACTION = 0.8  # of each (formation, angle) cell, in split_train_test
# Camera distances and member spacings SynthConfig accepts, meters: wider than
# a robot filming a conversation needs, and far from where the renderer's
# squares overflow (1e155 m) or underflow to zero (1e-300 m).
LENGTH_RANGE_M = (1e-3, 1e3)

# Distinct subjects, assigned by member slot (outliers take the last one).
# Identical bodies would make symmetric camera placements of the symmetric
# templates exactly aliased (triangle is invariant under 120-degree turns,
# face-to-face under 180), collapsing several approach-angle classes; real
# capture protocols film the same few distinguishable people at every angle.
BODY_PROFILES = (
    {"height": 1.62, "shoulder": 0.36, "hip": 0.27},
    {"height": 1.80, "shoulder": 0.44, "hip": 0.33},
    {"height": 1.70, "shoulder": 0.40, "hip": 0.30},
    {"height": 1.74, "shoulder": 0.42, "hip": 0.31},
)
OUTLIER_PROFILE = 3
MIN_CAMERA_CLEARANCE = BODY_RADIUS + 0.05
OUTLIER_RADIUS_FACTOR = 1.5
# Outlier ground placement relative to the group, camera frame: lateral
# offset beyond the members' span, and depth offset past the o-space center
# (never between the camera and the group, which would occlude everyone).
# The lateral minimum exceeds every formation's member spacing, so bystander
# gaps are larger than any within-group gap in world terms.
OUTLIER_LATERAL_RANGE = (1.2, 1.8)
OUTLIER_DEPTH_RANGE = (0.0, 1.5)

# Outward azimuth of each face landmark, the first five keypoints (nose,
# leftEye, rightEye, leftEar, rightEar), relative to the person's heading,
# radians: the head hides landmarks facing away from the camera, so profile
# views lose the far-side eye and ear and back views lose both eyes.
FACE_OUTWARD_AZIMUTH = np.radians([0.0, 20.0, -20.0, 90.0, -90.0])
FACE_VISIBILITY_SLACK = -0.1  # dot(outward, to_camera) below this hides it

# (z height, forward offset, offset toward the person's left) for the
# reference 1.70 m body, meters, one row per keypoint in KEYPOINT_NAMES order,
# and each keypoint's scaling family: heights and forward offsets scale with
# body height, head lateral offsets too, arm lateral offsets with shoulder
# width, leg lateral offsets with hip width. Face points protrude forward so
# that projected eye/nose placement encodes the facing direction; ears sit on
# the side of the head.
_BODY_OFFSETS = np.array([
    (1.575, 0.10, 0.0),  # nose
    (1.60, 0.08, 0.033),  # leftEye
    (1.60, 0.08, -0.033),  # rightEye
    (1.58, 0.0, 0.072),  # leftEar
    (1.58, 0.0, -0.072),  # rightEar
    (1.39, 0.0, SHOULDER_WIDTH / 2),  # leftShoulder
    (1.39, 0.0, -SHOULDER_WIDTH / 2),  # rightShoulder
    (1.08, 0.02, 0.22),  # leftElbow
    (1.08, 0.02, -0.22),  # rightElbow
    (0.82, 0.04, 0.23),  # leftWrist
    (0.82, 0.04, -0.23),  # rightWrist
    (0.88, 0.0, HIP_WIDTH / 2),  # leftHip
    (0.88, 0.0, -HIP_WIDTH / 2),  # rightHip
    (0.47, 0.02, 0.16),  # leftKnee
    (0.47, 0.02, -0.16),  # rightKnee
    (0.07, 0.03, 0.17),  # leftAnkle
    (0.07, 0.03, -0.17),  # rightAnkle
])
_HEAD, _ARM, _LEG = 0, 1, 2
_OFFSET_FAMILY = np.repeat([_HEAD, _ARM, _LEG], [5, 6, 6])
# Per BODY_PROFILES entry: its height, and its scales in family order.
_PROFILE_HEIGHTS = np.array([p["height"] for p in BODY_PROFILES])
_PROFILE_SCALES = np.array([
    (p["height"] / BODY_HEIGHT, p["shoulder"] / SHOULDER_WIDTH, p["hip"] / HIP_WIDTH)
    for p in BODY_PROFILES
])


@dataclass(frozen=True)
class FormationTemplate:
    """Ground-plane member positions (m) and headings (rad), o-space at origin."""

    formation: str
    positions: tuple[tuple[float, float], ...]
    headings: tuple[float, ...]


def make_template(formation: str, scale: float) -> FormationTemplate:
    """Canonical geometry for one formation at the given member spacing."""
    if formation not in FORMATIONS:
        raise ValueError(f"unknown formation {formation!r}")
    if scale <= 0:
        raise ValueError("scale must be positive")
    h = scale / 2.0
    if formation == "face-to-face":
        positions = ((-h, 0.0), (h, 0.0))
        headings = (0.0, math.pi)
    elif formation == "side-by-side":
        positions = ((-h, 0.0), (h, 0.0))
        headings = (math.pi / 2, math.pi / 2)
    elif formation == "L-shaped":
        positions = ((h, 0.0), (0.0, h))
        headings = (math.pi, -math.pi / 2)
    else:  # triangle: equilateral vertices facing the center
        angles = (math.pi / 2, math.pi / 2 + 2 * math.pi / 3, math.pi / 2 + 4 * math.pi / 3)
        positions = tuple((h * math.cos(a), h * math.sin(a)) for a in angles)
        headings = tuple((a + math.pi) % (2 * math.pi) for a in angles)
    return FormationTemplate(formation, positions, headings)


@dataclass(frozen=True)
class SynthConfig:
    formation: str
    angle_deg: int
    distance_m: float | tuple[float, float] = (2.0, 5.0)
    image_width: int = 640
    image_height: int = 480
    noise_px: float = 1.5
    outlier_count: int = 0
    seed: int = 0
    formation_scale: float | None = None
    angle_jitter_deg: float = 4.0
    scale_jitter: float = 0.05

    def __post_init__(self):
        if self.formation not in FORMATIONS:
            raise ValueError(f"unknown formation {self.formation!r}")
        angle = self.angle_deg
        if isinstance(angle, (bool, float)) or angle not in APPROACH_ANGLES:
            # 30.0 == 30, but a scene file with angle 30.0 does not parse
            raise ValueError(f"angle_deg must be one of {APPROACH_ANGLES}, got {angle!r}")
        for name in ("image_width", "image_height"):
            if json_number(name, getattr(self, name), numbers.Integral) <= 0:
                raise ValueError(f"{name} must be positive")
        if json_number("seed", self.seed, numbers.Integral) < 0:
            raise ValueError("seed must be >= 0")
        if json_number("outlier_count", self.outlier_count, numbers.Integral) < 0:
            raise ValueError("outlier count must be >= 0")
        for name in ("noise_px", "angle_jitter_deg", "scale_jitter"):
            if json_number(name, getattr(self, name)) < 0:
                raise ValueError(f"{name} must be >= 0")
        side = max(self.image_width, self.image_height)
        if self.noise_px > side:
            raise ValueError(
                f"noise_px must be at most the larger image side, {side} px: wider "
                f"noise leaves no keypoint on the frame; got {self.noise_px!r}"
            )
        if self.angle_jitter_deg > 180:
            raise ValueError("angle_jitter_deg must be at most 180: that covers every azimuth")
        if self.scale_jitter >= 1:
            raise ValueError("scale_jitter must be below 1: the spacing stays positive")
        shortest, longest = LENGTH_RANGE_M
        scale = self.formation_scale
        if scale is not None and not shortest <= json_number("formation_scale", scale) <= longest:
            raise ValueError(f"formation_scale must be {shortest} to {longest} m, got {scale!r}")
        d = self.distance_m
        pair = d if isinstance(d, (tuple, list)) and len(d) == 2 else (d, d)
        try:
            lo, hi = (json_number("distance_m", x) for x in pair)
            ok = shortest <= lo <= hi <= longest
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(
                f"distance_m must be a distance of {shortest} to {longest} m or an "
                f"ordered (lo, hi) pair of them, got {d!r}"
            )


def synth_config_from_dict(doc: dict) -> SynthConfig:
    """Build a SynthConfig from its JSON mirror; unknown keys are rejected."""
    known = {f.name for f in fields(SynthConfig)}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown SynthConfig fields: {sorted(unknown)}")
    doc = dict(doc)
    d = doc.get("distance_m")
    if isinstance(d, list):
        doc["distance_m"] = tuple(d)
    return SynthConfig(**doc)


@dataclass(frozen=True)
class Camera:
    position: np.ndarray  # (3,)
    forward: np.ndarray
    right: np.ndarray
    up: np.ndarray
    focal_px: float
    cx: float
    cy: float


def focal_length_px(image_height: int) -> float:
    # A full body at 3.5 m spans ~55% of the frame height, which keeps all
    # formations in frame across the 2-5 m range.
    return 0.55 * image_height * 3.5 / BODY_HEIGHT


def make_camera(azimuth_deg: float, distance: float, image_width: int, image_height: int) -> Camera:
    az = math.radians(azimuth_deg)
    position = np.array(
        [distance * math.cos(az), distance * math.sin(az), CAMERA_HEIGHT]
    )
    target = np.array([0.0, 0.0, LOOK_AT_HEIGHT])
    forward = target - position
    forward = forward / np.linalg.norm(forward)
    right = np.cross(forward, np.array([0.0, 0.0, 1.0]))
    right = right / np.linalg.norm(right)
    up = np.cross(right, forward)
    return Camera(
        position=position,
        forward=forward,
        right=right,
        up=up,
        focal_px=focal_length_px(image_height),
        cx=image_width / 2.0,
        cy=image_height / 2.0,
    )


def project_points(camera: Camera, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pinhole projection of (..., 3) points: pixel coordinates (..., 2) and
    camera depths (...).

    A (B, 17, 3) stack takes B matrix-vector products, as B one-body calls
    did, and rounds as they did; a per-row (..., 1, 3) form rounds otherwise.
    """
    rel = points - camera.position
    depth = rel @ camera.forward
    x_cam = rel @ camera.right
    y_cam = rel @ camera.up
    safe = np.where(np.abs(depth) < 1e-9, 1e-9, depth)
    px = camera.cx + camera.focal_px * x_cam / safe
    py = camera.cy - camera.focal_px * y_cam / safe
    return np.stack([px, py], axis=-1), depth


@dataclass(frozen=True)
class Body:
    ground: tuple[float, float]
    heading: float
    label: str  # G or O
    person_id: str
    profile: int = 2  # index into BODY_PROFILES; 2 is the 1.70 m reference


def body_keypoints_3d(bodies: list[Body]) -> np.ndarray:
    """(B, 17, 3) world-frame joint positions of B stick bodies."""
    ground = np.array([b.ground for b in bodies], dtype=float)
    # math.cos, as one body at a time did: np.cos need not round like libm
    cos = np.array([math.cos(b.heading) for b in bodies])[:, None]
    sin = np.array([math.sin(b.heading) for b in bodies])[:, None]
    scales = _PROFILE_SCALES[[b.profile for b in bodies]]
    z, fwd, left = _BODY_OFFSETS.T
    height = scales[:, _HEAD, None]
    fwd = fwd * height
    left = left * scales[:, _OFFSET_FAMILY]
    x = ground[:, :1] + fwd * cos - left * sin
    y = ground[:, 1:] + fwd * sin + left * cos
    return np.stack([x, y, z * height], axis=-1)


def _occluded_by(
    camera_xy, pts: np.ndarray, occluder_xy, occluder_height
) -> np.ndarray:
    """Per (..., 3) point, broadcast against (..., 2) occluder grounds and
    (...) heights: does its camera->point segment cross the occluder's
    bounding cylinder?

    The dot products go through np.vecdot, which rounds like a scalar
    `a @ b` on 2-vectors (BLAS ddot), so each answer is the same as testing
    that point against that occluder on its own.
    """
    p0 = np.asarray(camera_xy, dtype=float)
    d = pts[..., :2] - p0
    c = np.asarray(occluder_xy, dtype=float) - p0
    dd = np.vecdot(d, d)
    valid = dd >= 1e-12  # a point straight below the camera crosses nothing
    t = np.clip(np.vecdot(d, c) / np.where(valid, dd, 1.0), 0.0, 1.0)
    off = p0 + t[..., None] * d - occluder_xy
    near = np.hypot(off[..., 0], off[..., 1]) <= BODY_RADIUS
    # z of the segment where it passes the cylinder axis must be within the
    # body's height range; the segment starts at camera height.
    z_at_t = CAMERA_HEIGHT + t * (pts[..., 2] - CAMERA_HEIGHT)
    return valid & near & (0.0 <= z_at_t) & (z_at_t <= occluder_height)


@dataclass(frozen=True)
class SceneLayout:
    """Generation metadata kept alongside a rendered scene (not serialized)."""

    bodies: tuple[Body, ...]  # in rendered pose order
    camera: Camera
    distance_m: float
    p_space_radius: float


def render_bodies(
    bodies: list[Body],
    camera: Camera,
    image_width: int,
    image_height: int,
    noise: np.ndarray,
) -> tuple[PersonPose, ...]:
    """Project bodies to poses with occlusion/heading/frame-gated confidences.

    noise is a (n_bodies, 17, 2) array of pixel offsets added to the
    projected coordinates. Every body is rendered in one array pass.
    """
    cam_xy = camera.position[:2]
    pts = body_keypoints_3d(bodies)
    pix, depth = project_points(camera, pts)
    pix = pix + noise

    # (body, occluder, keypoint): no body occludes itself
    ground = np.array([b.ground for b in bodies], dtype=float)
    heights = _PROFILE_HEIGHTS[[b.profile for b in bodies]]
    blocked = _occluded_by(
        cam_xy, pts[:, None], ground[None, :, None], heights[None, :, None]
    )
    hidden = (blocked & ~np.eye(len(bodies), dtype=bool)[:, :, None]).any(axis=1)

    to_cam = cam_xy - ground
    norm = np.sqrt(np.vecdot(to_cam, to_cam))
    faces = norm > 1e-9  # a camera inside the body sees every landmark
    to_cam = to_cam / np.where(faces, norm, 1.0)[:, None]
    azimuth = np.array([b.heading for b in bodies])[:, None] + FACE_OUTWARD_AZIMUTH
    outward = np.stack([np.cos(azimuth), np.sin(azimuth)], axis=-1)
    facing = np.vecdot(outward, to_cam[:, None])
    hidden[:, : len(FACE_OUTWARD_AZIMUTH)] |= faces[:, None] & (
        facing < FACE_VISIBILITY_SLACK
    )

    hidden |= (
        (pix[..., 0] < 0)
        | (pix[..., 0] > image_width)
        | (pix[..., 1] < 0)
        | (pix[..., 1] > image_height)
    )
    base = np.clip(1.2 - 0.1 * depth, 0.05, 0.98)  # confidence falls with depth
    conf = base * np.where(hidden, OCCLUDED_VISIBILITY, 1.0)
    points = np.concatenate([pix, conf[..., None]], axis=-1)
    points[depth <= 0.05] = 0.0  # behind the camera
    return PersonPose._many([b.person_id for b in bodies], points)


def _place_outlier(
    rng: np.random.Generator,
    members: list[Body],
    p_radius: float,
    camera: Camera,
    image_width: int,
) -> tuple[tuple[float, float], float]:
    """Sample an r-space ground position visible to the camera, plus a heading.

    Outliers stand beside the group (offset along the camera's lateral axis,
    clear of the members' footprint) at a similar or greater depth, never
    between the camera and the group. Bystanders in front of the camera would
    occlude the whole group and leave no one to classify.
    """
    inner = OUTLIER_RADIUS_FACTOR * p_radius
    heading = float(rng.uniform(0.0, 2 * math.pi))
    lat_dir = camera.right[:2]
    lat_dir = lat_dir / np.linalg.norm(lat_dir)
    fwd_dir = camera.forward[:2]
    fwd_dir = fwd_dir / np.linalg.norm(fwd_dir)
    member_lat = [float(np.array(b.ground) @ lat_dir) for b in members]
    lat_lo, lat_hi = min(member_lat), max(member_lat)
    for _ in range(50):
        side = 1.0 if rng.integers(0, 2) else -1.0
        lateral = float(rng.uniform(*OUTLIER_LATERAL_RANGE))
        lat = lat_hi + lateral if side > 0 else lat_lo - lateral
        depth_off = float(rng.uniform(*OUTLIER_DEPTH_RANGE))
        ground_vec = lat * lat_dir + depth_off * fwd_dir
        ground = (float(ground_vec[0]), float(ground_vec[1]))
        if math.hypot(*ground) < inner:
            continue
        if np.hypot(*(ground_vec - camera.position[:2])) < 0.8:
            continue
        torso = np.array([ground[0], ground[1], 1.1])
        pix, depth = project_points(camera, torso[None, :])
        if depth[0] < 0.5:
            continue
        margin = 0.05 * image_width
        if not (margin <= pix[0, 0] <= image_width - margin):
            continue
        return ground, heading
    # Fallback: beside the group at a fixed offset, biased away from the
    # o-space center so the r-space rule holds by construction.
    lat = lat_hi + max(OUTLIER_LATERAL_RANGE[0], inner)
    ground_vec = lat * lat_dir
    return (float(ground_vec[0]), float(ground_vec[1])), heading


def render_scene_with_layout(cfg: SynthConfig) -> tuple[Scene, SceneLayout]:
    """Render one scene plus the 3-D layout it was generated from.

    Member-affecting draws come from substream [seed, 0] and outlier draws
    from [seed, 1], so a config differing only in outlier_count yields
    byte-identical member poses (visibility aside).
    """
    rng_members = np.random.default_rng([cfg.seed, 0])
    rng_outliers = np.random.default_rng([cfg.seed, 1])

    scale = cfg.formation_scale
    if scale is None:
        scale = DEFAULT_FORMATION_SCALE[cfg.formation]
    if cfg.scale_jitter > 0:
        scale *= 1.0 + float(rng_members.uniform(-cfg.scale_jitter, cfg.scale_jitter))
    template = make_template(cfg.formation, scale)

    if isinstance(cfg.distance_m, (tuple, list)):
        lo, hi = cfg.distance_m
        distance = float(rng_members.uniform(lo, hi))
    else:
        distance = float(cfg.distance_m)

    azimuth = float(cfg.angle_deg)
    if cfg.angle_jitter_deg > 0:
        azimuth += float(
            rng_members.uniform(-cfg.angle_jitter_deg, cfg.angle_jitter_deg)
        )

    members = [
        Body(ground=pos, heading=hd, label=GROUP, person_id=f"m{i}", profile=i % 3)
        for i, (pos, hd) in enumerate(zip(template.positions, template.headings))
    ]

    camera = make_camera(azimuth, distance, cfg.image_width, cfg.image_height)
    for _ in range(10):
        off = camera.position[:2] - np.array(template.positions)
        if np.all(np.hypot(off[:, 0], off[:, 1]) > MIN_CAMERA_CLEARANCE):
            break
        azimuth += float(rng_members.uniform(-3.0, 3.0))
        camera = make_camera(azimuth, distance, cfg.image_width, cfg.image_height)
    else:
        raise PlacementError(
            f"camera at distance {distance:.2f} m could not clear the bodies"
        )

    # the last draw on this substream (see the module docstring)
    member_noise = rng_members.normal(
        0.0, cfg.noise_px, size=(len(members), len(KEYPOINT_NAMES), 2)
    )

    p_radius = max(math.hypot(*p) for p in template.positions) + BODY_RADIUS
    outliers = [
        Body(
            *_place_outlier(rng_outliers, members, p_radius, camera, cfg.image_width),
            label=OUTLIER,
            person_id=f"o{oi}",
            profile=OUTLIER_PROFILE,
        )
        for oi in range(cfg.outlier_count)
    ]
    outlier_noise = rng_outliers.normal(
        0.0, cfg.noise_px, size=(len(outliers), len(KEYPOINT_NAMES), 2)
    )

    bodies = members + outliers
    noise = np.concatenate([member_noise, outlier_noise], axis=0)
    poses = render_bodies(bodies, camera, cfg.image_width, cfg.image_height, noise)

    # Emit in left-to-right order with truth aligned, mirroring the pose
    # ordering used downstream.
    order = np.argsort([p.anchor for p in poses], kind="stable")
    poses = [poses[i] for i in order]
    bodies = [bodies[i] for i in order]
    membership = tuple(b.label for b in bodies)

    scene = Scene(
        frame_id=f"{cfg.formation}:{cfg.angle_deg}:{cfg.seed}",
        image_width=cfg.image_width,
        image_height=cfg.image_height,
        poses=tuple(poses),
        truth=SceneTruth(
            membership=membership,
            formation=cfg.formation,
            angle_deg=cfg.angle_deg,
        ),
    )
    layout = SceneLayout(
        bodies=tuple(bodies),
        camera=camera,
        distance_m=distance,
        p_space_radius=p_radius,
    )
    return scene, layout


def render_scene(cfg: SynthConfig) -> Scene:
    return render_scene_with_layout(cfg)[0]


def generate_dataset(
    spec: list[tuple[SynthConfig, int]], shuffle_seed: int = 0
) -> list[Scene]:
    """Render count scenes per config with per-scene derived seeds (seed + i),
    then shuffle deterministically."""
    scenes = []
    for cfg, count in spec:
        if count <= 0:
            raise ValueError("per-config scene counts must be positive")
        for i in range(count):
            scenes.append(render_scene(replace(cfg, seed=cfg.seed + i)))
    rng = np.random.default_rng(shuffle_seed)
    order = rng.permutation(len(scenes))
    return [scenes[i] for i in order]


def split_train_test(scenes: list[Scene], seed: int = 0) -> tuple[list[Scene], list[Scene]]:
    """Train/test split of each formation at TRAIN_FRACTION (stratified further
    by angle when present).

    With equal per-cell counts this reduces to an exact per-formation split
    while keeping every (formation, angle) cell balanced across the halves.
    """
    rng = np.random.default_rng(seed)
    cells: dict[tuple, list[int]] = {}
    for i, s in enumerate(scenes):
        truth = s.truth
        key = (
            truth.formation if truth else None,
            truth.angle_deg if truth else None,
        )
        cells.setdefault(key, []).append(i)
    train_idx, test_idx = [], []
    for key in sorted(cells, key=repr):
        idx = np.array(cells[key])
        idx = idx[rng.permutation(len(idx))]
        cut = int(round(TRAIN_FRACTION * len(idx)))
        train_idx.extend(idx[:cut].tolist())
        test_idx.extend(idx[cut:].tolist())
    return (
        [scenes[i] for i in sorted(train_idx)],
        [scenes[i] for i in sorted(test_idx)],
    )
