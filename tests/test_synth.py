import itertools
import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fformation import synth as synth_mod
from fformation.errors import PlacementError
from fformation.pose import (
    APPROACH_ANGLES,
    CONF,
    FORMATIONS,
    GROUP,
    KEYPOINT_INDEX,
    KEYPOINT_NAMES,
    MAX_COORDINATE,
    OUTLIER,
    X,
    Y,
    ConfidenceBin,
    bin_confidence,
    scene_to_dict,
)
from fformation.synth import (
    BODY_HEIGHT,
    BODY_PROFILES,
    BODY_RADIUS,
    CAMERA_HEIGHT,
    FACE_VISIBILITY_SLACK,
    HIP_WIDTH,
    LOOK_AT_HEIGHT,
    MAX_IMAGE_SIDE,
    OCCLUDED_VISIBILITY,
    OUTLIER_RADIUS_FACTOR,
    SHOULDER_WIDTH,
    Body,
    SynthConfig,
    body_keypoints_3d,
    focal_length_px,
    generate_dataset,
    make_camera,
    make_template,
    project_points,
    render_bodies,
    render_scene,
    render_scene_with_layout,
    split_train_test,
    synth_config_from_dict,
)


class TestTemplates:
    def test_face_to_face_positions_and_headings(self):
        t = make_template("face-to-face", 1.0)
        assert t.positions == ((-0.5, 0.0), (0.5, 0.0))
        # members face each other across the center
        assert t.headings[0] == pytest.approx(0.0)
        assert t.headings[1] == pytest.approx(math.pi)

    def test_side_by_side_parallel_headings(self):
        t = make_template("side-by-side", 0.6)
        assert t.headings[0] == t.headings[1] == pytest.approx(math.pi / 2)

    def test_l_shaped_headings_differ_by_90_degrees(self):
        t = make_template("L-shaped", 1.0)
        diff = abs(t.headings[0] - t.headings[1]) % (2 * math.pi)
        diff = min(diff, 2 * math.pi - diff)
        assert diff == pytest.approx(math.pi / 2)

    def test_triangle_is_equilateral_facing_center(self):
        t = make_template("triangle", 1.0)
        p = [np.array(q) for q in t.positions]
        d01 = np.linalg.norm(p[0] - p[1])
        d12 = np.linalg.norm(p[1] - p[2])
        d20 = np.linalg.norm(p[2] - p[0])
        assert d01 == pytest.approx(d12) == pytest.approx(d20)
        for pos, heading in zip(t.positions, t.headings):
            to_center = -np.array(pos) / np.linalg.norm(pos)
            facing = np.array([math.cos(heading), math.sin(heading)])
            assert float(facing @ to_center) == pytest.approx(1.0)

    def test_member_counts(self):
        want = {"face-to-face": 2, "side-by-side": 2, "L-shaped": 2, "triangle": 3}
        assert set(want) == set(FORMATIONS)
        for formation, count in want.items():
            t = make_template(formation, 1.0)
            assert len(t.positions) == len(t.headings) == count

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            make_template("circle", 1.0)
        with pytest.raises(ValueError):
            make_template("triangle", 0.0)


class TestBodiesAndProjection:
    def test_body_joint_count_and_heights(self):
        body = Body(ground=(0.0, 0.0), heading=0.0, label=GROUP, person_id="m")
        [pts] = body_keypoints_3d([body])
        assert pts.shape == (17, 3)
        assert pts[:, 2].max() <= BODY_PROFILES[body.profile]["height"]
        assert pts[:, 2].min() >= 0.0

    def test_profiles_scale_shoulder_width(self):
        wide = Body(ground=(0.0, 0.0), heading=0.0, label=GROUP, person_id="w", profile=1)
        slim = Body(ground=(0.0, 0.0), heading=0.0, label=GROUP, person_id="s", profile=0)
        def width(b):
            [pts] = body_keypoints_3d([b])
            return np.linalg.norm(pts[5] - pts[6])
        assert width(wide) > width(slim)

    def test_projection_center_lands_at_principal_point(self):
        cam = make_camera(0.0, 3.0, 640, 480)
        pix, depth = project_points(cam, np.array([[0.0, 0.0, LOOK_AT_HEIGHT]]))
        assert pix[0, 0] == pytest.approx(320.0)
        assert pix[0, 1] == pytest.approx(240.0)
        assert depth[0] == pytest.approx(math.hypot(3.0, CAMERA_HEIGHT - LOOK_AT_HEIGHT))

    def test_focal_length_frames_a_body_at_3_5_m(self):
        # 1.7 m at 3.5 m spans 55% of the image height by construction.
        f = focal_length_px(480)
        assert f * 1.7 / 3.5 == pytest.approx(0.55 * 480)

    def test_doubling_distance_halves_shoulder_width(self):
        # sigma = 0, jitter off: near-fronto-parallel body, small-angle regime.
        base = dict(
            formation="side-by-side",
            angle_deg=-90,
            noise_px=0.0,
            angle_jitter_deg=0.0,
            scale_jitter=0.0,
            seed=4,
        )
        near = render_scene(SynthConfig(**base, distance_m=2.5))
        far = render_scene(SynthConfig(**base, distance_m=5.0))

        def shoulder_px(scene, pid):
            pose = next(p for p in scene.poses if p.person_id == pid)
            ls, rs = KEYPOINT_INDEX["leftShoulder"], KEYPOINT_INDEX["rightShoulder"]
            return abs(pose.points[ls, X] - pose.points[rs, X])

        ratio = shoulder_px(near, "m0") / shoulder_px(far, "m0")
        assert 2.0 * 0.95 <= ratio <= 2.0 * 1.05


def ray_blocked(camera_xy, point, occluder_xy, occluder_height) -> bool:
    """Does the camera->point segment cross the occluder's bounding cylinder?
    One point at a time: the reference for synth._occluded_by's rows."""
    p0 = np.array([camera_xy[0], camera_xy[1]])
    d = np.array([point[0] - p0[0], point[1] - p0[1]])
    c = np.array(occluder_xy) - p0
    dd = float(d @ d)
    if dd < 1e-12:
        return False
    t = float(np.clip((c @ d) / dd, 0.0, 1.0))
    closest = p0 + t * d
    if float(np.hypot(*(closest - occluder_xy))) > BODY_RADIUS:
        return False
    z_at_t = CAMERA_HEIGHT + t * (point[2] - CAMERA_HEIGHT)
    return 0.0 <= z_at_t <= occluder_height


def oracle_mask(camera_xy, pts, occluder_xy, occluder_height) -> list[bool]:
    return [ray_blocked(camera_xy, p, occluder_xy, occluder_height) for p in pts]


coord = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False)


class TestOcclusionOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        camera_xy=st.tuples(coord, coord),
        pts=st.lists(
            st.tuples(coord, coord, st.floats(min_value=-0.5, max_value=2.5)),
            min_size=1,
            max_size=17,
        ),
        occluder_xy=st.tuples(coord, coord),
        occluder_height=st.floats(min_value=1.0, max_value=2.0),
    )
    def test_each_row_matches_the_scalar_test(
        self, camera_xy, pts, occluder_xy, occluder_height
    ):
        pts = np.array(pts)
        got = synth_mod._occluded_by(np.array(camera_xy), pts, occluder_xy, occluder_height)
        assert got.tolist() == oracle_mask(camera_xy, pts, occluder_xy, occluder_height)

    @pytest.mark.parametrize("seed", range(8))
    def test_every_keypoint_occluder_pair_of_rendered_layouts(self, seed):
        formation = ("face-to-face", "side-by-side", "L-shaped", "triangle")[seed % 4]
        cfg = SynthConfig(formation, angle_deg=0, outlier_count=seed % 2, seed=seed)
        _, layout = render_scene_with_layout(cfg)
        cam_xy = layout.camera.position[:2]
        pts = body_keypoints_3d(layout.bodies)
        ground = np.array([b.ground for b in layout.bodies])
        heights = np.array([BODY_PROFILES[b.profile]["height"] for b in layout.bodies])
        # the (body, occluder, keypoint) broadcast render_bodies makes
        got = synth_mod._occluded_by(
            cam_xy, pts[:, None], ground[None, :, None], heights[None, :, None]
        )
        blocked = 0
        for bi, oi in itertools.permutations(range(len(layout.bodies)), 2):
            h = heights[oi]
            expected = oracle_mask(cam_xy, pts[bi], layout.bodies[oi].ground, h)
            assert got[bi, oi].tolist() == expected
            blocked += int(got[bi, oi].sum())
        if seed % 4 == 0:  # face-to-face at 0: the near member hides the far one
            assert blocked > 0

    def test_point_straight_below_the_camera_is_never_blocked(self):
        # |d|^2 < 1e-12: the segment is vertical and crosses no cylinder,
        # even one standing at the camera.
        cam_xy = np.array([1.0, 2.0])
        pts = np.array([[1.0, 2.0, 0.5], [1.0 + 1e-7, 2.0, 0.5]])
        assert oracle_mask(cam_xy, pts, (1.1, 2.0), 1.7) == [False, False]
        assert synth_mod._occluded_by(cam_xy, pts, (1.1, 2.0), 1.7).tolist() == [
            False,
            False,
        ]

    @pytest.mark.parametrize(
        "occluder_xy, expected",
        # Clipped to t = 0, the closest point is the camera, 0.1 m or 0.3 m
        # from the axis. Unclipped, t < 0 would reach the axis itself along
        # the first ray.
        [((-0.1, 0.0), [True, True]), ((-0.3, 0.0), [False, False])],
    )
    def test_t_clipped_at_zero_tests_the_camera_end(self, occluder_xy, expected):
        # The occluder stands behind the camera.
        cam_xy = np.array([0.0, 0.0])
        pts = np.array([[3.0, 0.0, 1.0], [2.0, 2.0, 0.3]])
        assert oracle_mask(cam_xy, pts, occluder_xy, 1.7) == expected
        assert synth_mod._occluded_by(cam_xy, pts, occluder_xy, 1.7).tolist() == expected

    @pytest.mark.parametrize(
        "occluder_xy, expected",
        # Past the keypoint at (2, 0): clipped to t = 1, the closest point is
        # the keypoint, 0.1 m or 0.3 m from the axis, at the keypoint's height.
        # At 1.69 m that is under a 1.7 m body; unclipped it would be above.
        [((2.1, 0.0), [True, False, False]), ((2.3, 0.0), [False, False, False])],
    )
    def test_t_clipped_at_one_tests_the_keypoint_end(self, occluder_xy, expected):
        cam_xy = np.array([0.0, 0.0])
        pts = np.array([[2.0, 0.0, 1.69], [2.0, 0.0, 1.8], [2.0, 0.0, -0.1]])
        assert oracle_mask(cam_xy, pts, occluder_xy, 1.7) == expected
        assert synth_mod._occluded_by(cam_xy, pts, occluder_xy, 1.7).tolist() == expected


# The renderer that render_bodies' array pass replaced, kept as its
# reference: one body, occluder, keypoint and face landmark at a time, with
# occlusion from the scalar ray_blocked.
REF_BODY_OFFSETS = {
    "nose": (1.575, 0.10, 0.0, "head"),
    "leftEye": (1.60, 0.08, 0.033, "head"),
    "rightEye": (1.60, 0.08, -0.033, "head"),
    "leftEar": (1.58, 0.0, 0.072, "head"),
    "rightEar": (1.58, 0.0, -0.072, "head"),
    "leftShoulder": (1.39, 0.0, SHOULDER_WIDTH / 2, "arm"),
    "rightShoulder": (1.39, 0.0, -SHOULDER_WIDTH / 2, "arm"),
    "leftElbow": (1.08, 0.02, 0.22, "arm"),
    "rightElbow": (1.08, 0.02, -0.22, "arm"),
    "leftWrist": (0.82, 0.04, 0.23, "arm"),
    "rightWrist": (0.82, 0.04, -0.23, "arm"),
    "leftHip": (0.88, 0.0, HIP_WIDTH / 2, "leg"),
    "rightHip": (0.88, 0.0, -HIP_WIDTH / 2, "leg"),
    "leftKnee": (0.47, 0.02, 0.16, "leg"),
    "rightKnee": (0.47, 0.02, -0.16, "leg"),
    "leftAnkle": (0.07, 0.03, 0.17, "leg"),
    "rightAnkle": (0.07, 0.03, -0.17, "leg"),
}
REF_FACE_AZIMUTH = {
    "nose": 0.0,
    "leftEye": math.radians(20.0),
    "rightEye": math.radians(-20.0),
    "leftEar": math.radians(90.0),
    "rightEar": math.radians(-90.0),
}


def ref_body_keypoints_3d(body: Body) -> np.ndarray:
    gx, gy = body.ground
    ch, sh = math.cos(body.heading), math.sin(body.heading)
    prof = BODY_PROFILES[body.profile]
    height_scale = prof["height"] / BODY_HEIGHT
    lat_scale = {
        "head": height_scale,
        "arm": prof["shoulder"] / SHOULDER_WIDTH,
        "leg": prof["hip"] / HIP_WIDTH,
    }
    pts = np.empty((len(KEYPOINT_NAMES), 3))
    for k, name in enumerate(KEYPOINT_NAMES):
        z, fwd, left, family = REF_BODY_OFFSETS[name]
        fwd = fwd * height_scale
        left = left * lat_scale[family]
        pts[k, 0] = gx + fwd * ch - left * sh
        pts[k, 1] = gy + fwd * sh + left * ch
        pts[k, 2] = z * height_scale
    return pts


def ref_project_points(camera, points):
    rel = np.atleast_2d(points) - camera.position
    depth = rel @ camera.forward
    x_cam = rel @ camera.right
    y_cam = rel @ camera.up
    safe = np.where(np.abs(depth) < 1e-9, 1e-9, depth)
    px = camera.cx + camera.focal_px * x_cam / safe
    py = camera.cy - camera.focal_px * y_cam / safe
    return np.column_stack([px, py]), depth


def ref_render_bodies(bodies, camera, image_width, image_height, noise):
    """(person_id, (17, 3) points) per body."""
    cam_xy = camera.position[:2]
    all_pts = [ref_body_keypoints_3d(b) for b in bodies]
    poses = []
    for bi, body in enumerate(bodies):
        pts = all_pts[bi]
        pix, depth = ref_project_points(camera, pts)
        pix = pix + noise[bi]
        base = np.clip(1.2 - 0.1 * depth, 0.05, 0.98)
        occluded = np.zeros(len(KEYPOINT_NAMES), dtype=bool)
        for oi, other in enumerate(bodies):
            if oi != bi:
                other_height = BODY_PROFILES[other.profile]["height"]
                occluded |= oracle_mask(cam_xy, pts, other.ground, other_height)
        visibility = np.where(occluded, OCCLUDED_VISIBILITY, 1.0)

        to_cam = cam_xy - np.array(body.ground)
        norm = np.linalg.norm(to_cam)
        if norm > 1e-9:
            to_cam = to_cam / norm
            for name, az in REF_FACE_AZIMUTH.items():
                outward = np.array(
                    [math.cos(body.heading + az), math.sin(body.heading + az)]
                )
                if float(outward @ to_cam) < FACE_VISIBILITY_SLACK:
                    k = KEYPOINT_NAMES.index(name)
                    visibility[k] = min(visibility[k], OCCLUDED_VISIBILITY)

        off_frame = (
            (pix[:, 0] < 0)
            | (pix[:, 0] > image_width)
            | (pix[:, 1] < 0)
            | (pix[:, 1] > image_height)
        )
        visibility[off_frame] = np.minimum(visibility[off_frame], OCCLUDED_VISIBILITY)

        points = np.column_stack([pix, base * visibility])
        points[depth <= 0.05] = 0.0  # behind the camera
        poses.append((body.person_id, points))
    return poses


def _bytes(poses):
    return [(pid, np.asarray(points).tobytes()) for pid, points in poses]


class TestRenderOracle:
    @pytest.mark.parametrize("formation", FORMATIONS)
    @pytest.mark.parametrize("angle", APPROACH_ANGLES)
    def test_array_pass_matches_the_per_keypoint_renderer(self, formation, angle):
        for bystanders in range(4):
            cfg = SynthConfig(
                formation, angle, noise_px=0.0, outlier_count=bystanders, seed=bystanders
            )
            scene, layout = render_scene_with_layout(cfg)
            bodies, camera = layout.bodies, layout.camera
            expected = np.stack([ref_body_keypoints_3d(b) for b in bodies])
            assert body_keypoints_3d(bodies).tobytes() == expected.tobytes()
            # noise_px 0 draws zeros: the scene is the noiseless rendering
            zeros = np.zeros((len(bodies), len(KEYPOINT_NAMES), 2))
            expected = ref_render_bodies(bodies, camera, 640, 480, zeros)
            assert _bytes((p.person_id, p.points) for p in scene.poses) == _bytes(expected)
            noise = np.random.default_rng(bystanders).normal(0.0, 1.5, size=zeros.shape)
            got = render_bodies(bodies, camera, 640, 480, noise)
            expected = ref_render_bodies(bodies, camera, 640, 480, noise)
            assert _bytes((p.person_id, p.points) for p in got) == _bytes(expected)


class TestRenderScene:
    def test_deterministic_byte_identical(self):
        cfg = SynthConfig(formation="triangle", angle_deg=60, outlier_count=1, seed=99)
        a = json.dumps(scene_to_dict(render_scene(cfg)))
        b = json.dumps(scene_to_dict(render_scene(cfg)))
        assert a == b

    def test_face_to_face_zero_near_member_occludes_far(self):
        cfg = SynthConfig(
            formation="face-to-face",
            angle_deg=0,
            distance_m=2.0,
            noise_px=0.0,
            angle_jitter_deg=0.0,
            scale_jitter=0.0,
            seed=1,
        )
        scene = render_scene(cfg)
        far = next(p for p in scene.poses if p.person_id == "m0")
        confs = far.points[:, CONF]
        low = sum(bin_confidence(float(c)) is ConfidenceBin.LOW for c in confs)
        assert low >= 14  # most far-member keypoints land in the Low bin

    def test_triangle_minus_90_anchor_order_matches_projection_oracle(self):
        cfg = SynthConfig(
            formation="triangle",
            angle_deg=-90,
            distance_m=3.0,
            noise_px=0.0,
            outlier_count=0,
            angle_jitter_deg=0.0,
            scale_jitter=0.0,
            seed=5,
        )
        scene, layout = render_scene_with_layout(cfg)
        # Closed-form oracle: project each member's torso center through the
        # same pinhole formulas and sort by pixel x.
        cam = layout.camera
        expected = []
        for body in layout.bodies:
            rel = np.array([body.ground[0], body.ground[1], 1.0]) - cam.position
            px = cam.cx + cam.focal_px * float(rel @ cam.right) / float(
                rel @ cam.forward
            )
            expected.append((px, body.person_id))
        expected_ids = [pid for _, pid in sorted(expected)]
        rendered_ids = [p.person_id for p in scene.poses]
        assert rendered_ids == expected_ids

    def test_truth_attached_and_aligned(self):
        cfg = SynthConfig(formation="L-shaped", angle_deg=30, outlier_count=1, seed=3)
        scene = render_scene(cfg)
        assert scene.truth.formation == "L-shaped"
        assert scene.truth.angle_deg == 30
        for pose, label in zip(scene.poses, scene.truth.membership):
            expected = GROUP if pose.person_id.startswith("m") else OUTLIER
            assert label == expected

    def test_members_within_p_space_outliers_in_r_space(self):
        for seed in range(10):
            cfg = SynthConfig(
                formation="face-to-face", angle_deg=-60, outlier_count=1, seed=seed
            )
            scene, layout = render_scene_with_layout(cfg)
            for body in layout.bodies:
                radial = math.hypot(*body.ground)
                if body.label == GROUP:
                    assert radial <= layout.p_space_radius + 1e-9
                else:
                    assert radial > OUTLIER_RADIUS_FACTOR * layout.p_space_radius

    def test_heading_relationships_rederivable_from_layout(self):
        cfg = SynthConfig(formation="side-by-side", angle_deg=0, seed=8)
        _, layout = render_scene_with_layout(cfg)
        members = [b for b in layout.bodies if b.label == GROUP]
        assert members[0].heading == pytest.approx(members[1].heading)
        cfg = SynthConfig(formation="L-shaped", angle_deg=0, seed=8)
        _, layout = render_scene_with_layout(cfg)
        members = [b for b in layout.bodies if b.label == GROUP]
        diff = abs(members[0].heading - members[1].heading) % (2 * math.pi)
        assert min(diff, 2 * math.pi - diff) == pytest.approx(math.pi / 2)

    def test_occluded_confidence_below_unoccluded(self):
        # The same far body rendered with and without the occluder in front.
        cam = make_camera(0.0, 2.0, 640, 480)
        far = Body(ground=(-0.5, 0.0), heading=0.0, label=GROUP, person_id="far")
        near = Body(ground=(0.5, 0.0), heading=math.pi, label=GROUP, person_id="near")
        [blocked, _] = render_bodies([far, near], cam, 640, 480, np.zeros((2, 17, 2)))
        [clear] = render_bodies([far], cam, 640, 480, np.zeros((1, 17, 2)))
        assert np.all(blocked.points[:, CONF] <= clear.points[:, CONF])
        nose = KEYPOINT_INDEX["nose"]
        assert blocked.points[nose, CONF] < clear.points[nose, CONF]

    def test_back_facing_member_loses_eyes_keeps_ears(self):
        # side-by-side at -90 puts both members' backs to the camera.
        cfg = SynthConfig(
            formation="side-by-side",
            angle_deg=-90,
            distance_m=3.0,
            noise_px=0.0,
            angle_jitter_deg=0.0,
            scale_jitter=0.0,
            seed=2,
        )
        scene = render_scene(cfg)
        for pose in scene.poses:
            conf = dict(zip(KEYPOINT_NAMES, pose.points[:, CONF]))
            assert conf["leftEye"] < 0.25
            assert conf["rightEye"] < 0.25
            assert conf["leftEar"] >= 0.25
            assert conf["rightEar"] >= 0.25

    def test_profile_view_hides_far_side_of_face(self):
        # side-by-side at 0 shows the near member in right-facing profile.
        cfg = SynthConfig(
            formation="side-by-side",
            angle_deg=0,
            distance_m=3.0,
            noise_px=0.0,
            angle_jitter_deg=0.0,
            scale_jitter=0.0,
            seed=2,
        )
        scene = render_scene(cfg)
        near = next(p for p in scene.poses if p.person_id == "m1")
        visible = [n for n, c in zip(KEYPOINT_NAMES, near.points[:, CONF]) if c >= 0.25]
        eyes = {"leftEye", "rightEye"} & set(visible)
        ears = {"leftEar", "rightEar"} & set(visible)
        assert len(eyes) == 1
        assert len(ears) == 1

    def test_members_identical_with_and_without_outlier(self):
        cfg = SynthConfig(formation="triangle", angle_deg=30, outlier_count=1, seed=77)
        with_out = render_scene(cfg)
        without = render_scene(replace(cfg, outlier_count=0))
        by_id_with = {p.person_id: p for p in with_out.poses}
        by_id_without = {p.person_id: p for p in without.poses}
        for pid, pose in by_id_without.items():
            twin = by_id_with[pid]
            assert np.array_equal(pose.points[:, [X, Y]], twin.points[:, [X, Y]])

    def test_distance_range_sampled_per_scene(self):
        cfg = SynthConfig(formation="triangle", angle_deg=0, distance_m=(2.0, 5.0))
        d = {
            render_scene_with_layout(replace(cfg, seed=s))[1].distance_m
            for s in range(6)
        }
        assert len(d) == 6
        assert all(2.0 <= x <= 5.0 for x in d)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(formation="blob", angle_deg=0)
        with pytest.raises(ValueError):
            SynthConfig(formation="triangle", angle_deg=45)
        with pytest.raises(ValueError):
            SynthConfig(formation="triangle", angle_deg=0, noise_px=-1.0)
        with pytest.raises(ValueError, match="noise_px must be at most .* 200 px"):
            SynthConfig(
                formation="triangle", angle_deg=0, image_width=100, image_height=200,
                noise_px=200.5,
            )
        SynthConfig(  # noise as wide as the frame is allowed
            formation="triangle", angle_deg=0, image_width=100, image_height=200,
            noise_px=200.0,
        )
        with pytest.raises(ValueError):
            SynthConfig(formation="triangle", angle_deg=0, outlier_count=-1)

    def test_largest_image_side_renders_within_the_coordinate_bound(self):
        side = MAX_IMAGE_SIDE
        with pytest.raises(ValueError, match="image_width must be 1 to"):
            SynthConfig(formation="triangle", angle_deg=0, image_width=side + 1)
        # a camera 1 mm from a formation 1 km wide: the farthest projection
        # found over the extremes of every range
        cfg = SynthConfig(
            formation="side-by-side", angle_deg=30, distance_m=1e-3,
            image_width=side, image_height=side, noise_px=0.0, outlier_count=3,
            formation_scale=1e3, angle_jitter_deg=180.0, scale_jitter=0.99,
        )
        far = max(np.abs(p.points[:, :2]).max() for p in render_scene(cfg).poses)
        assert 1e10 < far <= MAX_COORDINATE / 50

    def test_camera_colliding_with_a_body_is_placement_error(self):
        # face-to-face at angle 0 with the camera standing on a member.
        cfg = SynthConfig(
            formation="face-to-face",
            angle_deg=0,
            distance_m=0.5,
            angle_jitter_deg=0.0,
            scale_jitter=0.0,
            seed=0,
        )
        with pytest.raises(PlacementError):
            render_scene(cfg)

    def test_config_json_round_trip(self):
        cfg = SynthConfig(
            formation="L-shaped",
            angle_deg=-60,
            distance_m=(2.5, 4.0),
            outlier_count=1,
            seed=9,
        )
        doc = json.loads(json.dumps(asdict(cfg)))
        assert synth_config_from_dict(doc) == cfg

    @pytest.mark.parametrize(
        "distance", ["x", 0.0, -1.0, float("nan"), math.inf, (5.0, 2.0), (1.0, 2.0, 3.0)]
    )
    def test_distance_must_be_positive_and_ordered(self, distance):
        with pytest.raises(ValueError, match="distance_m"):
            SynthConfig(formation="triangle", angle_deg=0, distance_m=distance)

    def test_config_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            synth_config_from_dict({"formation": "triangle", "angle_deg": 0, "zoom": 2})


class TestDatasets:
    def test_counts(self):
        spec = [
            (SynthConfig(formation="face-to-face", angle_deg=0, seed=0), 10),
            (SynthConfig(formation="triangle", angle_deg=60, seed=1000), 10),
        ]
        assert len(generate_dataset(spec)) == 20

    def test_deterministic(self):
        spec = [(SynthConfig(formation="L-shaped", angle_deg=-30, seed=5), 6)]
        a = [json.dumps(scene_to_dict(s)) for s in generate_dataset(spec, 3)]
        b = [json.dumps(scene_to_dict(s)) for s in generate_dataset(spec, 3)]
        assert a == b

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError):
            generate_dataset([(SynthConfig(formation="triangle", angle_deg=0), 0)])

    def test_split_is_80_20_per_formation(self):
        spec = []
        for i, f in enumerate(["face-to-face", "side-by-side"]):
            for j, a in enumerate([-90, 0]):
                spec.append(
                    (SynthConfig(formation=f, angle_deg=a, seed=10_000 * (2 * i + j)), 25)
                )
        scenes = generate_dataset(spec, 1)
        train, test = split_train_test(scenes, seed=1)
        assert len(train) == 80 and len(test) == 20
        for f in ["face-to-face", "side-by-side"]:
            assert sum(s.truth.formation == f for s in train) == 40
            assert sum(s.truth.formation == f for s in test) == 10

    def test_split_deterministic_and_disjoint(self):
        spec = [(SynthConfig(formation="triangle", angle_deg=90, seed=7), 20)]
        scenes = generate_dataset(spec, 2)
        t1 = split_train_test(scenes, seed=9)
        t2 = split_train_test(scenes, seed=9)
        assert [s.frame_id for s in t1[0]] == [s.frame_id for s in t2[0]]
        ids_train = {id(s) for s in t1[0]}
        assert all(id(s) not in ids_train for s in t1[1])
