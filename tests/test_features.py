import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fformation.features import (
    F_ANGLE,
    F_GROUP,
    F_NODE,
    GROUP_SLOTS,
    NO_NEIGHBOR_GAP,
    NODE_FEATURE_NAMES,
    angle_features,
    chain_features,
    stacked_group_features,
)
from fformation.pipeline import _chain_blocks
from fformation.pose import FORMATIONS, KEYPOINT_INDEX, KEYPOINT_NAMES, bin_confidence

from conftest import make_pose, make_scene, ordered

IDX = {name: i for i, name in enumerate(NODE_FEATURE_NAMES)}
STATS = slice(2, 10)  # a node's own 8 per-pose statistics


def own_stats(pose, image_width):
    """One pose's statistics: the own-pose block of a one-pose chain."""
    return chain_features(make_scene([pose], width=image_width))[0, STATS]


def group_vector(poses, image_width, image_height):
    """The group row of 1-3 poses: a one-group stacked_group_features batch."""
    points = np.zeros((1, GROUP_SLOTS, len(KEYPOINT_NAMES), 3))
    points[0, : len(poses)] = [p.points for p in poses]
    return stacked_group_features(
        points, [len(poses)], [image_width], [image_height]
    )[0]


class TestNodeFeatures:
    def test_single_person_has_sentinel_gaps_and_zero_neighbor_blocks(self):
        scene = make_scene([make_pose("solo", x=320.0)])
        f = chain_features(scene)[0]
        assert f[IDX["gap_left"]] == NO_NEIGHBOR_GAP
        assert f[IDX["gap_right"]] == NO_NEIGHBOR_GAP
        assert not f[10:26].any()

    def test_facing_score_zero_when_nose_centered(self):
        pose = make_pose(
            "p",
            overrides={
                "leftShoulder": (90.0, 100.0, 0.9),
                "rightShoulder": (110.0, 100.0, 0.9),
                "nose": (100.0, 80.0, 0.9),
            },
        )
        scene = make_scene([pose])
        f = chain_features(scene)[0]
        assert f[IDX["facing_score"]] == pytest.approx(0.0)

    def test_back_facing_indicator(self):
        pose = make_pose(
            "p",
            overrides={
                "leftEye": (100.0, 90.0, 0.1),
                "rightEye": (102.0, 90.0, 0.12),
                "leftEar": (95.0, 92.0, 0.8),
                "rightEar": (107.0, 92.0, 0.85),
            },
        )
        f = chain_features(make_scene([pose]))[0]
        assert f[IDX["back_facing"]] == 1.0

    def test_back_facing_indicator_fires_on_generator_back_views(self):
        # side-by-side at -90 renders both members with their backs to the
        # camera: the generator hides their eyes but keeps the ears.
        from fformation.synth import SynthConfig, render_scene

        scene = ordered(
            render_scene(
                SynthConfig(
                    formation="side-by-side",
                    angle_deg=-90,
                    distance_m=3.0,
                    noise_px=0.0,
                    angle_jitter_deg=0.0,
                    scale_jitter=0.0,
                    seed=21,
                )
            )
        )
        assert (chain_features(scene)[:, IDX["back_facing"]] == 1.0).all()

    def test_back_facing_requires_both_ears(self):
        pose = make_pose(
            "p",
            overrides={
                "leftEye": (100.0, 90.0, 0.1),
                "rightEye": (102.0, 90.0, 0.1),
                "leftEar": (95.0, 92.0, 0.1),
                "rightEar": (107.0, 92.0, 0.9),
            },
        )
        f = chain_features(make_scene([pose]))[0]
        assert f[IDX["back_facing"]] == 0.0

    def test_gaps_use_anchor_difference_over_width(self):
        scene = make_scene(
            [make_pose("a", x=100.0), make_pose("b", x=420.0)], width=640
        )
        f = chain_features(scene)[1]
        assert f[IDX["gap_left"]] == pytest.approx(320.0 / 640.0)
        assert f[IDX["gap_right"]] == NO_NEIGHBOR_GAP

    def test_bin_fractions_sum_to_one(self):
        f = own_stats(make_pose("p", confidence=0.6), 640)
        assert f[4:8].sum() == pytest.approx(1.0)

    def test_neighbor_blocks_are_the_neighbors_stats(self):
        left = make_pose("l", x=50.0, confidence=0.3)
        mid = make_pose("m", x=300.0, confidence=0.9)
        right = make_pose("r", x=500.0, confidence=0.7)
        scene = make_scene([left, mid, right])
        f = chain_features(scene)[1]
        np.testing.assert_allclose(f[10:18], own_stats(left, 640))
        np.testing.assert_allclose(f[18:26], own_stats(right, 640))

    def test_locality_far_pose_does_not_matter(self):
        poses = [make_pose(f"p{i}", x=100.0 * (i + 1)) for i in range(4)]
        scene_a = make_scene(poses)
        mutated = poses.copy()
        mutated[3] = make_pose("p3-moved", x=600.0, confidence=0.2)
        scene_b = make_scene(mutated)
        np.testing.assert_array_equal(
            chain_features(scene_a)[:2], chain_features(scene_b)[:2]
        )

    def test_dimension_constant(self):
        assert len(NODE_FEATURE_NAMES) == F_NODE == 26
        scene = make_scene([make_pose("a"), make_pose("b", x=300.0)])
        assert chain_features(scene).shape == (2, F_NODE)

    def test_index_out_of_range(self):
        feats = chain_features(make_scene([make_pose()]))
        assert feats.shape == (1, F_NODE)
        with pytest.raises(IndexError):
            feats[1]


class TestGroupFeatures:
    def test_padding_slot_zeroed_with_presence_zero(self):
        gfv = group_vector([make_pose("a")], 640, 480)
        assert len(gfv) == F_GROUP == 309
        assert not gfv[102:306].any()
        assert gfv[306] == 1.0 and gfv[307] == 0.0 and gfv[308] == 0.0

    def test_center_keypoint_normalizes_to_zero(self):
        pose = make_pose("c", x=320.0, y=240.0, confidence=0.9)
        gfv = group_vector([pose], 640, 480)
        assert gfv[0] == pytest.approx(0.0)
        assert gfv[1] == pytest.approx(0.0)

    def test_off_frame_coordinates_clamped(self):
        pose = make_pose("c", x=-50.0, y=1000.0, confidence=0.9)
        gfv = group_vector([pose], 640, 480)
        assert gfv[0] == -1.0
        assert gfv[1] == 1.0

    def test_hand_computed_two_person_layout(self):
        # Independent oracle: build the expected 309 entries with explicit
        # arithmetic, keypoint by keypoint.
        a = make_pose("a", x=160.0, y=120.0, confidence=0.30)
        b = make_pose("b", x=480.0, y=360.0, confidence=0.80)
        gfv = group_vector([a, b], 640, 480)

        expected = np.zeros(309)
        for slot, pose in enumerate([a, b]):
            for k, (x, y, c) in enumerate(pose.points.tolist()):
                off = slot * 102 + k * 6
                expected[off] = (x - 320.0) / 320.0
                expected[off + 1] = (y - 240.0) / 240.0
                expected[off + 2 + int(bin_confidence(c))] = 1.0
        expected[306] = expected[307] = 1.0
        np.testing.assert_allclose(gfv, expected)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_translation_moves_only_x_norms(self, delta):
        base = [make_pose("a", x=200.0, y=100.0), make_pose("b", x=400.0, y=300.0)]
        moved = [
            make_pose("a", x=200.0 + delta, y=100.0),
            make_pose("b", x=400.0 + delta, y=300.0),
        ]
        g0 = group_vector(base, 640, 480)
        g1 = group_vector(moved, 640, 480)
        diff = g1 - g0
        for slot in range(2):
            for k in range(17):
                off = slot * 102 + k * 6
                assert diff[off] == pytest.approx(2 * delta / 640.0, abs=1e-12)
                assert diff[off + 1 : off + 6] == pytest.approx(0.0)
        assert not diff[306:].any()


class TestAngleFeatures:
    def test_face_to_face_one_hot(self):
        gfv = group_vector([make_pose("a")], 640, 480)
        [afv] = angle_features(gfv[None], ["face-to-face"])
        assert list(afv[-4:]) == [1.0, 0.0, 0.0, 0.0]

    def test_triangle_one_hot(self):
        gfv = group_vector([make_pose("a")], 640, 480)
        [afv] = angle_features(gfv[None], ["triangle"])
        assert list(afv[-4:]) == [0.0, 0.0, 0.0, 1.0]

    def test_length_is_313(self, rng):
        gfv = rng.normal(size=F_GROUP)
        for formation in FORMATIONS:
            assert angle_features(gfv[None], [formation]).shape == (1, F_ANGLE)
        assert F_ANGLE == 313

    def test_rows_keep_their_group_vector_and_formation(self, rng):
        X = rng.normal(size=(len(FORMATIONS), F_GROUP))
        out = angle_features(X, FORMATIONS)
        np.testing.assert_array_equal(out[:, :F_GROUP], X)
        np.testing.assert_array_equal(out[:, F_GROUP:], np.eye(len(FORMATIONS)))

    def test_zero_rows(self):
        assert angle_features(np.zeros((0, F_GROUP)), []).shape == (0, F_ANGLE)

    def test_unknown_formation_rejected(self):
        with pytest.raises(ValueError, match="circle"):
            angle_features(np.zeros((1, F_GROUP)), ["circle"])

    def test_wrong_gfv_length_rejected(self):
        with pytest.raises(ValueError):
            angle_features(np.zeros((1, 10)), ["triangle"])


# ---------------------------------------------------------------------------
# Bit identity with the per-keypoint object path the array features replaced.
# The ref_* functions are that path, kept as the reference: they read one
# keypoint row at a time in Python.


def ref_bin_confidence(c):
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"confidence {c!r} outside [0, 1]")
    if c < 0.25:
        return 0
    if c < 0.5:
        return 1
    if c < 0.75:
        return 2
    return 3


def ref_keypoint(pose, name):
    """(x, y, confidence) of one named keypoint, as Python floats."""
    return pose.points[KEYPOINT_INDEX[name]].tolist()


def ref_anchor_x(pose):
    xs = np.array([x for x, _, _ in pose.points.tolist()])
    conf = np.array([c for _, _, c in pose.points.tolist()])
    mask = conf >= 0.5
    if mask.any():
        return float(xs[mask].mean())
    return float(xs.mean())


def ref_pose_stats(pose, image_width):
    ls_x, _, _ = ref_keypoint(pose, "leftShoulder")
    rs_x, _, _ = ref_keypoint(pose, "rightShoulder")
    nose_x, _, _ = ref_keypoint(pose, "nose")
    span = abs(ls_x - rs_x)
    facing = (nose_x - 0.5 * (ls_x + rs_x)) / max(span, 1e-6)
    back = float(
        ref_keypoint(pose, "leftEye")[2] < 0.25
        and ref_keypoint(pose, "rightEye")[2] < 0.25
        and ref_keypoint(pose, "leftEar")[2] >= 0.25
        and ref_keypoint(pose, "rightEar")[2] >= 0.25
    )
    conf = np.array([c for _, _, c in pose.points.tolist()])
    bins = np.zeros(4)
    for c in conf:
        bins[ref_bin_confidence(float(c))] += 1.0
    bins /= 17
    out = np.empty(8)
    out[0] = span / image_width
    out[1] = facing
    out[2] = back
    out[3] = conf.mean()
    out[4:8] = bins
    return out


def ref_node_features(scene, i):
    n = len(scene.poses)
    width = scene.image_width
    out = np.zeros(26)
    a_i = ref_anchor_x(scene.poses[i])
    out[0] = (a_i - ref_anchor_x(scene.poses[i - 1])) / width if i > 0 else 2.0
    out[1] = (ref_anchor_x(scene.poses[i + 1]) - a_i) / width if i < n - 1 else 2.0
    out[2:10] = ref_pose_stats(scene.poses[i], width)
    if i > 0:
        out[10:18] = ref_pose_stats(scene.poses[i - 1], width)
    if i < n - 1:
        out[18:26] = ref_pose_stats(scene.poses[i + 1], width)
    return out


def ref_chain_features(scene):
    return np.stack([ref_node_features(scene, i) for i in range(len(scene.poses))])


def ref_group_features(poses, image_width, image_height):
    half_w = image_width / 2.0
    half_h = image_height / 2.0
    out = np.zeros(309)
    for s, pose in enumerate(poses):
        base = s * 102
        for k, (x, y, c) in enumerate(pose.points.tolist()):
            off = base + k * 6
            out[off] = min(1.0, max(-1.0, (x - half_w) / half_w))
            out[off + 1] = min(1.0, max(-1.0, (y - half_h) / half_h))
            out[off + 2 + ref_bin_confidence(c)] = 1.0
        out[306 + s] = 1.0
    return out


def _degenerate_scenes():
    """Poses that stress the arithmetic: no confident keypoint (anchor
    fallback), coincident shoulders (span floor), off-frame and negative
    coordinates, confidences on every bin edge, and 1- to 6-person scenes."""
    rng = np.random.default_rng(7)
    edges = (0.0, 0.25, 0.5, 0.75, 1.0, 0.2499999999, 0.7500000001)

    def random_pose(pid, **kw):
        overrides = {
            name: (
                float(rng.uniform(-200.0, 900.0)),
                float(rng.uniform(-200.0, 700.0)),
                float(rng.choice(edges)) if rng.random() < 0.5 else float(rng.random()),
            )
            for name in KEYPOINT_NAMES
        }
        overrides.update(kw.get("overrides", {}))
        return make_pose(pid, overrides=overrides)

    unseen = make_pose("unseen", x=123.456, confidence=0.0)
    unseen_spread = make_pose(
        "unseen-spread",
        overrides={
            n: (float(i) * 37.1 - 50.0, 3.0 * i, 0.1) for i, n in enumerate(KEYPOINT_NAMES)
        },
    )
    coincident = make_pose(
        "coincident",
        overrides={
            "leftShoulder": (300.0, 100.0, 0.9),
            "rightShoulder": (300.0, 100.0, 0.9),
            "nose": (310.0, 80.0, 0.9),
        },
    )
    off_frame = make_pose("off", x=-75.5, y=2000.25, confidence=0.6)
    scenes = [
        make_scene([unseen]),
        make_scene([unseen_spread, coincident]),
        make_scene([off_frame, coincident, unseen]),
        make_scene([random_pose("solo")]),
        make_scene([random_pose(f"p{i}") for i in range(6)], width=1280, height=720),
        make_scene([random_pose(f"q{i}") for i in range(4)] + [unseen, coincident]),
        make_scene([make_pose("twin-a", x=50.0), make_pose("twin-b", x=50.0)]),
    ]
    for n in range(1, 7):
        poses = [random_pose(f"r{n}-{i}") for i in range(n)]
        scenes.append(make_scene(poses, width=333, height=201))
    return scenes


def _generated_scenes():
    from fformation.synth import SynthConfig, render_scene

    scenes = []
    for seed in range(24):
        scenes.append(
            render_scene(
                SynthConfig(
                    formation=FORMATIONS[seed % 4],
                    angle_deg=(-90, -60, -30, 0, 30, 60, 90)[seed % 7],
                    outlier_count=seed % 4,
                    seed=9_000 + seed,
                )
            )
        )
    return scenes


EQUIVALENCE_SCENES = _degenerate_scenes() + _generated_scenes()


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


class TestMatchesObjectPath:
    @pytest.mark.parametrize("k", range(len(EQUIVALENCE_SCENES)))
    def test_chain_and_stats_bit_identical(self, k):
        scene = ordered(EQUIVALENCE_SCENES[k])
        assert _bits(chain_features(scene)) == _bits(ref_chain_features(scene))
        for pose in scene.poses:
            assert pose.anchor == ref_anchor_x(pose)
            assert _bits(own_stats(pose, scene.image_width)) == _bits(
                ref_pose_stats(pose, scene.image_width)
            )

    @pytest.mark.parametrize("k", range(len(EQUIVALENCE_SCENES)))
    def test_group_features_bit_identical(self, k):
        scene = EQUIVALENCE_SCENES[k]
        for size in range(1, min(3, len(scene.poses)) + 1):
            poses = scene.poses[-size:]
            got = group_vector(poses, scene.image_width, scene.image_height)
            want = ref_group_features(poses, scene.image_width, scene.image_height)
            assert _bits(got) == _bits(want)

    def test_detection_batch_features_bit_identical(self):
        # The chains detect_many and training build, one batch per pose
        # count over scenes of every length at once.
        covered = []
        for idx, perms, feats in _chain_blocks(EQUIVALENCE_SCENES):
            for i, perm, f in zip(idx, perms, feats):
                scene = EQUIVALENCE_SCENES[i]
                chain = ordered(scene)
                assert [scene.poses[k] for k in perm] == list(chain.poses)
                assert _bits(f) == _bits(ref_chain_features(chain))
                covered.append(i)
        assert sorted(covered) == list(range(len(EQUIVALENCE_SCENES)))

    def test_stacked_group_features_bit_identical(self):
        groups = [s.poses[:3] for s in EQUIVALENCE_SCENES] + [
            s.poses[-2:] for s in EQUIVALENCE_SCENES if len(s.poses) >= 2
        ]
        points = np.zeros((len(groups), 3, 17, 3))
        for g, poses in enumerate(groups):
            points[g, : len(poses)] = [p.points for p in poses]
        scenes = EQUIVALENCE_SCENES + [s for s in EQUIVALENCE_SCENES if len(s.poses) >= 2]
        got = stacked_group_features(
            points,
            [len(p) for p in groups],
            [s.image_width for s in scenes],
            [s.image_height for s in scenes],
        )
        for row, poses, scene in zip(got, groups, scenes):
            want = ref_group_features(poses, scene.image_width, scene.image_height)
            assert _bits(row) == _bits(want)
