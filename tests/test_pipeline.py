import io
import json
from dataclasses import replace

import numpy as np
import pytest

from fformation import pipeline
from fformation import svm as svm_mod
from fformation.crf import (
    CrfModel,
    decode_batch,
    indices_to_labels,
    nll_and_gradient,
    weight_dim,
)
from fformation.errors import DataError, VersionMismatchError
from fformation.features import (
    F_GROUP,
    F_NODE,
    GROUP_SLOTS,
    chain_features,
    stacked_group_features,
)
from fformation.pipeline import (
    JOINT_CLASSES,
    REASON_NO_PEOPLE,
    REASON_NO_RULE,
    REASON_OVERFLOW,
    REASON_TOO_FEW_VISIBLE,
    REASON_TOO_SMALL,
    Detection,
    _chain_blocks,
    build_crf_chains,
    detect,
    detect_many,
    detection_to_dict,
    head_orientation,
    joint_class,
    load_models,
    parse_joint_class,
    rule_classify,
    save_models,
    training_groups,
    training_rows,
    write_detections,
)
from fformation.pose import (
    APPROACH_ANGLES,
    FORMATIONS,
    GROUP,
    OUTLIER,
    SceneTruth,
    left_to_right_permutation,
)
from fformation.synth import SynthConfig, render_scene

from conftest import make_pose, make_scene, ordered


def formation_rows(scenes, groups):
    X, _ = training_rows(scenes, groups, ("formation",))
    return X


def facing_pose(pid, x, direction, width=60.0):
    """A pose whose eyes sit clearly left/right/center of its face box."""
    half = width / 2
    shift = {"left": -width * 0.45, "right": width * 0.45, "front": 0.0}[direction]
    return make_pose(
        pid,
        x=x,
        overrides={
            "leftEar": (x - half, 90.0, 0.9),
            "rightEar": (x + half, 90.0, 0.9),
            "nose": (x + shift * 0.5, 95.0, 0.9),
            "leftEye": (x + shift - 3.0, 88.0, 0.9),
            "rightEye": (x + shift + 3.0, 88.0, 0.9),
            "leftShoulder": (x - 40.0, 140.0, 0.9),
            "rightShoulder": (x + 40.0, 140.0, 0.9),
        },
    )


class TestHeadOrientation:
    def test_symmetric_eyes_front(self):
        assert head_orientation(facing_pose("p", 300.0, "front")) == "front"

    def test_eyes_left_beyond_band(self):
        assert head_orientation(facing_pose("p", 300.0, "left")) == "left"

    def test_eyes_right_beyond_band(self):
        assert head_orientation(facing_pose("p", 300.0, "right")) == "right"

    def test_low_confidence_eyes_fall_back_to_front(self):
        pose = make_pose(
            "p",
            overrides={
                "leftEye": (90.0, 88.0, 0.1),
                "rightEye": (96.0, 88.0, 0.1),
                "leftEar": (80.0, 90.0, 0.9),
                "rightEar": (120.0, 90.0, 0.9),
            },
        )
        assert head_orientation(pose) == "front"

    def test_back_facing_synthetic_person_reads_front(self):
        scene = render_scene(
            SynthConfig(
                formation="side-by-side",
                angle_deg=-90,
                distance_m=3.0,
                noise_px=0.0,
                angle_jitter_deg=0.0,
                scale_jitter=0.0,
                seed=6,
            )
        )
        for pose in scene.poses:
            assert head_orientation(pose) == "front"

    def test_degenerate_face_box_is_front(self):
        pose = make_pose("p", x=100.0, confidence=0.9)  # all face points stacked
        assert head_orientation(pose) == "front"


class TestRuleClassify:
    def test_mutually_facing_pair_is_face_to_face(self):
        scene = make_scene(
            [facing_pose("a", 100.0, "right"), facing_pose("b", 500.0, "left")]
        )
        det = rule_classify(scene)
        assert det.formation == "face-to-face"

    def test_equal_orientations_close_together_side_by_side(self):
        scene = make_scene(
            [facing_pose("a", 280.0, "front"), facing_pose("b", 360.0, "front")]
        )
        assert rule_classify(scene).formation == "side-by-side"

    def test_one_front_close_together_l_shaped(self):
        scene = make_scene(
            [facing_pose("a", 280.0, "right"), facing_pose("b", 360.0, "front")]
        )
        assert rule_classify(scene).formation == "L-shaped"

    def test_three_people_two_orientations_triangle(self):
        scene = make_scene(
            [
                facing_pose("a", 100.0, "right"),
                facing_pose("b", 300.0, "front"),
                facing_pose("c", 500.0, "front"),
            ]
        )
        assert rule_classify(scene).formation == "triangle"

    def test_fewer_than_two_poses_is_input_error(self):
        with pytest.raises(DataError, match="'solo' has fewer than two poses"):
            rule_classify(make_scene([make_pose()], frame_id="solo"))

    def test_no_rule_matched_gives_none(self):
        scene = make_scene(
            [facing_pose("a", 100.0, "left"), facing_pose("b", 560.0, "right")]
        )
        det = rule_classify(scene)
        assert det.formation is None
        assert det.reason == REASON_NO_RULE

    def test_invisible_people_do_not_count(self):
        ghost = make_pose("ghost", x=300.0, confidence=0.05)
        scene = make_scene([facing_pose("a", 100.0, "front"), ghost])
        det = rule_classify(scene)
        assert det.formation is None
        assert det.reason == REASON_TOO_FEW_VISIBLE

    def test_synthetic_side_by_side_minus_90_recognized(self):
        hits = 0
        for seed in range(10):
            scene = render_scene(
                SynthConfig(
                    formation="side-by-side", angle_deg=-90, outlier_count=0, seed=seed
                )
            )
            hits += rule_classify(scene).formation == "side-by-side"
        assert hits >= 8  # the baseline's strong case

    def test_synthetic_face_to_face_zero_misclassified(self):
        # The occluded far member starves the rule of a second detection.
        for seed in range(5):
            scene = render_scene(
                SynthConfig(
                    formation="face-to-face", angle_deg=0, outlier_count=0, seed=seed
                )
            )
            assert rule_classify(scene).formation != "face-to-face"

    def test_no_angle_is_ever_predicted(self):
        scene = make_scene(
            [facing_pose("a", 100.0, "right"), facing_pose("b", 500.0, "left")]
        )
        det = rule_classify(scene)
        assert det.angle_deg is None and det.joint is None


class TestJointClasses:
    def test_exactly_28(self):
        assert len(JOINT_CLASSES) == 28
        assert len(set(JOINT_CLASSES)) == 28

    def test_encode_decode_round_trip_for_all(self):
        for f in FORMATIONS:
            for a in APPROACH_ANGLES:
                assert parse_joint_class(joint_class(f, a)) == (f, a)

    def test_invalid_combination_rejected(self):
        with pytest.raises(ValueError):
            joint_class("circle", 0)
        with pytest.raises(ValueError):
            joint_class("triangle", 45)


class TestDetect:
    def test_empty_scene_has_no_people(self, mini):
        scene = make_scene([], frame_id="empty")
        timings = {}
        dets = [
            detect(
                scene,
                mini.bundle.crf,
                mini.bundle.formation_svm,
                mini.bundle.angle_svm,
                timings=timings,
            ),
            detect(scene, mini.bundle.crf, joint_svm=mini.bundle.joint_svm),
        ]
        for det in dets:
            assert det.frame_id == "empty"
            assert det.membership == ()
            assert det.formation is None and det.angle_deg is None
            assert det.joint is None
            assert det.reason == REASON_NO_PEOPLE
            assert det.scores == {"membership_g_prob": []}
        assert timings == {"features": 0.0, "crf": 0.0, "svm": 0.0}

    def test_single_person_scene(self, mini):
        scene = make_scene([make_pose("solo", x=300.0)])
        det = detect(
            scene, mini.bundle.crf, mini.bundle.formation_svm, mini.bundle.angle_svm
        )
        assert det.formation is None
        assert det.angle_deg is None
        assert det.reason == REASON_TOO_SMALL
        assert len(det.membership) == 1

    def test_end_to_end_face_to_face_with_outlier(self, mini):
        scene = render_scene(
            SynthConfig(
                formation="face-to-face", angle_deg=-90, outlier_count=1, seed=31_000
            )
        )
        det = detect(
            scene, mini.bundle.crf, mini.bundle.formation_svm, mini.bundle.angle_svm
        )
        for pose, label in zip(scene.poses, det.membership):
            expected = OUTLIER if pose.person_id.startswith("o") else GROUP
            assert label == expected
        assert det.formation == "face-to-face"
        assert det.angle_deg == -90

    def test_joint_end_to_end_triangle_60(self, mini):
        scene = render_scene(
            SynthConfig(formation="triangle", angle_deg=60, outlier_count=0, seed=32_000)
        )
        det = detect(scene, mini.bundle.crf, joint_svm=mini.bundle.joint_svm)
        assert det.joint == ("triangle", 60)
        assert det.formation == "triangle"
        assert det.angle_deg == 60
        assert set(det.scores) == {"membership_g_prob", "joint"}

    def test_joint_head_leaves_the_cascade_unchanged(self, mini):
        b = mini.bundle
        both_seen = 0
        for scene in mini.test_scenes[:60]:
            cascade = detect(scene, b.crf, b.formation_svm, b.angle_svm)
            both = detect(scene, b.crf, b.formation_svm, b.angle_svm, joint_svm=b.joint_svm)
            joint = detect(scene, b.crf, joint_svm=b.joint_svm)
            assert both.membership == cascade.membership == joint.membership
            assert (both.formation, both.angle_deg) == (cascade.formation, cascade.angle_deg)
            assert both.joint == joint.joint
            assert both.scores == {**cascade.scores, **joint.scores}
            both_seen += both.joint is not None
        assert both_seen > 0

    def test_needs_whole_cascade_or_joint_head(self, mini):
        scene = make_scene([make_pose("a"), make_pose("b", x=400.0)])
        with pytest.raises(ValueError, match="cascade"):
            detect(scene, mini.bundle.crf, mini.bundle.formation_svm)
        with pytest.raises(ValueError, match="head"):
            detect(scene, mini.bundle.crf)

    def test_detect_is_deterministic(self, mini):
        scene = render_scene(
            SynthConfig(formation="L-shaped", angle_deg=30, outlier_count=1, seed=33_000)
        )
        a = detect(
            scene, mini.bundle.crf, mini.bundle.formation_svm, mini.bundle.angle_svm
        )
        b = detect(
            scene, mini.bundle.crf, mini.bundle.formation_svm, mini.bundle.angle_svm
        )
        assert detection_to_dict(a) == detection_to_dict(b)

    def test_membership_reported_in_input_order(self, mini):
        scene = render_scene(
            SynthConfig(formation="side-by-side", angle_deg=60, outlier_count=1, seed=34_000)
        )
        reversed_scene = make_scene(
            list(reversed(scene.poses)),
            frame_id=scene.frame_id,
            truth=None,
        )
        det_fwd = detect(
            scene, mini.bundle.crf, mini.bundle.formation_svm, mini.bundle.angle_svm
        )
        det_rev = detect(
            reversed_scene,
            mini.bundle.crf,
            mini.bundle.formation_svm,
            mini.bundle.angle_svm,
        )
        assert det_fwd.membership == tuple(reversed(det_rev.membership))
        assert det_fwd.formation == det_rev.formation

    def test_more_than_three_members_overflows_left_to_right(self, mini):
        # An all-G labeler forces a 4-person group; the 3 leftmost are kept.
        all_g_crf = CrfModel(np.zeros(weight_dim(F_NODE)))
        poses = [make_pose(f"p{i}", x=100.0 + 120.0 * i) for i in range(4)]
        scene = make_scene(poses)
        det = detect(
            scene, all_g_crf, mini.bundle.formation_svm, mini.bundle.angle_svm
        )
        assert det.reason == REASON_OVERFLOW
        assert det.formation is not None
        assert det.membership == ("G",) * 4

    def test_timings_cover_all_stages(self, mini):
        scene = render_scene(
            SynthConfig(formation="triangle", angle_deg=0, outlier_count=0, seed=35_000)
        )
        timings = {}
        detect(
            scene,
            mini.bundle.crf,
            mini.bundle.formation_svm,
            mini.bundle.angle_svm,
            timings=timings,
        )
        assert set(timings) == {"features", "crf", "svm"}
        assert all(v >= 0 for v in timings.values())

    def test_outlier_does_not_change_formation(self, mini):
        agreements = 0
        pairs = 0
        for seed in range(36_000, 36_010):
            cfg = SynthConfig(
                formation="triangle", angle_deg=-60, outlier_count=1, seed=seed
            )
            s_with = render_scene(cfg)
            s_without = render_scene(replace(cfg, outlier_count=0))
            d_with = detect(
                s_with, mini.bundle.crf, mini.bundle.formation_svm, mini.bundle.angle_svm
            )
            out_ok = all(
                lab == OUTLIER
                for pose, lab in zip(s_with.poses, d_with.membership)
                if pose.person_id.startswith("o")
            )
            if not out_ok:
                continue
            d_wo = detect(
                s_without,
                mini.bundle.crf,
                mini.bundle.formation_svm,
                mini.bundle.angle_svm,
            )
            pairs += 1
            agreements += d_with.formation == d_wo.formation
        assert pairs >= 5
        assert agreements == pairs

    def test_training_groups_match_detect_members(self, mini):
        scene = render_scene(
            SynthConfig(formation="L-shaped", angle_deg=-30, outlier_count=1, seed=37_000)
        )
        [poses] = training_groups([scene], mini.bundle.crf)
        det = detect(
            scene, mini.bundle.crf, mini.bundle.formation_svm, mini.bundle.angle_svm
        )
        assert poses is not None
        members = sorted(
            (p for p, m in zip(scene.poses, det.membership) if m == "G"),
            key=lambda p: p.anchor,
        )
        assert poses == members


class TestTrainingGroups:
    def _scene(self, membership):
        poses = [make_pose(f"p{i}", x=500.0 - 100.0 * i) for i in range(len(membership))]
        truth = SceneTruth(membership=membership, formation="triangle", angle_deg=0)
        return make_scene(poses, truth=truth)

    def test_gold_groups_below_two_members_are_none(self):
        scenes = [self._scene(m) for m in (("O", "O", "O"), ("O", "G", "O"))]
        assert training_groups(scenes) == [None, None]
        X, truths = training_rows(scenes, training_groups(scenes), ("formation",))
        assert X.shape == (0, F_GROUP) and truths == []

    def test_gold_group_is_every_member_left_to_right(self):
        scene = self._scene(("G", "O", "G", "G", "G"))
        [poses] = training_groups([scene])
        # poses were placed right to left
        assert [p.person_id for p in poses] == ["p4", "p3", "p2", "p0"]

    def test_chain_blocks_are_shortest_first_with_indices_in_input_order(self):
        scenes = [self._scene(("G",) * n) for n in (3, 1, 0, 3, 2, 1, 0, 3)]
        blocks = _chain_blocks(scenes)
        assert [(idx, feats.shape[:2]) for idx, _, feats in blocks] == [
            ([1, 5], (2, 1)),
            ([4], (1, 2)),
            ([0, 3, 7], (3, 3)),
        ]  # the poseless scenes 2 and 6 are in no block
        trained = build_crf_chains(scenes)
        assert [labels.shape for _, labels in trained] == [(2, 1), (1, 2), (3, 3)]
        for (_, _, feats), (got, _) in zip(blocks, trained):
            assert np.array_equal(got, feats)

    def test_crf_chain_labels_are_gold_in_chain_order(self):
        [(_, labels)] = build_crf_chains([self._scene(("G", "O", "O"))])
        assert labels.tolist() == [[1, 1, 0]]  # poses were placed right to left

    def test_scene_without_a_pose_has_no_chain_and_no_group(self):
        empty, scene = self._scene(()), self._scene(("G", "O", "G"))
        assert len(build_crf_chains([empty, scene, empty])) == 1
        groups = training_groups([empty, scene, empty])
        assert groups[0] is None and groups[2] is None
        assert [p.person_id for p in groups[1]] == ["p2", "p0"]
        with pytest.raises(DataError, match="no training scene has a pose"):
            build_crf_chains([empty])


def _capture_rows(monkeypatch, model):
    """The rows every svm.predict_many call on `model` receives."""
    rows = []
    predict_many = svm_mod.predict_many

    def capture(m, X):
        if m is model:
            rows.append(np.array(X))
        return predict_many(m, X)

    monkeypatch.setattr(svm_mod, "predict_many", capture)
    return rows


class TestTrainingRowsAreDetectionRows:
    def test_formation_rows_match_bit_for_bit(self, mini, monkeypatch):
        scenes = [
            render_scene(
                SynthConfig(
                    formation=FORMATIONS[k % 4],
                    angle_deg=APPROACH_ANGLES[k % 7],
                    outlier_count=k % 3,
                    seed=41_000 + k,
                )
            )
            for k in range(50)
        ]
        # one-person scenes: detection keeps no group, training no row
        scenes[::10] = [
            replace(s, poses=s.poses[:1], truth=replace(s.truth, membership=("G",)))
            for s in scenes[::10]
        ]
        rows = _capture_rows(monkeypatch, mini.bundle.formation_svm)
        detections = detect_many(
            scenes, mini.bundle.crf, mini.bundle.formation_svm, mini.bundle.angle_svm
        )
        [X_detect] = rows
        X_train = formation_rows(scenes, training_groups(scenes, mini.bundle.crf))
        kept = sum(d.membership.count("G") >= 2 for d in detections)
        assert len(X_train) == len(X_detect) == kept >= 40
        assert X_train.tobytes() == X_detect.tobytes()

    def test_overflow_fills_slots_with_first_three(self, mini, monkeypatch):
        all_g_crf = CrfModel(np.zeros(weight_dim(F_NODE)))
        poses = [make_pose(f"p{i}", x=500.0 - 110.0 * i, y=150.0 + i) for i in range(4)]
        truth = SceneTruth(membership=("G",) * 4, formation="triangle", angle_deg=0)
        scene = make_scene(poses, truth=truth)
        rows = _capture_rows(monkeypatch, mini.bundle.formation_svm)
        det = detect(scene, all_g_crf, mini.bundle.formation_svm, mini.bundle.angle_svm)
        assert det.reason == REASON_OVERFLOW
        [[X_detect]] = rows
        leftmost = [poses[3], poses[2], poses[1]]
        assert len(leftmost) == GROUP_SLOTS
        points = np.stack([p.points for p in leftmost])[None]
        [want] = stacked_group_features(points, [GROUP_SLOTS], [640], [480])
        assert X_detect.tobytes() == want.tobytes()
        X_train = formation_rows([scene], training_groups([scene], all_g_crf))
        assert X_train.tobytes() == X_detect[None].tobytes()


def _mixed_scenes():
    """Chains of 1-6 poses with empty frames interleaved."""
    scenes = []
    for k in range(28):
        scene = render_scene(
            SynthConfig(
                formation=FORMATIONS[k % 4],
                angle_deg=APPROACH_ANGLES[k % 7],
                outlier_count=(k // 4) % 4,
                seed=39_000 + k,
            )
        )
        if k % 5 == 1:
            scene = replace(scene, poses=scene.poses[-1:], truth=None)
        scenes.append(scene)
        if k % 6 == 0:
            scenes.append(make_scene([], frame_id=f"empty{k}"))
    return scenes


def _heads(bundle):
    cascade = {"formation_svm": bundle.formation_svm, "angle_svm": bundle.angle_svm}
    joint = {"joint_svm": bundle.joint_svm}
    return {"cascade": cascade, "joint": joint, "both": {**cascade, **joint}}


class TestDetectMany:
    def test_mixed_lengths_cover_one_to_six(self):
        assert {len(s.poses) for s in _mixed_scenes()} == {0, 1, 2, 3, 4, 5, 6}

    @pytest.mark.parametrize("heads", ["cascade", "joint", "both"])
    @pytest.mark.parametrize("batch", [512, 4])
    def test_equals_detect_scene_by_scene(self, mini, monkeypatch, heads, batch):
        monkeypatch.setattr(pipeline, "DETECT_BATCH", batch)
        scenes = _mixed_scenes()
        kwargs = _heads(mini.bundle)[heads]
        many = detect_many(scenes, mini.bundle.crf, **kwargs)
        assert len(many) == len(scenes)
        for scene, got in zip(scenes, many):
            want = detect(scene, mini.bundle.crf, **kwargs)
            assert replace(got, scores={}) == replace(want, scores={})
            assert list(got.scores) == list(want.scores)
            assert got.scores["membership_g_prob"] == want.scores["membership_g_prob"]
            for head in set(got.scores) - {"membership_g_prob"}:
                assert list(got.scores[head]) == list(want.scores[head])
                for cls, value in want.scores[head].items():
                    assert got.scores[head][cls] == pytest.approx(value, rel=0, abs=1e-12)

    def test_decode_matches_per_chain_viterbi_and_marginals(self, mini):
        model = mini.bundle.crf
        scenes = [s for s in _mixed_scenes() if s.poses]
        many = detect_many(scenes, model, joint_svm=mini.bundle.joint_svm)
        for scene, det in zip(scenes, many):
            perm = left_to_right_permutation(scene)
            [labels], [marg] = decode_batch(
                model, chain_features(ordered(scene))[None], marginals=True
            )
            g = np.clip(marg[:, 0], 0.0, 1.0)
            assert [det.membership[src] for src in perm] == indices_to_labels(labels)
            assert [det.scores["membership_g_prob"][src] for src in perm] == g.tolist()

    def test_empty_input(self, mini):
        assert detect_many([], mini.bundle.crf, joint_svm=mini.bundle.joint_svm) == []


class TestGroupProbabilities:
    def test_clipped_to_unit_interval_on_extreme_potentials(self, mini):
        # Large weights push forward-backward rounding past [0, 1]; at least
        # one raw marginal must leave it for the check to bite.
        rng = np.random.default_rng(0)
        scenes = [s for s in _mixed_scenes() if s.poses]
        raw_outside = 0
        for _ in range(5):
            model = CrfModel(rng.normal(0.0, 100.0, size=weight_dim(F_NODE)))
            many = detect_many(scenes, model, joint_svm=mini.bundle.joint_svm)
            for scene, det in zip(scenes, many):
                feats = chain_features(ordered(scene))
                raw = decode_batch(model, feats[None], marginals=True)[1][0, :, 0]
                raw_outside += int(np.any((raw < 0.0) | (raw > 1.0)))
                g_prob = np.array(det.scores["membership_g_prob"])
                assert np.all((g_prob >= 0.0) & (g_prob <= 1.0))
        assert raw_outside > 0


class TestDetectionJsonl:
    def test_wire_format_fields(self, mini):
        scene = render_scene(
            SynthConfig(formation="triangle", angle_deg=90, outlier_count=0, seed=38_000)
        )
        det = detect(scene, mini.bundle.crf, joint_svm=mini.bundle.joint_svm)
        buf = io.StringIO()
        write_detections([det], buf)
        doc = json.loads(buf.getvalue())
        assert set(doc) == {
            "frame_id",
            "membership",
            "formation",
            "angle_deg",
            "joint",
            "scores",
            "reason",
        }
        assert doc["joint"] == {"formation": det.joint[0], "angle_deg": det.joint[1]}

    def test_none_fields_serialize_as_null(self):
        det = Detection(
            frame_id="f",
            membership=("G",),
            reason=REASON_TOO_SMALL,
        )
        doc = detection_to_dict(det)
        assert doc["formation"] is None
        assert doc["joint"] is None


class TestModelBundle:
    def test_round_trip_identical_detections_on_100_scenes(self, mini, tmp_path):
        path = tmp_path / "bundle"
        save_models(mini.bundle, path)
        loaded = load_models(path)
        scenes = [
            render_scene(
                SynthConfig(
                    formation=FORMATIONS[i % 4],
                    angle_deg=APPROACH_ANGLES[i % 7],
                    outlier_count=i % 2,
                    seed=40_000 + i,
                )
            )
            for i in range(100)
        ]
        for scene in scenes:
            a = detect(
                scene, mini.bundle.crf, mini.bundle.formation_svm, mini.bundle.angle_svm
            )
            b = detect(scene, loaded.crf, loaded.formation_svm, loaded.angle_svm)
            assert detection_to_dict(a) == detection_to_dict(b)

    def test_truncated_model_file_is_corrupt_error(self, mini, tmp_path):
        path = tmp_path / "bundle"
        save_models(mini.bundle, path)
        crf_path = path / "crf.json"
        crf_path.write_text(crf_path.read_text()[: 100])
        with pytest.raises(DataError, match="corrupt"):
            load_models(path)

    def test_catalog_mismatch_names_both_versions(self, mini, tmp_path):
        path = tmp_path / "bundle"
        save_models(mini.bundle, path)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["feature_catalog_version"] = "stale-v0"
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(VersionMismatchError) as exc:
            load_models(path)
        assert "stale-v0" in str(exc.value)
        assert "node26-group309-v1" in str(exc.value)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="manifest"):
            load_models(tmp_path / "nothing")

    def test_manifest_records_training(self, mini, tmp_path):
        path = tmp_path / "bundle"
        save_models(mini.bundle, path)
        training = json.loads((path / "manifest.json").read_text())["training"]
        assert set(training["crf"]) == {
            "converged", "n_iters", "final_grad_inf_norm", "final_loss"
        }
        assert training["crf"] == mini.bundle.crf_training
        blocks = build_crf_chains(mini.train_scenes)
        loss, _ = nll_and_gradient(mini.bundle.crf, blocks, l2=mini.bundle.crf.l2)
        assert training["crf"]["final_loss"] == pytest.approx(loss, rel=1e-12)
        for name in ("formation", "angle", "joint"):
            model = getattr(mini.bundle, f"{name}_svm")
            assert training["svm"][name] == {
                "gamma": model.gamma,
                "n_support_vectors": model.n_support_vectors,
            }
        assert load_models(path).crf_training == mini.bundle.crf_training

    def test_manifest_without_training_block_loads(self, mini, tmp_path):
        path = tmp_path / "bundle"
        save_models(mini.bundle, path)
        manifest = json.loads((path / "manifest.json").read_text())
        del manifest["training"]
        (path / "manifest.json").write_text(json.dumps(manifest))
        loaded = load_models(path)
        assert loaded.crf_training is None
        assert loaded.joint_svm.n_support_vectors == mini.bundle.joint_svm.n_support_vectors

    @pytest.mark.parametrize("drop", ["crf", "formation", "angle", "joint"])
    def test_missing_bundle_file_is_data_error(self, mini, tmp_path, drop):
        path = tmp_path / "bundle"
        save_models(mini.bundle, path)
        name = "crf.json" if drop == "crf" else f"svm_{drop}.json"
        (path / name).unlink()
        with pytest.raises(DataError, match=f"has no {name}"):
            load_models(path)

    def test_manifest_files_map_is_ignored(self, mini, tmp_path):
        """Bundles are read from their fixed file names: a `files` map, which
        older manifests carry, is ignored, wherever it points."""
        path = tmp_path / "bundle"
        save_models(mini.bundle, path)
        manifest = json.loads((path / "manifest.json").read_text())
        assert "files" not in manifest
        outside = tmp_path / "elsewhere"
        outside.mkdir()
        (outside / "crf.json").write_text("not json")
        manifest["files"] = {"crf": "../elsewhere/crf.json", "joint": 7}
        (path / "manifest.json").write_text(json.dumps(manifest))
        loaded = load_models(path)
        np.testing.assert_array_equal(loaded.crf.weights, mini.bundle.crf.weights)
