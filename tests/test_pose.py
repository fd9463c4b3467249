import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fformation.errors import DataError
from fformation.pose import (
    KEYPOINT_INDEX,
    KEYPOINT_NAMES,
    MAX_COORDINATE,
    ConfidenceBin,
    PersonPose,
    Scene,
    SceneTruth,
    bin_confidence,
    convert_ego_group,
    left_to_right_permutation,
    parse_scenes,
    scene_to_dict,
    write_scenes,
)

from conftest import make_pose, make_scene


class TestBinConfidence:
    @pytest.mark.parametrize(
        "c,expected",
        [
            (0.30, ConfidenceBin.MEDIUM),
            (0.00, ConfidenceBin.LOW),
            (0.25, ConfidenceBin.MEDIUM),
            (0.50, ConfidenceBin.HIGH),
            (0.75, ConfidenceBin.VERY_HIGH),
            (1.00, ConfidenceBin.VERY_HIGH),
            (0.2499999, ConfidenceBin.LOW),
        ],
    )
    def test_bins(self, c, expected):
        assert bin_confidence(c) is expected

    @pytest.mark.parametrize("c", [-0.01, 1.01, 2.0])
    def test_out_of_range(self, c):
        with pytest.raises(ValueError):
            bin_confidence(c)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_total_on_unit_interval(self, c):
        assert bin_confidence(c) in ConfidenceBin

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert bin_confidence(lo) <= bin_confidence(hi)


def one_pose_line(keypoints):
    """A Scene JSONL line holding one pose with these (name, x, y, confidence)."""
    kps = [{"name": n, "x": x, "y": y, "confidence": c} for n, x, y, c in keypoints]
    doc = {
        "frame_id": "f",
        "image_width": 640,
        "image_height": 480,
        "poses": [{"person_id": "p", "keypoints": kps}],
    }
    return io.StringIO(json.dumps(doc) + "\n")


class TestTypes:
    def test_pose_requires_all_17(self):
        kps = [(n, 0.0, 0.0, 0.5) for n in KEYPOINT_NAMES[:-1]]
        with pytest.raises(DataError, match="exactly once"):
            parse_scenes(one_pose_line(kps))

    def test_pose_rejects_duplicates(self):
        kps = [(n, 0.0, 0.0, 0.5) for n in KEYPOINT_NAMES[:-1]]
        kps.append(("nose", 1.0, 1.0, 0.5))
        with pytest.raises(DataError, match="exactly once"):
            parse_scenes(one_pose_line(kps))

    def test_pose_normalizes_keypoint_order(self):
        names = reversed(KEYPOINT_NAMES)
        shuffled = [(n, float(i), 0.0, 0.5) for i, n in enumerate(names)]
        [scene] = parse_scenes(one_pose_line(shuffled))
        assert scene.poses[0].points[:, 0].tolist() == [16.0 - i for i in range(17)]

    def test_scene_membership_length_mismatch(self):
        with pytest.raises(ValueError, match="membership"):
            make_scene([make_pose()], truth=SceneTruth(membership=("G", "O")))

    def test_scene_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            Scene("f", 0, 480, (make_pose(),))


class TestPoseArray:
    def test_points_are_a_read_only_copy(self):
        rows = np.full((17, 3), 0.5)
        pose = PersonPose("p", rows)
        rows[0, 0] = 99.0
        assert pose.points[0, 0] == 0.5
        with pytest.raises(ValueError):
            pose.points[0, 0] = 1.0

    def test_value_equality(self):
        a = make_pose("p", x=10.0)
        assert a == PersonPose("p", a.points.copy())
        assert a != make_pose("q", x=10.0)
        assert a != make_pose("p", x=10.5)
        assert len({a, PersonPose("p", a.points.copy())}) == 1

    @pytest.mark.parametrize(
        "row,value,match",
        [
            (5, (float("nan"), 0.0, 0.5), "leftShoulder"),
            (3, (0.0, np.nextafter(-MAX_COORDINATE, -np.inf), 0.5), "leftEar"),
            (16, (0.0, 0.0, 1.5), "rightAnkle"),
        ],
    )
    def test_rejects_bad_row_naming_its_keypoint(self, row, value, match):
        rows = np.full((17, 3), 0.5)
        rows[row] = value
        with pytest.raises(ValueError, match=match):
            PersonPose("p", rows)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="17 keypoint rows"):
            PersonPose("p", np.zeros((16, 3)))

    def test_parsed_keypoints_in_any_order_land_in_canonical_rows(self, two_person_scene):
        doc = scene_to_dict(two_person_scene)
        doc["poses"][0]["keypoints"].reverse()
        [scene] = parse_scenes(io.StringIO(json.dumps(doc) + "\n"))
        assert scene == two_person_scene

    def test_anchor_is_computed_with_the_pose(self):
        pose = make_pose("p", x=40.0, overrides={"nose": (400.0, 0.0, 0.9)})
        assert pose.anchor == (40.0 * 16 + 400.0) / 17


class TestOrdering:
    def test_two_poses_sorted_by_anchor(self):
        scene = make_scene([make_pose("right", x=400.0), make_pose("left", x=100.0)])
        perm = left_to_right_permutation(scene)
        assert [scene.poses[i].person_id for i in perm] == ["left", "right"]

    def test_equal_anchors_keep_input_order(self):
        scene = make_scene([make_pose("first", x=50.0), make_pose("second", x=50.0)])
        assert left_to_right_permutation(scene) == [0, 1]

    def test_empty_scene_has_empty_permutation(self):
        assert left_to_right_permutation(make_scene([])) == []

    def test_matches_brute_force_anchor_sort(self, rng):
        # Independent oracle: compute each pose's anchor by hand (mean of
        # confident x, else mean of all) and stable-sort.
        poses = []
        for i in range(5):
            overrides = {
                name: (float(rng.uniform(0, 640)), 100.0, float(rng.uniform(0, 1)))
                for name in KEYPOINT_NAMES
            }
            poses.append(make_pose(f"p{i}", overrides=overrides))
        scene = make_scene(poses)

        expected = []
        for pose in poses:
            xs = np.array([x for x, _, _ in pose.points.tolist()])
            conf = np.array([c for _, _, c in pose.points.tolist()])
            sel = xs[conf >= 0.5]
            expected.append(sel.mean() if len(sel) else xs.mean())
        want = [poses[i].person_id for i in np.argsort(expected, kind="stable")]

        perm = left_to_right_permutation(scene)
        assert [poses[i].person_id for i in perm] == want

    def test_anchor_falls_back_to_all_keypoints(self):
        pose = make_pose("low", x=250.0, confidence=0.1)
        assert pose.anchor == pytest.approx(250.0)

    def test_permutation_helper_matches(self):
        scene = make_scene([make_pose("b", x=300.0), make_pose("a", x=10.0)])
        assert left_to_right_permutation(scene) == [1, 0]


class TestSceneJsonl:
    def test_empty_stream(self):
        assert parse_scenes(io.StringIO("")) == []

    def test_single_valid_line(self, two_person_scene):
        buf = io.StringIO()
        write_scenes([two_person_scene], buf)
        scenes = parse_scenes(io.StringIO(buf.getvalue()))
        assert len(scenes) == 1
        assert scenes[0].poses[0].points.shape == (17, 3)

    def test_round_trip_bit_exact(self, rng):
        scenes = []
        for i in range(5):
            poses = [
                make_pose(
                    f"p{j}",
                    overrides={
                        n: (
                            float(rng.uniform(-10, 650)),
                            float(rng.uniform(-10, 490)),
                            float(rng.uniform(0, 1)),
                        )
                        for n in KEYPOINT_NAMES
                    },
                )
                for j in range(rng.integers(1, 4))
            ]
            truth = SceneTruth(
                membership=tuple(
                    "G" if rng.integers(0, 2) else "O" for _ in poses
                ),
                formation="L-shaped" if i % 2 else None,
                angle_deg=60 if i % 2 else None,
            )
            scenes.append(make_scene(poses, frame_id=f"fr{i}", truth=truth))
        buf = io.StringIO()
        write_scenes(scenes, buf)
        parsed = parse_scenes(io.StringIO(buf.getvalue()))
        assert parsed == scenes
        # serialize again: byte-identical
        buf2 = io.StringIO()
        write_scenes(parsed, buf2)
        assert buf.getvalue() == buf2.getvalue()

    def test_bytes_stream_accepted(self, two_person_scene):
        buf = io.StringIO()
        write_scenes([two_person_scene], buf)
        parsed = parse_scenes(io.BytesIO(buf.getvalue().encode("utf-8")))
        assert parsed == [two_person_scene]

    def test_malformed_line_carries_lineno(self, two_person_scene):
        buf = io.StringIO()
        write_scenes([two_person_scene], buf)
        text = buf.getvalue() + "{not json\n"
        with pytest.raises(DataError, match="line 2") as exc:
            parse_scenes(io.StringIO(text))
        assert exc.value.lineno == 2

    def test_missing_keypoint_is_validation_error(self, two_person_scene):
        doc = scene_to_dict(two_person_scene)
        del doc["poses"][0]["keypoints"][0]
        with pytest.raises(DataError, match="line 1"):
            parse_scenes(io.StringIO(json.dumps(doc) + "\n"))

    def test_unknown_fields_ignored(self, two_person_scene):
        doc = scene_to_dict(two_person_scene)
        doc["extra"] = {"anything": 1}
        doc["poses"][0]["bbox"] = [1, 2, 3, 4]
        [scene] = parse_scenes(io.StringIO(json.dumps(doc) + "\n"))
        assert scene == two_person_scene

    @pytest.mark.parametrize(
        "field, value",
        [
            ("angle_deg", False),  # False == 0 would pass as the 0 class
            ("membership", "GG"),  # two labels, one per character
            ("image_width", True),  # a 1-pixel-wide image
            ("image_width", "640"),
            ("image_width", 640.7),  # would be truncated to 640
            ("x", "12.5"),
            ("confidence", True),  # would be confidence 1.0
        ],
    )
    def test_json_booleans_and_strings_rejected_naming_the_line(
        self, two_person_scene, field, value
    ):
        doc = scene_to_dict(two_person_scene)
        owner = {"angle_deg": doc["truth"], "membership": doc["truth"], "image_width": doc}
        owner.get(field, doc["poses"][1]["keypoints"][3])[field] = value
        text = json.dumps(scene_to_dict(two_person_scene)) + "\n" + json.dumps(doc) + "\n"
        with pytest.raises(DataError, match="line 2") as exc:
            parse_scenes(io.StringIO(text))
        assert exc.value.lineno == 2

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_round_trip_property(self, seed):
        r = np.random.default_rng(seed)
        poses = [
            make_pose(
                "p0",
                x=float(np.round(r.uniform(0, 640), 6)),
                y=float(np.round(r.uniform(0, 480), 6)),
                confidence=float(np.round(r.uniform(0, 1), 6)),
            )
        ]
        scene = make_scene(poses)
        buf = io.StringIO()
        write_scenes([scene], buf)
        assert parse_scenes(io.StringIO(buf.getvalue())) == [scene]


class TestEgoGroupAdapter:
    def _doc(self):
        return {
            "frames": [
                {
                    "frame": "000010",
                    "width": 1280,
                    "height": 720,
                    "people": [
                        {"id": "a", "keypoints": {"nose": [10, 20, 0.9]}},
                        {"id": "b", "keypoints": {"nose": [500, 20, 0.8]}},
                        {"id": "c", "keypoints": {}},
                    ],
                    "groups": [["a", "b"]],
                }
            ]
        }

    def test_membership_from_groups(self):
        [scene] = convert_ego_group(self._doc())
        assert scene.truth.membership == ("G", "G", "O")
        assert scene.frame_id == "000010"
        assert scene.image_width == 1280

    def test_missing_keypoints_become_zero_confidence(self):
        [scene] = convert_ego_group(self._doc())
        pose_a = scene.poses[0]
        assert pose_a.points[KEYPOINT_INDEX["nose"]].tolist() == [10.0, 20.0, 0.9]
        assert pose_a.points[KEYPOINT_INDEX["leftAnkle"]].tolist() == [0.0, 0.0, 0.0]

    def test_formation_unknown(self):
        [scene] = convert_ego_group(self._doc())
        assert scene.truth.formation is None
        assert scene.truth.angle_deg is None

    @pytest.mark.parametrize(
        "field, value",
        [
            ("nose", "101"),  # was read as (1, 0, 1)
            ("nose", [1, "2", True]),  # was read as (1, 2, 1)
            ("nose", [1, 2]),
            ("nose", [1e200, 20, 0.8]),  # beyond MAX_COORDINATE
            ("width", "1280"),
            ("width", 1280.5),
            ("width", True),
        ],
    )
    def test_values_not_numbers_rejected_naming_the_frame(self, field, value):
        doc = self._doc()
        frame = doc["frames"][0]
        (frame if field == "width" else frame["people"][1]["keypoints"])[field] = value
        with pytest.raises(DataError, match="frame 0"):
            convert_ego_group(doc)

    def test_malformed_frame(self):
        with pytest.raises(DataError, match="frame 0"):
            convert_ego_group({"frames": [{"frame": "x"}]})

    def test_round_trips_through_jsonl(self):
        scenes = convert_ego_group(self._doc())
        buf = io.StringIO()
        write_scenes(scenes, buf)
        assert parse_scenes(io.StringIO(buf.getvalue())) == scenes
