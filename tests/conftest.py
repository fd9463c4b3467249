import numpy as np
import pytest

from fformation.pose import (
    KEYPOINT_NAMES,
    PersonPose,
    Scene,
    SceneTruth,
    left_to_right_permutation,
)


def make_pose(person_id="p", x=100.0, y=200.0, confidence=0.9, overrides=None):
    """A pose with every keypoint at (x, y) unless overridden by name.

    overrides maps keypoint name -> (x, y, confidence).
    """
    overrides = overrides or {}
    rows = [overrides.get(name, (x, y, confidence)) for name in KEYPOINT_NAMES]
    return PersonPose(person_id, np.array(rows, dtype=float))


def make_scene(poses, frame_id="f0", width=640, height=480, truth=None):
    return Scene(frame_id, width, height, tuple(poses), truth)


def ordered(scene):
    """The scene's poses left to right, without its truth: the chain that
    detection and training build for it."""
    poses = tuple(scene.poses[i] for i in left_to_right_permutation(scene))
    return Scene(scene.frame_id, scene.image_width, scene.image_height, poses)


@pytest.fixture
def two_person_scene():
    left = make_pose("a", x=100.0)
    right = make_pose("b", x=400.0)
    return make_scene(
        [left, right], truth=SceneTruth(membership=("G", "G"))
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


class MiniWorld:
    """A small synthetic corpus plus models trained on it, built once."""

    def __init__(self):
        from fformation.experiments import SynthSpec, TrainingConfig, train_bundle
        from fformation.synth import generate_dataset, split_train_test

        self.spec = SynthSpec(count_per_cell=12, seed=2024)
        scenes = generate_dataset(self.spec.configs(), shuffle_seed=2024)
        self.train_scenes, self.test_scenes = split_train_test(scenes, seed=2024)
        self.training = TrainingConfig(crf_max_iters=1500)
        self.bundle = train_bundle(self.train_scenes, self.training, seed=2024)


@pytest.fixture(scope="session")
def mini():
    return MiniWorld()
