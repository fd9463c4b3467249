import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fformation import svm as svm_mod
from fformation.errors import ConvergenceError, DataError, VersionMismatchError
from fformation.svm import (
    GAMMA_GRID,
    GAMMA_SUBSAMPLE,
    SVM_FORMAT_VERSION,
    SvmModel,
    cv_gamma_accuracies,
    decision_matrix,
    deterministic_folds,
    fallback_gamma,
    kkt_violations,
    load_svm,
    pairwise_sq_dists,
    predict_many,
    rbf_gram,
    save_svm,
    select_gamma,
    smo_solve,
    svm_from_dict,
    svm_to_dict,
    train_one_vs_rest,
)


def blobs(rng, n_per=30, sep=4.0, dim=2, noise=0.4):
    X = np.vstack(
        [
            rng.normal(-sep / 2, noise, size=(n_per, dim)),
            rng.normal(sep / 2, noise, size=(n_per, dim)),
        ]
    )
    y = np.array([-1.0] * n_per + [1.0] * n_per)
    return X, y


def decision(sol, K, y):
    """Decision values on the training points of smo_solve's solution on the
    Gram matrix K."""
    return K @ (sol.alpha * y) + sol.bias


def dual_objective(sol, K, y):
    """e'a - 0.5 a'Qa, the dual objective smo_solve maximizes."""
    ay = sol.alpha * y
    return float(sol.alpha.sum() - 0.5 * ay @ K @ ay)


class TestRbfKernel:
    def test_identical_inputs_give_one(self, rng):
        x = rng.normal(size=7)
        assert rbf_gram(x[None], x[None], gamma=0.3)[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_known_value(self):
        # gamma = 0.5 and squared distance 2 evaluate to exp(-1).
        x = np.array([0.0, 0.0])
        z = np.array([1.0, 1.0])
        [[k]] = rbf_gram(x[None], z[None], gamma=0.5)
        assert k == pytest.approx(math.exp(-1), rel=1e-12)
        assert k == pytest.approx(0.36787944117, rel=1e-9)

    def test_symmetric(self, rng):
        X, Z = rng.normal(size=(6, 5)), rng.normal(size=(4, 5))
        np.testing.assert_allclose(
            rbf_gram(X, Z, 0.7), rbf_gram(Z, X, 0.7).T, rtol=1e-15, atol=0
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rbf_gram(np.zeros((1, 3)), np.zeros((1, 4)), 1.0)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_range_is_zero_one(self, seed):
        r = np.random.default_rng(seed)
        X, Z = r.normal(size=(3, 4)), r.normal(size=(2, 4))
        K = rbf_gram(X, Z, gamma=float(r.uniform(0.01, 5.0)))
        assert np.all((K > 0.0) & (K <= 1.0))

    def test_gram_psd_on_random_sets(self, rng):
        # Independent eigensolver check on 50 random small sets.
        for _ in range(50):
            n = int(rng.integers(2, 21))
            X = rng.normal(size=(n, int(rng.integers(1, 6))))
            K = rbf_gram(X, X, gamma=float(rng.uniform(0.05, 2.0)))
            assert np.linalg.eigvalsh(K).min() >= -1e-8

    def test_pairwise_sq_dists_matches_direct(self, rng):
        X = rng.normal(size=(6, 3))
        Z = rng.normal(size=(4, 3))
        d = pairwise_sq_dists(X, Z)
        for i in range(6):
            for j in range(4):
                assert d[i, j] == pytest.approx(np.sum((X[i] - Z[j]) ** 2), rel=1e-9)


class TestSmo:
    def test_two_point_problem(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0]])
        y = np.array([1.0, -1.0])
        K = rbf_gram(X, X, 1.0)
        sol = smo_solve(K, y, C=1000.0, tol=1e-6)
        assert np.all(sol.alpha > 0)  # both are support vectors
        d = decision(sol, K, y)
        assert d[0] > 0 > d[1]
        assert d[0] == pytest.approx(1.0, abs=1e-5)
        assert d[1] == pytest.approx(-1.0, abs=1e-5)

    def test_separable_blobs_train_perfectly(self, rng):
        X, y = blobs(rng)
        K = rbf_gram(X, X, 0.5)
        sol = smo_solve(K, y, C=10.0, tol=1e-3)
        assert np.all(np.sign(decision(sol, K, y)) == y)

    def test_dual_constraints_hold(self, rng):
        X, y = blobs(rng)
        sol = smo_solve(rbf_gram(X, X, 0.5), y, C=10.0, tol=1e-3)
        assert np.all(sol.alpha >= 0.0)
        assert np.all(sol.alpha <= 10.0)
        assert abs(float(sol.alpha @ y)) <= 1e-3

    def test_kkt_violations_within_tol(self, rng):
        X, y = blobs(rng, noise=0.9)  # some overlap so both box edges occur
        tol = 1e-3
        K = rbf_gram(X, X, 0.5)
        sol = smo_solve(K, y, C=10.0, tol=tol)
        margins = y * decision(sol, K, y)
        assert kkt_violations(sol.alpha, margins, 10.0).max() <= tol

    def test_dual_objective_non_decreasing_as_tol_shrinks(self, rng):
        # Each SMO step raises the dual objective, and tol only decides
        # where the one deterministic path of steps stops.
        X, y = blobs(rng, noise=1.0)
        K = rbf_gram(X, X, 0.3)
        sols = [smo_solve(K, y, C=5.0, tol=tol) for tol in np.geomspace(1.0, 1e-4, 9)]
        iters = [sol.iterations for sol in sols]
        objectives = [dual_objective(sol, K, y) for sol in sols]
        assert iters == sorted(iters) and iters[0] < iters[-1]
        assert np.all(np.diff(objectives) >= -1e-12)

    def test_single_class_rejected(self, rng):
        X = rng.normal(size=(10, 2))
        with pytest.raises(ValueError, match="both classes"):
            smo_solve(rbf_gram(X, X, 1.0), np.ones(10), C=1.0, tol=1e-3)

    def test_gram_of_another_size_rejected(self, rng):
        X, y = blobs(rng, n_per=5)
        with pytest.raises(ValueError, match="shape"):
            smo_solve(rbf_gram(X[:-1], X[:-1], 1.0), y, C=1.0, tol=1e-3)

    @pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan])
    def test_bad_tol_rejected_up_front(self, rng, tol):
        X, y = blobs(rng, n_per=5)
        with pytest.raises(ValueError, match="positive and finite"):
            smo_solve(rbf_gram(X, X, 1.0), y, C=1.0, tol=tol)

    def test_iteration_cap_raises_with_violation_report(self, rng, monkeypatch):
        X, y = blobs(rng)
        monkeypatch.setattr(svm_mod, "SMO_MAX_ITER", 2)
        with pytest.raises(ConvergenceError, match="in 2 iterations.*violation"):
            smo_solve(rbf_gram(X, X, 0.5), y, C=10.0, tol=1e-9)

    def test_duplicate_features_terminate(self):
        X = np.zeros((8, 3))
        y = np.array([1.0, -1.0] * 4)
        K = rbf_gram(X, X, 1.0)
        sol = smo_solve(K, y, C=2.0, tol=1e-3)
        assert np.all(np.isfinite(decision(sol, K, y)))

    def test_only_positive_alphas_stored(self, rng):
        X, y = blobs(rng, sep=6.0, noise=0.2)
        labels = np.where(y > 0, "pos", "neg")
        model = train_one_vs_rest(X, labels, ("neg", "pos"), C=10.0, gamma=0.5)
        K = rbf_gram(X, X, 0.5)
        alphas = [
            smo_solve(K, np.where(labels == c, 1.0, -1.0), C=10.0, tol=1e-3).alpha
            for c in model.classes
        ]
        stored = (alphas[0] > 0) | (alphas[1] > 0)
        assert model.n_support_vectors == int(stored.sum())
        assert np.array_equal(model.support_vectors, X[stored])


def smo_rebuilt_working_set(K, y, C, tol):
    """The SMO loop that rebuilds the I_up/I_low masks and the masked v
    arrays from every alpha at each step: smo_solve's reference, which must
    match it bit for bit."""
    y = np.asarray(y, dtype=float)
    alpha = np.zeros(len(y))
    v = y.copy()
    pos = y > 0
    it = 0
    while True:
        up = (pos & (alpha < C)) | (~pos & (alpha > 0))
        low = (~pos & (alpha < C)) | (pos & (alpha > 0))
        v_up = np.where(up, v, -np.inf)
        v_low = np.where(low, v, np.inf)
        i = int(np.argmax(v_up))
        j = int(np.argmin(v_low))
        gap = v_up[i] - v_low[j]
        if gap <= tol:
            break
        if it >= svm_mod.SMO_MAX_ITER:
            raise ConvergenceError(
                f"SMO did not reach tol={tol} in {svm_mod.SMO_MAX_ITER} iterations "
                f"(KKT violation {gap:.3e})"
            )
        quad = max(K[i, i] + K[j, j] - 2.0 * K[i, j], 1e-12)
        cap_i = C - alpha[i] if pos[i] else alpha[i]
        cap_j = alpha[j] if pos[j] else C - alpha[j]
        t = min(gap / quad, cap_i, cap_j)
        alpha[i] += y[i] * t
        alpha[j] -= y[j] * t
        alpha[i] = min(max(alpha[i], 0.0), C)
        alpha[j] = min(max(alpha[j], 0.0), C)
        v += t * (K[j] - K[i])
        it += 1
    return alpha, float((v_up[i] + v_low[j]) / 2.0), float(gap), it


class TestIncrementalWorkingSet:
    """smo_solve keeps its masked working-set arrays incrementally; the
    rebuilt-every-step loop above is the reference."""

    @pytest.mark.parametrize(
        "seed, n_per, C, gamma",
        [(0, 20, 0.3, 0.5), (1, 40, 1.0, 0.2), (2, 60, 0.5, 2.0), (3, 35, 3.0, 1.0)],
    )
    def test_bit_identical_to_rebuilt_working_set(self, seed, n_per, C, gamma):
        # Overlapping classes under a small C leave alphas at both 0 and C.
        X, y = blobs(np.random.default_rng(seed), n_per=n_per, sep=1.5, dim=3, noise=1.0)
        K = rbf_gram(X, X, gamma)
        sol = smo_solve(K, y, C, 1e-3)
        alpha, bias, gap, iterations = smo_rebuilt_working_set(K, y, C, 1e-3)
        assert (sol.alpha == 0).any() and (sol.alpha == C).any()
        np.testing.assert_array_equal(sol.alpha, alpha)
        assert sol.bias == bias
        assert sol.kkt_gap == gap
        assert sol.iterations == iterations

    def test_iteration_cap_raises_the_same_error(self, rng, monkeypatch):
        X, y = blobs(rng, sep=1.5, noise=1.0)
        K = rbf_gram(X, X, 0.5)
        monkeypatch.setattr(svm_mod, "SMO_MAX_ITER", 7)
        with pytest.raises(ConvergenceError) as ref:
            smo_rebuilt_working_set(K, y, 0.3, 1e-9)
        with pytest.raises(ConvergenceError) as got:
            smo_solve(K, y, 0.3, 1e-9)
        assert str(got.value) == str(ref.value)
        assert "in 7 iterations" in str(got.value)


class TestOneVsRest:
    def _toy_multiclass(self, rng):
        centers = {"a": (-4.0, 0.0), "b": (4.0, 0.0), "c": (0.0, 4.0)}
        X, y = [], []
        for cls, c in centers.items():
            X.append(rng.normal(c, 0.4, size=(25, 2)))
            y.extend([cls] * 25)
        return np.vstack(X), np.array(y)

    def test_predicts_training_exemplars(self, rng):
        X, y = self._toy_multiclass(rng)
        model = train_one_vs_rest(X, y, ("a", "b", "c"), C=10.0, gamma=0.5)
        [(cls, scores)] = predict_many(model, X[:1])
        assert cls == "a"
        assert len(scores) == 3
        assert set(scores) == {"a", "b", "c"}

    def test_exact_tie_takes_earlier_class(self):
        # Both classes carry the same coefficient on the same support vector.
        model = SvmModel(
            classes=("first", "second"),
            support_vectors=np.array([[0.0, 0.0]]),
            dual_coef=np.array([[1.0, 1.0]]),
            bias=np.zeros(2),
            C=1.0,
            gamma=1.0,
        )
        [(cls, scores)] = predict_many(model, np.array([[0.3, 0.4]]))
        assert cls == "first"
        assert scores["first"] == scores["second"]

    def test_missing_class_rejected(self, rng):
        X, y = self._toy_multiclass(rng)
        with pytest.raises(ValueError, match="absent"):
            train_one_vs_rest(X, y, ("a", "b", "c", "d"), gamma=0.5)

    @pytest.mark.parametrize(
        "C, gamma, tol",
        [
            (0.0, 1.0, 1e-3),
            (-1.0, 1.0, 1e-3),
            (math.nan, 1.0, 1e-3),
            (math.inf, 1.0, 1e-3),
            (1.0, 0.0, 1e-3),
            (1.0, math.nan, 1e-3),
            (1.0, math.inf, 1e-3),
            (1.0, 1.0, 0.0),
            (1.0, 1.0, -1e-3),
            (1.0, 1.0, math.nan),
        ],
    )
    def test_bad_c_gamma_or_tol_rejected(self, rng, C, gamma, tol):
        X, y = self._toy_multiclass(rng)
        with pytest.raises(ValueError, match="positive and finite"):
            train_one_vs_rest(X, y, ("a", "b", "c"), C=C, gamma=gamma, tol=tol)

    def test_prediction_invariant_to_sv_storage_order(self, rng):
        X, y = self._toy_multiclass(rng)
        model = train_one_vs_rest(X, y, ("a", "b", "c"), C=10.0, gamma=0.5)
        order = rng.permutation(model.n_support_vectors)
        shuffled = SvmModel(
            classes=model.classes,
            support_vectors=model.support_vectors[order],
            dual_coef=model.dual_coef[order],
            bias=model.bias,
            C=model.C,
            gamma=model.gamma,
        )
        Q = rng.normal(size=(20, 2))
        np.testing.assert_allclose(
            decision_matrix(model, Q), decision_matrix(shuffled, Q), atol=1e-10
        )
        assert [c for c, _ in predict_many(model, Q)] == [
            c for c, _ in predict_many(shuffled, Q)
        ]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="do not fit"):
            SvmModel(
                classes=("a", "b"),
                support_vectors=np.zeros((3, 2)),
                dual_coef=np.zeros((3, 3)),
                bias=np.zeros(2),
                C=1.0,
                gamma=1.0,
            )


@pytest.fixture(scope="module")
def ovr28():
    """28 classes of 6 points each around distinct centres in 4-D, with each
    class's SMO solution re-run independently as the reference."""
    rng = np.random.default_rng(2828)
    classes = tuple(f"c{k:02d}" for k in range(28))
    centres = rng.normal(0.0, 2.0, size=(28, 4))
    X = np.vstack([rng.normal(c, 0.6, size=(6, 4)) for c in centres])
    labels = np.repeat(np.array(classes), 6)
    gamma, C, tol = 0.5, 10.0, 1e-3
    model = train_one_vs_rest(X, labels, classes, C=C, gamma=gamma, tol=tol)
    K = rbf_gram(X, X, gamma)
    solutions = []
    for cls in classes:
        y = np.where(labels == cls, 1.0, -1.0)
        solutions.append((y, smo_solve(K, y, C, tol)))
    return X, model, solutions


class TestSharedSupportVectors:
    def test_decisions_match_per_class_reference(self, ovr28, rng):
        X, model, solutions = ovr28
        Q = np.vstack([X[::7], rng.normal(0.0, 2.0, size=(20, 4))])
        K = rbf_gram(Q, X, model.gamma)
        ref = np.column_stack(
            [K @ (sol.alpha * y) + sol.bias for y, sol in solutions]
        )
        got = decision_matrix(model, Q)
        assert np.max(np.abs(got - ref)) <= 1e-12
        np.testing.assert_array_equal(np.argmax(got, axis=1), np.argmax(ref, axis=1))

    def test_stored_rows_are_the_union_of_class_support_vectors(self, ovr28):
        X, model, solutions = ovr28
        any_sv = np.any([sol.alpha > 0 for _, sol in solutions], axis=0)
        assert model.n_support_vectors == int(any_sv.sum())
        np.testing.assert_array_equal(model.support_vectors, X[any_sv])
        per_class = sum(int(np.sum(sol.alpha > 0)) for _, sol in solutions)
        assert model.n_support_vectors < per_class
        for c, (y, sol) in enumerate(solutions):
            np.testing.assert_array_equal(
                model.dual_coef[:, c], (sol.alpha * y)[any_sv]
            )


class TestSelectGamma:
    def test_returns_grid_member(self, rng):
        X, y = blobs(rng, n_per=20)
        labels = np.where(y > 0, "pos", "neg")
        gamma = select_gamma(X, labels, seed=3)
        assert gamma in GAMMA_GRID

    def test_fallback_on_infeasible_folds_uses_variance_floor(self):
        # 9 'a' + 1 'b': the fold holding the only 'b' cannot be trained on,
        # and identical rows drive the variance to the floor.
        X = np.ones((10, 4))
        labels = np.array(["a"] * 9 + ["b"])
        gamma = select_gamma(X, labels, seed=0)
        assert gamma == pytest.approx(fallback_gamma(X))
        assert gamma == pytest.approx(1.0 / (4 * 1e-8))

    def test_too_few_samples_is_data_error(self, rng):
        X = rng.normal(size=(9, 2))
        labels = np.array(["a", "b"] * 4 + ["a"])
        with pytest.raises(DataError, match="at least 10 samples, got 9"):
            select_gamma(X, labels)

    def test_single_class_rejected(self, rng):
        X = rng.normal(size=(12, 2))
        with pytest.raises(ValueError, match="two classes"):
            select_gamma(X, np.array(["a"] * 12))

    def test_grid_replay_oracle(self, rng):
        # Recompute every grid point's CV accuracy with the same folds, one
        # train_one_vs_rest per fold, and check the returned gamma is the
        # first that attains the maximum.
        X, y = blobs(rng, n_per=15, sep=2.0, noise=0.8)
        labels = np.where(y > 0, "pos", "neg")
        chosen = select_gamma(X, labels, seed=5)
        folds = deterministic_folds(labels, seed=5)
        classes = tuple(sorted(set(labels.tolist())))
        replay = []
        for g in GAMMA_GRID:
            accs = []
            for train_idx, test_idx in folds:
                model = train_one_vs_rest(X[train_idx], labels[train_idx], classes, gamma=g)
                pred = [c for c, _ in predict_many(model, X[test_idx])]
                accs.append(np.mean(np.array(pred) == labels[test_idx]))
            replay.append(np.mean(accs))
        np.testing.assert_allclose(
            cv_gamma_accuracies(X, labels, classes, folds), replay, atol=1e-12
        )
        assert chosen == GAMMA_GRID[int(np.argmax(replay))]

    def test_more_rows_than_the_cap_select_on_the_seeded_subsample(
        self, rng, monkeypatch
    ):
        X, y = blobs(rng, n_per=350, sep=6.0, noise=0.5)
        labels = np.where(y > 0, "pos", "neg")
        idx = np.sort(
            np.random.default_rng(4).choice(700, size=GAMMA_SUBSAMPLE, replace=False)
        )
        seen = []
        search = svm_mod.cv_gamma_accuracies

        def spy(X, labels, *args, **kwargs):
            seen.append((X, labels))
            return search(X, labels, *args, **kwargs)

        monkeypatch.setattr(svm_mod, "cv_gamma_accuracies", spy)
        assert select_gamma(X, labels, seed=4) == select_gamma(X[idx], labels[idx], seed=4)
        (X_full, labels_full), (X_sub, labels_sub) = seen
        np.testing.assert_array_equal(X_full, X_sub)
        np.testing.assert_array_equal(labels_full, labels_sub)

    def test_folds_deterministic_and_stratified(self):
        labels = np.array(["a"] * 10 + ["b"] * 5)
        f1 = deterministic_folds(labels, seed=9)
        f2 = deterministic_folds(labels, seed=9)
        for (train_a, test_a), (train_b, test_b) in zip(f1, f2):
            np.testing.assert_array_equal(train_a, train_b)
            np.testing.assert_array_equal(test_a, test_b)
        for train_idx, test_idx in f1:
            assert np.sum(labels[test_idx] == "a") == 2
            assert np.sum(labels[test_idx] == "b") == 1
            np.testing.assert_array_equal(
                np.sort(np.concatenate([train_idx, test_idx])), np.arange(15)
            )


class TestSerialization:
    def test_round_trip_preserves_decisions_exactly(self, rng, tmp_path):
        X, y = blobs(rng)
        labels = np.where(y > 0, "pos", "neg")
        model = train_one_vs_rest(X, labels, ("neg", "pos"), gamma=0.5)
        path = tmp_path / "svm.json"
        save_svm(model, path)
        loaded = load_svm(path)
        Q = rng.normal(size=(10, 2))
        np.testing.assert_array_equal(
            decision_matrix(model, Q), decision_matrix(loaded, Q)
        )

    def test_dict_round_trip(self, rng):
        X, y = blobs(rng, n_per=10)
        labels = np.where(y > 0, "pos", "neg")
        model = train_one_vs_rest(X, labels, ("neg", "pos"), gamma=0.5)
        again = svm_from_dict(svm_to_dict(model))
        assert again.classes == model.classes
        assert (again.C, again.gamma) == (model.C, model.gamma)
        np.testing.assert_array_equal(again.support_vectors, model.support_vectors)
        np.testing.assert_array_equal(again.dual_coef, model.dual_coef)
        np.testing.assert_array_equal(again.bias, model.bias)

    def test_version_1_file_rejected(self, tmp_path):
        import json

        doc = {
            "format_version": 1,
            "kind": "svm-ovr",
            "feature_catalog_version": "any",
            "classes": ["neg", "pos"],
            "binaries": [
                {
                    "gamma": 0.5,
                    "C": 10.0,
                    "bias": 0.0,
                    "dual_coefs": [1.0],
                    "support_vectors": [[0.0, 0.0]],
                }
            ]
            * 2,
        }
        path = tmp_path / "svm_v1.json"
        path.write_text(json.dumps(doc))
        assert SVM_FORMAT_VERSION == 2
        with pytest.raises(DataError, match="format_version 1"):
            load_svm(path)

    def test_inconsistent_shapes_raise_data_error(self, rng):
        X, y = blobs(rng, n_per=5)
        labels = np.where(y > 0, "pos", "neg")
        doc = svm_to_dict(train_one_vs_rest(X, labels, ("neg", "pos"), gamma=0.5))
        doc["bias"] = [0.0]
        with pytest.raises(DataError, match="malformed"):
            svm_from_dict(doc)

    def test_non_finite_or_negative_values_raise_data_error(self, rng):
        X, y = blobs(rng, n_per=5)
        labels = np.where(y > 0, "pos", "neg")
        doc = svm_to_dict(train_one_vs_rest(X, labels, ("neg", "pos"), gamma=0.5))
        bad_coef = dict(doc, dual_coefs=[[float("nan")] * 2] + doc["dual_coefs"][1:])
        bad_gamma = dict(doc, gamma=-0.5)
        for bad in (bad_coef, bad_gamma):
            with pytest.raises(DataError, match="finite"):
                svm_from_dict(bad)

    def test_corrupt_file_raises_data_error(self, tmp_path):
        path = tmp_path / "svm.json"
        path.write_text('{"format_version": 1, "kind": "svm-ovr"')
        with pytest.raises(DataError, match="corrupt"):
            load_svm(path)

    def test_stale_catalog_rejected_at_load(self, rng, tmp_path):
        import json

        X, y = blobs(rng, n_per=5)
        labels = np.where(y > 0, "pos", "neg")
        doc = svm_to_dict(train_one_vs_rest(X, labels, ("neg", "pos"), gamma=0.5))
        doc["feature_catalog_version"] = "stale-v0"
        path = tmp_path / "svm.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(VersionMismatchError):
            load_svm(path)
