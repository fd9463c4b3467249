import itertools
import json
import math

import numpy as np
import pytest

from fformation.crf import (
    ChainInstance,
    CrfModel,
    CrfTrainConfig,
    _batched_objective,
    _forward_backward,
    _posteriors,
    crf_from_dict,
    crf_to_dict,
    decode_batch,
    indices_to_labels,
    labels_to_indices,
    load_crf,
    log_potentials,
    nll_and_gradient,
    save_crf,
    sequence_score,
    train,
    weight_dim,
)
from fformation.errors import DataError, VersionMismatchError
from fformation.features import F_NODE, FEATURE_CATALOG_VERSION

F = 5  # small synthetic feature dimension for oracle tests


def logsumexp(a, axis=None):
    """log(sum(exp(a))) along `axis` (all of `a` if None), overflow-free:
    the oracles' log-sum, written apart from the CRF's np.logaddexp."""
    a = np.asarray(a, dtype=float)
    top = np.max(a, axis=axis, keepdims=True)
    total = top + np.log(np.sum(np.exp(a - top), axis=axis, keepdims=True))
    return np.squeeze(total, axis=axis)


def random_instance(rng, n=None):
    n = n if n is not None else int(rng.integers(1, 9))
    return ChainInstance(rng.normal(size=(n, F)))


def random_blocks(rng, lengths, size=None):
    """One training block per length in `lengths`: `size` chains (random
    1-5 if None) of random features and labels, as crf.train takes them."""
    blocks = []
    for n in lengths:
        shape = (size if size is not None else int(rng.integers(1, 6)), int(n))
        blocks.append((rng.normal(size=(*shape, F)), rng.integers(0, 2, size=shape)))
    return blocks


def random_model(rng, scale=1.0):
    return CrfModel(scale * rng.normal(size=weight_dim(F)))


def posteriors(model, chain):
    """Node marginals (n, 2), edge marginals (n-1, 2, 2) and log Z of one
    chain, as a one-chain batch of the kernel decoding and training run."""
    node, trans = log_potentials(model, chain)
    node_marg, edge_marg, log_z = _posteriors(node[None], trans)
    return node_marg[0], edge_marg[0], float(log_z[0])


def decode(model, chain):
    """Viterbi label indices (n,) of one chain: a one-chain decode_batch."""
    labels, _ = decode_batch(model, chain.features[None])
    return labels[0]


def brute_force(model, chain):
    """Enumerate all 2^n labelings: log Z, node/edge marginals, best labeling.

    Ties in the argmax resolve to the lexicographically smallest labeling
    (G = 0 sorts first), matching the stated decoder tie-break.
    """
    node, trans = log_potentials(model, chain)
    n = len(chain.features)
    scores = {}
    for labels in itertools.product([0, 1], repeat=n):
        scores[labels] = sequence_score(node, trans, np.array(labels))
    log_z = logsumexp(list(scores.values()))
    node_marg = np.zeros((n, 2))
    edge_marg = np.zeros((max(n - 1, 0), 2, 2))
    for labels, s in scores.items():
        p = math.exp(s - log_z)
        for i, l in enumerate(labels):
            node_marg[i, l] += p
        for i in range(n - 1):
            edge_marg[i, labels[i], labels[i + 1]] += p
    best_score = max(scores.values())
    best = min(l for l, s in scores.items() if s == best_score)
    return log_z, node_marg, edge_marg, best


class TestLogPotentials:
    def test_zero_weights_give_zero_scores(self):
        model = CrfModel(np.zeros(weight_dim(F)))
        chain = ChainInstance(np.ones((3, F)))
        node, trans = log_potentials(model, chain)
        assert not node.any() and not trans.any()

    def test_single_node_score_is_dot_product(self, rng):
        model = random_model(rng)
        x = rng.normal(size=(1, F))
        node, _ = log_potentials(model, ChainInstance(x))
        w = model.obs_weights()
        assert node[0, 0] == pytest.approx(float(w[0] @ x[0]))
        assert node[0, 1] == pytest.approx(float(w[1] @ x[0]))

    def test_sequence_score_matches_hand_sum(self, rng):
        model = random_model(rng)
        chain = random_instance(rng, n=4)
        node, trans = log_potentials(model, chain)
        labels = np.array([0, 1, 1, 0])
        by_hand = (
            node[0, 0]
            + node[1, 1]
            + node[2, 1]
            + node[3, 0]
            + trans[0, 1]
            + trans[1, 1]
            + trans[1, 0]
        )
        assert sequence_score(node, trans, labels) == pytest.approx(by_hand)

    def test_feature_width_mismatch(self, rng):
        model = random_model(rng)
        with pytest.raises(ValueError):
            log_potentials(model, ChainInstance(np.zeros((2, F + 1))))


class TestForward:
    def test_uniform_model_log_partition(self):
        model = CrfModel(np.zeros(weight_dim(F)))
        chain = ChainInstance(np.random.default_rng(0).normal(size=(3, F)))
        assert posteriors(model, chain)[2] == pytest.approx(3 * math.log(2))

    def test_single_node_is_logsumexp(self, rng):
        model = random_model(rng)
        chain = random_instance(rng, n=1)
        node, _ = log_potentials(model, chain)
        assert posteriors(model, chain)[2] == pytest.approx(
            float(logsumexp(node[0])), rel=1e-12
        )

    def test_matches_enumeration(self, rng):
        for _ in range(40):
            model = random_model(rng)
            chain = random_instance(rng)
            log_z, _, _, _ = brute_force(model, chain)
            assert posteriors(model, chain)[2] == pytest.approx(log_z, rel=1e-10)

    def test_large_scores_stay_finite(self, rng):
        model = random_model(rng, scale=200.0)
        chain = random_instance(rng, n=6)
        assert np.isfinite(posteriors(model, chain)[2])


class TestMarginals:
    def test_uniform_model_marginals_are_half(self):
        model = CrfModel(np.zeros(weight_dim(F)))
        chain = ChainInstance(np.random.default_rng(1).normal(size=(4, F)))
        node_marg, edge_marg, _ = posteriors(model, chain)
        np.testing.assert_allclose(node_marg, 0.5, atol=1e-12)
        np.testing.assert_allclose(edge_marg, 0.25, atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        for _ in range(10):
            model = random_model(rng)
            chain = random_instance(rng)
            node_marg, _, _ = posteriors(model, chain)
            np.testing.assert_allclose(node_marg.sum(axis=1), 1.0, atol=1e-9)

    def test_matches_enumeration(self, rng):
        for _ in range(25):
            model = random_model(rng)
            chain = random_instance(rng)
            node_marg, edge_marg, _ = posteriors(model, chain)
            _, nm_bf, em_bf, _ = brute_force(model, chain)
            np.testing.assert_allclose(node_marg, nm_bf, atol=1e-9)
            np.testing.assert_allclose(edge_marg, em_bf, atol=1e-9)

    def test_edge_marginals_consistent_with_node_marginals(self, rng):
        model = random_model(rng)
        chain = random_instance(rng, n=5)
        node_marg, edge_marg, _ = posteriors(model, chain)
        np.testing.assert_allclose(edge_marg.sum(axis=2), node_marg[:-1], atol=1e-9)
        np.testing.assert_allclose(edge_marg.sum(axis=1), node_marg[1:], atol=1e-9)

    def test_total_probability_normalizes(self, rng):
        # exp(score - log Z) summed over all labelings equals 1.
        model = random_model(rng)
        chain = random_instance(rng, n=7)
        node, trans = log_potentials(model, chain)
        log_z = posteriors(model, chain)[2]
        total = sum(
            math.exp(sequence_score(node, trans, np.array(l)) - log_z)
            for l in itertools.product([0, 1], repeat=7)
        )
        assert total == pytest.approx(1.0, abs=1e-9)


def reference_forward_backward(node, trans):
    """One chain (n, 2), node by node with np.logaddexp."""
    n = node.shape[0]
    alpha = np.empty_like(node)
    alpha[0] = node[0]
    for i in range(1, n):
        prev = alpha[i - 1][:, None] + trans
        alpha[i] = node[i] + np.logaddexp(prev[0], prev[1])
    beta = np.zeros_like(node)
    for i in range(n - 2, -1, -1):
        nxt = trans + (node[i + 1] + beta[i + 1])[None, :]
        beta[i] = np.logaddexp(nxt[:, 0], nxt[:, 1])
    return alpha, beta, np.logaddexp(alpha[-1][0], alpha[-1][1])


def reference_batched_objective(w, groups, l2, f):
    """The training loss and gradient with a numpy log-sum-exp and a loop
    over edges."""
    w_obs = w[: 2 * f].reshape(2, f)
    trans = w[2 * f :].reshape(2, 2)
    loss = 0.5 * l2 * float(w @ w)
    grad_obs = l2 * w_obs.copy()
    grad_trans = l2 * trans.copy()
    for feats, labels in groups:
        b, n, _ = feats.shape
        node = feats @ w_obs.T
        alpha = np.empty((b, n, 2))
        alpha[:, 0] = node[:, 0]
        for i in range(1, n):
            alpha[:, i] = node[:, i] + logsumexp(
                alpha[:, i - 1][:, :, None] + trans[None], axis=1
            )
        beta = np.zeros((b, n, 2))
        for i in range(n - 2, -1, -1):
            beta[:, i] = logsumexp(
                trans[None] + (node[:, i + 1] + beta[:, i + 1])[:, None, :], axis=2
            )
        log_z = logsumexp(alpha[:, -1], axis=1)
        gold_node = np.take_along_axis(node, labels[:, :, None], axis=2)[:, :, 0]
        gold_score = gold_node.sum(axis=1)
        if n > 1:
            gold_score = gold_score + trans[labels[:, :-1], labels[:, 1:]].sum(axis=1)
        loss += float(log_z.sum() - gold_score.sum())
        resid = np.exp(alpha + beta - log_z[:, None, None])
        one_hot = np.zeros_like(resid)
        np.put_along_axis(one_hot, labels[:, :, None], 1.0, axis=2)
        resid -= one_hot
        grad_obs += np.einsum("bny,bnf->yf", resid, feats)
        for i in range(n - 1):
            log_edge = (
                alpha[:, i][:, :, None]
                + trans[None]
                + (node[:, i + 1] + beta[:, i + 1])[:, None, :]
                - log_z[:, None, None]
            )
            grad_trans += np.exp(log_edge).sum(axis=0)
        if n > 1:
            flat = labels[:, :-1] * 2 + labels[:, 1:]
            grad_trans -= np.bincount(flat.ravel(), minlength=4).reshape(2, 2)
    return loss, np.concatenate([grad_obs.ravel(), grad_trans.ravel()])


class TestExactness:
    """The batched messages equal a one-chain recursion bit for bit."""

    def test_forward_backward_matches_reference_exactly(self, rng):
        for n in range(1, 9):
            for scale in (0.5, 5.0, 50.0):
                model = random_model(rng, scale=scale)
                chains = [random_instance(rng, n=n) for _ in range(6)]
                node = np.stack([log_potentials(model, c)[0] for c in chains])
                trans = model.transition_weights()
                alpha, beta, log_z = _forward_backward(node, trans)
                for b in range(len(chains)):
                    ra, rb, rz = reference_forward_backward(node[b], trans)
                    assert np.array_equal(alpha[b], ra)
                    assert np.array_equal(beta[b], rb)
                    assert log_z[b] == rz


class TestNllAndGradient:
    def test_uniform_model_loss_is_n_log_2(self):
        model = CrfModel(np.zeros(weight_dim(F)))
        feats = np.random.default_rng(2).normal(size=(1, 2, F))
        loss, _ = nll_and_gradient(model, [(feats, np.array([[0, 1]]))], l2=0.0)
        assert loss == pytest.approx(2 * math.log(2))

    def test_gradient_matches_central_differences(self, rng):
        h = 1e-5
        for _ in range(4):
            blocks = random_blocks(rng, rng.integers(1, 9, size=3), size=1)
            w = rng.normal(size=weight_dim(F))
            _, grad = nll_and_gradient(CrfModel(w), blocks, l2=0.7)
            for j in range(len(w)):
                wp, wm = w.copy(), w.copy()
                wp[j] += h
                wm[j] -= h
                lp, _ = nll_and_gradient(CrfModel(wp), blocks, l2=0.7)
                lm, _ = nll_and_gradient(CrfModel(wm), blocks, l2=0.7)
                fd = (lp - lm) / (2 * h)
                denom = max(abs(fd), abs(grad[j]), 1e-8)
                assert abs(fd - grad[j]) / denom < 1e-5

    def test_batched_objective_matches_reference(self, rng):
        blocks = random_blocks(rng, range(1, 9))
        w = rng.normal(size=weight_dim(F))
        l_ref, g_ref = nll_and_gradient(CrfModel(w), blocks, l2=0.4)
        l_bat, g_bat, _ = _batched_objective(w, blocks, 0.4, F)
        assert l_bat == pytest.approx(l_ref, rel=1e-12)
        np.testing.assert_allclose(g_bat, g_ref, rtol=1e-10, atol=1e-12)

    def test_batched_objective_matches_edge_loop_reference(self, rng):
        for scale in (0.5, 5.0, 50.0):
            blocks = random_blocks(rng, range(1, 9))
            w = scale * rng.normal(size=weight_dim(F))
            loss, grad, _ = _batched_objective(w, blocks, 0.3, F)
            ref_loss, ref_grad = reference_batched_objective(w, blocks, 0.3, F)
            assert loss == pytest.approx(ref_loss, rel=1e-12)
            np.testing.assert_allclose(grad, ref_grad, rtol=1e-10, atol=1e-12)

    def test_hessian_matches_central_differences_of_the_gradient(self, rng):
        # chains up to 8 nodes: longer than any synthetic scene's
        h = 1e-5
        for scale in (0.5, 3.0):
            blocks = random_blocks(rng, range(1, 9))
            w = scale * rng.normal(size=weight_dim(F))
            _, _, hess = _batched_objective(w, blocks, 0.2, F)
            for j in range(len(w)):
                wp, wm = w.copy(), w.copy()
                wp[j] += h
                wm[j] -= h
                gp = _batched_objective(wp, blocks, 0.2, F)[1]
                gm = _batched_objective(wm, blocks, 0.2, F)[1]
                fd = (gp - gm) / (2 * h)
                np.testing.assert_allclose(hess[:, j], fd, rtol=1e-6, atol=1e-7)
            np.testing.assert_allclose(hess, hess.T, rtol=1e-12, atol=1e-12)


def separable_blocks(rng, per_length=10):
    """Blocks of 1 to 4 nodes, `per_length` chains each, whose labels are
    predictable from the first feature with a wide margin."""
    blocks = []
    for n in range(1, 5):
        labels = rng.integers(0, 2, size=(per_length, n))
        feats = rng.normal(size=(per_length, n, F)) * 0.05
        feats[:, :, 0] = np.where(labels == 1, 3.0, -3.0) + rng.normal(
            size=(per_length, n)
        ) * 0.1
        blocks.append((feats, labels))
    return blocks


class TestTrain:
    def test_separable_data_reaches_full_accuracy(self, rng):
        blocks = separable_blocks(rng)
        result = train(blocks, CrfTrainConfig(l2=0.01, max_iters=300, tol=1e-5))
        for feats, labels in blocks:
            decoded, _ = decode_batch(result.model, feats)
            np.testing.assert_array_equal(decoded, labels)

    def test_convergence_report_is_consistent(self, rng):
        blocks = separable_blocks(rng, per_length=4)
        config = CrfTrainConfig(l2=0.1, max_iters=400, tol=1e-4)
        result = train(blocks, config)
        if result.converged:
            assert result.final_grad_inf_norm <= config.tol

    def test_stronger_l2_never_grows_the_weights(self, rng):
        blocks = separable_blocks(rng, per_length=5)
        weak = train(blocks, CrfTrainConfig(l2=0.05, max_iters=500, tol=1e-6))
        strong = train(blocks, CrfTrainConfig(l2=0.1, max_iters=500, tol=1e-6))
        assert np.linalg.norm(strong.model.weights) <= np.linalg.norm(
            weak.model.weights
        ) + 1e-6

    def test_loss_non_increasing_in_the_iteration_cap(self, rng):
        # Newton is deterministic, so the run capped at k steps stops on the
        # path of every longer run; each step lowers the loss.
        blocks = separable_blocks(rng, per_length=3)
        losses, iters = [], []
        for k in range(1, 31):
            result = train(blocks, CrfTrainConfig(l2=0.1, max_iters=k, tol=1e-6))
            losses.append(nll_and_gradient(result.model, blocks, l2=0.1)[0])
            iters.append(result.n_iters)
        assert iters == sorted(iters) and iters[-1] > 1
        assert np.all(np.diff(losses) <= 1e-9)

    def test_default_config_converges_and_reports_the_final_loss(self, rng):
        blocks = separable_blocks(rng)
        result = train(blocks)
        assert result.converged and 1 <= result.n_iters < CrfTrainConfig.max_iters
        assert result.final_grad_inf_norm <= CrfTrainConfig.tol
        loss, _ = nll_and_gradient(result.model, blocks, l2=CrfTrainConfig.l2)
        assert result.final_loss == pytest.approx(loss, rel=1e-12)

    def test_singular_hessian_at_zero_l2_still_trains(self, rng):
        # feature 1 is 0 on every node, so at l2 = 0 the Hessian has a zero
        # row and column for each of its two weights
        blocks = separable_blocks(rng)
        for feats, _ in blocks:
            feats[:, :, 1] = 0.0
        result = train(blocks, CrfTrainConfig(l2=0.0, max_iters=100, tol=1e-4))
        assert result.converged and result.final_grad_inf_norm <= 1e-4

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            train([])

    @pytest.mark.parametrize(
        "labels",
        [None, np.zeros((3, 2), int), np.zeros((2, 3), int), np.zeros(4, int)],
    )
    def test_labels_not_shaped_like_the_chains_rejected(self, rng, labels):
        blocks = separable_blocks(rng, per_length=2)
        blocks.append((rng.normal(size=(2, 2, F)), labels))
        with pytest.raises(ValueError, match="labels of shape"):
            train(blocks)

    @pytest.mark.parametrize(
        "config, match",
        [
            (CrfTrainConfig(l2=-1.0), "l2"),
            (CrfTrainConfig(l2=math.nan), "l2"),
            (CrfTrainConfig(l2=math.inf), "l2"),
            (CrfTrainConfig(max_iters=0), "max_iters"),
            (CrfTrainConfig(max_iters=-1), "max_iters"),
            (CrfTrainConfig(tol=0.0), "tol"),
            (CrfTrainConfig(tol=math.nan), "tol"),
        ],
    )
    def test_bad_config_rejected(self, rng, config, match):
        with pytest.raises(ValueError, match=match):
            train(separable_blocks(rng, per_length=1), config)

    def test_training_is_deterministic(self, rng):
        blocks = separable_blocks(rng, per_length=3)
        a = train(blocks, CrfTrainConfig(l2=0.1, max_iters=100, tol=1e-6))
        b = train(blocks, CrfTrainConfig(l2=0.1, max_iters=100, tol=1e-6))
        np.testing.assert_array_equal(a.model.weights, b.model.weights)


class TestViterbi:
    def test_zero_weights_decode_all_g(self):
        model = CrfModel(np.zeros(weight_dim(F)))
        chain = ChainInstance(np.random.default_rng(3).normal(size=(5, F)))
        assert indices_to_labels(decode(model, chain)) == ["G"] * 5

    def test_single_node_takes_larger_score(self, rng):
        model = random_model(rng)
        chain = random_instance(rng, n=1)
        node, _ = log_potentials(model, chain)
        expected = "G" if node[0, 0] >= node[0, 1] else "O"
        assert indices_to_labels(decode(model, chain)) == [expected]

    def test_matches_enumeration_argmax(self, rng):
        for _ in range(40):
            model = random_model(rng)
            chain = random_instance(rng)
            _, _, _, best = brute_force(model, chain)
            assert tuple(decode(model, chain)) == best

    def test_beats_random_labelings(self, rng):
        model = random_model(rng)
        chain = random_instance(rng, n=6)
        node, trans = log_potentials(model, chain)
        best = sequence_score(node, trans, decode(model, chain))
        for _ in range(1000):
            labels = rng.integers(0, 2, size=6)
            assert best >= sequence_score(node, trans, labels) - 1e-12

    def test_label_round_trip(self):
        assert indices_to_labels(labels_to_indices(["G", "O", "G"])) == ["G", "O", "G"]


class TestSerialization:
    def test_round_trip_preserves_weights_exactly(self, rng, tmp_path):
        model = CrfModel(rng.normal(size=weight_dim(F_NODE)))
        path = tmp_path / "crf.json"
        save_crf(model, path)
        loaded = load_crf(path)
        np.testing.assert_array_equal(loaded.weights, model.weights)
        doc = json.loads(path.read_text())
        assert doc["feature_catalog_version"] == FEATURE_CATALOG_VERSION
        assert loaded.l2 == model.l2

    def test_dict_round_trip(self, rng):
        model = random_model(rng)
        again = crf_from_dict(crf_to_dict(model))
        np.testing.assert_array_equal(again.weights, model.weights)

    def test_corrupt_file_raises_data_error(self, tmp_path):
        path = tmp_path / "crf.json"
        path.write_text('{"format_version": 1, "kind": "crf", "wei')
        with pytest.raises(DataError, match="corrupt"):
            load_crf(path)

    def test_width_other_than_the_catalog_rejected_at_load(self, rng, tmp_path):
        path = tmp_path / "crf.json"
        save_crf(random_model(rng), path)  # F node features, not F_NODE
        with pytest.raises(DataError, match=f"{F} node features"):
            load_crf(path)

    def test_stale_catalog_rejected_at_load(self, rng, tmp_path):
        doc = crf_to_dict(random_model(rng))
        doc["feature_catalog_version"] = "stale-v0"
        path = tmp_path / "crf.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(VersionMismatchError):
            load_crf(path)
