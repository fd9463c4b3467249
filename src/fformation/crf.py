"""Linear-chain CRF over left-to-right pose sequences with labels {G, O}.

Scores factorize into per-node observation terms and a single 2x2 transition
table shared across positions:

    score(g | x) = sum_i w_obs[g_i] . x_i  +  sum_i trans[g_{i-1}, g_i]
    P(g | x)     = exp(score(g | x) - log Z)

All chain computations run in log-space. Training maximizes the
L2-regularized conditional log-likelihood; the objective is convex.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DataError
from .features import F_NODE, FEATURE_CATALOG_VERSION, check_catalog
from .pose import GROUP, GROUP_LABELS, OUTLIER, check_header, read_json, write_json

NUM_LABELS = 2
LABEL_INDEX = {GROUP: 0, OUTLIER: 1}

CRF_FORMAT_VERSION = 1


def weight_dim(f_node: int = F_NODE) -> int:
    return f_node * NUM_LABELS + NUM_LABELS * NUM_LABELS


@dataclass(frozen=True)
class CrfTrainConfig:
    # Tuned on held-out synthetic data; the chain model wants weak
    # regularization and a long leash because of heavy-tailed facing scores.
    l2: float = 0.003
    max_iters: int = 3000
    tol: float = 1e-4


@dataclass(frozen=True)
class CrfModel:
    weights: np.ndarray
    l2: float = CrfTrainConfig.l2

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or (w.size - NUM_LABELS * NUM_LABELS) % NUM_LABELS != 0:
            raise ValueError(f"weight vector of size {w.size} is not k = 2F + 4")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        object.__setattr__(self, "weights", w)

    @property
    def f_node(self) -> int:
        return (self.weights.size - NUM_LABELS * NUM_LABELS) // NUM_LABELS

    def obs_weights(self) -> np.ndarray:
        """(2, F) observation weights, row per label."""
        f = self.f_node
        return self.weights[: 2 * f].reshape(NUM_LABELS, f)

    def transition_weights(self) -> np.ndarray:
        """(2, 2) transition weights, [from, to]."""
        return self.weights[2 * self.f_node :].reshape(NUM_LABELS, NUM_LABELS)


@dataclass(frozen=True)
class ChainInstance:
    """Node feature matrix (n, F) of one chain."""

    features: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 2:
            raise ValueError("chain features must be a 2-D matrix")
        object.__setattr__(self, "features", feats)


def labels_to_indices(labels) -> np.ndarray:
    return np.array([LABEL_INDEX[l] for l in labels], dtype=int)


def indices_to_labels(indices) -> list[str]:
    return [GROUP_LABELS[i] for i in indices]


def _node_potentials(model: CrfModel, features: np.ndarray) -> np.ndarray:
    """Node scores (..., n, 2) of node features (..., n, F)."""
    if features.shape[-2] == 0:
        raise ValueError("chain must contain at least one node")
    if features.shape[-1] != model.f_node:
        raise ValueError(
            f"chain has {features.shape[-1]} features per node, "
            f"model expects {model.f_node}"
        )
    return features @ model.obs_weights().T


def log_potentials(model: CrfModel, chain: ChainInstance) -> tuple[np.ndarray, np.ndarray]:
    """Node scores (n, 2) and the shared transition score table (2, 2).

    One chain: the per-chain reference (nll_and_gradient) and the
    benchmark's output checks score a chain with it."""
    return _node_potentials(model, chain.features), model.transition_weights()


def sequence_score(node: np.ndarray, trans: np.ndarray, labels: np.ndarray) -> float:
    """Score of one labelling of one chain: the per-chain reference's gold
    term, and what the tests' enumeration oracle sums."""
    s = float(node[np.arange(len(labels)), labels].sum())
    if len(labels) > 1:
        s += float(trans[labels[:-1], labels[1:]].sum())
    return s


def _log_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log(exp(a) + exp(b)), elementwise and overflow-free.

    The larger term is factored out and the smaller enters through log1p,
    the way scipy.special.logsumexp sums two terms; both round identically
    (the test suite checks this bit for bit), so trained weights do not
    depend on which of the two computed them. np.logaddexp rounds
    differently in the last place on a few percent of pairs.
    """
    hi = np.maximum(a, b)
    return np.log1p(np.exp(np.minimum(a, b) - hi)) + hi


def _forward_backward(
    node: np.ndarray, trans: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log-space messages for B chains of equal length n.

    node (B, n, 2), trans (2, 2) -> alpha (B, n, 2), beta (B, n, 2), log Z (B,).
    alpha[b, i, y] sums the scores of the labelings of nodes 0..i that end in
    y; beta[b, i, y] those of nodes i+1..n-1 given y at node i (Sutton &
    McCallum, "An Introduction to Conditional Random Fields", 2012, 4.1).
    """
    n = node.shape[1]
    alpha = np.empty_like(node)
    alpha[:, 0] = node[:, 0]
    for i in range(1, n):
        prev = alpha[:, i - 1, :, None] + trans  # (B, from, to)
        alpha[:, i] = node[:, i] + _log_add(prev[:, 0], prev[:, 1])
    beta = np.zeros_like(node)
    for i in range(n - 2, -1, -1):
        nxt = trans + (node[:, i + 1] + beta[:, i + 1])[:, None, :]  # (B, from, to)
        beta[:, i] = _log_add(nxt[:, :, 0], nxt[:, :, 1])
    log_z = _log_add(alpha[:, -1, 0], alpha[:, -1, 1])
    return alpha, beta, log_z


def _node_marginals(alpha, beta, log_z) -> np.ndarray:
    return np.exp(alpha + beta - log_z[:, None, None])


def _posteriors(
    node: np.ndarray, trans: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node marginals (B, n, 2), edge marginals (B, n-1, 2, 2) and log Z (B,)."""
    alpha, beta, log_z = _forward_backward(node, trans)
    log_edge = (
        alpha[:, :-1, :, None]
        + trans
        + (node[:, 1:] + beta[:, 1:])[:, :, None, :]
        - log_z[:, None, None, None]
    )
    return _node_marginals(alpha, beta, log_z), np.exp(log_edge), log_z


def nll_and_gradient(
    model: CrfModel, blocks, l2: float = 0.0
) -> tuple[float, np.ndarray]:
    """Negative conditional log-likelihood of the blocks plus L2 penalty.

    blocks are crf.train's: [(features (B, n, F), gold labels (B, n)), ...].
    grad = sum over chains (expected - empirical feature counts) + l2 * w.
    One chain at a time: the reference the batched training objective is
    checked against, here and by the benchmark's traced gradient check.
    """
    if l2 < 0:
        raise ValueError("l2 must be non-negative")
    w = model.weights
    f = model.f_node
    loss = 0.5 * l2 * float(w @ w)
    grad = l2 * w.copy()
    grad_obs = grad[: 2 * f].reshape(NUM_LABELS, f)
    grad_trans = grad[2 * f :].reshape(NUM_LABELS, NUM_LABELS)

    for feats, labels in blocks:
        for x, gold in zip(feats, labels):
            node, trans = log_potentials(model, ChainInstance(x))
            node_marg, edge_marg, log_z = _posteriors(node[None], trans)
            loss += float(log_z[0]) - sequence_score(node, trans, gold)

            resid = node_marg[0].copy()
            resid[np.arange(len(gold)), gold] -= 1.0
            grad_obs += resid.T @ x
            if len(gold) > 1:
                grad_trans += edge_marg[0].sum(axis=0)
                np.add.at(grad_trans, (gold[:-1], gold[1:]), -1.0)
    return loss, grad


def _batched_objective(
    w: np.ndarray, blocks, l2: float, f: int
) -> tuple[float, np.ndarray]:
    """Same value/gradient as nll_and_gradient, vectorized across each
    block's chains and summed over the blocks in the order given.

    Cross-checked against the per-chain reference in the test suite.
    """
    w_obs = w[: 2 * f].reshape(NUM_LABELS, f)
    trans = w[2 * f :].reshape(NUM_LABELS, NUM_LABELS)
    loss = 0.5 * l2 * float(w @ w)
    grad_obs = l2 * w_obs.copy()
    grad_trans = l2 * trans.copy()

    for feats, labels in blocks:
        n = feats.shape[1]
        node = feats @ w_obs.T  # (B, n, 2)
        node_marg, edge_marg, log_z = _posteriors(node, trans)

        gold_node = np.take_along_axis(node, labels[:, :, None], axis=2)[:, :, 0]
        gold_score = gold_node.sum(axis=1)
        if n > 1:
            gold_score = gold_score + trans[labels[:, :-1], labels[:, 1:]].sum(axis=1)
        loss += float(log_z.sum() - gold_score.sum())

        one_hot = np.zeros_like(node_marg)
        np.put_along_axis(one_hot, labels[:, :, None], 1.0, axis=2)
        grad_obs += np.einsum("bny,bnf->yf", node_marg - one_hot, feats)
        if n > 1:
            # Position by position: this summation order fixes the rounding,
            # and with it the L-BFGS path and the trained weights.
            for per_edge in edge_marg.sum(axis=0):
                grad_trans += per_edge
            flat = labels[:, :-1] * NUM_LABELS + labels[:, 1:]
            counts = np.bincount(flat.ravel(), minlength=NUM_LABELS * NUM_LABELS)
            grad_trans -= counts.reshape(NUM_LABELS, NUM_LABELS)
    return loss, np.concatenate([grad_obs.ravel(), grad_trans.ravel()])


@dataclass
class CrfTrainResult:
    model: CrfModel
    converged: bool
    final_grad_inf_norm: float
    n_iters: int


def train(
    blocks,
    config: CrfTrainConfig = CrfTrainConfig(),
) -> CrfTrainResult:
    """Fit weights by L-BFGS on the convex regularized NLL of `blocks`,
    [(features (B, n, F), gold label indices (B, n)), ...] as
    pipeline.build_crf_chains gives them.

    Deterministic given the blocks, in their order, and config. Stops when
    the gradient infinity norm reaches config.tol or after config.max_iters
    iterations.
    """
    from scipy.optimize import minimize  # only training pays for its import

    if not blocks:
        raise ValueError("training batch is empty")
    for feats, labels in blocks:
        if np.shape(labels) != np.shape(feats)[:2]:
            raise ValueError(
                f"labels of shape {np.shape(labels)} for chain features of "
                f"shape {np.shape(feats)}"
            )
    if not 0 <= config.l2 < np.inf:
        raise ValueError(f"l2 must be non-negative and finite, got {config.l2!r}")
    if config.max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {config.max_iters!r}")
    if not 0 < config.tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {config.tol!r}")
    f = blocks[0][0].shape[-1]
    k = weight_dim(f)

    def objective(w):
        loss, grad = _batched_objective(w, blocks, config.l2, f)
        if not np.isfinite(loss):
            raise ConvergenceError(f"non-finite training loss {loss!r}")
        return loss, grad

    res = minimize(
        objective,
        np.zeros(k),
        jac=True,
        method="L-BFGS-B",
        options={
            "maxiter": config.max_iters,
            "gtol": config.tol,
            "ftol": 1e-15,
            "maxfun": 20 * config.max_iters,
        },
    )
    model = CrfModel(res.x, l2=config.l2)
    _, grad = _batched_objective(res.x, blocks, config.l2, f)
    norm = float(np.abs(grad).max())
    return CrfTrainResult(
        model=model,
        converged=norm <= config.tol,
        final_grad_inf_norm=norm,
        n_iters=int(res.nit),
    )


def _viterbi(node: np.ndarray, trans: np.ndarray) -> np.ndarray:
    """Max-scoring label indices (B, n) of B chains of equal length.

    Decodes left to right against a suffix-max table, so among equally
    scoring sequences the lexicographically G-first one wins.
    """
    n = node.shape[1]
    suffix = np.empty_like(node)
    suffix[:, n - 1] = node[:, n - 1]
    for i in range(n - 2, -1, -1):
        suffix[:, i] = node[:, i] + np.max(trans + suffix[:, i + 1, None, :], axis=2)
    labels = np.empty(node.shape[:2], dtype=int)
    labels[:, 0] = np.argmax(suffix[:, 0], axis=1)
    for i in range(1, n):
        labels[:, i] = np.argmax(trans[labels[:, i - 1]] + suffix[:, i], axis=1)
    return labels


def decode_batch(
    model: CrfModel, features: np.ndarray, *, marginals: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Viterbi label indices (B, n) of B equal-length chains (B, n, F), and
    with marginals=True their node marginals (B, n, 2), else None.

    Ties prefer G at the first differing position. Row b equals what a
    one-chain batch of chain b returns, bit for bit: every step is
    elementwise across the batch.
    """
    node = _node_potentials(model, features)
    trans = model.transition_weights()
    labels = _viterbi(node, trans)
    if not marginals:
        return labels, None
    return labels, _node_marginals(*_forward_backward(node, trans))


# ---------------------------------------------------------------------------
# Serialization: versioned JSON with full decimal precision (floats are
# written with repr, which round-trips exactly).


def crf_to_dict(model: CrfModel) -> dict:
    return {
        "format_version": CRF_FORMAT_VERSION,
        "kind": "crf",
        "feature_catalog_version": FEATURE_CATALOG_VERSION,
        "l2": model.l2,
        "labels": list(GROUP_LABELS),
        "weights": model.weights.tolist(),
    }


def crf_from_dict(doc: dict) -> CrfModel:
    check_header(doc, "crf", CRF_FORMAT_VERSION)
    try:
        return CrfModel(
            weights=np.array(doc["weights"], dtype=float),
            l2=float(doc["l2"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed crf model file: {exc}") from exc


def save_crf(model: CrfModel, path) -> None:
    write_json(path, crf_to_dict(model))


def load_crf(path) -> CrfModel:
    doc = read_json(path, "crf model file")
    model = crf_from_dict(doc)  # the format version first, then the catalog
    check_catalog(doc.get("feature_catalog_version"), f"crf model file {path}")
    if model.f_node != F_NODE:
        raise DataError(
            f"crf model file {path} has weights for {model.f_node} node features, "
            f"catalog {FEATURE_CATALOG_VERSION!r} has {F_NODE}"
        )
    return model
