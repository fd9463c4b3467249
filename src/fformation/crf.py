"""Linear-chain CRF over left-to-right pose sequences with labels {G, O}.

Scores factorize into per-node observation terms and a single 2x2 transition
table shared across positions:

    score(g | x) = sum_i w_obs[g_i] . x_i  +  sum_i trans[g_{i-1}, g_i]
    P(g | x)     = exp(score(g | x) - log Z)

All chain computations run in log-space. Training maximizes the convex
L2-regularized conditional log-likelihood by Newton's method.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DataError
from .features import F_NODE, FEATURE_CATALOG_VERSION, read_model, write_model
from .pose import GROUP, GROUP_LABELS, OUTLIER, json_number, json_numbers

NUM_LABELS = 2
LABEL_INDEX = {GROUP: 0, OUTLIER: 1}

CRF_FORMAT_VERSION = 1


def weight_dim(f_node: int = F_NODE) -> int:
    return f_node * NUM_LABELS + NUM_LABELS * NUM_LABELS


@dataclass(frozen=True)
class CrfTrainConfig:
    # l2 tuned on held-out synthetic data (weak regularization). Newton reached
    # tol in 11-15 steps on synthetic corpora of 5 to 100 scenes per cell.
    l2: float = 0.003
    max_iters: int = 50
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
        alpha[:, i] = node[:, i] + np.logaddexp(prev[:, 0], prev[:, 1])
    beta = np.zeros_like(node)
    for i in range(n - 2, -1, -1):
        nxt = trans + (node[:, i + 1] + beta[:, i + 1])[:, None, :]  # (B, from, to)
        beta[:, i] = np.logaddexp(nxt[:, :, 0], nxt[:, :, 1])
    log_z = np.logaddexp(alpha[:, -1, 0], alpha[:, -1, 1])
    return alpha, beta, log_z


def _log_marginals(node, trans, alpha, beta, log_z) -> tuple[np.ndarray, np.ndarray]:
    """Log node (B, n, 2) and edge (B, n-1, 2, 2) marginals. Linear, so fed
    tangents (a trailing axis of k) it returns the marginals' log-tangents."""
    log_node = alpha + beta - log_z[:, None, None]
    log_edge = alpha[:, :-1, :, None] + trans + (node + beta)[:, 1:, None]
    return log_node, log_edge - log_z[:, None, None, None]


def _posteriors(
    node: np.ndarray, trans: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node marginals (B, n, 2), edge marginals (B, n-1, 2, 2) and log Z (B,)."""
    alpha, beta, log_z = _forward_backward(node, trans)
    log_node, log_edge = _log_marginals(node, trans, alpha, beta, log_z)
    return np.exp(log_node), np.exp(log_edge), log_z


def _message_tangents(node, trans, alpha, beta, d_node, d_trans):
    """Forward-mode derivatives (B, n, 2, k) of _forward_backward's alpha and
    beta, given those of node (B, n, 2, k) and trans (2, 2, k): a log-sum's
    tangent is its terms' tangents weighted by their softmax (Li & Eisner,
    "First- and Second-Order Expectation Semirings", EMNLP 2009)."""
    d_alpha, d_beta = d_node.copy(), np.zeros_like(d_node)
    for i in range(1, node.shape[1]):
        prev = alpha[:, i - 1, :, None] + trans + (node[:, i] - alpha[:, i])[:, None]
        d_prev = d_alpha[:, i - 1, :, None] + d_trans  # (B, from, to, k)
        d_alpha[:, i] += np.einsum("bay,bayk->byk", np.exp(prev), d_prev)
    for i in range(node.shape[1] - 2, -1, -1):
        nxt = trans + (node[:, i + 1] + beta[:, i + 1])[:, None] - beta[:, i, :, None]
        d_nxt = d_trans + (d_node[:, i + 1] + d_beta[:, i + 1])[:, None]
        d_beta[:, i] = np.einsum("bay,bayk->bak", np.exp(nxt), d_nxt)
    return d_alpha, d_beta


def _counts(feats, node_w, edge_w) -> np.ndarray:
    """Feature counts (k, ...) summed over B chains (B, n, F): node labels
    weighted by node_w (B, n, 2, ...), label pairs by edge_w (B, n-1, 2, 2, ...)."""
    obs = np.einsum("bnf,bny...->yf...", feats, node_w)
    trans = edge_w.sum(axis=(0, 1))
    return np.concatenate([np.reshape(c, (-1, *c.shape[2:])) for c in (obs, trans)])


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
) -> tuple[float, np.ndarray, np.ndarray]:
    """nll_and_gradient's loss and gradient, and the exact Hessian (k, k):
    the derivative of the expected feature counts (Sutton & McCallum 2012,
    5.1), forward-mode through the messages, vectorized across each block's
    chains and summed over the blocks."""
    k = w.size
    w_obs = w[: 2 * f].reshape(NUM_LABELS, f)
    trans = w[2 * f :].reshape(NUM_LABELS, NUM_LABELS)
    d_trans = np.eye(k)[2 * f :].reshape(NUM_LABELS, NUM_LABELS, k)
    loss, grad, hess = 0.5 * l2 * float(w @ w), l2 * w, l2 * np.eye(k)
    for feats, labels in blocks:
        node = feats @ w_obs.T  # (B, n, 2)
        d_node = np.zeros((*node.shape, k))
        for y in range(NUM_LABELS):
            d_node[:, :, y, y * f : (y + 1) * f] = feats
        alpha, beta, log_z = _forward_backward(node, trans)
        d_alpha, d_beta = _message_tangents(node, trans, alpha, beta, d_node, d_trans)
        marg = [np.exp(m) for m in _log_marginals(node, trans, alpha, beta, log_z)]
        d_log_z = np.einsum("by,byk->bk", marg[0][:, -1], d_alpha[:, -1])
        d_log = _log_marginals(d_node, d_trans, d_alpha, d_beta, d_log_z)
        gold = np.eye(NUM_LABELS)[labels]  # one-hot (B, n, 2)
        gold = _counts(feats, gold, gold[:, :-1, :, None] * gold[:, 1:, None])
        loss += float(log_z.sum() - w @ gold)
        grad += _counts(feats, *marg) - gold
        hess += _counts(feats, *(m[..., None] * d for m, d in zip(marg, d_log)))
    return loss, grad, hess


@dataclass
class CrfTrainResult:
    model: CrfModel
    converged: bool
    final_grad_inf_norm: float
    n_iters: int
    final_loss: float


def train(
    blocks,
    config: CrfTrainConfig = CrfTrainConfig(),
) -> CrfTrainResult:
    """Fit weights by damped Newton on the convex regularized NLL of `blocks`,
    [(features (B, n, F), gold label indices (B, n)), ...] as
    pipeline.build_crf_chains gives them.

    Each step solves the Hessian system by least squares (at l2 = 0 it can
    be singular), halved until the Armijo condition holds (Nocedal & Wright,
    "Numerical Optimization", 2006, ch. 3). Deterministic given the blocks,
    in their order, and config. Stops at gradient inf-norm config.tol, after
    config.max_iters steps, or when a step's predicted gain is below rounding.
    """
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

    def objective(w):
        loss, grad, hess = _batched_objective(w, blocks, config.l2, f)
        if not np.isfinite(loss):
            raise ConvergenceError(f"non-finite training loss {loss!r}")
        return loss, grad, hess

    w = np.zeros(weight_dim(f))
    loss, grad, hess = objective(w)
    steps = 0
    while steps < config.max_iters and np.abs(grad).max() > config.tol:
        step = np.linalg.lstsq(hess, -grad)[0]
        slope = float(grad @ step)
        if -slope <= np.finfo(float).eps * abs(loss):
            break  # nothing left to gain at float precision
        t = 1.0
        while (trial := objective(w + t * step))[0] > loss + 1e-4 * t * slope:
            t /= 2
        w, (loss, grad, hess) = w + t * step, trial
        steps += 1
    norm = float(np.abs(grad).max())
    return CrfTrainResult(
        model=CrfModel(w, l2=config.l2),
        converged=norm <= config.tol,
        final_grad_inf_norm=norm,
        n_iters=steps,
        final_loss=loss,
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
    alpha, beta, log_z = _forward_backward(node, trans)
    return labels, np.exp(alpha + beta - log_z[:, None, None])


# ---------------------------------------------------------------------------
# Serialization: versioned JSON with full decimal precision (floats are
# written with repr, which round-trips exactly).


def save_crf(model: CrfModel, path) -> None:
    body = {"l2": model.l2, "labels": list(GROUP_LABELS), "weights": model.weights.tolist()}
    write_model(path, "crf", CRF_FORMAT_VERSION, body)


def load_crf(path) -> CrfModel:
    doc = read_model(path, "crf", CRF_FORMAT_VERSION)
    try:
        if doc["labels"] != list(GROUP_LABELS):
            raise ValueError(f"labels {doc['labels']!r}, not {list(GROUP_LABELS)}")
        model = CrfModel(
            weights=json_numbers("weights", doc["weights"], 1),
            l2=float(json_number("l2", doc["l2"])),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed crf model file: {exc}") from exc
    if model.f_node != F_NODE:
        raise DataError(
            f"crf model file {path} has weights for {model.f_node} node features, "
            f"catalog {FEATURE_CATALOG_VERSION!r} has {F_NODE}"
        )
    return model
