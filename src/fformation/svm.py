"""Multi-class SVM: Gaussian-RBF kernel, SMO dual solver, one-vs-rest ensemble.

The binary solver optimizes the soft-margin dual

    min 0.5 a' Q a - e' a   s.t. 0 <= a_i <= C, sum y_i a_i = 0,
    Q_ij = y_i y_j K(x_i, x_j),  K(x, z) = exp(-gamma ||x - z||^2)

by repeatedly updating the maximal-KKT-violating pair (deterministic, ties to
the lowest index), stopping when the violation gap m - M drops to tol. The
bias b = (m + M) / 2 then satisfies every point's KKT condition within tol.
The pair is kept incrementally, as LIBSVM keeps its gradient: the masked
working-set arrays take each step's update rather than being rebuilt.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DataError
from .features import FEATURE_CATALOG_VERSION, check_catalog
from .pose import check_header, read_json, write_json

SVM_FORMAT_VERSION = 2

DEFAULT_C = 10.0
DEFAULT_GAMMA = 0.125
DEFAULT_TOL = 1e-3
SMO_MAX_ITER = 400_000  # read at each call, so a test can lower it

GAMMA_GRID = tuple(2.0**p for p in range(-6, 3))
GAMMA_SUBSAMPLE = 600  # cap on the samples gamma selection cross-validates on
N_FOLDS = 5
VARIANCE_FLOOR = 1e-8


def pairwise_sq_dists(
    X: np.ndarray, Z: np.ndarray, z_sq_norms: np.ndarray | None = None
) -> np.ndarray:
    """Squared Euclidean distances, shape (len(X), len(Z)). Clipped at 0.

    z_sq_norms, when given, is (Z * Z).sum(axis=1) computed once by the caller.
    """
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if z_sq_norms is None:
        z_sq_norms = (Z * Z).sum(axis=1)
    d = (X * X).sum(axis=1)[:, None] + z_sq_norms[None, :] - 2.0 * (X @ Z.T)
    return np.maximum(d, 0.0)


def rbf_gram(X: np.ndarray, Z: np.ndarray, gamma: float) -> np.ndarray:
    return np.exp(-gamma * pairwise_sq_dists(X, Z))


@dataclass
class SmoSolution:
    alpha: np.ndarray
    bias: float
    kkt_gap: float
    iterations: int


def smo_solve(K: np.ndarray, y: np.ndarray, C: float, tol: float) -> SmoSolution:
    """Run SMO on the Gram matrix K to tolerance and return the dual solution
    and solver state.

    The decision value of x is sum_i alpha_i y_i K(x_i, x) + bias. y must
    contain both -1 and +1. More than SMO_MAX_ITER updates is a
    ConvergenceError.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    if K.shape != (n, n):
        raise ValueError(f"K has shape {K.shape}, y has {n} labels")
    if not ((y == 1).any() and (y == -1).any()):
        raise ValueError("training data must contain both classes")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")

    alpha = np.zeros(n)
    # v_i = y_i - sum_j alpha_j y_j K_ij; the optimal bias must satisfy
    # v_i <= b for every i in I_up and b <= v_j for every j in I_low, so the
    # largest up-side v minus the smallest low-side v is the KKT violation.
    v = y.copy()
    pos = y > 0
    # v masked to I_up (-inf elsewhere) and to I_low (+inf elsewhere). A step
    # moves only alpha_i and alpha_j, so only entries i and j are masked again.
    up = (pos & (alpha < C)) | (~pos & (alpha > 0))
    low = (~pos & (alpha < C)) | (pos & (alpha > 0))
    v_up = np.where(up, v, -np.inf)
    v_low = np.where(low, v, np.inf)

    it = 0
    while True:
        i = int(v_up.argmax())
        j = int(v_low.argmin())
        gap = v_up[i] - v_low[j]
        if gap <= tol:
            break
        if it >= SMO_MAX_ITER:
            raise ConvergenceError(
                f"SMO did not reach tol={tol} in {SMO_MAX_ITER} iterations "
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
        delta = t * (K[j] - K[i])
        v += delta
        v_up += delta
        v_low += delta
        for k in (i, j):
            a, p = alpha[k], pos[k]
            v_up[k] = v[k] if (a < C if p else a > 0) else -np.inf
            v_low[k] = v[k] if (a > 0 if p else a < C) else np.inf
        it += 1

    return SmoSolution(
        alpha=alpha,
        bias=float((v_up[i] + v_low[j]) / 2.0),
        kkt_gap=float(gap),
        iterations=it,
    )


def kkt_violations(alpha: np.ndarray, margins: np.ndarray, C: float) -> np.ndarray:
    """Per-point violation of the margin KKT conditions: the tests' oracle
    for smo_solve's stopping rule.

    alpha = 0      requires y f(x) >= 1
    0 < alpha < C  requires y f(x) == 1
    alpha = C      requires y f(x) <= 1
    """
    alpha = np.asarray(alpha, dtype=float)
    margins = np.asarray(margins, dtype=float)
    viol = np.empty(len(alpha))
    at_zero = alpha <= 0
    at_c = alpha >= C
    free = ~(at_zero | at_c)
    viol[at_zero] = np.maximum(0.0, 1.0 - margins[at_zero])
    viol[at_c] = np.maximum(0.0, margins[at_c] - 1.0)
    viol[free] = np.abs(margins[free] - 1.0)
    return viol


@dataclass(frozen=True, eq=False)
class SvmModel:
    """One-vs-rest ensemble whose classes share one support-vector set.

    Each support vector is stored once (the layout LIBSVM uses for its
    multi-class models): `dual_coef[i, c]` is alpha_i * y_i of class c's
    binary, 0 where point i is not one of that class's support vectors, so
    every class's decision comes from one kernel block and one matmul.
    """

    classes: tuple[str, ...]
    support_vectors: np.ndarray  # (m, d): union over the class binaries
    dual_coef: np.ndarray  # (m, n_classes), entries alpha_i * y_i
    bias: np.ndarray  # (n_classes,)
    C: float
    gamma: float
    sv_sq_norms: np.ndarray = field(init=False, repr=False)  # (m,)

    def __post_init__(self):
        sv = np.asarray(self.support_vectors, dtype=float)
        coef = np.asarray(self.dual_coef, dtype=float)
        bias = np.asarray(self.bias, dtype=float)
        k = len(self.classes)
        if k < 2:
            raise ValueError("need at least two classes")
        if sv.ndim != 2 or coef.shape != (len(sv), k) or bias.shape != (k,):
            raise ValueError(
                f"support vectors {sv.shape}, dual coefficients {coef.shape} and "
                f"bias {bias.shape} do not fit {k} classes"
            )
        if not all(np.isfinite(arr).all() for arr in (sv, coef, bias)):
            raise ValueError(
                "support vectors, dual coefficients and bias must be finite"
            )
        if not (0 < self.C < np.inf and 0 < self.gamma < np.inf):
            raise ValueError(f"C={self.C} and gamma={self.gamma} must be positive, finite")
        object.__setattr__(self, "support_vectors", sv)
        object.__setattr__(self, "dual_coef", coef)
        object.__setattr__(self, "bias", bias)
        object.__setattr__(self, "sv_sq_norms", (sv * sv).sum(axis=1))

    @property
    def n_support_vectors(self) -> int:
        return len(self.support_vectors)


def _fit_ovr(X, labels, classes, *, C, gamma, tol, K) -> SvmModel:
    """One SMO binary per class over a shared Gram matrix K; the stored
    support vectors are the training rows where any class has alpha > 0."""
    alphas, coefs, biases = [], [], []
    for cls in classes:
        y = np.where(labels == cls, 1.0, -1.0)
        sol = smo_solve(K, y, C, tol)
        alphas.append(sol.alpha)
        coefs.append(sol.alpha * y)
        biases.append(sol.bias)
    sv = np.any(np.column_stack(alphas) > 0, axis=1)
    return SvmModel(
        classes=tuple(classes),
        support_vectors=X[sv],
        dual_coef=np.column_stack(coefs)[sv],
        bias=np.array(biases),
        C=C,
        gamma=gamma,
    )


def train_one_vs_rest(
    X: np.ndarray,
    labels,
    classes: tuple[str, ...],
    C: float = DEFAULT_C,
    gamma: float = DEFAULT_GAMMA,
    tol: float = DEFAULT_TOL,
) -> SvmModel:
    """Train one binary per class; the Gram matrix is computed once."""
    if not (0 < C < np.inf and 0 < gamma < np.inf):
        raise ValueError("C and gamma must be positive and finite")
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    present = set(labels.tolist())
    missing = [c for c in classes if c not in present]
    if missing:
        raise ValueError(f"classes absent from training data: {missing}")
    K = rbf_gram(X, X, gamma)
    return _fit_ovr(X, labels, classes, C=C, gamma=gamma, tol=tol, K=K)


def decision_matrix(model: SvmModel, X: np.ndarray) -> np.ndarray:
    """(n, n_classes) one-vs-rest decision values: one kernel block, one matmul."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d2 = pairwise_sq_dists(X, model.support_vectors, model.sv_sq_norms)
    return np.exp(-model.gamma * d2) @ model.dual_coef + model.bias


def predict_many(model: SvmModel, X: np.ndarray) -> list[tuple[str, dict[str, float]]]:
    """Per row of X: the argmax class and every class's score, from one
    decision_matrix call; ties go to the earlier class.

    A row's scores can differ from a one-row call on that row alone in the
    last bits: the kernel block's matrix products sum in another order for
    many rows than for one.
    """
    scores = decision_matrix(model, X)
    best = np.argmax(scores, axis=1).tolist()
    return [
        (model.classes[i], dict(zip(model.classes, row)))
        for i, row in zip(best, scores.tolist())
    ]


# ---------------------------------------------------------------------------
# Gamma selection: N_FOLDS-fold cross-validation over a fixed power-of-two grid.


def deterministic_folds(labels, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(training rows, held-out rows) of each of N_FOLDS stratified folds:
    seeded shuffle, then round-robin per class."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    assignment = np.zeros(len(labels), dtype=int)
    for cls in sorted(set(labels.tolist())):
        idx = np.where(labels == cls)[0]
        idx = rng.permutation(idx)
        assignment[idx] = np.arange(len(idx)) % N_FOLDS
    held_out = [np.where(assignment == f)[0] for f in range(N_FOLDS)]
    return [
        (np.concatenate(held_out[:f] + held_out[f + 1 :]), test_idx)
        for f, test_idx in enumerate(held_out)
    ]


def fallback_gamma(X: np.ndarray) -> float:
    X = np.asarray(X, dtype=float)
    var = max(float(X.var(axis=0).mean()), VARIANCE_FLOOR)
    return 1.0 / (X.shape[1] * var)


def cv_gamma_accuracies(
    X,
    labels,
    classes: tuple[str, ...],
    folds: list[tuple[np.ndarray, np.ndarray]],
    C: float = DEFAULT_C,
    tol: float = DEFAULT_TOL,
) -> list[float]:
    """Mean held-out accuracy over `folds`, (training rows, held-out rows)
    pairs, of a one-vs-rest model at each gamma of GAMMA_GRID, from one
    matrix of squared distances."""
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    d2 = pairwise_sq_dists(X, X)
    result = []
    for gamma in GAMMA_GRID:
        accs = []
        for train_idx, test_idx in folds:
            K_train = np.exp(-gamma * d2[np.ix_(train_idx, train_idx)])
            sub = _fit_ovr(
                X[train_idx],
                labels[train_idx],
                classes,
                C=C,
                gamma=gamma,
                tol=tol,
                K=K_train,
            )
            best = np.argmax(decision_matrix(sub, X[test_idx]), axis=1)
            pred = np.asarray(classes)[best]  # ties go to the earlier class
            accs.append(float(np.mean(pred == labels[test_idx])))
        result.append(float(np.mean(accs)))
    return result


def select_gamma(
    X,
    labels,
    C: float = DEFAULT_C,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> float:
    """Best-mean-accuracy gamma over GAMMA_GRID on deterministic seeded folds
    (`--gamma auto`).

    Sets of more than GAMMA_SUBSAMPLE rows are cut to a seeded subsample of
    that many first. Falls back to 1 / (d * mean feature variance) when any
    fold's training split would miss a class. Grid ties resolve to the
    smaller gamma. Fewer than 10 rows is a DataError.
    """
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    if len(labels) < 10:
        raise DataError(
            f"gamma selection needs at least 10 samples, got {len(labels)}"
        )
    if len(labels) > GAMMA_SUBSAMPLE:
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(len(labels), size=GAMMA_SUBSAMPLE, replace=False))
        X, labels = X[idx], labels[idx]
    classes = tuple(sorted(set(labels.tolist())))
    if len(classes) < 2:
        raise ValueError("gamma selection needs at least two classes")
    folds = deterministic_folds(labels, seed)
    if any(
        len(test_idx) == 0 or not set(classes) <= set(labels[train_idx].tolist())
        for train_idx, test_idx in folds
    ):
        return fallback_gamma(X)
    accs = cv_gamma_accuracies(X, labels, classes, folds, C=C, tol=tol)
    return float(GAMMA_GRID[int(np.argmax(accs))])


# ---------------------------------------------------------------------------
# Serialization.


def svm_to_dict(model: SvmModel) -> dict:
    return {
        "format_version": SVM_FORMAT_VERSION,
        "kind": "svm-ovr",
        "feature_catalog_version": FEATURE_CATALOG_VERSION,
        "classes": list(model.classes),
        "C": model.C,
        "gamma": model.gamma,
        "bias": model.bias.tolist(),
        "support_vectors": model.support_vectors.tolist(),
        "dual_coefs": model.dual_coef.tolist(),
    }


def svm_from_dict(doc: dict) -> SvmModel:
    check_header(doc, "svm-ovr", SVM_FORMAT_VERSION)
    try:
        return SvmModel(
            classes=tuple(doc["classes"]),
            support_vectors=np.array(doc["support_vectors"], dtype=float),
            dual_coef=np.array(doc["dual_coefs"], dtype=float),
            bias=np.array(doc["bias"], dtype=float),
            C=float(doc["C"]),
            gamma=float(doc["gamma"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed svm model file: {exc}") from exc


def save_svm(model: SvmModel, path) -> None:
    write_json(path, svm_to_dict(model))


def load_svm(path) -> SvmModel:
    doc = read_json(path, "svm model file")
    model = svm_from_dict(doc)  # the format version first, then the catalog
    check_catalog(doc.get("feature_catalog_version"), f"svm model file {path}")
    return model
