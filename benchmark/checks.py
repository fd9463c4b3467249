"""Output checkers, written apart from the program's own decoding and scoring.

Every checker returns a list of error strings; an empty list means the
output passed. They only read program outputs (Detection JSON, the table
reports) and the generated scenes, plus the CRF log-potentials, which
define the labelling the CRF must return.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import os

from fformation import crf, features, pose
from fformation.pose import APPROACH_ANGLES, FORMATIONS, GROUP, GROUP_LABELS

NONE_CLASS = "(none)"
ANGLE_CLASSES = tuple(str(a) for a in APPROACH_ANGLES)
JOINT_CLASSES = tuple(f"{f}@{a}" for f in FORMATIONS for a in APPROACH_ANGLES)
REPORT_STEMS = ("table1_membership", "table2_formation", "table3_angle", "table4_joint")

# Reported values are doubles computed in another summation order; the CSV
# mirrors carry six decimals.
FLOAT_TOL = 1e-12
CSV_TOL = 5.01e-7


# ---------------------------------------------------------------------------
# CRF labelling by exhaustive search.


def _chain_score(node, trans, labels) -> float:
    s = 0.0
    for i, y in enumerate(labels):
        s += float(node[i][y])
        if i:
            s += float(trans[labels[i - 1]][y])
    return s


def best_labelling(crf_model, scene):
    """Highest-scoring G/O labelling of all 2^n, in the scene's own pose order.

    Labellings are scored in left-to-right chain order and enumerated with G
    before O, so among equal scores the G-first one wins, as the decoder's
    tie rule demands. Also returns a scorer for any labelling in input order.
    """
    perm = pose.left_to_right_permutation(scene)
    ordered = pose.Scene(
        scene.frame_id,
        scene.image_width,
        scene.image_height,
        tuple(scene.poses[i] for i in perm),
    )
    node, trans = crf.log_potentials(
        crf_model, crf.ChainInstance(features.chain_features(ordered))
    )
    best, best_score = None, None
    for labels in itertools.product(range(len(GROUP_LABELS)), repeat=len(perm)):
        score = _chain_score(node, trans, labels)
        if best_score is None or score > best_score:
            best, best_score = labels, score

    def score_of(membership) -> float:
        return _chain_score(
            node, trans, [GROUP_LABELS.index(membership[src]) for src in perm]
        )

    in_order = [""] * len(perm)
    for pos, src in enumerate(perm):
        in_order[src] = GROUP_LABELS[best[pos]]
    return in_order, best_score, score_of


def _argmax(scores: dict) -> str:
    """First key with the largest value (ties go to the earlier class)."""
    best = None
    for key, value in scores.items():
        if best is None or value > scores[best]:
            best = key
    return best


def check_detection(doc: dict, scene, crf_model) -> list[str]:
    """One cascade Detection (as parsed from its JSONL line) for one frame."""
    fid = scene.frame_id
    errors = []
    if doc.get("frame_id") != fid:
        return [f"{fid}: output frame_id {doc.get('frame_id')!r}"]
    membership = doc.get("membership")
    n = len(scene.poses)
    if not isinstance(membership, list) or len(membership) != n:
        return [f"{fid}: membership {membership!r} for {n} poses"]
    if any(m not in GROUP_LABELS for m in membership):
        return [f"{fid}: membership labels outside G/O: {membership}"]
    if doc.get("joint") is not None:
        errors.append(f"{fid}: cascade output carries a joint class")
    scores = doc.get("scores") or {}
    if n:
        best, best_score, score_of = best_labelling(crf_model, scene)
        if membership != best:
            got = score_of(membership)
            if got < best_score - 1e-9 * max(1.0, abs(best_score)):
                errors.append(
                    f"{fid}: membership {membership} scores {got:.6g}, "
                    f"best labelling {best} scores {best_score:.6g}"
                )
        g_prob = scores.get("membership_g_prob")
        if not isinstance(g_prob, list) or len(g_prob) != n or any(
            not -1e-9 <= p <= 1.0 + 1e-9 for p in g_prob
        ):
            errors.append(f"{fid}: membership_g_prob {g_prob!r}")
    n_group = membership.count(GROUP)
    formation, angle, reason = doc.get("formation"), doc.get("angle_deg"), doc.get("reason")
    if n_group < 2:
        if formation is not None or angle is not None or not reason:
            errors.append(
                f"{fid}: {n_group} G labels but formation={formation!r}, "
                f"angle={angle!r}, reason={reason!r}"
            )
        return errors
    if formation not in FORMATIONS:
        errors.append(f"{fid}: formation {formation!r} outside the class list")
    if angle not in APPROACH_ANGLES:
        errors.append(f"{fid}: angle {angle!r} outside the class list")
    f_scores, a_scores = scores.get("formation"), scores.get("angle")
    if not isinstance(f_scores, dict) or tuple(f_scores) != FORMATIONS:
        errors.append(f"{fid}: formation scores {f_scores!r}")
    elif _argmax(f_scores) != formation:
        errors.append(f"{fid}: formation {formation!r} is not the arg-max of its scores")
    if not isinstance(a_scores, dict) or tuple(a_scores) != ANGLE_CLASSES:
        errors.append(f"{fid}: angle scores {a_scores!r}")
    elif _argmax(a_scores) != str(angle):
        errors.append(f"{fid}: angle {angle!r} is not the arg-max of its scores")
    want_reason = "group_overflow" if n_group > 3 else None
    if reason != want_reason:
        errors.append(f"{fid}: {n_group} G labels but reason {reason!r}")
    return errors


# ---------------------------------------------------------------------------
# Classification scores from a confusion matrix.


def scores_from_confusion(confusion) -> dict:
    """Per-class precision/recall/F1 (0 where undefined), weighted means, accuracy."""
    k = len(confusion)
    support = [sum(row) for row in confusion]
    predicted = [sum(confusion[g][p] for g in range(k)) for p in range(k)]
    total = sum(support)
    precision, recall, f1 = [], [], []
    for c in range(k):
        tp = confusion[c][c]
        p = tp / predicted[c] if predicted[c] else 0.0
        r = tp / support[c] if support[c] else 0.0
        precision.append(p)
        recall.append(r)
        f1.append(2 * p * r / (p + r) if p + r else 0.0)

    def weighted(values):
        return sum(s * v for s, v in zip(support, values)) / total

    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "support": support,
        "weighted_precision": weighted(precision),
        "weighted_recall": weighted(recall),
        "weighted_f1": weighted(f1),
        "accuracy": sum(confusion[c][c] for c in range(k)) / total,
    }


def confusion_of(gold, pred, classes) -> list[list[int]]:
    index = {c: i for i, c in enumerate(classes)}
    confusion = [[0] * len(classes) for _ in classes]
    for g, p in zip(gold, pred):
        confusion[index[g]][index[p]] += 1
    return confusion


def weighted_f1(gold, pred, classes) -> float:
    return scores_from_confusion(confusion_of(gold, pred, classes))["weighted_f1"]


def _close(a, b, tol=FLOAT_TOL) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= tol * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# Table reports (experiments.run_experiment output directory).


def expected_supports(test_scenes) -> dict:
    """Per-table class counts of the labelled test scenes, from their truth."""
    counts = {
        "table1_membership": dict.fromkeys(GROUP_LABELS, 0),
        "table2_formation": dict.fromkeys(FORMATIONS + (NONE_CLASS,), 0),
        "table3_angle": dict.fromkeys(ANGLE_CLASSES + (NONE_CLASS,), 0),
        "table4_joint": dict.fromkeys(JOINT_CLASSES, 0),
    }
    for s in test_scenes:
        t = s.truth
        for m in t.membership:
            counts["table1_membership"][m] += 1
        counts["table2_formation"][t.formation] += 1
        counts["table3_angle"][str(t.angle_deg)] += 1
        counts["table4_joint"][f"{t.formation}@{t.angle_deg}"] += 1
    return counts


def read_reports(out_dir) -> dict[str, bytes]:
    """Every file the experiment wrote, by name."""
    return {
        name: open(os.path.join(out_dir, name), "rb").read()
        for name in sorted(os.listdir(out_dir))
    }


def _csv_rows(files, stem):
    return list(csv.reader(io.StringIO(files[stem + ".csv"].decode("utf-8"))))


def _check_classification(files, stem, classes, supports) -> tuple[list[str], float]:
    """Tables 1-3: JSON scores and CSV rows against the JSON confusion matrix."""
    doc = json.loads(files[stem + ".json"])
    rep = doc["report"]
    errors = []
    if tuple(rep["classes"]) != classes:
        return [f"{stem}: classes {rep['classes']}"], float("nan")
    confusion = rep["confusion"]
    if len(confusion) != len(classes) or any(
        len(row) != len(classes) or any(not isinstance(v, int) or v < 0 for v in row)
        for row in confusion
    ):
        return [f"{stem}: malformed confusion matrix"], float("nan")
    sc = scores_from_confusion(confusion)
    for i, c in enumerate(classes):
        if sc["support"][i] != supports[c]:
            errors.append(
                f"{stem}: confusion row {c!r} sums to {sc['support'][i]}, "
                f"the test set has {supports[c]}"
            )
        pc = rep["per_class"][c]
        if pc["support"] != supports[c]:
            errors.append(f"{stem}: support of {c!r} {pc['support']} != {supports[c]}")
        for key in ("precision", "recall", "f1"):
            if not _close(pc[key], sc[key][i]):
                errors.append(f"{stem}: {key} of {c!r} {pc[key]!r} != {sc[key][i]!r}")
    for key in ("weighted_precision", "weighted_recall", "weighted_f1", "accuracy"):
        if not _close(rep[key], sc[key]):
            errors.append(f"{stem}: {key} {rep[key]!r} != {sc[key]!r}")

    rows = _csv_rows(files, stem)
    body = {r[0]: r for r in rows[1:]}
    shown = [c for c in classes if c != NONE_CLASS]
    if [r[0] for r in rows[1:]] != shown + ["weighted_avg"]:
        errors.append(f"{stem}.csv: row labels {[r[0] for r in rows[1:]]}")
        return errors, sc["weighted_f1"]
    for c in shown:
        i = classes.index(c)
        want = (sc["precision"][i], sc["recall"][i], sc["f1"][i])
        got = tuple(float(v) for v in body[c][1:4])
        if any(abs(g - w) > CSV_TOL for g, w in zip(got, want)) or int(body[c][4]) != supports[c]:
            errors.append(f"{stem}.csv: row {c!r} {body[c][1:5]} != {want}, {supports[c]}")
    avg = body["weighted_avg"]
    want = (sc["weighted_precision"], sc["weighted_recall"], sc["weighted_f1"])
    if any(abs(float(g) - w) > CSV_TOL for g, w in zip(avg[1:4], want)) or int(
        avg[4]
    ) != sum(supports.values()):
        errors.append(f"{stem}.csv: weighted_avg row {avg[1:5]} != {want}")
    if stem == "table2_formation":
        # Overall rule accuracy is the support-weighted mean of the per-class ones.
        total = sum(supports.values())
        mean = sum(float(body[c][5]) * supports[c] for c in shown) / total
        if abs(mean - doc["rule_accuracy_overall"]) > 2 * CSV_TOL:
            errors.append(
                f"{stem}: rule_accuracy_overall {doc['rule_accuracy_overall']!r}"
                f" != per-class mean {mean!r}"
            )
    return errors, sc["weighted_f1"]


def _check_joint(files, supports) -> tuple[list[str], float]:
    stem = "table4_joint"
    doc = json.loads(files[stem + ".json"])
    errors = []
    cells = doc["cells"]
    if set(cells) != set(JOINT_CLASSES):
        return [f"{stem}: cells {sorted(cells)}"], float("nan")
    hits = {}
    for cls in JOINT_CLASSES:
        cell = cells[cls]
        n = cell["n"]
        if n != supports[cls]:
            errors.append(f"{stem}: cell {cls} n={n}, the test set has {supports[cls]}")
        for key in ("learned_accuracy", "rule_accuracy"):
            h = cell[key] * n
            if abs(h - round(h)) > 1e-9 or not 0.0 <= cell[key] <= 1.0:
                errors.append(f"{stem}: {key} of {cls} {cell[key]!r} is not k/{n}")
        hits[cls] = (round(cell["learned_accuracy"] * n), round(cell["rule_accuracy"] * n))
    total = sum(supports.values())
    learned = sum(h[0] for h in hits.values()) / total
    rule = sum(h[1] for h in hits.values()) / total
    if not _close(doc["learned_accuracy_avg"], learned):
        errors.append(f"{stem}: learned_accuracy_avg {doc['learned_accuracy_avg']!r} != {learned!r}")
    if not _close(doc["rule_accuracy_avg"], rule):
        errors.append(f"{stem}: rule_accuracy_avg {doc['rule_accuracy_avg']!r} != {rule!r}")
    rows = _csv_rows(files, stem)
    for row, cls in zip(rows[1:], JOINT_CLASSES):
        f, a = cls.rsplit("@", 1)
        cell = cells[cls]
        if (
            row[0] != f
            or row[1] != a
            or int(row[2]) != cell["n"]
            or abs(float(row[3]) - cell["learned_accuracy"]) > CSV_TOL
            or abs(float(row[4]) - cell["rule_accuracy"]) > CSV_TOL
        ):
            errors.append(f"{stem}.csv: row {row} != {cls} {cell}")
    last = rows[-1]
    if len(rows) != len(JOINT_CLASSES) + 2 or last[0] != "average" or int(last[2]) != total or abs(
        float(last[3]) - learned
    ) > CSV_TOL:
        errors.append(f"{stem}.csv: average row {last}")
    return errors, learned


def check_reports(files: dict[str, bytes], test_scenes, seed: int) -> tuple[list[str], dict]:
    """All four tables; returns errors and the quality figures they hold."""
    missing = [s for s in REPORT_STEMS for ext in (".csv", ".json") if s + ext not in files]
    if missing:
        return [f"reports missing: {missing}"], {}
    errors = []
    supports = expected_supports(test_scenes)
    for stem in REPORT_STEMS:
        if json.loads(files[stem + ".json"]).get("seed") != seed:
            errors.append(f"{stem}: seed not echoed")
    quality = {}
    for key, stem, classes in (
        ("membership_f1", "table1_membership", GROUP_LABELS),
        ("formation_f1", "table2_formation", FORMATIONS + (NONE_CLASS,)),
        ("angle_f1", "table3_angle", ANGLE_CLASSES + (NONE_CLASS,)),
    ):
        errs, quality[key] = _check_classification(files, stem, classes, supports[stem])
        errors += errs
    errs, quality["joint_accuracy"] = _check_joint(files, supports["table4_joint"])
    errors += errs
    meta = json.loads(files["meta.json"])
    if meta.get("n_test_scenes") != len(test_scenes):
        errors.append(f"meta.json: n_test_scenes {meta.get('n_test_scenes')} != {len(test_scenes)}")
    return errors, quality


def check_floors(quality: dict, floors: dict, what: str) -> list[str]:
    return [
        f"{what}: {key} {quality[key]:.4f} below the floor {floor}"
        for key, floor in floors.items()
        if not quality[key] >= floor
    ]
