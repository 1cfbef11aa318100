"""Correctness checks on the outputs of every benchmarked command, and the
digest of output bytes.

Each check returns a list of problems; an empty list means the output is
correct. The benchmark counts a command with any problem as failed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from collections import Counter
from pathlib import Path


def _origin(doc_id: str) -> str:
    """Strip the -augK suffixes the CLI gives synthetic documents."""
    while True:
        head, sep, tail = doc_id.rpartition("-aug")
        if not (sep and tail.isdigit()):
            return doc_id
        doc_id = head


def relation_multiset(doc) -> Counter:
    return Counter((r.type, r.head, r.tail) for r in doc.relations)


def check_synthetic(original, documents, n_aug: int) -> list[str]:
    """Synthetic documents validate and conserve their origin's mention
    count and relation multiset; there are n_aug per original."""
    from spanaug.corpus import validate_document

    problems = []
    by_id = {d.id: d for d in original.documents}
    if len(documents) != n_aug * len(original.documents):
        problems.append(
            f"{len(documents)} synthetic documents for {len(original.documents)} originals "
            f"at n_aug={n_aug}"
        )
    for doc in documents:
        for violation in validate_document(doc):
            problems.append(f"{doc.id}: {violation}")
        source = by_id.get(_origin(doc.id))
        if source is None:
            problems.append(f"{doc.id}: no original document")
            continue
        if len(doc.mentions) != len(source.mentions):
            problems.append(
                f"{doc.id}: {len(doc.mentions)} mentions, origin has {len(source.mentions)}"
            )
        if relation_multiset(doc) != relation_multiset(source):
            problems.append(f"{doc.id}: relation multiset differs from {source.id}")
    return problems


def check_augment(out: Path, original, n_aug: int):
    """(problems, the parsed augmented corpus or None)."""
    from spanaug.corpus import parse_corpus

    try:
        combined = parse_corpus((out / "augmented.json").read_bytes())
    except (OSError, ValueError) as e:
        return [f"augmented.json: {e}"], None
    n = len(original.documents)
    problems = []
    if combined.documents[:n] != original.documents:
        problems.append("augmented.json does not start with the unchanged originals")
    problems += check_synthetic(original, combined.documents[n:], n_aug)
    problems += _csv_shape(out / "stats_delta.csv", rows=1)
    return problems, combined


def _csv_shape(path: Path, rows: int) -> list[str]:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as e:
        return [f"{path.name}: {e}"]
    if len(lines) != rows + 1:
        return [f"{path.name}: {len(lines) - 1} rows, expected {rows}"]
    return []


def check_analyze(out: Path, original, augmented) -> list[str]:
    """stats.csv counts agree with counts taken directly from the corpora."""
    problems = _csv_shape(out / "stats.csv", rows=2) + _csv_shape(out / "stats_delta.csv", rows=1)
    if problems:
        return problems
    rows = list(csv.DictReader(io.StringIO((out / "stats.csv").read_text(encoding="utf-8"))))
    for row, corpus in zip(rows, (original, augmented)):
        expected = {
            "tokens": sum(len(d.tokens) for d in corpus.documents),
            "mentions": sum(len(d.mentions) for d in corpus.documents),
            "relations": sum(len(d.relations) for d in corpus.documents),
        }
        for key, value in expected.items():
            if int(row[key]) != value:
                problems.append(f"stats.csv {row['corpus']}.{key} = {row[key]}, expected {value}")
    return problems


def _in_unit_interval(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 1.0


def check_evaluate(out: Path, tasks, folds: int) -> list[str]:
    """Every F1 in gain_report.json lies in [0, 1], with one value per
    fold, and the gain is the difference of the arm means."""
    try:
        report = json.loads((out / "gain_report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        return [f"gain_report.json: {e}"]
    problems = []
    for task in tasks:
        gain = report.get("tasks", {}).get(task)
        if gain is None:
            problems.append(f"gain_report.json: no {task} result")
            continue
        values = [gain["baseline_f1"], gain["augmented_f1"]]
        for arm in ("fold_baseline", "fold_augmented"):
            if len(gain[arm]) != folds:
                problems.append(f"{task}.{arm}: {len(gain[arm])} folds, expected {folds}")
            values += gain[arm]
        if not all(_in_unit_interval(v) for v in values):
            problems.append(f"{task}: F1 outside [0, 1]")
        elif not math.isclose(gain["gain"], gain["augmented_f1"] - gain["baseline_f1"], abs_tol=1e-12):
            problems.append(f"{task}: gain is not augmented_f1 - baseline_f1")
    return problems + _csv_shape(out / "gain_report.csv", rows=len(tasks))


def check_optimize(out: Path, trials: int) -> tuple[list[str], int]:
    """trials.csv has one row per trial. Returns the problems and the
    number of trials that failed (a missing row counts as failed)."""
    try:
        rows = list(csv.DictReader(io.StringIO((out / "trials.csv").read_text(encoding="utf-8"))))
        best = json.loads((out / "best_config.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        return [f"optimize outputs: {e}"], trials
    problems = []
    if [int(r["trial"]) for r in rows] != list(range(trials)):
        problems.append(f"trials.csv: {len(rows)} rows, expected one per trial ({trials})")
    failed = [r for r in rows if r["status"] != "complete"]
    objectives = [float(r["objective"]) for r in rows if r["status"] == "complete"]
    if failed:
        problems.append(f"{len(failed)} trials failed")
    if not all(-1.0 <= v <= 1.0 for v in objectives):
        problems.append("trials.csv: objective outside [-1, 1]")
    if objectives and best.get("objective") != max(objectives):
        problems.append("best_config.json does not hold the best objective")
    return problems, len(failed) + max(trials - len(rows), 0)


def output_digest(out: Path, work: Path) -> str:
    """SHA-256 over every output file, names included. Paths under the
    run's work directory are written relative to it, so the digest does
    not depend on where the run happens."""
    h = hashlib.sha256()
    prefix = str(work).encode("utf-8")
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode("utf-8") + b"\0")
        h.update(path.read_bytes().replace(prefix, b"$WORK") + b"\0")
    return h.hexdigest()
