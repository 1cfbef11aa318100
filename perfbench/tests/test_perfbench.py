"""Tests of the benchmark itself: inputs, checks, tracing and the result
contract. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import fnmatch
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from spanaug import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_generator_is_deterministic(tmp_path):
    def generate(seed, where):
        where.mkdir()
        inputs.write_process_corpus(where / "process.json", 30, seed)
        inputs.write_synonym_inputs(where / "synonyms.json", where / "lexicon", 40, seed)
        return [p.read_bytes() for p in sorted(where.rglob("*")) if p.is_file()]

    first = generate(5, tmp_path / "a")
    assert first == generate(5, tmp_path / "b")
    assert first != generate(6, tmp_path / "c")


def test_seed_respells_the_synonym_corpus_but_keeps_its_work(tmp_path):
    trials = []
    for seed in (1, 2):
        corpus, lexicon, out = tmp_path / f"c{seed}.json", tmp_path / f"lex{seed}", tmp_path / f"o{seed}"
        inputs.write_synonym_inputs(corpus, lexicon, 20, seed)
        argv = ["optimize", "--corpus", str(corpus), "--lexicon", str(lexicon), "--out", str(out),
                "--seed", "1", "--technique", "lexicon_substitution", "--task", "md",
                "--trials", "6", "--folds", "2"]
        assert cli.main(argv) == 0
        trials.append((out / "trials.csv").read_bytes())
    assert (tmp_path / "c1.json").read_bytes() != (tmp_path / "c2.json").read_bytes()
    assert trials[0] == trials[1]


def _traced(commands):
    """Run commands through the CLI with the package wrapped in spans."""
    tracer = tracing.Tracer()
    tracing.install_package_wrappers(tracer)
    try:
        for command in commands:
            assert tracer.call(f"cli.{command.kind}", cli.main, (command.argv,), {}) == 0
    finally:
        tracer.uninstall()
    return tracer


def test_every_technique_finds_a_site_on_catalog_input(tmp_path):
    workload = workloads.AugmentCatalog(tmp_path, seed=1)
    workload.generate()
    workload.bind()
    augments = [c for c in workload.round(0) if c.kind == "augment"]
    noop = {}
    import spanaug.techniques as techniques

    def flag(result, args, kwargs):
        noop.setdefault(args[1].technique_id, []).append(result[1])

    tracer = tracing.Tracer()
    tracer.rebind(techniques, "apply_technique", "techniques.apply", flag)
    try:
        for command in augments:
            assert cli.main(command.argv) == 0
    finally:
        tracer.uninstall()
    assert set(noop) == set(workloads.CATALOG_PARAMS)
    for technique, flags in noop.items():
        assert sum(flags) < len(flags), f"{technique} is a no-op on every document"


def test_dropped_relation_counts_as_failed(tmp_path, monkeypatch):
    workload = workloads.AugmentCatalog(tmp_path, seed=2)
    workload.generate()
    workload.bind()
    first = workload.round(0)[0]
    workload.round = lambda index: [first]
    real_main = cli.main

    def corrupting_main(argv):
        code = real_main(argv)
        path = first.out / "augmented.json"
        corpus = json.loads(path.read_text(encoding="utf-8"))
        synthetic = corpus["documents"][-1]
        synthetic["relations"] = synthetic["relations"][1:]
        path.write_text(json.dumps(corpus), encoding="utf-8")
        return code

    monkeypatch.setattr(cli, "main", corrupting_main)
    result = run.Run(workload, seconds=0)
    result.execute()
    assert result.attempted == run.MIN_ROUNDS
    assert result.failed == result.attempted
    assert any("relation multiset" in p for p in result.problems)


def test_clean_run_has_no_failures_and_repeats_its_bytes(tmp_path):
    workload = workloads.AugmentCatalog(tmp_path, seed=2)
    workload.generate()
    workload.bind()
    commands = workload.round(0)[:4]
    workload.round = lambda index: commands
    result = run.Run(workload, seconds=0)
    result.execute()
    assert (result.attempted, result.failed) == (2 * len(commands), 0)
    assert len(result.digests) == len(commands)


def _small_commands(work: Path) -> list:
    """One command of every kind, on inputs small enough for a test."""
    catalog = workloads.AugmentCatalog(work / "catalog", seed=3)
    catalog.generate()
    catalog.bind()
    commands = [c for c in catalog.round(0) if c.key.startswith(("paraphrase_spans", "abbreviation"))]
    synonyms = work / "synonyms.json"
    inputs.write_synonym_inputs(synonyms, work / "lexicon", 20, 3)
    commands.append(
        workloads.Command(
            "evaluate", "evaluate",
            ["evaluate", "--corpus", str(synonyms), "--out", str(work / "evaluate"), "--seed", "1",
             "--technique", "lexicon_substitution", "--folds", "2", "--workers", "2"],
            work / "evaluate", lambda: workloads.Outcome([], 0),
        )
    )
    commands.append(
        workloads.Command(
            "optimize", "optimize",
            ["optimize", "--corpus", str(synonyms), "--out", str(work / "optimize"), "--seed", "1",
             "--lexicon", str(work / "lexicon"), "--technique", "lexicon_substitution",
             "--task", "md", "--trials", "6", "--folds", "2"],
            work / "optimize", lambda: workloads.Outcome([], 0),
        )
    )
    return commands


def test_tracing_leaves_outputs_byte_identical(tmp_path):
    commands = _small_commands(tmp_path)
    plain = []
    for command in commands:
        assert cli.main(command.argv) == 0
        plain.append(checks.output_digest(command.out, tmp_path))
    tracer = _traced(commands)
    traced = [checks.output_digest(c.out, tmp_path) for c in commands]
    assert traced == plain
    # the wrappers were really in place
    names = {s.name for s in tracer.spans}
    for name in ("providers.rewrite", "baselines.train_tagger", "baselines.train_relations",
                 "tpe.suggest", "evaluation.cross_validate", "edits.apply_edit", "stats.compare"):
        assert name in names
    # and are gone afterwards
    import spanaug.evaluation as evaluation

    assert not hasattr(evaluation.train_tagger, "__wrapped__")


def test_metric_names_match_the_benchmark_file(tmp_path):
    commands = _small_commands(tmp_path)
    tracer = _traced(commands)
    metrics = tracing.layer_metrics(tracer, 1, sorted(workloads.CATALOG_PARAMS), run.EDIT_TYPES)
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]

    report = {"trace": 0, "failed": 0, "attempted": 1,
              "end_to_end": {m["name"]: 1.0 for m in SPEC["end_to_end"]}}
    line = run.result_line(SPEC, report)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_every_layer_metric_has_a_prediction():
    predictions = json.loads((BENCH / "predictions.json").read_text(encoding="utf-8"))
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    names = set(workloads.WORKLOADS)
    for metric in SPEC["per_layer"]:
        entries = [
            e for e in predictions["layers"]
            if any(fnmatch.fnmatchcase(metric["name"], p) for p in e["metrics"])
        ]
        assert len(entries) == 1, metric["name"]
        for move in entries[0]["moves"]:
            assert move["metric"] in e2e and move["workload"] in names
        assert set(entries[0]["unchanged"]) <= names


def test_percentile_tail():
    from summary import percentile_tail

    assert percentile_tail([]) == (0, 0.0)
    assert percentile_tail([3.0, 1.0, 2.0]) == (50, 2.0)
    values = [float(i) for i in range(1, 101)]
    assert percentile_tail(values) == (90, 90.0)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "optimize-md", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workloads_cap_threads_at_the_core_count(name, tmp_path):
    import os

    assert workloads.WORKLOADS[name](tmp_path, 1).workers <= (os.cpu_count() or 1)
