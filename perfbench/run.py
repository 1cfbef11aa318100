"""Benchmark of the spanaug CLI on three seeded workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload augment-catalog --seed 1 --seconds 40 --trace 0

generates the workload's inputs from the seed, then repeats rounds of CLI
commands, called in-process through ``spanaug.cli.main``, until the time
is up. Set-up (import, lexicon, corpus load and validation) is measured
in small batches spread over the run, so its median sees the same machine
as the commands do. Every command's output is checked and digested; a repeated
command must write the same bytes as its first run. Human-readable
metrics go to stdout, and its last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` the
package's inter-module calls are wrapped in spans and the metrics are
the per-layer ones. The full report of the run, digest and environment
included, is written to ``.perfbench/``.

    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --out BENCH.json

runs every workload untraced and traced in child processes, prints every
end-to-end metric with its unit, and writes a BENCH file with the
per-layer metrics, the tracing overhead and the layer predictions of
``perfbench/predictions.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing
import workloads
from workloads import Outcome, Spent

HERE = Path(__file__).resolve().parent
SETUP_BATCH = 3  # set-up samples taken back to back
SETUP_EVERY_S = 4.0  # seconds of the run between set-up batches
MIN_ROUNDS = 2
EDIT_TYPES = (
    "InsertTokens", "DeleteTokens", "ReplaceSpan", "SwapTokens", "PermuteSentences", "MergeSentences",
)


def _package_modules() -> list[str]:
    return [m for m in sys.modules if m == "spanaug" or m.startswith("spanaug.")]


def measure_setup(corpus: Path, lexicon: Path | None) -> float:
    """Fresh import of the package, lexicon load, corpus load and
    validation: what every command pays before its first edit. The
    modules imported before are put back afterwards, so the run's
    bindings and wrappers stay in place."""
    kept = {name: sys.modules.pop(name) for name in _package_modules()}
    try:
        start = time.perf_counter()
        cli = importlib.import_module("spanaug.cli")
        cli.load_lexicon(lexicon) if lexicon else cli.builtin_lexicon()
        cli.load_corpus(corpus)
        return time.perf_counter() - start
    finally:
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(kept)


class Run:
    """One workload for one seed: rounds of commands until time is up."""

    def __init__(self, workload, seconds: float, tracer=None):
        self.workload = workload
        self.seconds = seconds
        self.tracer = tracer
        self.setups: list[float] = []
        self._last_setup = 0.0
        self.rounds: list[dict] = []  # per round: seconds and units per command kind
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def execute(self) -> None:
        from spanaug.cli import main

        started = time.perf_counter()
        self._measure_setup()
        op = 0
        while len(self.rounds) < MIN_ROUNDS or self._room_for_a_round(started):
            spent: dict[str, Spent] = {}
            for command in self.workload.round(len(self.rounds)):
                if time.perf_counter() - self._last_setup >= SETUP_EVERY_S:
                    self._measure_setup()
                op += 1
                exit_code, elapsed = self._call(main, command, op)
                try:
                    outcome = command.check()
                except (KeyError, ValueError, TypeError, IndexError) as e:
                    outcome = Outcome([f"malformed output: {e!r}"], 0, command.trials)
                problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
                problems += outcome.problems
                digest = checks.output_digest(command.out, self.workload.work)
                first = self.digests.setdefault(command.key, digest)
                if digest != first:
                    problems.append("output bytes differ from the first run of this command")
                self.attempted += 1 + command.trials
                self.failed += bool(problems) + outcome.failed_trials
                self.problems += [f"{command.key}: {p}" for p in problems[:5]]
                spent.setdefault(command.kind, Spent()).add(elapsed, outcome.units)
            self.rounds.append(spent)
        self._measure_setup()

    def _measure_setup(self) -> None:
        gc.collect()  # every batch starts from the same collector state
        corpus, lexicon = self.workload.setup_files()
        self.setups += [measure_setup(corpus, lexicon) for _ in range(SETUP_BATCH)]
        self._last_setup = time.perf_counter()

    def _room_for_a_round(self, started: float) -> bool:
        """Start another round only if one more of average length ends
        within the time, so a run never measures much past it."""
        elapsed = time.perf_counter() - started
        return elapsed + elapsed / len(self.rounds) <= self.seconds

    def _call(self, main, command, op: int) -> tuple[int | None, float]:
        start = time.perf_counter()
        try:
            if self.tracer is None:
                exit_code = main(command.argv)
            else:
                self.tracer.op = op
                exit_code = self.tracer.call(f"cli.{command.kind}", main, (command.argv,), {})
        except Exception:  # a crash is a failed operation, reported with its traceback
            traceback.print_exc()
            exit_code = None
        return exit_code, time.perf_counter() - start

    def digest(self) -> str:
        text = "\n".join(f"{key} {value}" for key, value in sorted(self.digests.items()))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def environment(root: Path) -> dict:
    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": commit,
    }


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = root / ".perfbench" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workload = workloads.WORKLOADS[name](work, seed)
        workload.generate()
        workload.bind()
        tracer = None
        if trace:
            tracer = tracing.Tracer()
            tracing.install_package_wrappers(tracer)
        run = Run(workload, seconds, tracer)
        try:
            run.execute()
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    total = workloads.total(run.rounds)
    round_throughputs = [workload.throughput(spent) for spent in run.rounds]
    end_to_end = {
        "setup_s": statistics.median(run.setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "throughput_per_s": statistics.median(round_throughputs),
    }
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "workers": workload.workers,
        "rounds": len(run.rounds),
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_ratio": run.failed / run.attempted,
        "problems": run.problems[:50],
        "digest": run.digest(),
        "end_to_end": end_to_end,
        "named_rates": workload.named_rates(total),
        "round_throughputs": round_throughputs,
        "setup_samples_s": run.setups,
        "round_samples": [
            {kind: dataclasses.asdict(s) for kind, s in spent.items()} for spent in run.rounds
        ],
        "environment": environment(root),
    }
    if tracer is not None:
        report["per_layer"] = tracing.layer_metrics(
            tracer, len(run.rounds), sorted(workloads.CATALOG_PARAMS), EDIT_TYPES
        )
        tracer.write(root / ".perfbench" / f"trace-{name}.jsonl")
    return report


def result_line(spec: dict, report: dict) -> dict:
    """The last stdout line: the metrics BENCHMARK.json names, no more."""
    section, values = (
        ("per_layer", report["per_layer"]) if report["trace"] else ("end_to_end", report["end_to_end"])
    )
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]
        },
    }


def print_human(spec: dict, report: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(f"# {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"rounds={report['rounds']} digest={report['digest'][:16]}")
    for name, value in report["end_to_end"].items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, value in report["named_rates"].items():
        print(f"{name} = {value:.6g} 1/s")
    print(f"failed_ratio = {report['failed_ratio']:.6g} ({report['failed']}/{report['attempted']})")
    for problem in report["problems"][:10]:
        print(f"problem: {problem}")


def _round_spread(rounds: list[float]) -> float:
    return (max(rounds) - min(rounds)) / statistics.median(rounds)


def tracing_overhead(plain: dict, traced: dict, bound: float) -> dict:
    """Change of the throughput under tracing, between the median rounds
    of the untraced and the traced run. The two runs are two processes,
    so a change within the throughput's bound (what two runs of the same
    code may differ by) or within the spread of either run's rounds is
    the machine's drift as much as the tracer's cost: it is marked
    unresolved."""
    plain_rounds, traced_rounds = plain["round_throughputs"], traced["round_throughputs"]
    change = statistics.median(traced_rounds) / statistics.median(plain_rounds) - 1
    noise = max(bound, _round_spread(plain_rounds), _round_spread(traced_rounds))
    return {
        "throughput_change": change,
        "noise": noise,
        "resolved": abs(change) > noise,
        "peak_rss_change": traced["end_to_end"]["peak_rss_mb"] / plain["end_to_end"]["peak_rss_mb"] - 1,
    }


def run_all(root: Path, spec: dict, seed: int, seconds: int, out: Path) -> int:
    """Every workload untraced, then traced, each in its own process."""
    reports = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            argv = [
                sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, text=True)
            sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
            if proc.returncode != 0:
                print(f"error: {name} trace={trace} exited with {proc.returncode}", file=sys.stderr)
                return 1
            path = root / ".perfbench" / f"report-{name}-seed{seed}-trace{trace}.json"
            reports[(name, trace)] = json.loads(path.read_text(encoding="utf-8"))

    bench = {
        "environment": reports[(spec["workloads"][0]["name"], 0)]["environment"],
        "seed": seed,
        "seconds": seconds,
        "metrics": {m["name"]: {k: v for k, v in m.items() if k != "name"} for m in spec["end_to_end"]},
        "predictions": json.loads((HERE / "predictions.json").read_text(encoding="utf-8")),
        "workloads": {},
    }
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in spec["workloads"]:
        name = workload["name"]
        plain, traced = reports[(name, 0)], reports[(name, 1)]
        bench["workloads"][name] = {
            "why": workload["why"],
            "workers": plain["workers"],
            "digest": plain["digest"],
            "digest_matches_traced_run": plain["digest"] == traced["digest"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "failed_ratio": plain["failed_ratio"],
            "end_to_end": {**plain["end_to_end"], **plain["named_rates"]},
            "tracing_overhead": tracing_overhead(plain, traced, bounds["throughput_per_s"]),
            "per_layer": traced["per_layer"],
        }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the spanaug CLI.")
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="BENCH file written by --workload all")
    args = parser.parse_args(argv)

    root = Path.cwd()
    package = root / "src" / "spanaug" / "__init__.py"
    if not package.is_file():
        print(f"error: {package} not found; run from the root of a spanaug checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    sys.path.insert(0, str(root / "src"))

    if args.workload == "all":
        out = Path(args.out) if args.out else root / ".perfbench" / f"BENCH-seed{args.seed}.json"
        return run_all(root, spec, args.seed, args.seconds, out)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(names)}, all")

    report = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    path = root / ".perfbench" / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print_human(spec, report)
    print(json.dumps(result_line(spec, report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
