"""The benchmark's workloads: what each one generates, which CLI commands
make up one round of it, and how each command's output is checked.

A round is the unit the workload repeats until its time is up:

* augment-catalog: for each of the fifteen techniques, ``augment`` with
  n_aug=2 on the process-domain corpus, then ``analyze`` on its output;
* evaluate-both: one ``evaluate --task both`` of lexicon substitution,
  alternating between two CLI seeds from round to round;
* optimize-md: one 25-trial ``optimize`` of lexicon substitution for
  mention detection on the synonym-class corpus and its lexicon.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import checks
import inputs

# Parameters under which every technique changes the documents it finds
# a site in, so the catalog measures real edits, not identity copies.
CATALOG_PARAMS = {
    "random_token_deletion": ["p=0.4"],
    "random_token_insertion": ["n=3"],
    "random_token_swap": ["s=3"],
    "filler_word_insertion": ["p=0.4", "in_mentions=true"],
    "synonym_insertion": ["p=0.5"],
    "lexicon_substitution": ["mode=synonym", "p=0.5"],
    "auxiliary_negation_removal": ["p=1.0"],
    "abbreviation_toggle": ["p=1.0"],
    "mention_replacement": ["p=0.5"],
    "shuffle_within_segments": ["p=0.8"],
    "sentence_reordering": ["p=1.0"],
    "sentence_concatenation": ["n_merges=2"],
    "subsequence_substitution": ["p=0.5"],
    "paraphrase_spans": ["pivot=fr"],
    "model_word_replacement": ["p=0.5", "in_mentions=true"],
}
CATALOG_DOCS = 100
N_AUG = 2
EVALUATE_DOCS = 100
FOLDS = 5
OPTIMIZE_DOCS = 40
TRIALS = 25
OPTIMIZE_SEED = 1


RATE_UNITS = {"augment": "docs", "analyze": "docs", "evaluate": "folds", "optimize": "trials"}


@dataclass
class Spent:
    """What commands of one kind took and did."""

    seconds: float = 0.0
    units: int = 0
    commands: int = 0

    @property
    def rate(self) -> float:
        return self.units / self.seconds

    def add(self, seconds: float, units: int, commands: int = 1) -> None:
        self.seconds += seconds
        self.units += units
        self.commands += commands


def total(rounds: list[dict[str, Spent]]) -> dict[str, Spent]:
    """Rounds summed per command kind."""
    out: dict[str, Spent] = {}
    for spent in rounds:
        for kind, s in spent.items():
            out.setdefault(kind, Spent()).add(s.seconds, s.units, s.commands)
    return out


class Outcome(NamedTuple):
    problems: list[str]
    units: int  # work the command completed, in its workload's unit
    failed_trials: int = 0


@dataclass
class Command:
    """One CLI command of a round. Commands with equal keys must write
    identical bytes: that is the determinism check."""

    key: str
    kind: str  # augment | analyze | evaluate | optimize
    argv: list[str]
    out: Path
    check: Callable[[], Outcome]
    trials: int = 0  # optimize trials, each counted as an operation


class Workload:
    name: str
    primary: str  # the command kind whose rate is the workload's throughput
    workers: int = 1

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.inputs = work / "inputs"
        self.outputs = work / "outputs"

    def generate(self) -> None:
        raise NotImplementedError

    def setup_files(self) -> tuple[Path, Path | None]:
        """(corpus, lexicon directory or None for the bundled one)."""
        raise NotImplementedError

    def bind(self) -> None:
        """Load reference data with the package as finally imported."""

    def round(self, index: int) -> list[Command]:
        raise NotImplementedError

    def throughput(self, spent: dict[str, Spent]) -> float:
        """Work per second of the given commands: by default the rate of
        the primary command kind."""
        return spent[self.primary].rate

    def named_rates(self, spent: dict[str, Spent]) -> dict[str, float]:
        """The rates users of each command know, by name."""
        return {f"{kind}_{RATE_UNITS[kind]}_per_s": s.rate for kind, s in spent.items()}

    def _common(self, command: str, out: Path, corpus: Path) -> list[str]:
        return [command, "--corpus", str(corpus), "--out", str(out)]


def _workers() -> int:
    return max(1, min(2, os.cpu_count() or 1))


class AugmentCatalog(Workload):
    name = "augment-catalog"
    primary = "augment"

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.workers = _workers()
        self.corpus = self.inputs / "process.json"

    def generate(self):
        self.inputs.mkdir(parents=True, exist_ok=True)
        inputs.write_process_corpus(self.corpus, CATALOG_DOCS, self.seed)

    def setup_files(self):
        return self.corpus, None

    def bind(self):
        from spanaug.corpus import load_corpus

        self.original = load_corpus(self.corpus)
        self.augmented = {}

    def round(self, index):
        n = len(self.original.documents)
        commands = []
        for technique, params in CATALOG_PARAMS.items():
            augment_out = self.outputs / f"augment-{technique}"
            analyze_out = self.outputs / f"analyze-{technique}"
            argv = self._common("augment", augment_out, self.corpus) + [
                "--seed", str(self.seed), "--technique", technique,
                "--workers", str(self.workers), "--params", *params, f"n_aug={N_AUG}",
            ]
            commands.append(
                Command(
                    technique, "augment", argv, augment_out,
                    lambda out=augment_out: Outcome(self._check_augment(out), N_AUG * n),
                )
            )
            argv = self._common("analyze", analyze_out, self.corpus) + [
                "--augmented", str(augment_out / "augmented.json"), "--technique", technique,
            ]
            commands.append(
                Command(
                    f"{technique}/analyze", "analyze", argv, analyze_out,
                    lambda out=analyze_out, t=technique: Outcome(
                        self._check_analyze(out, t), n + (1 + N_AUG) * n
                    ),
                )
            )
        return commands

    def throughput(self, spent):
        """Source documents taken through augment and analyze per second,
        over the whole catalog, so a faster write that slows the read shows."""
        documents = len(self.original.documents) * spent["augment"].commands
        return documents / sum(s.seconds for s in spent.values())

    def _check_augment(self, out: Path) -> list[str]:
        problems, self.augmented[out] = checks.check_augment(out, self.original, N_AUG)
        return problems

    def _check_analyze(self, out: Path, technique: str) -> list[str]:
        augmented = self.augmented.pop(self.outputs / f"augment-{technique}", None)
        if augmented is None:
            return ["no checked augment output to compare with"]
        return checks.check_analyze(out, self.original, augmented)


class EvaluateBoth(Workload):
    name = "evaluate-both"
    primary = "evaluate"

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.workers = _workers()
        self.corpus = self.inputs / "process.json"
        self.cli_seeds = (seed, seed + 1)

    def generate(self):
        self.inputs.mkdir(parents=True, exist_ok=True)
        inputs.write_process_corpus(self.corpus, EVALUATE_DOCS, self.seed)

    def setup_files(self):
        return self.corpus, None

    def round(self, index):
        cli_seed = self.cli_seeds[index % len(self.cli_seeds)]
        out = self.outputs / f"evaluate-{cli_seed}"
        argv = self._common("evaluate", out, self.corpus) + [
            "--seed", str(cli_seed), "--technique", "lexicon_substitution",
            "--task", "both", "--folds", str(FOLDS), "--workers", str(self.workers),
            "--params", "mode=synonym", "p=0.5", f"n_aug={N_AUG}",
        ]
        check = lambda: Outcome(checks.check_evaluate(out, ("md", "re"), FOLDS), FOLDS)  # noqa: E731
        return [Command(f"seed-{cli_seed}", "evaluate", argv, out, check)]


class OptimizeMd(Workload):
    name = "optimize-md"
    primary = "optimize"

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.corpus = self.inputs / "synonyms.json"
        self.lexicon = self.inputs / "lexicon"
        # The search seed is fixed like the corpus structure (see inputs):
        # with both fixed, every workload seed asks for the same trials.
        self.cli_seed = OPTIMIZE_SEED

    def generate(self):
        self.inputs.mkdir(parents=True, exist_ok=True)
        inputs.write_synonym_inputs(self.corpus, self.lexicon, OPTIMIZE_DOCS, self.seed)

    def setup_files(self):
        return self.corpus, self.lexicon

    def round(self, index):
        out = self.outputs / "optimize"
        argv = self._common("optimize", out, self.corpus) + [
            "--lexicon", str(self.lexicon), "--seed", str(self.cli_seed),
            "--technique", "lexicon_substitution", "--task", "md",
            "--trials", str(TRIALS), "--folds", str(FOLDS), "--workers", "1",
        ]

        def check():
            problems, failed = checks.check_optimize(out, TRIALS)
            return Outcome(problems, TRIALS - failed, failed)

        return [Command("optimize", "optimize", argv, out, check, trials=TRIALS)]


WORKLOADS = {w.name: w for w in (AugmentCatalog, EvaluateBoth, OptimizeMd)}
