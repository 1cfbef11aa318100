"""Batch entry points: augment a corpus, measure a technique's gain,
optimize its parameters, and compare corpus statistics.

Every run takes an explicit --seed (no wall-clock default), and outputs
are fully determined by the recorded manifest: rerunning with the same
flags reproduces every output byte for byte.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

from . import __version__
from .corpus import Corpus, CorpusParseError, CorpusValidationError, load_corpus, serialize_corpus
from .evaluation import cross_validate
from .lexicon import LexiconError, builtin_lexicon, load_lexicon
from .providers import make_provider
from .stats import (
    CorpusStats,
    StatsDelta,
    compare_stats,
    corpus_stats,  # unused here; the benchmark tracer rebinds cli.corpus_stats
)
from .techniques import ConfigError, TechniqueConfig, augment_corpus, resolve_technique
from .tpe import best_trial, optimize

# The first entry whose classes match an error decides the exit code.
_EXIT_CODES = (
    ((CorpusParseError, CorpusValidationError, LexiconError, RuntimeError), 1),
    ((ValueError, FileNotFoundError, NotADirectoryError), 2),
    (OSError, 1),
)


def _parse_value(text: str):
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def _parse_params(pairs) -> dict:
    params = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigError(f"--params entries must look like key=value, got {pair!r}")
        if key in params:
            raise ConfigError(f"--params gives {key!r} more than once")
        params[key] = _parse_value(value)
    return params


def _build_config(technique_id: str, pairs) -> TechniqueConfig:
    resolve_technique(technique_id)  # fail early with the offending id
    params = _parse_params(pairs)
    n_aug = params.pop("n_aug", 1)
    return TechniqueConfig(technique_id, params, n_aug=n_aug)


def _load_inputs(args):
    # checked for every command, also for augment, which ignores --workers
    if args.workers < 1:
        raise ValueError(f"workers must be >= 1, got {args.workers}")
    corpus = load_corpus(args.corpus)
    lexicon = load_lexicon(args.lexicon) if args.lexicon else builtin_lexicon()
    provider = make_provider(args.provider)
    return corpus, lexicon, provider


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def _csv_bytes(header, rows) -> bytes:
    """A CSV table with standard quoting: only fields that hold a comma, a
    quote or a line break are quoted; None is written as an empty field."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode()


def _delta_csv(technique: str, d: StatsDelta) -> bytes:
    header = ("technique_id", "vocab_delta", "mention_len_delta", "direction_flip_rate")
    row = (technique, d.vocabulary_delta, d.mention_length_delta, d.direction_flip_rate)
    return _csv_bytes(header, [row])


def _write_outputs(args, files: dict[str, bytes]) -> None:
    """Write a command's files plus its manifest. All content is built in
    memory first; nothing is written until every output exists, so
    failures leave no partial files."""
    # workers is deliberately absent: it never changes outputs, so
    # manifests stay byte-identical across worker counts
    options = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "fn", "out", "workers")
    }
    manifest = {
        "artifact": "spanaug",
        "version": __version__,
        "command": args.command,
        "options": options,
        "outputs": sorted(files),
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, content in {**files, "manifest.json": _json_bytes(manifest)}.items():
        (out_dir / name).write_bytes(content)


def cmd_augment(args) -> dict[str, bytes]:
    corpus, lexicon, provider = _load_inputs(args)
    config = _build_config(args.technique, args.params)
    synthetic = augment_corpus(corpus, config, args.seed, lexicon=lexicon, provider=provider)
    types = (corpus.mention_types, corpus.relation_types)
    return {
        "augmented.json": serialize_corpus(Corpus(corpus.documents + tuple(synthetic), *types)),
        "stats_delta.csv": _delta_csv(
            args.technique, compare_stats(corpus, Corpus(tuple(synthetic), *types))
        ),
    }


def cmd_evaluate(args) -> dict[str, bytes]:
    if args.params and not args.technique:
        raise ConfigError("--params needs --technique")
    corpus, lexicon, provider = _load_inputs(args)
    config = _build_config(args.technique, args.params) if args.technique else None
    tasks = ("md", "re") if args.task == "both" else (args.task,)
    report = cross_validate(
        corpus,
        args.folds,
        config,
        args.seed,
        tasks=tasks,
        epochs=args.epochs,
        window=args.window,
        lexicon=lexicon,
        provider=provider,
        workers=args.workers,
    )
    header = ("technique_id", "task", "baseline_f1", "augmented_f1", "gain")
    rows = [
        (report.technique_id, task, g.baseline_f1, g.augmented_f1, g.gain)
        for task, g in report.tasks.items()
    ]
    return {
        "gain_report.json": _json_bytes(dataclasses.asdict(report)),
        "gain_report.csv": _csv_bytes(header, rows),
    }


def cmd_optimize(args) -> dict[str, bytes]:
    corpus, lexicon, provider = _load_inputs(args)
    _, history = optimize(
        args.technique,
        corpus,
        args.task,
        n_trials=args.trials,
        seed=args.seed,
        k=args.folds,
        epochs=args.epochs,
        window=args.window,
        lexicon=lexicon,
        provider=provider,
        workers=args.workers,
    )
    best = best_trial(history)
    best_obj = {
        "technique_id": best.config.technique_id,
        "task": args.task,
        "params": dict(best.config.params),
        "n_aug": best.config.n_aug,
        "objective": best.objective,
        "trial_index": best.trial_index,
    }
    header = ("trial", "technique_id", "task", "objective", "params_json", "status")
    rows = [
        (
            t.trial_index,
            t.config.technique_id,
            args.task,
            t.objective,
            json.dumps(t.full_params(), sort_keys=True),
            t.status,
        )
        for t in history
    ]
    return {
        "trials.csv": _csv_bytes(header, rows),
        "best_config.json": _json_bytes(best_obj),
    }


def cmd_analyze(args) -> dict[str, bytes]:
    original = load_corpus(args.corpus)
    augmented = load_corpus(args.augmented)
    delta = compare_stats(original, augmented)
    header = ("corpus", *(f.name for f in dataclasses.fields(CorpusStats)))
    rows = [
        (label, *dataclasses.astuple(stats))
        for label, stats in (("original", delta.original), ("augmented", delta.augmented))
    ]
    return {
        "stats.csv": _csv_bytes(header, rows),
        "stats_delta.csv": _delta_csv(args.technique, delta),
    }


def _add_common(parser, *, seed: bool = True) -> None:
    parser.add_argument("--corpus", required=True, help="corpus JSON file")
    parser.add_argument("--out", required=True, help="output directory")
    if seed:
        parser.add_argument("--seed", type=int, required=True, help="run seed (mandatory)")
        parser.add_argument(
            "--provider", default="stub", help="'stub' or a rewrite service base URL"
        )
        parser.add_argument("--lexicon", default=None, help="lexicon directory (default: bundled)")
        parser.add_argument(
            "--workers",
            type=int,
            default=1,
            metavar="N",
            help="evaluate and optimize: run the fold arms in N lanes, the calling process "
            "and at most N-1 child processes; outputs are identical at any N; augment "
            "ignores it (must be >= 1)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spanaug",
        description="Annotation-preserving augmentation for span/relation corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("augment", help="write originals plus synthetic documents")
    _add_common(p)
    p.add_argument("--technique", required=True, help="technique name or alias")
    p.add_argument("--params", nargs="*", metavar="KEY=VALUE")
    p.set_defaults(fn=cmd_augment)

    p = sub.add_parser("evaluate", help="cross-validated gain for one configuration")
    _add_common(p)
    p.add_argument("--technique", default=None)
    p.add_argument("--params", nargs="*", metavar="KEY=VALUE")
    p.add_argument("--task", choices=("md", "re", "both"), default="both")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--window", type=int, default=1)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("optimize", help="TPE search over a technique's parameters")
    _add_common(p)
    p.add_argument("--technique", required=True)
    p.add_argument("--task", choices=("md", "re"), required=True)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--window", type=int, default=1)
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("analyze", help="stats deltas between two corpora")
    _add_common(p, seed=False)
    p.add_argument("--augmented", required=True, help="augmented corpus JSON file")
    p.add_argument("--technique", default="unknown", help="label for the delta CSV row")
    p.set_defaults(fn=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _write_outputs(args, args.fn(args))
    except (ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(e, kinds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
