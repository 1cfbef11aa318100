"""Span tracing from outside the package.

The traced run rebinds the names a calling module looks up (for example
``spanaug.evaluation.train_tagger``) to wrappers that record a span per
call. Nothing inside ``src/`` knows about tracing; ``uninstall`` puts every
original back.

A span records its name, start, end, parent span and operation id. The
parent comes from a per-thread stack, because augmentation runs on a
thread pool. Spans are kept in memory and written when the run ends.
Counters (edits by type, rejected edits, no-op documents, ...) are taken
at the same boundaries from the arguments and results of the wrapped
calls.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from typing import Callable

from summary import percentile_tail


@dataclasses.dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.op = 0  # id of the CLI command in progress, set by the runner
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[key] += amount

    def call(self, name: str, fn: Callable, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(span_id, name, start, end, parent, self.op, threading.get_ident())
            )

    def wrap(self, name: str | Callable, fn: Callable, after: Callable | None = None) -> Callable:
        """A traced stand-in for fn. name may be a function of the call's
        arguments; after(result, args, kwargs) takes counters."""

        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            result = self.call(span_name, fn, args, kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attribute: str, make: Callable) -> None:
        """Replace owner.attribute with make(original) until uninstall."""
        original = getattr(owner, attribute)
        self._installed.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def rebind(self, owner, attribute: str, name, after=None) -> None:
        self.patch(owner, attribute, lambda fn: self.wrap(name, fn, after))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()

    def write(self, path) -> None:
        """One JSON object per span, in the order the spans ended."""
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(vars(span)) + "\n")


def install_package_wrappers(tracer: Tracer) -> None:
    """Wrap the public calls between the package's modules."""
    import spanaug.cli as cli
    import spanaug.corpus as corpus
    import spanaug.edits as edits
    import spanaug.evaluation as evaluation
    import spanaug.providers as providers
    import spanaug.stats as stats
    import spanaug.techniques as techniques
    import spanaug.tpe as tpe

    count = tracer.count

    def loaded(result, args, kwargs):
        count("corpus.load_bytes", os.path.getsize(args[0]))

    def serialized(result, args, kwargs):
        count("corpus.serialize_bytes", len(result))

    tracer.rebind(cli, "load_corpus", "corpus.load", loaded)
    tracer.rebind(corpus, "validate_corpus", "corpus.validate")
    tracer.rebind(cli, "serialize_corpus", "corpus.serialize", serialized)
    tracer.rebind(cli, "load_lexicon", "lexicon.load")
    tracer.rebind(cli, "builtin_lexicon", "lexicon.load")

    tracer.rebind(cli, "augment_corpus", "techniques.augment_corpus")
    tracer.rebind(evaluation, "augment_corpus", "techniques.augment_corpus")

    def applied(result, args, kwargs):
        count("techniques.docs")
        count("techniques.noop", int(result[1]))

    tracer.rebind(
        techniques,
        "apply_technique",
        lambda d, cfg, *rest: f"techniques.{cfg.technique_id}",
        applied,
    )

    def edited(result, args, kwargs):
        count(f"edits.{type(args[1]).__name__}.calls")
        count("edits.attempted")
        count("edits.rejected", len(result[1].rejected))
        count("edits.mentions_shrunk", len(result[1].mentions_shrunk))

    tracer.rebind(techniques, "apply_edit", "edits.apply_edit", edited)
    tracer.rebind(edits, "apply_edit", "edits.apply_edit", edited)
    tracer.rebind(techniques, "apply_edits", "edits.apply_edits")

    def rewrite_traced(rewrite):
        def traced(provider, texts, *args, **kwargs):
            count("providers.rewrite_calls")
            count("providers.texts", len(texts))
            try:
                return tracer.call("providers.rewrite", rewrite, (provider, texts) + args, kwargs)
            except providers.ProviderError:
                count("providers.failures")
                raise

        return traced

    tracer.patch(providers.StubProvider, "rewrite", rewrite_traced)

    for module, attribute in (
        (techniques, "derive_rng"),
        (evaluation, "derive_rng"),
        (evaluation, "derive_seed"),
        (tpe, "derive_seed"),
        (providers, "derive_seed"),
    ):
        tracer.rebind(module, attribute, "seeding.derive")

    def trained_tagger(result, args, kwargs):
        count("baselines.train_tokens", sum(len(d.tokens) for d in args[0].documents))

    tracer.rebind(evaluation, "train_tagger", "baselines.train_tagger", trained_tagger)
    tracer.rebind(evaluation, "train_relations", "baselines.train_relations")
    tracer.rebind(evaluation, "predict_mentions", "baselines.predict_mentions")
    tracer.rebind(evaluation, "predict_relations", "baselines.predict_relations")
    tracer.rebind(evaluation, "score_mentions", "evaluation.score")
    tracer.rebind(evaluation, "score_relations", "evaluation.score")

    def cross_validate_traced(fn):
        def traced(*args, **kwargs):
            cache = kwargs.get("baseline_cache")
            augmented = (args[2] if len(args) > 2 else kwargs.get("technique")) is not None
            count("evaluation.arms_requested", 1 + augmented)
            # optimize keeps one cache key per run, so a non-empty cache
            # means this call's plain arm is not trained again
            count("evaluation.arms_cached", int(bool(cache)))
            return tracer.call("evaluation.cross_validate", fn, args, kwargs)

        return traced

    tracer.patch(cli, "cross_validate", cross_validate_traced)
    tracer.patch(tpe, "cross_validate", cross_validate_traced)

    def optimized(result, args, kwargs):
        count("tpe.trials_failed", sum(t.status != "complete" for t in result[1]))

    tracer.rebind(tpe, "suggest", "tpe.suggest")
    tracer.rebind(cli, "optimize", "tpe.optimize", optimized)

    tracer.rebind(cli, "compare_stats", "stats.compare")
    tracer.rebind(cli, "corpus_stats", "stats.corpus_stats")
    tracer.rebind(stats, "corpus_stats", "stats.corpus_stats")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def layer_metrics(tracer: Tracer, rounds: int, technique_names, edit_types) -> dict[str, float]:
    """Per-layer metrics of a traced run. Totals are per round of the
    workload, so runs of different length compare."""
    spans = tracer.spans
    counters = tracer.counters
    rounds = max(rounds, 1)
    by_id = {s.id: s for s in spans}
    total: Counter = Counter()
    calls: Counter = Counter()
    for s in spans:
        total[s.name] += s.duration
        calls[s.name] += 1
    own = self_times(spans)

    def self_total(prefix: str) -> float:
        return sum(own[s.id] for s in spans if s.name.startswith(prefix))

    def outermost(prefix: str) -> float:
        """Time in spans of a layer not nested in another span of it."""
        return sum(
            s.duration
            for s in spans
            if s.name.startswith(prefix)
            and not (s.parent is not None and by_id[s.parent].name.startswith(prefix))
        )

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    per_round = lambda value: value / rounds  # noqa: E731
    trial_times = sorted(s.duration for s in spans if s.name == "evaluation.cross_validate")
    tail_pct, tail = percentile_tail(trial_times)
    m = {
        "cli.commands": per_round(sum(n for name, n in calls.items() if name.startswith("cli."))),
        "cli.self_s": per_round(self_total("cli.")),
        "corpus.load_s": per_round(total["corpus.load"]),
        "corpus.load_bytes": per_round(counters["corpus.load_bytes"]),
        "corpus.validate_s": per_round(total["corpus.validate"]),
        "corpus.serialize_s": per_round(total["corpus.serialize"]),
        "corpus.serialize_bytes": per_round(counters["corpus.serialize_bytes"]),
        "lexicon.load_s": per_round(total["lexicon.load"]),
        "techniques.augment_corpus_s": per_round(total["techniques.augment_corpus"]),
        "techniques.docs": per_round(counters["techniques.docs"]),
        "techniques.noop_ratio": ratio(counters["techniques.noop"], counters["techniques.docs"]),
    }
    for name in technique_names:
        key = f"techniques.{name}"
        m[f"{key}.ms_per_doc"] = 1000 * ratio(total[key], calls[key])
    for edit_type in edit_types:
        m[f"edits.{edit_type}.calls"] = per_round(counters[f"edits.{edit_type}.calls"])
    m.update(
        {
            "edits.apply_s": per_round(outermost("edits.")),
            "edits.rejected_ratio": ratio(counters["edits.rejected"], counters["edits.attempted"]),
            "edits.mentions_shrunk": per_round(counters["edits.mentions_shrunk"]),
            "providers.rewrite_calls": per_round(counters["providers.rewrite_calls"]),
            "providers.texts": per_round(counters["providers.texts"]),
            "providers.rewrite_s": per_round(total["providers.rewrite"]),
            "providers.failures": per_round(counters["providers.failures"]),
            "seeding.derive_calls": per_round(calls["seeding.derive"]),
            "seeding.derive_s": per_round(outermost("seeding.")),
            "baselines.train_tagger_calls": per_round(calls["baselines.train_tagger"]),
            "baselines.train_tagger_s": per_round(total["baselines.train_tagger"]),
            "baselines.train_tokens": per_round(counters["baselines.train_tokens"]),
            "baselines.predict_mentions_s": per_round(total["baselines.predict_mentions"]),
            "baselines.train_relations_calls": per_round(calls["baselines.train_relations"]),
            "baselines.train_relations_s": per_round(total["baselines.train_relations"]),
            "baselines.predict_relations_s": per_round(total["baselines.predict_relations"]),
            "evaluation.cross_validate_s": per_round(total["evaluation.cross_validate"]),
            "evaluation.trial_s.p50": percentile_tail(trial_times, 50)[1],
            "evaluation.trial_s.tail": tail,
            "evaluation.trial_s.tail_pct": tail_pct,
            "evaluation.trial_s.n": len(trial_times),
            "evaluation.self_s": per_round(self_total("evaluation.cross_validate")),
            "evaluation.score_s": per_round(total["evaluation.score"]),
            "evaluation.baseline_reuse_ratio": ratio(
                counters["evaluation.arms_cached"], counters["evaluation.arms_requested"]
            ),
            "tpe.suggest_calls": per_round(calls["tpe.suggest"]),
            "tpe.suggest_s": per_round(total["tpe.suggest"]),
            "tpe.trials_failed": per_round(counters["tpe.trials_failed"]),
            "stats.compare_s": per_round(total["stats.compare"]),
            "stats.corpus_stats_s": per_round(total["stats.corpus_stats"]),
        }
    )
    return m
