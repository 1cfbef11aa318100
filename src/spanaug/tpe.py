"""Tree-structured Parzen Estimator search over technique parameters,
maximizing the cross-validation performance gain.

The estimator splits past trials into a good set (the top GAMMA fraction
by objective) and a bad set, fits independent per-dimension densities to
each (truncated kernel mixtures for numeric dimensions, add-one smoothed
frequencies for categorical ones), draws N_CANDIDATES candidates from the
good densities, and keeps the one with the largest good/bad density ratio.
Until N_STARTUP trials complete, parameters are drawn uniformly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from random import Random
from typing import Any, Sequence

from .corpus import Corpus
from .evaluation import cross_validate
from .lexicon import Lexicon, builtin_lexicon
from .providers import ParaphraseProvider, ProviderError
from .seeding import derive_seed
from .techniques import (
    N_AUG,
    CatParam,
    FloatParam,
    IntParam,
    ParamSpace,
    TechniqueConfig,
    resolve_technique,
)

logger = logging.getLogger(__name__)

GAMMA = 0.25
N_CANDIDATES = 24
# With at least N_STARTUP complete trials, the good set holds at least
# ceil(GAMMA * 5) = 2 of them and the bad set at least 3, so neither
# density is ever fitted to no observations.
N_STARTUP = 5


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    config: TechniqueConfig
    objective: float | None
    status: str  # "complete" | "failed"

    def full_params(self) -> dict[str, Any]:
        return {**self.config.params, "n_aug": self.config.n_aug}


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)


def _cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2)))


class _NumericDensity:
    def __init__(self, values: Sequence[float], low: float, high: float):
        self.low, self.high = low, high
        self.centers = list(values)
        self.bandwidth = (high - low) / len(self.centers)

    def pdf(self, x: float) -> float:
        """Mean of Gaussian kernels truncated and renormalized to [low, high]."""
        low, high, bandwidth = self.low, self.high, self.bandwidth
        total = 0.0
        for mu in self.centers:
            mass = _cdf((high - mu) / bandwidth) - _cdf((low - mu) / bandwidth)
            total += _phi((x - mu) / bandwidth) / bandwidth / max(mass, 1e-12)
        return total / len(self.centers)

    def sample(self, rng: Random) -> float:
        mu = self.centers[rng.randrange(len(self.centers))]
        for _ in range(100):
            x = rng.gauss(mu, self.bandwidth)
            if self.low <= x <= self.high:
                return x
        return min(max(mu, self.low), self.high)


class _CategoricalDensity:
    def __init__(self, values: Sequence[Any], choices: tuple):
        self.choices = choices
        counts = {c: 1 for c in choices}  # add-one smoothing
        for v in values:
            counts[v] += 1
        total = sum(counts.values())
        self.probs = {c: counts[c] / total for c in choices}

    def pdf(self, x) -> float:
        return self.probs[x]

    def sample(self, rng: Random):
        r = rng.random()
        cumulative = 0.0
        for c in self.choices:
            cumulative += self.probs[c]
            if r < cumulative:
                return c
        return self.choices[-1]


def _build_density(param, values):
    if isinstance(param, (FloatParam, IntParam)):
        return _NumericDensity([float(v) for v in values], param.low, param.high)
    if isinstance(param, CatParam):
        return _CategoricalDensity(values, param.choices)
    raise TypeError(f"unsupported parameter kind {type(param).__name__}")


def suggest(space: ParamSpace, history: Sequence[TrialRecord], rng: Random) -> dict[str, Any]:
    """Next values for the dimensions of space, read from each trial's
    full_params (its config's params plus n_aug).

    Uniform draws until N_STARTUP complete trials exist; afterwards the
    good/bad density-ratio rule over the ceil(GAMMA*N) best objectives.
    """
    if not space:
        raise ValueError("empty parameter space")

    complete = [t for t in history if t.status == "complete"]
    if len(complete) < N_STARTUP:
        return space.sample_uniform(rng)

    ranked = sorted(complete, key=lambda t: -t.objective)
    n_good = math.ceil(GAMMA * len(complete))
    good, bad = ranked[:n_good], ranked[n_good:]

    dims = {}
    for name, param in space.items():
        good_density = _build_density(param, [t.full_params()[name] for t in good])
        bad_density = _build_density(param, [t.full_params()[name] for t in bad])
        dims[name] = (param, good_density, bad_density)

    best_params = None
    best_score = -math.inf
    for _ in range(N_CANDIDATES):
        params = {}
        score = 0.0
        for name, (param, good_density, bad_density) in dims.items():
            value = good_density.sample(rng)
            if isinstance(param, IntParam):
                value = min(max(round(value), param.low), param.high)
            params[name] = value
            score += math.log(good_density.pdf(value)) - math.log(bad_density.pdf(value))
        if score > best_score:
            best_score = score
            best_params = params
    return best_params


def optimize(
    technique_id: str,
    corpus: Corpus,
    task: str = "md",
    n_trials: int = 25,
    seed: int = 0,
    *,
    k: int = 5,
    epochs: int = 5,
    window: int = 1,
    lexicon: Lexicon | None = None,
    provider: ParaphraseProvider | None = None,
    workers: int = 1,
) -> tuple[TechniqueConfig, list[TrialRecord]]:
    """Sequential trials: suggest a config, measure its gain by k-fold
    cross-validation, feed the result back. Returns the config of
    best_trial(history) and the full trial log.

    The search space is the technique's parameters followed by n_aug
    (N_AUG). A trial in which cross_validate raises a ProviderError is
    recorded as failed; augmentation itself never does, since it keeps a
    document whose provider fails. Any other error propagates, since a
    config drawn from the space is valid. So a bad task, k, epochs,
    window or workers fails the first trial before it trains.

    The unaugmented arm's cache key is (corpus, k, seed, epochs, window,
    tasks), none of which changes between trials, so it is computed once
    and reused by every trial.

    Each trial runs its folds' arms in min(workers, arms) lanes, the
    calling process running the first arm and each lane then taking the
    next untaken one; the trial log is the same at any worker count.
    """
    technique = resolve_technique(technique_id)
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if lexicon is None:  # one lexicon, and one memo, for every trial
        lexicon = builtin_lexicon()
    rng = Random(derive_seed(seed, "tpe", technique.name, task))
    cv_seed = derive_seed(seed, "cv", technique.name, task)
    baseline_cache: dict = {}

    space = ParamSpace(technique.space, n_aug=N_AUG)
    history: list[TrialRecord] = []
    for index in range(n_trials):
        params = suggest(space, history, rng)
        n_aug = params.pop("n_aug")
        config = TechniqueConfig(technique.name, params, n_aug=n_aug)
        try:
            report = cross_validate(
                corpus,
                k,
                config,
                cv_seed,
                tasks=(task,),
                epochs=epochs,
                window=window,
                lexicon=lexicon,
                provider=provider,
                baseline_cache=baseline_cache,
                workers=workers,
            )
            objective = report.tasks[task].gain
            history.append(TrialRecord(index, config, objective, "complete"))
        except ProviderError as e:  # a failed trial is recorded, not fatal
            logger.warning("trial %d failed: %s", index, e)
            history.append(TrialRecord(index, config, None, "failed"))
    return best_trial(history).config, history


def best_trial(history: Sequence[TrialRecord]) -> TrialRecord:
    """The completed trial with the highest objective; the earliest one
    wins ties."""
    complete = [t for t in history if t.status == "complete"]
    if not complete:
        raise RuntimeError("all trials failed")
    return max(complete, key=lambda t: (t.objective, -t.trial_index))
