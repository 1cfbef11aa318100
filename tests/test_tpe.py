from random import Random

import pytest

from spanaug.evaluation import TaskGain
from spanaug.providers import ProviderError
from spanaug.techniques import CatParam, FloatParam, IntParam, ParamSpace, TechniqueConfig
from spanaug.tpe import TrialRecord, best_trial, optimize, suggest


def float_space():
    return ParamSpace({"x": FloatParam(0.0, 1.0, 0.5)})


def record(index, params, objective, status="complete"):
    return TrialRecord(index, TechniqueConfig("synthetic", params), objective, status)


def run_tpe(seed, objective, n_trials=25, space=None):
    space = space or float_space()
    rng = Random(seed)
    history = []
    for t in range(n_trials):
        params = suggest(space, history, rng)
        history.append(record(t, params, objective(params)))
    return history


# --- suggest ---------------------------------------------------------------------


def test_empty_history_draws_uniformly_within_bounds():
    space = ParamSpace(
        {
            "p": FloatParam(0.2, 0.4, 0.3),
            "n": IntParam(2, 5, 2),
            "mode": CatParam(("a", "b"), "a"),
        }
    )
    rng = Random(0)
    seen_modes = set()
    for _ in range(200):
        params = suggest(space, [], rng)
        assert 0.2 <= params["p"] <= 0.4
        assert params["n"] in (2, 3, 4, 5)
        seen_modes.add(params["mode"])
    assert seen_modes == {"a", "b"}


def test_startup_phase_ignores_failed_trials():
    rng = Random(1)
    history = [record(i, {"x": 0.9}, None, "failed") for i in range(20)]
    # all failed: still in startup, so draws stay uniform rather than
    # concentrating near 0.9
    draws = [suggest(float_space(), history, rng)["x"] for _ in range(100)]
    assert min(draws) < 0.3 and max(draws) > 0.7


def test_suggestions_respect_bounds_after_model_kicks_in():
    history = [record(i, {"x": 1.0 if i % 2 else 0.0}, float(i)) for i in range(12)]
    rng = Random(3)
    for _ in range(100):
        assert 0.0 <= suggest(float_space(), history, rng)["x"] <= 1.0


def test_integer_dimension_rounds_and_clamps():
    space = ParamSpace({"n": IntParam(1, 5, 1)})
    history = [record(i, {"n": 5}, float(i)) for i in range(10)]
    rng = Random(4)
    for _ in range(100):
        value = suggest(space, history, rng)["n"]
        assert isinstance(value, int)
        assert 1 <= value <= 5


def test_categorical_frequency_follows_good_set():
    space = ParamSpace({"mode": CatParam(("a", "b"), "a")})
    # every 'a' trial scored high (good set), every 'b' trial low
    history = [record(i, {"mode": "a"}, 1.0) for i in range(5)]
    history += [record(i + 5, {"mode": "b"}, -1.0) for i in range(15)]
    rng = Random(5)
    draws = [suggest(space, history, rng)["mode"] for _ in range(10_000)]
    count_a = draws.count("a")
    assert count_a > draws.count("b")
    assert count_a / len(draws) > 0.6


def test_suggest_is_deterministic():
    history = [record(i, {"x": i / 10}, -abs(i / 10 - 0.3)) for i in range(10)]
    a = [suggest(float_space(), history, Random(11))["x"] for _ in range(5)]
    b = [suggest(float_space(), history, Random(11))["x"] for _ in range(5)]
    assert a == b


def test_suggest_argument_validation():
    with pytest.raises(ValueError):
        suggest(ParamSpace(), [], Random(0))


# --- optimization quality on a synthetic objective --------------------------------


def quadratic(params):
    return -((params["x"] - 0.3) ** 2)


def random_search_best(seed, n_trials=25):
    rng = Random(seed)
    return max((rng.uniform(0.0, 1.0) for _ in range(n_trials)), key=lambda x: -abs(x - 0.3))


def test_tpe_concentrates_near_the_optimum():
    hits = 0
    for seed in range(100):
        history = run_tpe(seed, quadratic)
        best = max(history, key=lambda t: t.objective)
        hits += abs(best.config.params["x"] - 0.3) <= 0.15
    assert hits >= 90


def test_tpe_beats_random_search_pairwise():
    wins = 0
    tpe_error = rs_error = 0.0
    for seed in range(100):
        tpe_best = max(run_tpe(seed, quadratic), key=lambda t: t.objective)
        rs_x = random_search_best(seed)
        wins += tpe_best.objective > -((rs_x - 0.3) ** 2)
        tpe_error += abs(tpe_best.config.params["x"] - 0.3)
        rs_error += abs(rs_x - 0.3)
    assert wins >= 70
    assert tpe_error / 100 < rs_error / 100


def test_best_so_far_is_monotone():
    history = run_tpe(17, quadratic)
    best = float("-inf")
    records = []
    for t in history:
        best = max(best, t.objective)
        records.append(best)
    assert records == sorted(records)


# --- optimize loop (cross-validation stubbed out for speed) -------------------------


def fake_cross_validate(objective):
    def fake(corpus, k, config, seed, *, tasks, **kwargs):
        value = objective(config)
        gain = TaskGain(0.0, value, value, (0.0,), (value,))
        report = type("Report", (), {"tasks": {tasks[0]: gain}})()
        return report

    return fake


def test_best_trial_takes_highest_objective_and_earliest_on_ties():
    history = [
        record(0, {"x": 0.1}, 0.2),
        record(1, {"x": 0.2}, None, "failed"),
        record(2, {"x": 0.3}, 0.5),
        record(3, {"x": 0.4}, 0.5),
    ]
    assert best_trial(history) is history[2]
    with pytest.raises(RuntimeError, match="all trials failed"):
        best_trial(history[1:2])
    with pytest.raises(RuntimeError, match="all trials failed"):
        best_trial([])


def test_optimize_single_trial_returns_it(monkeypatch, corpus20):
    monkeypatch.setattr("spanaug.tpe.cross_validate", fake_cross_validate(lambda cfg: 0.5))
    best, history = optimize("random_token_deletion", corpus20, "md", n_trials=1, seed=0)
    assert len(history) == 1
    assert best == history[0].config
    assert history[0].objective == 0.5


def test_optimize_constant_objective(monkeypatch, corpus20):
    monkeypatch.setattr("spanaug.tpe.cross_validate", fake_cross_validate(lambda cfg: 0.25))
    best, history = optimize("random_token_swap", corpus20, "md", n_trials=8, seed=1)
    assert {t.objective for t in history} == {0.25}
    assert best == history[0].config  # earliest trial wins ties


def test_optimize_is_deterministic(monkeypatch, corpus20):
    objective = lambda cfg: -((cfg.params["p"] - 0.4) ** 2)
    monkeypatch.setattr("spanaug.tpe.cross_validate", fake_cross_validate(objective))
    _, first = optimize("random_token_deletion", corpus20, "md", n_trials=10, seed=5)
    _, second = optimize("random_token_deletion", corpus20, "md", n_trials=10, seed=5)
    assert first == second


def test_optimize_records_failures_and_continues(monkeypatch, corpus20):
    calls = {"n": 0}

    def flaky(config):
        calls["n"] += 1
        if calls["n"] % 2:
            raise ProviderError("boom")
        return float(calls["n"])

    monkeypatch.setattr("spanaug.tpe.cross_validate", fake_cross_validate(flaky))
    best, history = optimize("random_token_deletion", corpus20, "md", n_trials=6, seed=2)
    statuses = [t.status for t in history]
    assert statuses == ["failed", "complete"] * 3
    assert all(t.objective is None for t in history if t.status == "failed")
    assert best == history[5].config


def test_optimize_raises_when_everything_fails(monkeypatch, corpus20):
    def always_fail(config):
        raise ProviderError("nope")

    monkeypatch.setattr("spanaug.tpe.cross_validate", fake_cross_validate(always_fail))
    with pytest.raises(RuntimeError, match="all trials failed"):
        optimize("random_token_deletion", corpus20, "md", n_trials=3, seed=3)


def test_optimize_lets_a_programming_error_propagate(monkeypatch, corpus20):
    def broken(config):
        raise RuntimeError("synthetic documents not derived from the training fold")

    monkeypatch.setattr("spanaug.tpe.cross_validate", fake_cross_validate(broken))
    with pytest.raises(RuntimeError, match="training fold"):
        optimize("random_token_deletion", corpus20, "md", n_trials=3, seed=3)


def test_optimize_configs_stay_inside_space(monkeypatch, corpus20):
    monkeypatch.setattr(
        "spanaug.tpe.cross_validate", fake_cross_validate(lambda cfg: cfg.params["p"])
    )
    _, history = optimize("random_token_deletion", corpus20, "md", n_trials=15, seed=4)
    for t in history:
        assert 0.0 <= t.config.params["p"] <= 1.0
        assert 1 <= t.config.n_aug <= 5


def test_optimize_validates_task(corpus20):
    with pytest.raises(ValueError):
        optimize("random_token_deletion", corpus20, "both", n_trials=1, seed=0)
