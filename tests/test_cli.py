import csv
import hashlib
import io
import json

import pytest

from corpora import fixture_corpus

from spanaug.cli import main
from spanaug.corpus import load_corpus, save_corpus
from spanaug.evaluation import TaskGain


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.json"
    save_corpus(fixture_corpus(8, seed=4), path)
    return path


def read_tree(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_augment_identity_doubles_documents(tmp_path, corpus_file):
    out = tmp_path / "run"
    code = main(
        [
            "augment",
            "--corpus", str(corpus_file),
            "--technique", "random_token_deletion",
            "--params", "p=0",
            "--seed", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    original = load_corpus(corpus_file)
    augmented = load_corpus(out / "augmented.json")
    assert len(augmented.documents) == 2 * len(original.documents)
    by_id = {d.id: d for d in augmented.documents}
    for doc in original.documents:
        synthetic = by_id[f"{doc.id}-aug1"]
        assert synthetic.tokens == doc.tokens
        assert synthetic.mentions == doc.mentions
        assert synthetic.relations == doc.relations
    delta_lines = (out / "stats_delta.csv").read_text().strip().split("\n")
    assert delta_lines[0] == "technique_id,vocab_delta,mention_len_delta,direction_flip_rate"
    assert delta_lines[1].startswith("random_token_deletion,0,0.0,0.0")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "augment"
    assert manifest["options"]["seed"] == 3
    assert sorted(manifest["outputs"]) == ["augmented.json", "stats_delta.csv"]


MANIFEST_CASES = {
    "augment": (
        ["--technique", "random_token_swap", "--seed", "1", "--workers", "2"],
        {"corpus", "technique", "params", "seed", "provider", "lexicon"},
        ["augmented.json", "stats_delta.csv"],
    ),
    "evaluate": (
        [
            "--technique", "random_token_swap", "--folds", "2", "--epochs", "1",
            "--seed", "1", "--workers", "2",
        ],
        {
            "corpus", "technique", "params", "task", "folds", "epochs", "window",
            "seed", "provider", "lexicon",
        },
        ["gain_report.csv", "gain_report.json"],
    ),
    "optimize": (
        [
            "--technique", "random_token_swap", "--task", "md", "--trials", "2",
            "--folds", "2", "--epochs", "1", "--seed", "1", "--workers", "2",
        ],
        {
            "corpus", "technique", "task", "trials", "folds", "epochs", "window",
            "seed", "provider", "lexicon",
        },
        ["best_config.json", "trials.csv"],
    ),
    "analyze": (
        ["--technique", "none"],  # --augmented is added by the test
        {"corpus", "augmented", "technique"},
        ["stats.csv", "stats_delta.csv"],
    ),
}


@pytest.mark.parametrize("command", sorted(MANIFEST_CASES))
def test_manifest_records_command_options_and_outputs(command, tmp_path, corpus_file):
    argv, option_keys, outputs = MANIFEST_CASES[command]
    if command == "analyze":
        argv = argv + ["--augmented", str(corpus_file)]
    out = tmp_path / command
    code = main([command, "--corpus", str(corpus_file), "--out", str(out)] + argv)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    assert set(manifest["options"]) == option_keys
    assert manifest["outputs"] == outputs
    assert sorted(p.name for p in out.iterdir()) == sorted(outputs + ["manifest.json"])


def test_unknown_technique_exits_2(tmp_path, corpus_file, capsys):
    code = main(
        [
            "augment",
            "--corpus", str(corpus_file),
            "--technique", "definitely_not_a_technique",
            "--seed", "1",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert code == 2
    assert "definitely_not_a_technique" in capsys.readouterr().err


def test_augment_rerun_is_byte_identical(tmp_path, corpus_file):
    args = [
        "augment",
        "--corpus", str(corpus_file),
        "--technique", "lexicon_substitution",
        "--params", "mode=synonym", "p=0.6", "n_aug=2",
        "--seed", "11",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")


def test_worker_count_changes_nothing(tmp_path, corpus_file):
    args = [
        "augment",
        "--corpus", str(corpus_file),
        "--technique", "paraphrase_spans",
        "--params", "pivot=fr", "n_aug=2",
        "--seed", "21",
    ]
    assert main(args + ["--workers", "1", "--out", str(tmp_path / "w1")]) == 0
    assert main(args + ["--workers", "8", "--out", str(tmp_path / "w8")]) == 0
    assert read_tree(tmp_path / "w1") == read_tree(tmp_path / "w8")


def test_evaluate_without_technique_reports_zero_gain(tmp_path, corpus_file):
    out = tmp_path / "eval"
    code = main(
        [
            "evaluate",
            "--corpus", str(corpus_file),
            "--folds", "3",
            "--epochs", "2",
            "--seed", "5",
            "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads((out / "gain_report.json").read_text())
    assert report["technique_id"] is None
    assert report["tasks"]["md"]["gain"] == 0.0
    assert report["tasks"]["re"]["gain"] == 0.0
    csv_lines = (out / "gain_report.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "technique_id,task,baseline_f1,augmented_f1,gain"
    assert len(csv_lines) == 3


def test_evaluate_with_technique_single_task(tmp_path, corpus_file):
    out = tmp_path / "eval2"
    code = main(
        [
            "evaluate",
            "--corpus", str(corpus_file),
            "--technique", "B.90",
            "--params", "p=0.5",
            "--task", "md",
            "--folds", "3",
            "--epochs", "2",
            "--seed", "6",
            "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads((out / "gain_report.json").read_text())
    assert report["technique_id"] == "B.90"
    assert "md" in report["tasks"] and "re" not in report["tasks"]


def test_evaluate_runs_on_augment_output(tmp_path, corpus_file):
    # augmented.json holds doc-N and doc-N-aug1; augmenting a training fold
    # that holds doc-N-aug1 makes doc-N-aug1-aug1 even when doc-N is tested
    aug = tmp_path / "aug"
    argv = ["--technique", "random_token_swap", "--params", "s=2"]
    assert main(["augment", "--corpus", str(corpus_file), *argv, "n_aug=1", "--seed", "5", "--out", str(aug)]) == 0
    for seed in ("1", "2"):
        code = main(
            [
                "evaluate",
                "--corpus", str(aug / "augmented.json"),
                *argv,
                "--task", "md",
                "--folds", "3",
                "--epochs", "1",
                "--seed", seed,
                "--out", str(tmp_path / f"eval{seed}"),
            ]
        )
        assert code == 0


def test_augment_output_augmented_again_analyzes(tmp_path, corpus_file):
    # augmented.json holds docN and docN-aug1..2, so the second augment
    # names docN's replicas docN-aug3 and docN-aug4
    argv = ["--technique", "random_token_swap", "--params", "s=1", "n_aug=2"]
    first, second = tmp_path / "a1", tmp_path / "a2"
    assert main(["augment", "--corpus", str(corpus_file), *argv, "--seed", "1", "--out", str(first)]) == 0
    again = ["augment", "--corpus", str(first / "augmented.json"), *argv, "--seed", "2", "--out", str(second)]
    assert main(again) == 0
    ids = [d.id for d in load_corpus(second / "augmented.json").documents]
    assert len(set(ids)) == len(ids)
    assert {"doc0-aug3", "doc0-aug4", "doc0-aug1-aug1", "doc0-aug1-aug2"} <= set(ids)
    analyze = ["analyze", "--corpus", str(first / "augmented.json"), "--augmented", str(second / "augmented.json")]
    assert main([*analyze, "--out", str(tmp_path / "an")]) == 0


def test_optimize_emits_trial_rows_and_best_config(tmp_path, corpus_file):
    out = tmp_path / "opt"
    code = main(
        [
            "optimize",
            "--corpus", str(corpus_file),
            "--technique", "random_token_swap",
            "--task", "md",
            "--trials", "4",
            "--folds", "3",
            "--epochs", "1",
            "--seed", "9",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = (out / "trials.csv").read_text().strip().split("\n")
    assert lines[0] == "trial,technique_id,task,objective,params_json,status"
    assert len(lines) == 5
    best = json.loads((out / "best_config.json").read_text())
    assert best["technique_id"] == "random_token_swap"
    assert 0 <= best["trial_index"] < 4
    assert "s" in best["params"]


def test_optimize_rerun_is_byte_identical(tmp_path, corpus_file):
    args = [
        "optimize",
        "--corpus", str(corpus_file),
        "--technique", "random_token_insertion",
        "--task", "md",
        "--trials", "3",
        "--folds", "3",
        "--epochs", "1",
        "--seed", "13",
    ]
    assert main(args + ["--out", str(tmp_path / "o1")]) == 0
    assert main(args + ["--out", str(tmp_path / "o2")]) == 0
    assert read_tree(tmp_path / "o1") == read_tree(tmp_path / "o2")


# SHA-256 of trials.csv followed by best_config.json, recorded before the
# tuner's configuration handling was refactored. With 7 trials the last
# two are drawn from the TPE densities (categorical, float and int
# dimensions, and n_aug), so any change to the draws shows here. The
# sentence_reordering digest was re-recorded when bounded orders became
# uniform (with the old sampler put back, the run gives the old digest),
# and again when max_displacement's range shrank from [0, 10] to [0, 5]
# (with [0, 10] put back, the run gives the digest before that, 640b3add…).
OPTIMIZE_DIGESTS = {
    "lexicon_substitution": "3e4312c3ac21184f40ee2948021fd2a6662db278a5603760a84c4ae0f0fd1a5e",
    "sentence_reordering": "9cc78a1cc38f17b282f191fdd55aec43a3352ad27bb90584396a9c3642b12c56",
}


@pytest.mark.parametrize("technique", sorted(OPTIMIZE_DIGESTS))
def test_optimize_bytes_match_recorded_digest(technique, tmp_path, corpus20):
    corpus = tmp_path / "corpus20.json"
    save_corpus(corpus20, corpus)
    out = tmp_path / "opt"
    code = main(
        [
            "optimize",
            "--corpus", str(corpus),
            "--technique", technique,
            "--task", "md",
            "--trials", "7",
            "--folds", "2",
            "--epochs", "1",
            "--seed", "0",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = (out / "trials.csv").read_bytes() + (out / "best_config.json").read_bytes()
    assert hashlib.sha256(payload).hexdigest() == OPTIMIZE_DIGESTS[technique]


def test_analyze_identical_corpora(tmp_path, corpus_file):
    out = tmp_path / "ana"
    code = main(
        [
            "analyze",
            "--corpus", str(corpus_file),
            "--augmented", str(corpus_file),
            "--technique", "none",
            "--out", str(out),
        ]
    )
    assert code == 0
    delta_lines = (out / "stats_delta.csv").read_text().strip().split("\n")
    assert delta_lines[1] == "none,0,0.0,0.0"
    stats_lines = (out / "stats.csv").read_text().strip().split("\n")
    assert len(stats_lines) == 3
    assert stats_lines[1].startswith("original,")
    assert stats_lines[2].startswith("augmented,")


def test_invalid_corpus_fails_without_partial_output(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"mention_types":["Actor"],"relation_types":[],"documents":'
        '[{"id":"d","tokens":[{"text":"a","sentence":0}],'
        '"mentions":[{"id":"m","type":"Actor","start":0,"end":5}],"relations":[]}]}'
    )
    out = tmp_path / "nope"
    code = main(
        [
            "augment",
            "--corpus", str(bad),
            "--technique", "random_token_swap",
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert code == 1
    assert "span-out-of-range" in capsys.readouterr().err
    assert not out.exists()


def test_a_corpus_that_is_not_utf8_is_a_runtime_failure(tmp_path, corpus_file, capsys):
    raw = corpus_file.read_bytes()
    offset = raw.index(b'"text":"') + len(b'"text":"')
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw[:offset] + b"\xff" + raw[offset + 1 :])
    out = tmp_path / "x"
    code = main(
        ["analyze", "--corpus", str(bad), "--augmented", str(corpus_file), "--out", str(out)]
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: byte {offset}: not UTF-8 (invalid start byte)\n"
    assert not out.exists()


def test_missing_corpus_file_is_usage_error(tmp_path, capsys):
    code = main(
        [
            "augment",
            "--corpus", str(tmp_path / "missing.json"),
            "--technique", "random_token_swap",
            "--seed", "1",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert code == 2


def test_seed_is_mandatory(tmp_path, corpus_file):
    with pytest.raises(SystemExit) as exit_info:
        main(
            [
                "augment",
                "--corpus", str(corpus_file),
                "--technique", "random_token_swap",
                "--out", str(tmp_path / "x"),
            ]
        )
    assert exit_info.value.code == 2


def test_bad_params_are_usage_errors(tmp_path, corpus_file, capsys):
    code = main(
        [
            "augment",
            "--corpus", str(corpus_file),
            "--technique", "random_token_deletion",
            "--params", "p=2.0",
            "--seed", "1",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert code == 2
    code = main(
        [
            "augment",
            "--corpus", str(corpus_file),
            "--technique", "random_token_deletion",
            "--params", "no-equals-sign",
            "--seed", "1",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert code == 2


@pytest.mark.parametrize("value", ["abc", "true", "1.5"])
def test_non_integer_n_aug_is_usage_error(value, tmp_path, corpus_file, capsys):
    code = main(
        [
            "augment",
            "--corpus", str(corpus_file),
            "--technique", "random_token_deletion",
            "--params", f"n_aug={value}",
            "--seed", "1",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert code == 2
    assert "n_aug" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--trials", "0", "n_trials must be >= 1"),
        ("--epochs", "0", "epochs must be >= 1"),
        ("--folds", "1", "k must be >= 2"),
        ("--folds", "9", "cannot split 8 documents into 9 folds"),
        ("--window", "-1", "window must be >= 0"),
    ],
)
def test_optimize_rejects_arguments_that_fail_every_trial(
    flag, value, message, tmp_path, corpus_file, capsys
):
    code = main(
        [
            "optimize",
            "--corpus", str(corpus_file),
            "--technique", "random_token_swap",
            "--task", "md",
            "--seed", "1",
            "--out", str(tmp_path / "x"),
            flag, value,
        ]
    )
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_custom_lexicon_directory(tmp_path, corpus_file):
    lexdir = tmp_path / "lex"
    lexdir.mkdir()
    (lexdir / "fillers.txt").write_text("meanwhile\n")
    out = tmp_path / "fill"
    code = main(
        [
            "augment",
            "--corpus", str(corpus_file),
            "--technique", "filler_word_insertion",
            "--params", "p=1.0",
            "--seed", "2",
            "--lexicon", str(lexdir),
            "--out", str(out),
        ]
    )
    assert code == 0
    augmented = load_corpus(out / "augmented.json")
    synthetic = [d for d in augmented.documents if d.id.endswith("-aug1")]
    assert any(t.text == "meanwhile" for d in synthetic for t in d.tokens)


def test_http_provider_through_cli(tmp_path, corpus_file):
    import threading
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class Echo(BaseHTTPRequestHandler):
        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            data = json.dumps({"texts": body["texts"]}).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Echo)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        out = tmp_path / "http"
        code = main(
            [
                "augment",
                "--corpus", str(corpus_file),
                "--technique", "paraphrase_spans",
                "--seed", "2",
                "--provider", f"http://127.0.0.1:{server.server_port}",
                "--out", str(out),
            ]
        )
        assert code == 0
        original = load_corpus(corpus_file)
        augmented = load_corpus(out / "augmented.json")
        # the echo provider rewrites every span to itself
        assert len(augmented.documents) == 2 * len(original.documents)
    finally:
        server.shutdown()


def test_garbage_provider_keeps_documents_and_warns(tmp_path, corpus_file, raw_server, caplog):
    out = tmp_path / "garbage"
    code = main(
        [
            "augment",
            "--corpus", str(corpus_file),
            "--technique", "paraphrase_spans",
            "--seed", "2",
            "--provider", raw_server(b"garbage\r\n\r\n"),
            "--out", str(out),
        ]
    )
    assert code == 0
    original = load_corpus(corpus_file)
    augmented = load_corpus(out / "augmented.json")
    synthetic = augmented.documents[len(original.documents) :]
    assert len(synthetic) == len(original.documents)
    for source, copy in zip(original.documents, synthetic):
        assert copy.id == f"{source.id}-aug1"
        assert (copy.tokens, copy.mentions, copy.relations) == (
            source.tokens,
            source.mentions,
            source.relations,
        )
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == len(original.documents)
    assert all("provider failed, keeping" in w and "garbage" in w for w in warnings)


# --- CSV tables --------------------------------------------------------------------------------


def test_gain_report_csv_rows(tmp_path, corpus20):
    corpus = tmp_path / "corpus20.json"
    save_corpus(corpus20, corpus)
    out = tmp_path / "gain"
    code = main(
        [
            "evaluate",
            "--corpus", str(corpus),
            "--technique", "random_token_swap",
            "--params", "s=1",
            "--folds", "4",
            "--epochs", "2",
            "--seed", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = (out / "gain_report.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 2
    assert rows[0].startswith("random_token_swap,md,")
    head, task, base, aug, gain = rows[1].split(",")
    assert task == "re"
    assert float(aug) - float(base) == pytest.approx(float(gain))


def test_analyze_computes_each_corpus_stats_once(monkeypatch, tmp_path, corpus_file):
    import spanaug.cli as cli
    import spanaug.stats as stats

    calls = []
    corpus_stats = stats.corpus_stats

    def counting(c):
        calls.append(c)
        return corpus_stats(c)

    monkeypatch.setattr(stats, "corpus_stats", counting)
    monkeypatch.setattr(cli, "corpus_stats", counting)
    code = main(
        [
            "analyze",
            "--corpus", str(corpus_file),
            "--augmented", str(corpus_file),
            "--out", str(tmp_path / "ana"),
        ]
    )
    assert code == 0
    assert len(calls) == 2


def test_stats_csv_rows(tmp_path, d1_corpus):
    corpus = tmp_path / "d1.json"
    save_corpus(d1_corpus, corpus)
    out = tmp_path / "ana"
    code = main(
        [
            "analyze",
            "--corpus", str(corpus),
            "--augmented", str(corpus),
            "--technique", "shuffle_within_segments",
            "--out", str(out),
        ]
    )
    assert code == 0
    header, row = (out / "stats_delta.csv").read_text().strip().split("\n")
    assert row == "shuffle_within_segments,0,0.0,0.0"
    assert header.count(",") == row.count(",")
    stats_lines = (out / "stats.csv").read_text().strip().split("\n")
    assert stats_lines[0] == (
        "corpus,vocabulary_size,mean_mention_length,direction_fraction,tokens,mentions,relations"
    )
    assert stats_lines[1].startswith("original,9,1.25,1.0,10,4,1")


def test_trials_csv_shape(monkeypatch, tmp_path, corpus20):
    def fake_cross_validate(corpus, k, config, seed, *, tasks, **kwargs):
        gain = TaskGain(0.0, 0.1, 0.1, (0.0,), (0.1,))
        return type("Report", (), {"tasks": {tasks[0]: gain}})()

    monkeypatch.setattr("spanaug.tpe.cross_validate", fake_cross_validate)
    corpus = tmp_path / "corpus20.json"
    save_corpus(corpus20, corpus)
    out = tmp_path / "opt"
    code = main(
        [
            "optimize",
            "--corpus", str(corpus),
            "--technique", "random_token_deletion",
            "--task", "md",
            "--trials", "3",
            "--seed", "0",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = (out / "trials.csv").read_text().strip().split("\n")
    assert lines[0] == "trial,technique_id,task,objective,params_json,status"
    assert len(lines) == 4
    assert lines[1].startswith("0,random_token_deletion,md,0.1,")


def test_free_text_label_is_quoted(tmp_path, corpus_file):
    out = tmp_path / "ana"
    label = 'swap, s=3 "hot"'
    code = main(
        [
            "analyze",
            "--corpus", str(corpus_file),
            "--augmented", str(corpus_file),
            "--technique", label,
            "--out", str(out),
        ]
    )
    assert code == 0
    header, row = csv.reader(io.StringIO((out / "stats_delta.csv").read_text()))
    assert len(header) == len(row) == 4
    assert row[0] == label


# --- usage errors ------------------------------------------------------------------------------


def test_evaluate_negative_window_is_usage_error(tmp_path, corpus_file, capsys):
    out = tmp_path / "x"
    code = main(
        [
            "evaluate",
            "--corpus", str(corpus_file),
            "--task", "re",
            "--window", "-1",
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert code == 2
    assert "window must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["augment", "--technique", "random_token_swap"],
        ["evaluate"],
        ["optimize", "--technique", "random_token_swap", "--task", "md"],
    ],
    ids=["augment", "evaluate", "optimize"],
)
def test_workers_below_one_is_usage_error(argv, workers, tmp_path, corpus_file, capsys):
    out = tmp_path / "x"
    code = main(
        argv + ["--corpus", str(corpus_file), "--seed", "1", "--workers", workers, "--out", str(out)]
    )
    assert code == 2
    assert "workers must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_augment_runs_every_technique_call_on_the_calling_thread(
    monkeypatch, tmp_path, corpus_file
):
    import threading

    import spanaug.techniques as techniques

    threads = []
    apply_technique = techniques.apply_technique

    def recording(*args, **kwargs):
        threads.append(threading.get_ident())
        return apply_technique(*args, **kwargs)

    monkeypatch.setattr(techniques, "apply_technique", recording)
    code = main(
        [
            "augment",
            "--corpus", str(corpus_file),
            "--technique", "random_token_swap",
            "--params", "n_aug=2",
            "--seed", "1",
            "--workers", "8",
            "--out", str(tmp_path / "run"),
        ]
    )
    assert code == 0
    assert len(threads) == 16
    assert set(threads) == {threading.get_ident()}


def test_repeated_params_key_is_usage_error(tmp_path, corpus_file, capsys):
    out = tmp_path / "x"
    code = main(
        [
            "augment",
            "--corpus", str(corpus_file),
            "--technique", "B.79",
            "--params", "p=0.0", "p=0.9",
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert code == 2
    assert "'p' more than once" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_params_without_technique_is_usage_error(tmp_path, corpus_file, capsys):
    out = tmp_path / "x"
    code = main(
        [
            "evaluate",
            "--corpus", str(corpus_file),
            "--params", "p=0.9",
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert code == 2
    assert "--params needs --technique" in capsys.readouterr().err
    assert not out.exists()


def test_lexicon_path_that_is_not_a_directory_is_usage_error(tmp_path, corpus_file, capsys):
    out = tmp_path / "x"
    code = main(
        [
            "augment",
            "--corpus", str(corpus_file),
            "--technique", "random_token_swap",
            "--lexicon", str(corpus_file),
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert code == 2
    assert "is not a directory" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_lexicon_is_runtime_failure(tmp_path, corpus_file, capsys):
    lexdir = tmp_path / "lex"
    lexdir.mkdir()
    (lexdir / "synonyms.tsv").write_text("a\tNOUN\tsyn\n")
    code = main(
        [
            "augment",
            "--corpus", str(corpus_file),
            "--technique", "random_token_swap",
            "--lexicon", str(lexdir),
            "--seed", "1",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert code == 1
    assert "synonyms.tsv:1" in capsys.readouterr().err


def test_an_abbreviation_short_form_of_two_tokens_is_a_runtime_failure(tmp_path, corpus_file, capsys):
    lexdir = tmp_path / "lex"
    lexdir.mkdir()
    (lexdir / "abbreviations.tsv").write_text("PO\tpurchase order\np o\tpurple orange\n")
    code = main(
        [
            "augment",
            "--corpus", str(corpus_file),
            "--technique", "abbreviation_toggle",
            "--params", "p=1.0",
            "--lexicon", str(lexdir),
            "--seed", "1",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: abbreviations.tsv:2: short form 'p o' is not one token\n"
    assert not (tmp_path / "x").exists()


def test_a_lexicon_file_that_is_not_utf8_is_a_runtime_failure(tmp_path, corpus_file, capsys):
    lexdir = tmp_path / "lex"
    lexdir.mkdir()
    (lexdir / "synonyms.tsv").write_bytes(b"a\tNOUN\tsyn\t\xff\n")
    code = main(
        [
            "augment",
            "--corpus", str(corpus_file),
            "--technique", "random_token_swap",
            "--lexicon", str(lexdir),
            "--seed", "1",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: synonyms.tsv: byte 11: not UTF-8 (invalid start byte)\n"
