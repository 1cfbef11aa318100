import json
import os
import subprocess
import sys
import textwrap
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import spanaug
from spanaug.providers import (
    HTTPProvider,
    ProviderError,
    StubProvider,
    default_stub,
    identity_stub,
    make_provider,
)


class RewriteHandler(BaseHTTPRequestHandler):
    received = []
    respond_with = None  # None: echo uppercased

    def do_POST(self):
        assert self.path == "/rewrite"
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        RewriteHandler.received.append(body)
        if RewriteHandler.respond_with is not None:
            payload = RewriteHandler.respond_with
        else:
            payload = {"texts": [t.upper() for t in body["texts"]]}
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def rewrite_server():
    RewriteHandler.received = []
    RewriteHandler.respond_with = None
    server = ThreadingHTTPServer(("127.0.0.1", 0), RewriteHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()


def test_identity_stub_is_identity():
    stub = identity_stub()
    texts = ["a claim", "is", "registered"]
    assert stub.rewrite(texts, "back_translate", pivot="de", seed=3) == texts


def test_stub_is_deterministic_and_seed_sensitive():
    stub = StubProvider({"claim": ["request", "case"]})
    first = stub.rewrite(["the claim"], "back_translate", pivot="de", seed=1)
    again = stub.rewrite(["the claim"], "back_translate", pivot="de", seed=1)
    assert first == again
    outputs = {
        tuple(stub.rewrite(["the claim"], "back_translate", pivot=p, seed=s))
        for p in ("de", "fr", "es")
        for s in range(6)
    }
    assert len(outputs) > 1  # both rewrite options reachable
    assert all(o[0] in ("the request", "the case") for o in outputs)


def test_stub_preserves_initial_capital():
    stub = StubProvider({"claim": ["request"]})
    assert stub.rewrite(["Claim"], "back_translate", pivot="de", seed=0) == ["Request"]


def test_stub_contextual_mode_rewrites_marked_token():
    stub = StubProvider({"registered": ["recorded"]})
    out = stub.rewrite(["a claim is [[registered]] today"], "contextual", seed=0)
    assert out == ["recorded"]
    out = stub.rewrite(["a [[claim]] is registered"], "contextual", seed=0)
    assert out == ["claim"]  # unknown word comes back unchanged


def test_stub_contextual_requires_marker():
    with pytest.raises(ProviderError):
        identity_stub().rewrite(["no marker here"], "contextual", seed=0)


def test_stub_rejects_unknown_mode():
    with pytest.raises(ProviderError):
        identity_stub().rewrite(["x"], "translate", seed=0)


def test_http_provider_round_trip(rewrite_server):
    provider = HTTPProvider(rewrite_server)
    out = provider.rewrite(["a claim", "is"], "back_translate", pivot="fr", seed=17)
    assert out == ["A CLAIM", "IS"]
    sent = RewriteHandler.received[0]
    assert sent == {
        "mode": "back_translate",
        "pivot": "fr",
        "seed": 17,
        "texts": ["a claim", "is"],
    }


def test_http_provider_omits_pivot_for_contextual(rewrite_server):
    provider = HTTPProvider(rewrite_server)
    provider.rewrite(["the [[claim]]"], "contextual", seed=2)
    assert "pivot" not in RewriteHandler.received[0]


def test_http_provider_length_mismatch(rewrite_server):
    RewriteHandler.respond_with = {"texts": ["only-one"]}
    provider = HTTPProvider(rewrite_server)
    with pytest.raises(ProviderError, match="length mismatch"):
        provider.rewrite(["a", "b"], "back_translate", pivot="de", seed=0)


def test_http_provider_bad_payload(rewrite_server):
    RewriteHandler.respond_with = {"wrong": True}
    provider = HTTPProvider(rewrite_server)
    with pytest.raises(ProviderError):
        provider.rewrite(["a"], "back_translate", pivot="de", seed=0)


def test_http_provider_connection_failure():
    provider = HTTPProvider("http://127.0.0.1:9", timeout=0.2)
    with pytest.raises(ProviderError):
        provider.rewrite(["a"], "back_translate", pivot="de", seed=0)


def test_http_provider_garbage_status_line(raw_server):
    provider = HTTPProvider(raw_server(b"garbage\r\n\r\n"), timeout=5)
    with pytest.raises(ProviderError, match="garbage"):
        provider.rewrite(["a"], "back_translate", pivot="de", seed=0)


def test_http_provider_truncated_body(raw_server):
    head = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n"
    provider = HTTPProvider(raw_server(head + b'{"texts": ["a"'), timeout=5)
    with pytest.raises(ProviderError, match="IncompleteRead"):
        provider.rewrite(["a"], "back_translate", pivot="de", seed=0)


def test_http_provider_non_utf8_body(raw_server):
    body = '{"texts": ["é"]}'.encode("latin-1")
    head = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body)
    provider = HTTPProvider(raw_server(head + body), timeout=5)
    with pytest.raises(ProviderError, match="utf-8"):
        provider.rewrite(["a"], "back_translate", pivot="de", seed=0)


def test_make_provider():
    assert isinstance(make_provider("stub"), StubProvider)
    assert isinstance(make_provider("http://somewhere/"), HTTPProvider)
    with pytest.raises(ValueError):
        make_provider("ftp://nope")


def test_default_stub_rewrites_domain_words():
    stub = default_stub()
    out = stub.rewrite(["registered"], "back_translate", pivot="de", seed=1)
    assert out[0] in ("recorded", "filed")


def test_stub_runs_leave_the_http_stack_unloaded():
    # Only HTTPProvider.rewrite imports urllib.request, which brings in
    # http.client, email and ssl (OpenSSL); a stub-provider command must
    # not pay for them.
    script = textwrap.dedent(
        """
        import sys, tempfile
        from pathlib import Path
        import spanaug
        from spanaug.cli import main
        sample = Path(spanaug.__file__).parent / "data" / "sample_corpus.json"
        with tempfile.TemporaryDirectory() as out:
            code = main([
                "augment", "--corpus", str(sample), "--technique", "paraphrase_spans",
                "--provider", "stub", "--seed", "1", "--out", out,
            ])
        assert code == 0, code
        print(sorted(m for m in ("urllib.request", "http.client", "ssl") if m in sys.modules))
        """
    )
    src = str(Path(spanaug.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert done.stdout.strip() == "[]"
