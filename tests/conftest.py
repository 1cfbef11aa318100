import os
import socketserver
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from corpora import d1_document, fixture_corpus  # noqa: E402

from spanaug.corpus import Corpus  # noqa: E402
from spanaug.lexicon import builtin_lexicon  # noqa: E402


# A child forked while another thread runs can inherit a lock that thread
# holds, and Python 3.12 and later warn of it. No test may fork so, on any
# Python version: such a fork fails the test phase it happens in. (A
# warnings filter of "error" cannot do this: the interpreter drops the
# exception that the filter raises inside fork, and the warning is lost.)
_forks_beside_a_thread: list[str] = []


def _note_a_fork_beside_a_thread():
    try:  # every thread of the process, as the warning counts them on Linux
        threads = len(os.listdir("/proc/self/task"))
    except FileNotFoundError:
        threads = threading.active_count()
    if threads > 1:
        names = ", ".join(t.name for t in threading.enumerate())
        _forks_beside_a_thread.append(f"{threads} threads (Python threads: {names})")


os.register_at_fork(before=_note_a_fork_beside_a_thread)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    report = (yield).get_result()
    if _forks_beside_a_thread:
        report.outcome = "failed"
        report.longrepr = "forked while these threads ran: " + "; ".join(_forks_beside_a_thread)
        _forks_beside_a_thread.clear()


@pytest.fixture
def d1():
    return d1_document()


@pytest.fixture
def d1_corpus():
    return Corpus((d1_document(),))


@pytest.fixture(scope="session")
def lexicon():
    return builtin_lexicon()


@pytest.fixture(scope="session")
def corpus20():
    return fixture_corpus(20)


class RawReply(socketserver.StreamRequestHandler):
    """Reads one whole request, then answers it with the bytes in `reply`,
    which need not be valid HTTP, and closes the connection."""

    reply = b""

    def handle(self):
        length = 0
        while (line := self.rfile.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            if name.lower() == "content-length":
                length = int(value)
        self.rfile.read(length)
        self.wfile.write(self.reply)


@pytest.fixture
def raw_server():
    """A function that starts a server answering every request with the
    given bytes and returns the server's base URL."""
    servers = []

    def start(reply: bytes) -> str:
        handler = type("Reply", (RawReply,), {"reply": reply})
        server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), handler)
        threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_address[1]}"

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()
