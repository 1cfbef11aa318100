"""Pluggable rewrite backends for the paraphrasing techniques.

Two modes share one interface:

* ``back_translate`` — the input texts are span texts; the output is a
  rewritten text per span (``pivot`` selects the intermediate language).
* ``contextual`` — each input text is a sentence with exactly one token
  wrapped in ``[[`` ``]]``; the output is the replacement for that token.

Remote deployments POST to ``{base_url}/rewrite`` with JSON
``{"mode": ..., "pivot": ..., "seed": ..., "texts": [...]}`` and must
answer ``{"texts": [...]}`` of equal length. The in-process stub speaks
the same interface deterministically from a rewrite dictionary, standing
in for the translation and fill models that are out of scope here.
"""

from __future__ import annotations

import json
import logging
import re
from typing import Mapping, Sequence

from .lexicon import match_case
from .seeding import derive_seed

logger = logging.getLogger(__name__)

MARK_PATTERN = re.compile(r"\[\[(.+?)\]\]")

BACK_TRANSLATE = "back_translate"
CONTEXTUAL = "contextual"
MODES = (BACK_TRANSLATE, CONTEXTUAL)

# Word-level rewrites used by the default stub; picked per (seed, pivot,
# word position) so different pivots yield different paraphrases.
DEFAULT_REWRITES: Mapping[str, tuple[str, ...]] = {
    "after": ("once", "when"),
    "before": ("prior",),
    "claim": ("request", "case"),
    "clerk": ("agent", "officer"),
    "customer": ("client",),
    "document": ("record", "file"),
    "examined": ("reviewed", "checked"),
    "examines": ("reviews", "checks"),
    "forwarded": ("routed", "passed"),
    "invoice": ("bill",),
    "is": ("gets", "becomes"),
    "manager": ("supervisor",),
    "notified": ("informed",),
    "order": ("purchase",),
    "received": ("obtained",),
    "registered": ("recorded", "filed"),
    "registers": ("records", "files"),
    "rejected": ("declined", "refused"),
    "report": ("summary",),
    "request": ("inquiry",),
    "reviews": ("assesses",),
    "sends": ("forwards", "transmits"),
    "sent": ("forwarded",),
    "submitted": ("filed",),
    "then": ("afterwards", "next"),
    "verified": ("validated", "confirmed"),
}


class ProviderError(RuntimeError):
    """Rewrite backend failure: a failed request, an HTTP error status, a
    malformed, truncated or non-UTF-8 response, a bad payload, or an output
    list whose length differs from the input."""


class ParaphraseProvider:
    """Interface: given equal treatment of (texts, mode, pivot, seed),
    return one rewrite per input text, deterministically."""

    def rewrite(
        self,
        texts: Sequence[str],
        mode: str,
        pivot: str | None = None,
        seed: int = 0,
    ) -> list[str]:
        raise NotImplementedError


class StubProvider(ParaphraseProvider):
    """Deterministic dictionary-based rewriter.

    With empty rules it is the identity provider. Rewrites are chosen by a
    stable hash of (seed, pivot, text index, word index), so equal calls
    give equal outputs and different pivots give different wordings.
    """

    def __init__(self, rules: Mapping[str, Sequence[str]] | None = None):
        self.rules = {k.lower(): tuple(v) for k, v in (rules or {}).items()}

    def _rewrite_word(self, word: str, seed: int, pivot: str | None, pos: tuple[int, int]) -> str:
        options = self.rules.get(word.lower())
        if not options:
            return word
        pick = derive_seed(seed, pivot or "", pos[0], pos[1]) % len(options)
        return match_case(options[pick], word)

    def rewrite(self, texts, mode, pivot=None, seed=0):
        if mode not in MODES:
            raise ProviderError(f"unknown mode {mode!r}")
        out = []
        for ti, text in enumerate(texts):
            if mode == CONTEXTUAL:
                m = MARK_PATTERN.search(text)
                if m is None:
                    raise ProviderError(f"contextual input without a [[marked]] token: {text!r}")
                out.append(self._rewrite_word(m.group(1), seed, pivot, (ti, 0)))
            else:
                words = text.split()
                out.append(
                    " ".join(
                        self._rewrite_word(w, seed, pivot, (ti, wi))
                        for wi, w in enumerate(words)
                    )
                )
        return out


def default_stub() -> StubProvider:
    return StubProvider(DEFAULT_REWRITES)


def identity_stub() -> StubProvider:
    return StubProvider({})


class HTTPProvider(ParaphraseProvider):
    """Client for the POST /rewrite wire protocol."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def rewrite(self, texts, mode, pivot=None, seed=0):
        # Imported on first use: the HTTP and TLS stack (http.client, email,
        # ssl) adds about 3 MB to the peak RSS of every process that loads
        # it, and only a remote provider needs it.
        import http.client
        import urllib.request

        if mode not in MODES:
            raise ProviderError(f"unknown mode {mode!r}")
        payload: dict = {"mode": mode, "seed": seed, "texts": list(texts)}
        if pivot is not None:
            payload["pivot"] = pivot
        request = urllib.request.Request(
            f"{self.base_url}/rewrite",
            data=json.dumps(payload, sort_keys=True).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        # OSError covers a refused or timed-out request and an HTTP error
        # status (urllib.error.URLError and HTTPError are subclasses),
        # HTTPException a malformed or truncated response, and
        # UnicodeDecodeError a body that is not UTF-8.
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                body = json.loads(response.read().decode("utf-8"))
        except (OSError, http.client.HTTPException, UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ProviderError(f"rewrite request failed: {e}") from e
        rewrites = body.get("texts") if isinstance(body, dict) else None
        if not isinstance(rewrites, list) or not all(isinstance(t, str) for t in rewrites):
            raise ProviderError("response is missing a 'texts' list of strings")
        if len(rewrites) != len(texts):
            raise ProviderError(
                f"length mismatch: sent {len(texts)} texts, got {len(rewrites)}"
            )
        return rewrites


def make_provider(spec: str) -> ParaphraseProvider:
    """CLI provider selector: the literal 'stub' or a base URL."""
    if spec == "stub":
        return default_stub()
    if spec.startswith(("http://", "https://")):
        return HTTPProvider(spec)
    raise ValueError(f"provider must be 'stub' or an http(s) URL, got {spec!r}")
