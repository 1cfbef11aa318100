"""Stable seed derivation.

Python's built-in hash() is salted per process, so seeds are derived
from SHA-256 instead: equal inputs give equal seeds in every process, on
every machine and interpreter.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(*parts) -> int:
    """Deterministic 63-bit seed from any printable parts."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF


def derive_rng(*parts) -> random.Random:
    return random.Random(derive_seed(*parts))
