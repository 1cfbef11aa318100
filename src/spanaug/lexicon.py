"""Lexical resources for the rule-based techniques: synonyms, antonyms,
coarse POS tags, abbreviation expansions, filler phrases, and stop words.

Resources load from plain UTF-8 files in a directory:

* ``synonyms.tsv``   rows ``surface<TAB>POS<TAB>relation<TAB>target`` where
  the surface is one token and relation is ``syn``, ``ant``, or ``pos``
  (POS declaration only; target ignored and may be ``-``).
* ``abbreviations.tsv``  rows ``short<TAB>long``, the short form one token.
  Every short form expands; only a long form of two or more words
  contracts, so a one-word long form is never replaced by its short form.
* ``fillers.txt``    one phrase per line.
* ``stopwords.txt``  one token per line.

Lookups are case-insensitive on the surface form; callers re-apply the
original token's initial capital via :func:`match_case`. A small bundled
process-domain lexicon keeps the toolkit self-contained; production users
export a richer one from a lexical database in the same format.

:meth:`Lexicon.substitutes`, the per-token site lookup that lexicon
substitution and synonym insertion share, is memoized on the lexicon
itself, keyed by (mode, token text) and filled on first use. The memo
lives exactly as long as the lexicon (the CLI loads one per command, so
every fold and trial of a command shares it), is left out of repr and
equality, and a new lexicon starts with an empty one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .corpus import is_token_text

POS_TAGS = ("NOUN", "VERB", "ADJ", "ADV", "OTHER")

_DATA_DIR = Path(__file__).parent / "data" / "lexicon"


class LexiconError(ValueError):
    """Malformed lexicon file or broken lexicon invariant."""


@dataclass(frozen=True)
class LexEntry:
    synonyms: tuple[str, ...] = ()
    antonyms: tuple[str, ...] = ()


@dataclass(frozen=True)
class Lexicon:
    # (lowercased surface, POS) -> entry
    entries: dict[tuple[str, str], LexEntry] = field(default_factory=dict)
    abbreviations: dict[str, str] = field(default_factory=dict)  # short lower -> long
    expansions: dict[str, str] = field(default_factory=dict)  # long lower -> short
    fillers: tuple[str, ...] = ()
    stopwords: frozenset[str] = frozenset()
    pos: dict[str, str] = field(default_factory=dict)  # lowercased surface -> tag
    # (mode, token text) -> substitutes, filled by substitutes()
    _substitutes: dict[tuple[str, str], tuple[str, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def coarse_pos(self, text: str) -> str:
        """Dictionary POS tag for a surface form, OTHER when unknown."""
        return self.pos.get(text.lower(), "OTHER")

    def _gather(self, text: str, which: str, pos: str | None) -> tuple[str, ...]:
        key = text.lower()
        tags = (pos,) if pos else POS_TAGS
        out: list[str] = []
        for tag in tags:
            entry = self.entries.get((key, tag))
            if entry:
                for w in getattr(entry, which):
                    if w not in out:
                        out.append(w)
        return tuple(out)

    def synonyms(self, text: str, pos: str | None = None) -> tuple[str, ...]:
        return self._gather(text, "synonyms", pos)

    def antonyms(self, text: str, pos: str | None = None) -> tuple[str, ...]:
        return self._gather(text, "antonyms", pos)

    def is_stopword(self, text: str) -> bool:
        return text.lower() in self.stopwords

    def substitutes(self, text: str, mode: str) -> tuple[str, ...]:
        """Words that may replace a token under a substitution mode, ()
        when none: "synonym" gives the synonyms of a non-stop word,
        "adjective_antonym" the adjective antonyms of a word tagged ADJ,
        and any other mode ("antonym_even") the antonyms. Memoized."""
        found = self._substitutes.get((mode, text))
        if found is None:
            if mode == "synonym":
                found = () if self.is_stopword(text) else self.synonyms(text)
            elif mode == "adjective_antonym":
                found = self.antonyms(text, "ADJ") if self.coarse_pos(text) == "ADJ" else ()
            else:
                found = self.antonyms(text)
            self._substitutes[mode, text] = found
        return found


def match_case(replacement: str, original: str) -> str:
    """Re-apply an initial capital so substitutions keep sentence casing."""
    if original[:1].isupper() and replacement[:1].islower():
        return replacement[0].upper() + replacement[1:]
    return replacement


def _read_lines(path: Path) -> list[tuple[int, str]]:
    """(line number, line) of each line that is neither blank nor a
    comment; a missing file has none."""
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return []
    except UnicodeDecodeError as e:
        raise LexiconError(f"{path.name}: byte {e.start}: not UTF-8 ({e.reason})") from None
    return [
        (lineno, line)
        for lineno, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]


def _rows(path: Path, fields: int):
    """("FILE:LINE", stripped fields) of each row of a tab-separated file."""
    name = path.name
    for lineno, line in _read_lines(path):
        parts = line.split("\t")
        where = f"{name}:{lineno}"
        if len(parts) != fields:
            raise LexiconError(f"{where}: expected {fields} tab-separated fields, got {len(parts)}")
        yield where, [p.strip() for p in parts]


def load_lexicon(path) -> Lexicon:
    """Load a lexicon directory. Missing files yield empty resources; a
    path that is not a directory raises NotADirectoryError; a malformed
    row or a broken invariant raises LexiconError naming the file and
    line."""
    root = Path(path)
    if not root.is_dir():
        raise NotADirectoryError(f"lexicon path {root} is not a directory")

    entries: dict[tuple[str, str], dict[str, list[str]]] = {}
    pos_map: dict[str, str] = {}
    for where, (surface, tag, relation, target) in _rows(root / "synonyms.tsv", 4):
        if not is_token_text(surface):  # every lookup keys on one token's text
            raise LexiconError(f"{where}: surface {surface!r} is not one token")
        if tag not in POS_TAGS:
            raise LexiconError(f"{where}: unknown POS tag {tag!r}")
        if relation not in ("syn", "ant", "pos"):
            raise LexiconError(f"{where}: relation must be syn, ant or pos, got {relation!r}")
        key = surface.lower()
        pos_map.setdefault(key, tag)
        bucket = entries.setdefault((key, tag), {"syn": [], "ant": []})
        if relation == "pos":
            continue
        if not target:
            raise LexiconError(f"{where}: empty target")
        if relation == "syn" and target.lower() == key:
            raise LexiconError(f"{where}: {surface!r} listed as its own synonym")
        if target not in bucket[relation]:
            bucket[relation].append(target)

    abbreviations: dict[str, str] = {}
    expansions: dict[str, str] = {}
    for where, (short, long) in _rows(root / "abbreviations.tsv", 2):
        if not short or not long:
            raise LexiconError(f"{where}: empty abbreviation field")
        if not is_token_text(short):
            raise LexiconError(f"{where}: short form {short!r} is not one token")
        if short.lower() in abbreviations:
            raise LexiconError(f"{where}: duplicate short form {short!r}")
        if long.lower() in expansions:
            raise LexiconError(f"{where}: duplicate long form {long!r}")
        abbreviations[short.lower()] = long
        expansions[long.lower()] = short

    fillers = tuple(line.strip() for _, line in _read_lines(root / "fillers.txt"))
    stopwords = set()
    for lineno, line in _read_lines(root / "stopwords.txt"):
        word = line.strip()
        if not is_token_text(word):
            raise LexiconError(f"stopwords.txt:{lineno}: stop word {word!r} is not one token")
        stopwords.add(word.lower())

    frozen = {
        key: LexEntry(tuple(v["syn"]), tuple(v["ant"])) for key, v in entries.items()
    }
    return Lexicon(frozen, abbreviations, expansions, fillers, frozenset(stopwords), pos_map)


def builtin_lexicon() -> Lexicon:
    """The bundled process-domain lexicon shipped with the package."""
    return load_lexicon(_DATA_DIR)
