"""Seeded input generator for the benchmark workloads.

Two kinds of input, both a pure function of the seed (equal seeds give
equal bytes):

* a process-domain corpus in which every one of the fifteen techniques
  finds a site: auxiliary + ``not``/``n't`` pairs, short and long forms
  from the bundled ``abbreviations.tsv``, commas inside and outside
  mentions, multi-token and same-type mentions, and cross-sentence Flow
  relations;
* a synonym-class corpus with its own lexicon directory, in which the
  surface form of a mention is the only cue to its type, so synonym
  substitution on the training fold measurably helps mention detection.

Only the corpus data model of the package is used; the files are written
in the package's canonical serialization.
"""

from __future__ import annotations

import json
from pathlib import Path
from random import Random

ACTORS = ["clerk", "manager", "employee", "supplier", "customer", "department"]
VERBS = [
    "registers", "checks", "reviews", "sends", "forwards", "verifies", "processes",
    "prepares", "updates", "assigns", "analyzes", "stores", "schedules", "creates",
]
BASE_VERBS = ["approve", "check", "review", "send", "verify", "process", "register", "submit"]
OBJECTS = [
    "claim", "invoice", "order", "report", "request", "document", "form", "complaint",
    "contract", "application", "payment", "shipment", "letter", "notification",
]
ADJECTIVES = ["new", "urgent", "valid", "complete", "incorrect", "final", "initial", "late"]
ADVERBS = ["afterwards", "finally", "immediately", "usually", "quickly", "subsequently"]
TITLES = ["Head", "Director", "Manager"]
UNITS = ["Claims", "Office", "Operations", "Support", "Finance"]
# Long forms and short forms of the bundled abbreviations.tsv.
LONG_ACTORS = [
    ("Human", "Resources"), ("Quality", "Assurance"), ("Chief", "Executive", "Officer"),
    ("Chief", "Financial", "Officer"), ("General", "Manager"),
]
SHORT_ACTORS = ["HR", "QA", "CEO", "CFO", "GM", "IT"]
FREE_TAILS = [
    ("as", "soon", "as", "possible"), ("via", "the", "CRM"), ("in", "the", "ERP"),
    ("under", "the", "Service", "Level", "Agreement"), ("for", "the", "KPI"),
]
NEGATIONS = [("does", "n't"), ("must", "not"), ("can", "not"), ("did", "not")]


class Bag:
    """Seeded draws with exact proportions: items come in shuffled blocks
    holding each item its weight's number of times, so corpus shape (and
    with it the work per document) barely changes from seed to seed."""

    def __init__(self, rng: Random, weights: dict):
        self.rng = rng
        self.block = [item for item, weight in weights.items() for _ in range(weight)]
        self.pending: list = []

    def draw(self):
        if not self.pending:
            self.pending = self.block[:]
            self.rng.shuffle(self.pending)
        return self.pending.pop()


class _DocBuilder:
    """Accumulates tokens, mentions and relations in corpus-file form."""

    def __init__(self, doc_id: str):
        self.doc_id = doc_id
        self.tokens: list[dict] = []
        self.mentions: list[dict] = []
        self.relations: list[dict] = []

    def add(self, sentence: int, *texts: str) -> tuple[int, int]:
        start = len(self.tokens)
        self.tokens += [{"text": t, "sentence": sentence} for t in texts]
        return start, len(self.tokens) - 1

    def mention(self, sentence: int, kind: str, *texts: str) -> str:
        start, end = self.add(sentence, *texts)
        mention_id = f"m{len(self.mentions) + 1}"
        self.mentions.append({"id": mention_id, "type": kind, "start": start, "end": end})
        return mention_id

    def relate(self, kind: str, head: str, tail: str) -> None:
        self.relations.append(
            {"id": f"r{len(self.relations) + 1}", "type": kind, "head": head, "tail": tail}
        )

    def document(self) -> dict:
        return {
            "id": self.doc_id,
            "tokens": self.tokens,
            "mentions": self.mentions,
            "relations": self.relations,
        }


class _ProcessGenerator:
    def __init__(self, seed: int):
        rng = self.rng = Random(seed)
        self.lengths = Bag(rng, {2: 1, 3: 1, 4: 1})
        self.templates = Bag(
            rng, {self.plain: 2, self.negated: 1, self.conditional: 1}
        )
        self.actors = Bag(rng, {"long": 4, "short": 3, "comma": 4, "plain": 9})
        self.adverb = Bag(rng, {True: 2, False: 3})
        self.adjective = Bag(rng, {True: 2, False: 3})
        self.tail = Bag(rng, {True: 1, False: 2})

    def actor(self, b: _DocBuilder, s: int) -> str:
        rng = self.rng
        kind = self.actors.draw()
        if kind == "long":
            return b.mention(s, "Actor", *rng.choice(LONG_ACTORS))
        if kind == "short":
            return b.mention(s, "Actor", rng.choice(SHORT_ACTORS))
        if kind == "comma":  # a comma inside a multi-token mention
            return b.mention(s, "Actor", rng.choice(TITLES), ",", rng.choice(UNITS), rng.choice(UNITS))
        b.add(s, "the" if b.tokens and b.tokens[-1]["sentence"] == s else "The")
        return b.mention(s, "Actor", rng.choice(ACTORS))

    def data(self, b: _DocBuilder, s: int) -> str:
        b.add(s, "the")
        if self.adjective.draw():
            return b.mention(s, "Activity Data", self.rng.choice(ADJECTIVES), self.rng.choice(OBJECTS))
        return b.mention(s, "Activity Data", self.rng.choice(OBJECTS))

    def plain(self, b: _DocBuilder, s: int) -> str:
        if self.adverb.draw():
            b.add(s, self.rng.choice(ADVERBS).capitalize(), ",")
        actor = self.actor(b, s)
        verb = b.mention(s, "Activity", self.rng.choice(VERBS))
        data = self.data(b, s)
        if self.tail.draw():
            b.add(s, *self.rng.choice(FREE_TAILS))
        b.add(s, ".")
        b.relate("Actor Performer", verb, actor)
        b.relate("Uses", verb, data)
        return verb

    def negated(self, b: _DocBuilder, s: int) -> str:
        actor = self.actor(b, s)
        b.add(s, *self.rng.choice(NEGATIONS))
        verb = b.mention(s, "Activity", self.rng.choice(BASE_VERBS))
        data = self.data(b, s)
        b.add(s, ".")
        b.relate("Actor Performer", verb, actor)
        b.relate("Uses", verb, data)
        return verb

    def conditional(self, b: _DocBuilder, s: int) -> str:
        rng = self.rng
        gateway = b.mention(s, "XOR Gateway", "If")
        # The auxiliary and negation sit inside the condition mention, so
        # deleting them shrinks a mention instead of emptying it.
        condition = b.mention(
            s, "Condition Specification", "the", rng.choice(OBJECTS), "is", "not", rng.choice(ADJECTIVES)
        )
        b.add(s, ",")
        actor = self.actor(b, s)
        verb = b.mention(s, "Activity", rng.choice(VERBS))
        data = b.mention(s, "Activity Data", "it")
        b.add(s, ".")
        b.relate("Actor Performer", verb, actor)
        b.relate("Uses", verb, data)
        b.relate("Further Specification", verb, condition)
        b.relate("Same Gateway", gateway, verb)
        return verb

    def document(self, doc_id: str) -> dict:
        b = _DocBuilder(doc_id)
        previous = None
        for s in range(self.lengths.draw()):
            verb = self.templates.draw()(b, s)
            if previous is not None:
                b.relate("Flow", previous, verb)  # cross-sentence relation
            previous = verb
        return b.document()


def process_corpus(n_documents: int, seed: int) -> dict:
    from spanaug.corpus import DEFAULT_MENTION_TYPES, DEFAULT_RELATION_TYPES

    generator = _ProcessGenerator(seed)
    return {
        "mention_types": list(DEFAULT_MENTION_TYPES),
        "relation_types": list(DEFAULT_RELATION_TYPES),
        "documents": [generator.document(f"doc{i}") for i in range(n_documents)],
    }


# --- synonym-class corpus ----------------------------------------------------

SYNONYM_CLASSES = {
    ("Activity", "VERB"): [
        ["check", "examine", "inspect", "review", "audit", "assess",
         "verify", "evaluate", "screen", "scan", "appraise", "vet"],
        ["register", "record", "file", "log", "enter", "catalog",
         "archive", "index", "post", "book", "list", "store"],
        ["approve", "accept", "authorize", "confirm", "endorse", "ratify",
         "grant", "clear", "sanction", "validate", "sign", "settle"],
    ],
    ("Actor", "NOUN"): [
        ["clerk", "officer", "agent", "assistant", "operator", "registrar",
         "cashier", "teller", "receptionist", "administrator", "coordinator", "secretary"],
        ["manager", "supervisor", "director", "lead", "chief", "head",
         "principal", "executive", "controller", "foreman", "steward", "overseer"],
    ],
    ("Activity Data", "NOUN"): [
        ["claim", "request", "application", "case", "petition", "inquiry",
         "submission", "dossier", "ticket", "filing", "appeal", "motion"],
        ["invoice", "bill", "statement", "receipt", "voucher", "slip",
         "memo", "tally", "quote", "estimate", "summary", "docket"],
    ],
}


# The corpus structure comes from this fixed seed; the workload seed only
# respells the words. What an optimize run costs follows the objective
# landscape TPE walks (its n_aug choices above all), and a structure drawn
# afresh per seed moved trials per second by a quarter between seeds.
STRUCTURE_SEED = 7
_LETTERS = "abcdefghijklmnopqrstuvwxyz"
# Affixes of the fixed tokens, which no respelled word may share.
_RESERVED_AFFIXES = frozenset({"the", "mus", "ust", "."})


def respelling(seed: int) -> dict[str, str]:
    """Class member -> a seeded pseudo-word. Every pseudo-word has its own
    three-letter prefix and suffix, so the tagger's features, and with them
    every model and every TPE choice, are the same under any seed."""
    rng = Random(seed)
    used = set(_RESERVED_AFFIXES)
    out = {}
    for classes in SYNONYM_CLASSES.values():
        for members in classes:
            for word in members:
                while True:
                    spelled = "".join(rng.choice(_LETTERS) for _ in range(len(word)))
                    if len(spelled) < 6:
                        spelled += "".join(rng.choice(_LETTERS) for _ in range(6 - len(spelled)))
                    if spelled[:3] not in used and spelled[-3:] not in used:
                        break
                used |= {spelled[:3], spelled[-3:]}
                out[word] = spelled
    return out


def synonym_lexicon_rows(spelling: dict[str, str]) -> str:
    """synonyms.tsv content: every class member lists the others."""
    lines = ["# surface\tPOS\trelation\ttarget"]
    for (_, tag), classes in SYNONYM_CLASSES.items():
        for members in classes:
            for word in members:
                lines += [
                    f"{spelling[word]}\t{tag}\tsyn\t{spelling[other]}"
                    for other in members
                    if other != word
                ]
    return "\n".join(lines) + "\n"


def synonym_document(doc_id: str, rng: Random, lengths: Bag, subjects: Bag, spelling) -> dict:
    """Subject and object slots take Actor or Activity Data words alike,
    so only the surface form tells the mention type."""
    b = _DocBuilder(doc_id)

    def draw(key) -> str:
        return spelling[rng.choice(rng.choice(SYNONYM_CLASSES[key]))]

    for s in range(lengths.draw()):
        subject_is_actor = subjects.draw()
        first, second = ("Actor", "Activity Data") if subject_is_actor else ("Activity Data", "Actor")
        b.add(s, "The")
        subject = b.mention(s, first, draw((first, "NOUN")))
        b.add(s, "must")
        verb = b.mention(s, "Activity", draw(("Activity", "VERB")))
        b.add(s, "the")
        obj = b.mention(s, second, draw((second, "NOUN")))
        b.add(s, ".")
        actor, data = (subject, obj) if subject_is_actor else (obj, subject)
        b.relate("Actor Performer", verb, actor)
        b.relate("Uses", verb, data)
    return b.document()


def synonym_corpus(n_documents: int, spelling: dict[str, str]) -> dict:
    from spanaug.corpus import DEFAULT_MENTION_TYPES, DEFAULT_RELATION_TYPES

    rng = Random(STRUCTURE_SEED)
    lengths, subjects = Bag(rng, {1: 1, 2: 1}), Bag(rng, {True: 1, False: 1})
    return {
        "mention_types": list(DEFAULT_MENTION_TYPES),
        "relation_types": list(DEFAULT_RELATION_TYPES),
        "documents": [
            synonym_document(f"s{i}", rng, lengths, subjects, spelling)
            for i in range(n_documents)
        ],
    }


def corpus_bytes(obj: dict) -> bytes:
    """The package's canonical serialization of a corpus object."""
    from spanaug.corpus import parse_corpus, serialize_corpus

    return serialize_corpus(parse_corpus(json.dumps(obj)))


def write_process_corpus(path: Path, n_documents: int, seed: int) -> None:
    path.write_bytes(corpus_bytes(process_corpus(n_documents, seed)))


def write_synonym_inputs(corpus_path: Path, lexicon_dir: Path, n_documents: int, seed: int) -> None:
    spelling = respelling(seed)
    corpus_path.write_bytes(corpus_bytes(synonym_corpus(n_documents, spelling)))
    lexicon_dir.mkdir(parents=True, exist_ok=True)
    (lexicon_dir / "synonyms.tsv").write_text(synonym_lexicon_rows(spelling), encoding="utf-8")
