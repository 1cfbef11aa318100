from pathlib import Path

import pytest

import spanaug
from spanaug.corpus import load_corpus
from spanaug.lexicon import Lexicon, LexiconError, builtin_lexicon, load_lexicon, match_case


def write_lexicon(tmp_path, synonyms="", abbreviations="", fillers="", stopwords=""):
    if synonyms:
        (tmp_path / "synonyms.tsv").write_text(synonyms, encoding="utf-8")
    if abbreviations:
        (tmp_path / "abbreviations.tsv").write_text(abbreviations, encoding="utf-8")
    if fillers:
        (tmp_path / "fillers.txt").write_text(fillers, encoding="utf-8")
    if stopwords:
        (tmp_path / "stopwords.txt").write_text(stopwords, encoding="utf-8")
    return load_lexicon(tmp_path)


def test_synonym_row_readback(tmp_path):
    lex = write_lexicon(tmp_path, synonyms="examined\tVERB\tsyn\tinspected\n")
    assert "inspected" in lex.synonyms("examined", "VERB")
    assert "inspected" in lex.synonyms("examined")  # POS left open


def test_lookup_is_case_insensitive(tmp_path):
    lex = write_lexicon(tmp_path, synonyms="examined\tVERB\tsyn\tinspected\n")
    assert lex.synonyms("Examined") == ("inspected",)


def test_match_case_reapplies_initial_capital():
    assert match_case("inspected", "Examined") == "Inspected"
    assert match_case("inspected", "examined") == "inspected"
    assert match_case("IT", "it") == "IT"


def test_empty_synonyms_with_fillers(tmp_path):
    lex = write_lexicon(tmp_path, fillers="well\nyou know\n")
    assert lex.entries == {}
    assert lex.fillers == ("well", "you know")


def test_self_synonym_rejected(tmp_path):
    with pytest.raises(LexiconError) as err:
        write_lexicon(tmp_path, synonyms="word\tNOUN\tsyn\tWord\n")
    assert ":1" in str(err.value)


def test_malformed_row_names_line(tmp_path):
    with pytest.raises(LexiconError) as err:
        write_lexicon(tmp_path, synonyms="# comment\nonly three\tfields\there\n")
    assert ":2" in str(err.value)


def test_a_file_that_is_not_utf8_is_named_with_its_byte_offset(tmp_path):
    (tmp_path / "fillers.txt").write_bytes(b"well\nyou kn\xffow\n")
    with pytest.raises(LexiconError) as err:
        load_lexicon(tmp_path)
    assert str(err.value) == "fillers.txt: byte 11: not UTF-8 (invalid start byte)"


def test_unknown_pos_tag_rejected(tmp_path):
    with pytest.raises(LexiconError):
        write_lexicon(tmp_path, synonyms="word\tXPOS\tsyn\tother\n")


def test_duplicate_abbreviation_short_form(tmp_path):
    with pytest.raises(LexiconError):
        write_lexicon(tmp_path, abbreviations="PO\tPurchase Order\npo\tPost Office\n")


def test_duplicate_abbreviation_long_form(tmp_path):
    with pytest.raises(LexiconError):
        write_lexicon(tmp_path, abbreviations="PO\tPurchase Order\nORD\tpurchase order\n")


def test_abbreviation_short_form_must_be_one_token(tmp_path):
    with pytest.raises(LexiconError) as err:
        write_lexicon(tmp_path, abbreviations="# forms\np o\tpurple orange\n")
    assert str(err.value) == "abbreviations.tsv:2: short form 'p o' is not one token"


def test_missing_files_are_empty(tmp_path):
    assert load_lexicon(tmp_path) == Lexicon()


def test_coarse_pos_readback(tmp_path):
    lex = write_lexicon(tmp_path, synonyms="registered\tVERB\tpos\t-\n")
    assert lex.coarse_pos("registered") == "VERB"
    assert lex.coarse_pos("Registered") == "VERB"


def test_coarse_pos_defaults_to_other(tmp_path):
    lex = write_lexicon(tmp_path, synonyms="registered\tVERB\tpos\t-\n")
    assert lex.coarse_pos("zzglob") == "OTHER"
    assert lex.coarse_pos(",") == "OTHER"


def test_stopwords_lowercased(tmp_path):
    lex = write_lexicon(tmp_path, stopwords="The\nof\n")
    assert lex.is_stopword("the")
    assert lex.is_stopword("THE")
    assert not lex.is_stopword("clerk")


def test_missing_directory_rejected(tmp_path):
    with pytest.raises(NotADirectoryError):
        load_lexicon(tmp_path / "nowhere")


def test_builtin_lexicon_satisfies_invariants():
    lex = builtin_lexicon()
    assert lex.fillers
    assert lex.stopwords
    for (surface, _), entry in lex.entries.items():
        assert surface not in {s.lower() for s in entry.synonyms}
    shorts = list(lex.abbreviations)
    longs = [v.lower() for v in lex.abbreviations.values()]
    assert len(set(shorts)) == len(shorts)
    assert len(set(longs)) == len(longs)
    assert lex.coarse_pos("examined") == "VERB"
    assert "inspected" in lex.synonyms("examined")
    assert "small" in lex.antonyms("large", "ADJ")


# --- the substitutes memo ----------------------------------------------------------

MODES = ("synonym", "adjective_antonym", "antonym_even")
SAMPLE_CORPUS = Path(spanaug.__file__).parent / "data" / "sample_corpus.json"


def unmemoized_substitutes(lex, text, mode):
    if mode == "synonym":
        return () if lex.is_stopword(text) else lex.synonyms(text)
    if mode == "adjective_antonym":
        return lex.antonyms(text, "ADJ") if lex.coarse_pos(text) == "ADJ" else ()
    return lex.antonyms(text)


def test_memoized_substitutes_equal_a_fresh_lexicons_lookup():
    texts = {t.text for d in load_corpus(SAMPLE_CORPUS).documents for t in d.tokens}
    texts |= {t.upper() for t in texts} | {t.capitalize() for t in texts}
    memoized, fresh = builtin_lexicon(), builtin_lexicon()
    found = set()
    for mode in MODES:
        for text in sorted(texts):
            expected = unmemoized_substitutes(fresh, text, mode)
            assert memoized.substitutes(text, mode) == expected  # fills the memo
            assert memoized.substitutes(text, mode) == expected  # reads it
            if expected:
                found.add(mode)
    assert found == set(MODES)  # every mode found sites in the corpus
    assert len(memoized._substitutes) == len(MODES) * len(texts)
    assert fresh._substitutes == {}


def test_a_used_lexicon_still_equals_a_fresh_one():
    used, fresh = builtin_lexicon(), builtin_lexicon()
    used.substitutes("examined", "synonym")
    assert used._substitutes
    assert used == fresh
    assert repr(used) == repr(fresh)


def test_every_lexicon_starts_with_an_empty_memo_of_its_own(tmp_path):
    builtin_lexicon().substitutes("large", "adjective_antonym")
    assert Lexicon()._substitutes == {}
    assert builtin_lexicon()._substitutes == {}
    lex = write_lexicon(tmp_path, synonyms="large\tADJ\tant\tsmall\n")
    assert lex._substitutes == {}
    assert lex.substitutes("Large", "adjective_antonym") == ("small",)
    assert Lexicon()._substitutes is not Lexicon()._substitutes
