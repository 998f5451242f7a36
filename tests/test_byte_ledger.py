"""The perfbench corpus keeps the bytes recorded in tests/byte_ledger.txt,
half by half, and its simulate documents keep the values recorded in
tests/simulate_documents.json."""

import json

import pytest

import byte_ledger

#: Entries per half of the ledger.
SIZES = {"estimate": 576, "simulate": 24}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return byte_ledger.entries(tmp_path_factory.mktemp("corpus"))


@pytest.mark.parametrize("half", byte_ledger.HALVES)
def test_corpus_matches_the_ledger(corpus, half):
    lines, _ = corpus
    assert len(lines) == sum(SIZES.values())
    recorded = byte_ledger.recorded_entries()[half]
    if recorded is None:
        pytest.skip(f"cannot compare the {half} half of the byte ledger: it was recorded "
                    "on another build; this one is\n" + byte_ledger.header())
    current = [line for line in lines if byte_ledger.half(line) == half]
    assert len(current) == SIZES[half]
    assert byte_ledger.differences(recorded, current) == []


def test_simulate_documents_keep_their_values(corpus):
    _, documents = corpus
    recorded = json.loads(byte_ledger.DOCUMENTS.read_text(encoding="utf-8"))
    assert len(recorded) == SIZES["simulate"] // len(byte_ledger.FORMATS)
    assert byte_ledger.value_differences(recorded, documents) == []


def test_value_differences_allow_rounding_and_nothing_else():
    doc = {"mean": 0.5, "rows": [1, "a", None, True], "fit": {"rate": 2e-3}}
    assert byte_ledger.value_differences(doc, json.loads(json.dumps(doc))) == []
    close = {**doc, "mean": 0.5 * (1 + 4e-13)}
    assert byte_ledger.value_differences(doc, close) == []
    assert byte_ledger.value_differences(doc, {**doc, "mean": 0.5 * (1 + 4e-12)}) != []
    assert byte_ledger.value_differences(doc, {**doc, "rows": [1.0, "a", None, True]}) != []
    assert byte_ledger.value_differences(doc, {**doc, "rows": [1, "a", None]}) != []
    assert byte_ledger.value_differences(doc, {**doc, "extra": 1}) != []
