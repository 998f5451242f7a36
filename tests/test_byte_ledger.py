"""The perfbench corpus keeps the bytes recorded in tests/byte_ledger.txt."""

import pytest

import byte_ledger


def test_corpus_matches_the_ledger(tmp_path):
    recorded = byte_ledger.recorded_entries()
    if recorded is None:
        pytest.skip("cannot compare the byte ledger: it was recorded on another "
                    "numpy build or CPU feature set; this one is\n" + byte_ledger.header())
    current = byte_ledger.entries(tmp_path)
    assert len(current) == 600
    assert byte_ledger.differences(recorded, current) == []
