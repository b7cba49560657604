"""The verdict ledger (tests/ledger.json) holds on its fast documents.

The gallery and K-corpus seeds 0-199 are re-run here; the whole ledger,
with the rest of the corpus and the benchmark cycles, is checked by
`PYTHONPATH=.:src python tests/make_ledger.py --check`.
"""

import make_ledger

FAST = make_ledger.gallery_documents() + make_ledger.corpus_documents(range(200))


def test_fast_rows_match_the_ledger():
    ledger = {r["doc"]: r for r in make_ledger.load()}
    got = make_ledger.rows(FAST)
    assert [r["doc"] for r in got] == [name for name, _ in FAST]
    assert make_ledger.diff([ledger[r["doc"]] for r in got], got) == []


def test_ledger_rows_are_unique_and_hold_no_float():
    ledger = make_ledger.load()
    assert len({r["doc"] for r in ledger}) == len(ledger)
    assert len({r["hash"] for r in ledger}) == len(ledger)
    assert not any(isinstance(v, float) for r in ledger for v in r.values())
    assert make_ledger.dumps(ledger) == make_ledger.LEDGER.read_text()


def test_check_fails_on_an_edited_row(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(make_ledger, "documents", make_ledger.gallery_documents)
    rows = make_ledger.rows(make_ledger.gallery_documents())
    path = tmp_path / "ledger.json"
    path.write_text(make_ledger.dumps(rows))
    assert make_ledger.main(["--check", "--ledger", str(path)]) == 0
    rows[1] = dict(rows[1], solution_map="isolated_calm")
    path.write_text(make_ledger.dumps(rows))
    assert make_ledger.main(["--check", "--ledger", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("changed: ") == 1 and rows[1]["doc"] in err
