"""The whole-corpus tests, marked `corpus`: tier-1 leaves them out
(pyproject.toml), and `python -m pytest -m corpus` runs them.  The ledger's
rows and the probes share their solves (corpus.one_solve)."""

import json
import subprocess
import sys

import orjson
import pytest

import corpus
import make_ledger
from calmcert.cli import run
from calmcert.model import instance_hash, load_instance

pytestmark = pytest.mark.corpus


@pytest.fixture(scope="module")
def sources():
    return corpus.documents()


def test_every_ledger_row_holds(sources):
    assert make_ledger.diff(make_ledger.load(), make_ledger.rows(sources)) == []


def test_every_refutation_carries_a_same_data_alternate(sources, tmp_path):
    # on every face and whatever K: the far end of the solution set
    status = {r["hash"]: r["solution_map"] for r in make_ledger.load()}
    path, out = tmp_path / "doc.json", tmp_path / "probe.json"
    probed, failed = 0, []
    for name, doc in sources:
        text = orjson.dumps(doc)
        if status[instance_hash(load_instance(text))] != "not_isolated_calm":
            continue
        path.write_bytes(text)
        with corpus.one_solve():
            code = run(["probe", str(path), "--out", str(out)])
        payload = json.loads(out.read_text())["payload"] if code == 0 else {}
        probed += 1
        if not (payload.get("refuted") is True and "alternate" in payload
                and all(e["b_dist"] == 0.0 for e in payload["entries"])):
            failed.append(name)
    assert probed and failed == []


def test_every_srcq_refutation_has_verified_alternate_multipliers(sources):
    # eta, the srcq witness, moves y_bar along Ker K* and stays a multiplier:
    # 838 rows, all at t = 1e-4 (836 at 1e-3, 813 at 1e-2); about 10 s
    # alone, under 1 s after the ledger test, whose solves it shares
    fails = {r["doc"] for r in make_ledger.load() if r["srcq"] == "fails"}
    checked = {name for name, _ in sources if name in fails}
    wrong = [name for name, doc in sources if name in fails
             and not corpus.alternate_multipliers_verify(doc, 1e-4)]
    assert checked == fails and wrong == []


@pytest.mark.parametrize("workload", ["certify", "sweep"])
def test_one_benchmark_run_is_correct(workload):
    # it checks every output; CI keeps .perfbench/result-*-seed0-trace0.json
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "10", "--trace", "0"],
        cwd=corpus.ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
