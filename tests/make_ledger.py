"""The verdict ledger, tests/ledger.json: one row per document.

    PYTHONPATH=src python tests/make_ledger.py           # rewrite the file
    PYTHONPATH=src python tests/make_ledger.py --check   # exit 1 on a change

The script puts the repository root on sys.path for perfbench itself, so
`PYTHONPATH=.:src` works as well.

The documents are the gallery's curated cases, the K corpus
(tests/k_corpus.py, seeds 0-1599) and the certify and certify-pd documents
of one benchmark certify cycle per seed 11-20 (perfbench.instances.build).
A document whose instance hash an earlier row holds is left out: it would
give the same row.

Each document runs through calmcert.cli.run twice, as `certify` and as
`certify-pd`.  Its row holds the instance hash, both exit codes, the
solution-map status and the outcomes of cond_suf and cond_nes from
`certify`, and the primal-dual status and the outcome of srcq from
`certify-pd`; a verb that exits 1 writes no report, and its fields are
null.  Both verbs solve the same document with the same configuration,
and the solve is deterministic, so `certify-pd` reuses the pair that
`certify` solved: that halves the ledger's time.  A row holds no float
and no witness, so roundoff that moves no verdict leaves the file as it
is.  A change that moves a verdict on purpose
rewrites the file in the same commit.
"""

import argparse
import contextlib
import copy
import io
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

from calmcert import cli
from calmcert.gallery import curated_cases
from calmcert.model import instance_hash, load_instance

from k_corpus import corpus_doc

LEDGER = Path(__file__).with_name("ledger.json")
ROOT = Path(__file__).resolve().parents[1]          # holds perfbench
CORPUS_SEEDS = range(1600)
BENCH_SEEDS = range(11, 21)


def gallery_documents():
    return [(f"gallery/{case['name']}", case["instance"])
            for case in curated_cases()]


def corpus_documents(seeds=CORPUS_SEEDS):
    return [(f"k_corpus/{seed}", corpus_doc(seed)) for seed in seeds]


def bench_documents(seeds=BENCH_SEEDS):
    if str(ROOT) not in sys.path:
        sys.path.append(str(ROOT))
    from perfbench.instances import build
    return [(f"perfbench/{seed}/{op['name']}", op["doc"])
            for seed in seeds for op in build("certify", seed)
            if op["verb"] in ("certify", "certify-pd")]


def documents():
    return gallery_documents() + corpus_documents() + bench_documents()


def _verb(tmp, verb, path):
    """(exit code, report payload or None) of one verb through cli.run."""
    out = tmp / f"{verb}.json"
    out.unlink(missing_ok=True)
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.run([verb, str(path), "--out", str(out)])
    payload = json.loads(out.read_bytes())["payload"] if out.exists() else None
    return code, payload


def _status(payload, conclusion):
    if payload is None or payload[conclusion] is None:
        return None
    return payload[conclusion]["status"]


def _outcome(payload, condition):
    return None if payload is None else payload[condition]["outcome"]


@contextlib.contextmanager
def _one_solve():
    """cli's solve, made once per (instance hash, configuration): each call
    gets its own copy of the pair.  A solve that raises is not kept."""
    solve, pairs = cli.solve, {}

    def once(instance, cfg=None):
        key = (instance_hash(instance), repr(cfg))
        if key not in pairs:
            pairs[key] = solve(instance, cfg)
        return copy.deepcopy(pairs[key])
    with mock.patch.object(cli, "solve", once):
        yield


def row(name, doc, digest, tmp):
    path = tmp / "instance.json"
    path.write_text(json.dumps(doc))
    with _one_solve():
        code, sm = _verb(tmp, "certify", path)
        code_pd, pd = _verb(tmp, "certify-pd", path)
    return {"doc": name, "hash": digest,
            "certify": code, "certify_pd": code_pd,
            "solution_map": _status(sm, "conclusion_solution_map"),
            "primal_dual": _status(pd, "conclusion_primal_dual"),
            "cond_suf": _outcome(sm, "cond_suf"),
            "cond_nes": _outcome(sm, "cond_nes"),
            "srcq": _outcome(pd, "srcq")}


def rows(docs):
    """The ledger rows of (name, document) pairs, skipping repeated hashes."""
    out, seen = [], set()
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in docs:
            digest = instance_hash(load_instance(json.dumps(doc)))
            if digest not in seen:
                seen.add(digest)
                out.append(row(name, doc, digest, Path(tmp)))
    return out


def dumps(ledger_rows):
    """One row a line, keys sorted, so that a changed verdict is a one-line
    diff."""
    return "[\n" + ",\n".join(json.dumps(r, sort_keys=True)
                              for r in ledger_rows) + "\n]\n"


def load(path=LEDGER):
    return json.loads(path.read_text())


def diff(expected, got):
    """Lines naming each row that was added, removed or changed."""
    old = {r["doc"]: r for r in expected}
    new = {r["doc"]: r for r in got}

    def text(r):
        return json.dumps(r, sort_keys=True)
    lines = [f"removed: {text(old[n])}" for n in old if n not in new]
    lines += [f"added: {text(new[n])}" for n in new if n not in old]
    lines += [f"changed: {text(old[n])} -> {text(new[n])}"
              for n in old if n in new and old[n] != new[n]]
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--check", action="store_true",
                   help="compare with the checked-in ledger instead of "
                        "rewriting it; exit 1 on any difference")
    p.add_argument("--ledger", type=Path, default=LEDGER)
    args = p.parse_args(argv)
    got = rows(documents())
    if not args.check:
        args.ledger.write_text(dumps(got))
        print(f"wrote {len(got)} rows to {args.ledger}")
        return 0
    lines = diff(load(args.ledger), got)
    print(*lines, sep="\n", file=sys.stderr)
    print(f"{len(got)} rows, {len(lines)} differences", file=sys.stderr)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
