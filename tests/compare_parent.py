"""Compare this tree's exit codes and report bytes with a parent tree's.

    PYTHONPATH=src python tests/compare_parent.py PARENT_TREE [--out DIR]

PARENT_TREE is a checkout of the commit to compare with (`git archive` or
`git clone` it into a directory of its own).  Both trees run the same ops,
each in a process of its own that imports calmcert from that tree's src/:
* the ledger's sources (tests/corpus.py) through `certify` and `certify-pd`,
  and through `probe` where tests/ledger.json reads the solution map
  `not_isolated_calm`: those are the ops that read the solution set
  (certificates.solution_set_extent) along a witness;
* one benchmark certify cycle and one sweep cycle per seed 11-20
  (perfbench.instances.build), with the arguments perfbench/run.py gives
  the first cycle;
* the first `certify` op and the first `sweep` op again with
  `--format csv`, and `demo` in JSON and with `--format csv`.
The documents and the op list come from this tree and are written once, so
both trees read the same bytes.  The two processes run side by side, each
with one BLAS thread, and each counts the calls every op makes to
scipy.optimize.linprog and scipy.optimize.nnls (both wrapped before the
first op).  The script prints, per verb, how many ops end with a different
exit code and how many write different report bytes (a sweep's CSV side
file included), and each tree's LP and NNLS totals; it names the first few
differing ops.  The documents, the op list (ops.json) and both trees'
reports and counts stay under --out.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import orjson

HERE = Path(__file__).resolve().parent
CYCLE_SEEDS = range(11, 21)
SHOWN = 5
SOLVERS = ("linprog", "nnls")          # the scipy.optimize calls counted


def write_ops(docs):
    """[(name, argv without --out)] of every op, each document written
    under docs."""
    import corpus
    refuted = {r["doc"] for r in json.loads((HERE / "ledger.json").read_text())
               if r["solution_map"] == "not_isolated_calm"}
    ops = []

    def path(doc):
        p = docs / f"{len(ops)}.json"
        p.write_bytes(orjson.dumps(doc))
        return str(p)
    for name, doc in corpus.documents():
        p = path(doc)
        verbs = ("certify", "certify-pd") + (("probe",) if name in refuted else ())
        ops += [(name, [verb, p]) for verb in verbs]
    for workload in ("certify", "sweep"):
        for seed in CYCLE_SEEDS:
            for op in corpus.bench_ops(workload, seed):
                run_seed = seed * 1000 if op["reseed"] else seed
                ops.append((f"perfbench/{workload}/{seed}/{op['name']}",
                            [op["verb"], path(op["doc"]),
                             "--seed", str(run_seed)] + op["args"]))
    csv = [next(op for op in ops if op[1][0] == verb)
           for verb in ("certify", "sweep")]
    ops += [(f"{name}/csv", argv + ["--format", "csv"]) for name, argv in csv]
    return ops + [("demo", ["demo"]), ("demo/csv", ["demo", "--format", "csv"])]


def _count_calls(calls):
    """Wrap each of SOLVERS in scipy.optimize so that a call adds 1 to
    calls[name]; the package reads them as scipy.optimize attributes."""
    import scipy.optimize

    def counted(name, solver):
        def call(*args, **kwargs):
            calls[name] += 1
            return solver(*args, **kwargs)
        return call
    for name in SOLVERS:
        setattr(scipy.optimize, name, counted(name, getattr(scipy.optimize, name)))


def worker(tree, manifest, out):
    """Run every op of manifest through tree's calmcert; each report goes
    to out/<index>.json, the exit codes to out/codes.json, and each op's
    [linprog, nnls] call counts to out/calls.json."""
    import calmcert
    from calmcert.cli import run
    if not Path(calmcert.__file__).resolve().is_relative_to(Path(tree).resolve()):
        sys.exit(f"calmcert was imported from {calmcert.__file__}, not {tree}")
    calls = Counter()
    _count_calls(calls)
    codes, counts = [], []
    for index, (_, argv) in enumerate(json.loads(Path(manifest).read_text())):
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            codes.append(run(argv + ["--out", str(Path(out) / f"{index}.json")]))
        counts.append([calls[name] for name in SOLVERS])
    (Path(out) / "codes.json").write_text(json.dumps(codes))
    (Path(out) / "calls.json").write_text(json.dumps(counts))


def _reports(out, index):
    """{suffix: bytes} of the files one op wrote."""
    return {p.suffix: p.read_bytes() for p in sorted(out.glob(f"{index}.*"))}


def compare(ops, parent, child):
    """Per verb: (ops, differing exit codes, differing reports, names, and
    the [[linprog, nnls] parent, [linprog, nnls] child] call totals)."""
    codes, counts = ([json.loads((side / f).read_text())
                      for side in (parent, child)]
                     for f in ("codes.json", "calls.json"))
    total, code_diff, byte_diff, names = Counter(), Counter(), Counter(), {}
    calls = {}
    for index, (name, argv) in enumerate(ops):
        verb = argv[0]
        total[verb] += 1
        sums = calls.setdefault(verb, np.zeros((2, len(SOLVERS)), dtype=int))
        sums += [side[index] for side in counts]
        if codes[0][index] != codes[1][index]:
            code_diff[verb] += 1
            names.setdefault(verb, []).append(
                f"{name}: exit {codes[0][index]} -> {codes[1][index]}")
        elif _reports(parent, index) != _reports(child, index):
            byte_diff[verb] += 1
            names.setdefault(verb, []).append(f"{name}: report {index}")
    return {verb: (total[verb], code_diff[verb], byte_diff[verb],
                   names.get(verb, []), calls[verb].tolist())
            for verb in sorted(total)}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="the parent commit's tree")
    p.add_argument("--out", type=Path,
                   help="directory for the documents and reports "
                        "(default: a new temporary directory)")
    p.add_argument("--worker", nargs=2, metavar=("MANIFEST", "OUT"),
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        worker(args.parent, *args.worker)
        return 0
    out = args.out or Path(tempfile.mkdtemp(prefix="compare-parent-"))
    (out / "docs").mkdir(parents=True, exist_ok=True)
    ops = write_ops(out / "docs")
    (out / "ops.json").write_text(json.dumps(ops))
    trees = {"parent": args.parent.resolve(), "child": HERE.parent}
    procs = []
    for side, tree in trees.items():
        (out / side).mkdir(exist_ok=True)
        env = {**os.environ, "PYTHONPATH": str(tree / "src"),
               **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                "MKL_NUM_THREADS"), "1")}
        procs.append(subprocess.Popen(
            [sys.executable, __file__, str(tree), "--worker",
             str(out / "ops.json"), str(out / side)], cwd=tree, env=env))
    if any([proc.wait() for proc in procs]):
        return 1
    print(f"{len(ops)} ops; reports under {out}")
    print(f"{'verb':<12} {'ops':>6} {'exit codes differ':>18} "
          f"{'reports differ':>15} {'LPs parent/child':>17} "
          f"{'NNLS parent/child':>18}")
    rows = compare(ops, out / "parent", out / "child")
    for verb, (total, codes, reports, names, calls) in rows.items():
        (lp0, nnls0), (lp1, nnls1) = calls
        print(f"{verb:<12} {total:>6} {codes:>18} {reports:>15} "
              f"{f'{lp0}/{lp1}':>17} {f'{nnls0}/{nnls1}':>18}")
        for name in names[:SHOWN]:
            print(f"    {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
