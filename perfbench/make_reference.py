"""Regenerate perfbench/reference.json from the current calmcert sources.

    python3 perfbench/make_reference.py --seeds 96

Runs one cycle of every workload for seeds 0..N-1 (untimed)
and records:
  * the set of verdicts per stratum of the instances without a
    hand-derived answer; the checker requires them of later commits;
  * the failure kinds seen per family of strata, which later runs count
    as failed ops but do not treat as a broken benchmark.
Run it only at a commit whose verdicts are meant as the reference (the
file in the repository was made at the seed commit of the benchmark).
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run  # noqa: E402  (pins BLAS threads before numpy)
from perfbench.check import REFERENCE  # noqa: E402


def collect(seeds):
    sys.path.insert(0, str(run.SRC))
    from perfbench.check import EMPTY_REFERENCE, family_key
    from perfbench.instances import WORKLOADS
    verdicts, known = {}, {}
    run.WORK.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        for seed in range(seeds):
            with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
                bench = run.Bench(workload, seed, Path(tmp))
                bench.checker.reference = EMPTY_REFERENCE
                bench.setup()
                for index, op in enumerate(bench.ops):
                    _, code, out, error = bench.run_op(index, op, traced=False)
                    kinds, got = (["raised"], {}) if error else \
                        bench.checker.check(op, bench.loaded.get(op["name"]),
                                            code, out)
                    if kinds:
                        known.setdefault(family_key(workload, op), set()).update(kinds)
                    if op["expect"] or not got:
                        continue
                    if op["verb"].startswith("certify"):
                        got["unknown"] = code == 2
                    entry = verdicts.setdefault(f"{workload}/{op['stratum']}", {})
                    for side, value in got.items():
                        entry.setdefault(side, set()).add(value)
            print(f"{workload} seed {seed}: {len(known)} failing families",
                  file=sys.stderr)
    return {
        "verdicts": {k: {s: sorted(v) for s, v in e.items()}
                     for k, e in sorted(verdicts.items())},
        "known_failures": {k: sorted(v) for k, v in sorted(known.items())},
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=96)
    args = p.parse_args()
    reference = {"made_at": run.environment()["git_commit"],
                 "seeds": list(range(args.seeds)), **collect(args.seeds)}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(json.dumps(reference["known_failures"], indent=1))


if __name__ == "__main__":
    main()
