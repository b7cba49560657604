"""calmcert benchmark: one closed-loop client driving the CLI on seeded inputs.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists), both driving
`calmcert.cli.run` in this process:
  certify   `certify-pd`, `certify`, `probe`, `solve` and `lab` on Lasso,
            nuclear, box, curated and scaled-TV instances
  sweep     `sweep` on TV denoising instances

The op list of a workload is one cycle.  A run times a fixed number of
cycles, set from --seconds and the nominal cycle time of the workload
(CYCLE_S), so the ops a run attempts, and the ops that fail, depend on the
seed and never on how fast the machine happened to be.
ops_per_s is timed ops over timed seconds.  Every output is checked after
its op, outside the timed region.  --trace 0 prints the end-to-end
metrics; --trace 1 alternates untraced and traced cycles and prints the
per-layer metrics plus the tracing overhead.  The last stdout line is the
JSON result.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
TAIL_PERCENTILE = 90
MIN_SAMPLES = 100             # so that >= 10 samples lie beyond the tail
# seconds of one untraced cycle on the 2-core VM the benchmark was tuned on
CYCLE_S = {"certify": 10.0, "sweep": 2.7}
WALL_LIMIT_S = 140.0          # stop early rather than miss the 180 s exit
IMPORT_SNIPPET = ("import sys, time; sys.path.insert(0, 'src'); "
                  "t = time.perf_counter(); import calmcert; "
                  "print(time.perf_counter() - t)")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def timed_child_import():
    """Seconds a fresh interpreter spends in `import calmcert`."""
    out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT,
                         env=child_env(), capture_output=True, text=True,
                         check=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def importtime_profile():
    """Cumulative `-X importtime` seconds of calmcert and scipy.optimize."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c",
                          "import calmcert"], cwd=ROOT, env=child_env(),
                         capture_output=True, text=True, check=True,
                         timeout=60)
    found = {}
    for line in out.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            found.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
    return found.get("calmcert", 0.0), found.get("scipy.optimize", 0.0)


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "calmcert").glob("*.py")):
        digest.update(path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration", ""),
            "blas_threads_env": {v: os.environ[v] for v in
                                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")},
            "nproc": os.cpu_count(), "git_commit": commit,
            "src_sha256": digest.hexdigest()}


def cycle_count(workload, ops_per_cycle, seconds, trace):
    """Cycles a run times: about --seconds of ops on the tuning machine.

    A traced run times each cycle twice (untraced, then traced), so it
    holds half as many; an untraced one holds at least MIN_SAMPLES ops.
    """
    if trace:
        return max(1, round(seconds / (2 * CYCLE_S[workload])))
    return max(round(seconds / CYCLE_S[workload]),
               -(-MIN_SAMPLES // ops_per_cycle))


def percentile(values, pct):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, -(-pct * len(s) // 100) - 1)]


class Bench:
    def __init__(self, workload, seed, workdir):
        from perfbench import instances
        from perfbench.check import Checker, load_reference
        from perfbench.tracer import Tracer
        import calmcert.cli
        from calmcert.model import load_instance

        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.cli = calmcert.cli
        self.instances = instances
        self.load_instance = load_instance
        self.checker = Checker(workload, load_reference())
        self.tracer = Tracer()
        self.ops = []
        self.loaded = {}
        self._checked = {}
        self.failures = []    # (op name, stratum, verb, kinds, known, error)

    # -- set-up -------------------------------------------------------------

    def setup(self):
        """Generate, write and load the instances; returns seconds taken."""
        t0 = time.perf_counter()
        self.ops = self.instances.build(self.workload, self.seed)
        self.loaded = {}
        for op in self.ops:
            if op["name"] in self.loaded:
                continue
            path = self.workdir / f"{op['name']}.json"
            path.write_text(json.dumps(op["doc"]))
            self.loaded[op["name"]] = self.load_instance(path.read_text())
        return time.perf_counter() - t0

    # -- one op -------------------------------------------------------------

    def argv(self, index, op, cycle=0):
        out = self.workdir / f"out{index}.json"
        seed = self.seed * 1000 + cycle if op["reseed"] else self.seed
        return ([op["verb"], str(self.workdir / f"{op['name']}.json"),
                 "--out", str(out), "--seed", str(seed)] + op["args"], out)

    def run_op(self, index, op, traced, cycle=0):
        """Run one op; returns (seconds, exit code, output path, error).

        An exception that escapes `cli.run` counts as exit code 1, with its
        repr as `error`; it does not stop the benchmark.
        """
        argv, out = self.argv(index, op, cycle)
        if out.exists():
            out.unlink()
        sink = io.StringIO()
        error = None
        if traced:
            self.tracer.install()
            span = self.tracer.begin_op(index, f"op.{op['verb']}")
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                code = self.cli.run(argv)
        except Exception as exc:  # noqa: BLE001 - an op may fail any way
            code, error = 1, repr(exc)
        finally:
            dt = time.perf_counter() - t0
            if traced:
                self.tracer.end_op(span)
                self.tracer.uninstall()
        if traced and out.exists():
            self.tracer.count("reporting.bytes", out.stat().st_size)
        return dt, code, out, error

    def check(self, index, op, code, out, error=None):
        """Untimed check; identical output bytes reuse the first verdict."""
        if error is not None:
            kinds = ["raised"]
        else:
            data = out.read_bytes() if out.exists() else b""
            key = (index, code, hashlib.sha256(data).hexdigest())
            if key not in self._checked:
                self._checked[key] = self.checker.check(
                    op, self.loaded.get(op["name"]), code, out)[0]
            kinds = self._checked[key]
        if kinds:
            known = set(kinds) <= self.checker.known(op)
            self.failures.append((op["name"], op["stratum"], op["verb"],
                                  kinds, known, error))
        return not kinds

    # -- the timed loop -----------------------------------------------------

    def cycle(self, traced, latencies, per_stratum, cycle=0):
        """Run every op once; a traced cycle repeats the untraced one's
        arguments, so the two differ only by the tracing."""
        for index, op in enumerate(self.ops):
            dt, code, out, error = self.run_op(index, op, traced, cycle)
            latencies.append(dt)
            per_stratum.setdefault(op["stratum"], []).append(dt)
            self.check(index, op, code, out, error)


def run(args):
    if not (SRC / "calmcert" / "__init__.py").is_file():
        sys.exit(f"error: no calmcert sources under {SRC}")
    t_import = time.perf_counter()
    sys.path[:0] = [str(SRC), str(ROOT)]
    import calmcert
    import_s = time.perf_counter() - t_import
    if Path(calmcert.__file__).resolve().parent != SRC / "calmcert":
        sys.exit(f"error: imported calmcert from {calmcert.__file__}")

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return measure(args, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir, import_s):
    bench = Bench(args.workload, args.seed, workdir)
    setups = [timed_child_import() + bench.setup()
              for _ in range(SETUP_REPEATS)]
    env = environment()

    started = time.perf_counter()
    sides = {False: ([], {}), True: ([], {})}
    planned = cycle_count(args.workload, len(bench.ops), args.seconds,
                          args.trace)
    cycles, cycle_s = 0, []
    while cycles < planned:
        for traced in ((False, True) if args.trace else (False,)):
            before = len(sides[traced][0])
            bench.cycle(traced, *sides[traced], cycle=cycles)
            if not traced:
                cycle_s.append(sum(sides[traced][0][before:]))
        cycles += 1
        if time.perf_counter() - started > WALL_LIMIT_S:
            break

    lat, strata = sides[False]
    attempted = len(lat) + len(sides[True][0])
    failed = len(bench.failures)
    correct = all(known for *_, known, _ in bench.failures)
    tail_name = f"p{TAIL_PERCENTILE}"
    end_to_end = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (percentile(lat, TAIL_PERCENTILE), "s"),
        "setup_s": (statistics.median(setups), "s"),
    }
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "cycles": cycles,
        "cycles_planned": planned,
        "cycle_s": cycle_s,
        "ops_per_cycle": len(bench.ops), "samples": len(lat),
        "latency_tail_percentile": tail_name,
        "fail_ratio": failed / attempted,
        "setup_samples_s": setups, "bench_import_s": import_s,
        "stratum_p50_s": {k: statistics.median(v) for k, v in strata.items()},
        "failures": [{"op": n, "stratum": s, "verb": v, "kinds": k,
                      "known": kn, "error": e}
                     for n, s, v, k, kn, e in bench.failures],
    }
    print(f"# calmcert benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    print(f"# python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}"
          f"  blas {env['blas']} ({env['blas_config']})  nproc {env['nproc']}"
          f"  threads {env['blas_threads_env']}  commit {env['git_commit']}")
    print(f"# {cycles} of {planned} cycles x {len(bench.ops)} ops, {len(lat)} "
          f"timed samples; tail = {tail_name} of {len(lat)} samples")
    for name, (value, unit) in end_to_end.items():
        print(f"{name:<16} {value:12.6g} {unit}")
    unknown = sum(not known for *_, known, _ in bench.failures)
    print(f"{'fail_ratio':<16} {failed / attempted:12.6g} ratio ({failed} of "
          f"{attempted} ops failed, {unknown} not known at the seed commit)")

    if args.trace:
        metrics = layer_metrics(bench, sides)
        for name, (value, unit) in metrics.items():
            print(f"{name:<36} {value:14.6g} {unit}")
        with gzip.open(WORK / f"spans-{args.workload}.jsonl.gz", "wt") as fh:
            bench.tracer.dump(fh)
    else:
        metrics = end_to_end
    details["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(details, indent=1) + "\n")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": details["metrics"]}


def _unit(name):
    if name.endswith("_us") or name.endswith("us_per_iter"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_saving"):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("flops_computed"):
        return "flop"
    return "count"


def layer_metrics(bench, sides):
    from perfbench.tracer import summarize
    t = bench.tracer
    values = summarize(t.spans, t.counts, t.samples)
    plain, traced = sum(sides[False][0]), sum(sides[True][0])
    values["trace.overhead_ratio"] = traced / plain - 1.0
    values["trace.overhead_per_op_s"] = (traced - plain) / len(sides[True][0])
    cal, opt = zip(*(importtime_profile() for _ in range(IMPORTTIME_REPEATS)))
    values["import.calmcert_s"] = statistics.median(cal)
    values["import.scipy_optimize_s"] = statistics.median(opt)
    return {k: (v, _unit(k)) for k, v in values.items()}


def main(argv=None):
    from perfbench.instances import WORKLOADS
    # exit through SystemExit so the work directory is removed and a running
    # subprocess.run() kills and waits for its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    result = run(p.parse_args(argv))
    print(json.dumps(result))


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    main()
