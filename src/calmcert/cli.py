"""Command-line front end.

Verbs: solve, certify, certify-pd, sweep, probe, lab, demo.
Exit codes: 0 decisive, 2 completed with Unknown verdicts, 1 error.
"""

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import certificates as ct
from . import empirics as em
from .gallery import curated_cases
from .model import InstanceError, at_field, load_instance, load_vector
from .reporting import csv_text, dumps, save_report
from .solver import SolverError, pair_config, solve

T_GRID = "1e-1,1e-2,1e-3"       # the default --t-grid, and the demo's


@functools.cache
def _parser():
    """The argument parser, built once per process (it holds no state)."""
    p = argparse.ArgumentParser(
        prog="calmcert",
        description="Certify isolated calmness of regularized least-squares "
                    "solution mappings and cross-validate with numerical probes.")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, needs_instance=True):
        if needs_instance:
            sp.add_argument("instance", help="instance JSON path")
        sp.add_argument("--out", type=Path, default=None, help="output path")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--tol-rank", type=float, default=None)
        sp.add_argument("--tol-member", type=float, default=None)
        sp.add_argument("--tol-kkt", type=float, default=None)
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--y-override", type=Path, default=None,
                        help="JSON array with a multiplier to use instead of "
                             "the solver's")

    common(sub.add_parser("solve", help="compute a primal-dual pair"))
    common(sub.add_parser("certify", help="solution-map certificate"))
    common(sub.add_parser("certify-pd", help="primal-dual certificate"))
    sp = sub.add_parser("sweep", help="perturbation sweep (kappa estimate)")
    common(sp)
    sp.add_argument("--radii", default="1e-2,1e-3,1e-4",
                    help="comma-separated perturbation radii")
    sp.add_argument("--samples", type=int, default=16, help="samples per radius")
    sp = sub.add_parser("probe", help="witness-direction instability probe")
    common(sp)
    sp.add_argument("--t-grid", default=T_GRID,
                    help="comma-separated step sizes along the witness")
    sp = sub.add_parser("lab", help="kernel-formula and zero-product checks")
    common(sp)
    sp.add_argument("--samples", type=int, default=200)
    sp = sub.add_parser("demo", help="run the curated example table")
    common(sp, needs_instance=False)
    return p


def _load(args):
    instance = load_instance(Path(args.instance).read_bytes())
    given = {name: value for name in ("rank", "member", "kkt")
             if (value := getattr(args, f"tol_{name}")) is not None}
    instance.tol = at_field("--tol-", dataclasses.replace, instance.tol, **given)
    return instance


def _solve_pair(instance, args):
    """The solver's pair at pair_config's target, the same for every verb,
    its multiplier replaced by --y-override's when given: that pair is
    accepted under the level-1 bound, and carries its own residuals."""
    pair = solve(instance, pair_config(instance))
    if args.y_override is not None:
        y = load_vector(Path(args.y_override).read_bytes(), "y_override")
        if y.shape != pair.y_bar.shape:
            raise InstanceError("y_override", "multiplier has the wrong dimension")
        pair.y_bar = y
        try:
            pair.residuals = ct.prepare_multiplier(instance, pair)[2]
        except ct.CertificateError as exc:
            raise ct.CertificateError(f"y_override: {exc}") from None
    return pair


def _emit(data, out):
    """Write a report, JSON bytes or CSV text, to out or to stdout."""
    if out is not None:
        Path(out).write_bytes(data if isinstance(data, bytes) else data.encode())
    else:
        sys.stdout.write(data if isinstance(data, str) else data.decode())


def _floats(spec_text, flag):
    """The comma-separated entries of a flag's value, each a finite float;
    a value with no entry is an error."""
    values = []
    for entry in filter(None, (v.strip() for v in spec_text.split(","))):
        try:
            value = float(entry)
        except ValueError:
            value = np.nan
        if not np.isfinite(value):
            raise ValueError(f"{flag}: entry {entry!r} is not a finite number")
        values.append(value)
    if not values:
        raise ValueError(f"{flag}: no entry")
    return values


def _at_least(value, least, flag):
    """A flag's integer value, an error naming the flag below least."""
    if value < least:
        raise ValueError(f"{flag}: {value} is below {least}")
    return value


def _run_demo(args):
    rows = []
    all_pass = True
    for case in curated_cases():
        instance = load_instance(case["instance"])
        expected = case["expected"]
        try:
            pair = solve(instance, pair_config(instance))
            wants_pd = "primal_dual" in expected
            report = (ct.certify_primal_dual(instance, pair, seed=args.seed)
                      if wants_pd else
                      ct.certify_solution_map(instance, pair, seed=args.seed))
            got = {"solution_map": report.conclusion_solution_map.status,
                   "unknown": report.has_unknown}
            if wants_pd:
                got["primal_dual"] = report.conclusion_primal_dual.status
            if expected.get("probe_refuted"):
                witness = report.conclusion_solution_map.witness
                probe = em.instability_probe(instance, pair, witness,
                                             _floats(T_GRID, "--t-grid"))
                got["probe_refuted"] = probe["refuted"]
            if "x_bar" in expected:
                got["x_bar_ok"] = bool(np.allclose(pair.x_bar, expected["x_bar"],
                                                   atol=1e-6))
            if "y_bar" in expected:
                got["y_bar_ok"] = bool(np.allclose(pair.y_bar, expected["y_bar"],
                                                   atol=1e-6))
            ok = got["solution_map"] == expected["solution_map"] \
                and got["unknown"] == expected["unknown"] \
                and all(got.get(k, True) for k in ("x_bar_ok", "y_bar_ok")) \
                and (not wants_pd
                     or got["primal_dual"] == expected["primal_dual"]) \
                and (not expected.get("probe_refuted")
                     or got.get("probe_refuted"))
        except Exception as exc:   # demo table reports failures, never crashes
            got = {"error": f"{type(exc).__name__}: {exc}"}
            ok = False
        all_pass &= ok
        rows.append((case["name"], expected, got, ok))
    name_w = max(len(r[0]) for r in rows)
    print(f"{'case':<{name_w}}  {'expected':<20} {'obtained':<20} result")
    for name, expected, got, ok in rows:
        exp = expected.get("solution_map", "?")
        obt = got.get("solution_map", got.get("error", "?"))[:40]
        print(f"{name:<{name_w}}  {exp:<20} {obt:<20} "
              f"{'PASS' if ok else 'FAIL'}")
    if args.out is not None and args.format == "csv":
        _emit(csv_text([["case", "expected", "obtained", "pass"],
                        *([n, e.get("solution_map", ""),
                           g.get("solution_map", g.get("error", "")), ok]
                          for n, e, g, ok in rows)]), args.out)
    elif args.out is not None:
        doc = {"kind": "demo",
               "cases": [{"name": n, "expected": e, "obtained": g, "pass": ok}
                         for n, e, g, ok in rows]}
        _emit(dumps(doc), args.out)
    return 0 if all_pass else 1


def _certify(instance, pair, args):
    """certify or certify-pd: the report, and its conclusions as the note."""
    certify = ct.certify_solution_map if args.verb == "certify" \
        else ct.certify_primal_dual
    report = certify(instance, pair, seed=args.seed)
    conc, pd = report.conclusion_solution_map, report.conclusion_primal_dual
    note = f"conclusion: {conc.status}" + (
        f" (witness {np.round(conc.witness, 6).tolist()})"
        if conc.witness is not None else "")
    if pd is not None:
        note += f"\nprimal-dual: {pd.status}"
    return report, None, 2 if report.has_unknown else 0, note


def _sweep(instance, pair, args):
    """The sweep's estimate; with a JSON --out, its samples also go as CSV
    to the same path with the suffix .csv."""
    radii = _floats(args.radii, "--radii")
    samples = _at_least(args.samples, 1, "--samples")
    estimate = em.perturbation_sweep(instance, pair, radii,
                                     n_per_radius=samples, seed=args.seed)
    if args.out is not None and args.format == "json":
        Path(args.out).with_suffix(".csv").write_text(save_report(estimate, "csv"))
    return estimate, None, 0, None


def _probe(instance, pair, args):
    t_grid = _floats(args.t_grid, "--t-grid")
    if min(t_grid) <= 0:
        raise ValueError(f"--t-grid: step {min(t_grid)!r} is not positive")
    conc = ct.certify_solution_map(instance, pair, seed=args.seed) \
        .conclusion_solution_map
    if conc.witness is None:
        payload = {"available": False,
                   "reason": f"no witness: conclusion is {conc.status}"}
        code = 0 if conc.is_decisive else 2
    else:
        payload = em.instability_probe(instance, pair, conc.witness, t_grid)
        code = 0
    payload["certificate"] = conc.to_json_dict()
    return payload, "instability_probe", code, None


def _lab(instance, pair, args):
    samples = _at_least(args.samples, 0, "--samples")
    kx, y = instance.k.apply(pair.x_bar), pair.y_bar
    kernel = em.kernel_formula_check(instance.reg, kx, y, n_dirs=min(samples, 50),
                                     seed=args.seed, tol=instance.tol)
    zero = em.zero_product_check(instance.reg, kx, y, n_samples=samples,
                                 seed=args.seed, tol=instance.tol)
    return ({"kernel_formula": kernel, "zero_product": zero}, "lab",
            0 if zero.get("available", False) else 2, None)


# each instance verb: (instance, pair, args) -> (report, its kind for
# save_report (None: the report's own), exit code, stderr note or None)
_VERBS = {"solve": lambda instance, pair, args: (pair, "solution", 0, None),
          "certify": _certify, "certify-pd": _certify, "sweep": _sweep,
          "probe": _probe, "lab": _lab}
_PREFIXES = {SolverError: "solver error", ct.CertificateError: "certificate error"}


def run(argv):
    """Run one verb: its report written once to --out or stdout, then its
    note to stderr; every error is one stderr line and exit code 1."""
    args = _parser().parse_args(argv)
    try:
        _at_least(args.seed, 0, "--seed")
        if args.verb == "demo":
            return _run_demo(args)
        instance = _load(args)
        pair = _solve_pair(instance, args)
        report, kind, code, note = _VERBS[args.verb](instance, pair, args)
        _emit(save_report(report, args.format, instance, args.seed, kind=kind),
              args.out)
        if note is not None:
            print(note, file=sys.stderr)
        return code
    except (FileNotFoundError, ValueError, RuntimeError) as exc:
        print(f"{_PREFIXES.get(type(exc), 'error')}: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
