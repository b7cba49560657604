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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is raised, for run to map like any other error."""
        raise ValueError(message)


@functools.cache
def _parser():
    """The argument parser, built once per process (it holds no state)."""
    p = _Parser(
        prog="calmcert",
        description="Certify isolated calmness of regularized least-squares "
                    "solution mappings and cross-validate with numerical probes.")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, needs_instance=True):
        sp.add_argument("--out", type=Path, default=None, help="output path")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        if needs_instance:
            sp.add_argument("instance", help="instance JSON path")
            for name in ("rank", "member", "kkt"):
                sp.add_argument(f"--tol-{name}", type=float, default=None)
            sp.add_argument("--y-override", type=Path, default=None,
                            help="JSON array with a multiplier to use instead "
                                 "of the solver's")

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
    """The curated table, each case through the verb functions: the pair
    every verb solves, read once, certify (certify-pd where a primal-dual
    verdict is expected) and probe (where a refutation is) on the report's
    conclusion; a case passes when every expected value is obtained, and an
    error reads as run would print it.  Prints the table; returns its --out
    document and the exit code."""
    rows = []
    for case in curated_cases():
        expected = case["expected"]
        case_args = argparse.Namespace(
            verb="certify-pd" if "primal_dual" in expected else "certify",
            seed=args.seed, y_override=None, t_grid=T_GRID)
        try:
            instance = load_instance(case["instance"])
            pair = ct.read_pair(instance, _solve_pair(instance, case_args))
            report = _certify(instance, pair, case_args)[0]
            got = {"solution_map": report.conclusion_solution_map.status,
                   "unknown": report.has_unknown}
            if report.conclusion_primal_dual is not None:
                got["primal_dual"] = report.conclusion_primal_dual.status
            if "probe_refuted" in expected:
                probe = _probe(instance, pair, case_args,
                               report.conclusion_solution_map)[0]
                got["probe_refuted"] = probe.get("refuted", False)
            for key in ("x_bar", "y_bar"):
                if key in expected:
                    got[f"{key}_ok"] = bool(np.allclose(
                        getattr(pair, key), expected[key], atol=1e-6))
            ok = all(got[f"{key}_ok"] if key in ("x_bar", "y_bar")
                     else got[key] == value for key, value in expected.items())
        except _ERRORS as exc:
            got, ok = {"error": _message(exc)}, False
        rows.append((case["name"], expected, got, ok))
    name_w = max(len(r[0]) for r in rows)
    print(f"{'case':<{name_w}}  {'expected':<20} {'obtained':<20} result")
    for name, expected, got, ok in rows:
        exp = expected.get("solution_map", "?")
        obt = got.get("solution_map", got.get("error", "?"))[:40]
        print(f"{name:<{name_w}}  {exp:<20} {obt:<20} "
              f"{'PASS' if ok else 'FAIL'}")
    if args.format == "csv":
        doc = csv_text([["case", "expected", "obtained", "pass"],
                        *([n, e.get("solution_map", ""),
                           g.get("solution_map", g.get("error", "")), ok]
                          for n, e, g, ok in rows)])
    else:
        doc = dumps({"kind": "demo",
                     "cases": [{"name": n, "expected": e, "obtained": g,
                                "pass": ok} for n, e, g, ok in rows]})
    return doc, 0 if all(row[3] for row in rows) else 1


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
    radii = _floats(args.radii, "--radii")
    samples = _at_least(args.samples, 1, "--samples")
    return (em.perturbation_sweep(instance, pair, radii, n_per_radius=samples,
                                  seed=args.seed), None, 0, None)


def _probe(instance, pair, args, conc=None):
    """probe along the witness of conc, the pair's solution-map conclusion;
    the pair is certified for it only when no conc is given."""
    t_grid = _floats(args.t_grid, "--t-grid")
    if min(t_grid) <= 0:
        raise ValueError(f"--t-grid: step {min(t_grid)!r} is not positive")
    pair = ct.read_pair(instance, pair)
    conc = conc or ct.certify_solution_map(
        instance, pair, seed=args.seed).conclusion_solution_map
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
_ERRORS = (OSError, ValueError, RuntimeError)


def _message(exc):
    """An error's stderr line: its prefix, then its text."""
    return f"{_PREFIXES.get(type(exc), 'error')}: {exc}"


def run(argv):
    """Run one verb: its report written once to --out or stdout (a JSON
    sweep's samples first as CSV to --out with the suffix .csv), then its
    note to stderr; every error, a usage error included, is one stderr line
    and exit code 1."""
    try:
        args = _parser().parse_args(argv)
        _at_least(args.seed, 0, "--seed")
        if args.verb == "demo":
            doc, code = _run_demo(args)
            if args.out is not None:
                _emit(doc, args.out)
            return code
        instance = _load(args)
        pair = _solve_pair(instance, args)
        report, kind, code, note = _VERBS[args.verb](instance, pair, args)
        if args.verb == "sweep" and args.out is not None and args.format == "json":
            _emit(save_report(report, "csv"), args.out.with_suffix(".csv"))
        _emit(save_report(report, args.format, instance, args.seed, kind=kind),
              args.out)
        if note is not None:
            print(note, file=sys.stderr)
        return code
    except _ERRORS as exc:
        print(_message(exc), file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
