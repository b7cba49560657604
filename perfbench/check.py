"""Untimed correctness checks of every op's output.

An op fails when the verb exits with code 1, or exits with code 2 where no
`unknown` verdict is expected, or when its output fails a check below.  The
checks re-derive what they can with calmcert's public functions on the
loaded instance, outside the timed region:

* solve:          KKT residuals of the reported pair <= tol.kkt * (1 + ||b||)
* certify(-pd):   y_used is a KKT multiplier of the reference solution
                  (<= 100 * tol.kkt * scale, the certificate's own bound);
                  verdicts match the hand-derived answer (curated cases,
                  duplicated active columns => not_isolated_calm, separable
                  boxes) or the seed-commit verdicts of the op's stratum;
                  every not_isolated_calm witness is re-verified by
                  `instability_probe`
* probe:          as certify for the verdict; a witness must be refuted
* sweep:          no blow-up flag, no non-converged sample
* lab:            zero kernel-formula disagreements, zero zero-product
                  violations
* any verb:       no exception escapes `calmcert.cli.run` (kind "raised",
                  recorded by run.py)

Failure kinds that the seed commit already shows on a family of strata (one
generator at every size) are listed in reference.json under
"known_failures".  They still count as failed ops; only a failure kind
outside that list makes the run incorrect.
"""

import json
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")
PROBE_GRID = [1e-1, 1e-2, 1e-3]


def _allowed(value):
    """A hand-derived expectation is one value; a reference lists several."""
    return value if isinstance(value, list) else [value]


def family_key(workload, op):
    """Strata share a family ("l1_dup/n200" -> "l1_dup") across sizes.

    The lab checks draw their directions from the run's seed, so a failure
    kind the seed commit shows on one lab instance can show on any other
    under another seed: all lab ops form one family.
    """
    family = "lab" if op["verb"] == "lab" else op["stratum"].split("/")[0]
    return f"{workload}/{family}/{op['verb']}"


EMPTY_REFERENCE = {"verdicts": {}, "known_failures": {}}


def load_reference(path=REFERENCE):
    if not path.exists():
        return EMPTY_REFERENCE
    return json.loads(path.read_text())


class Checker:
    def __init__(self, workload, reference):
        import calmcert
        self.cc = calmcert
        self.workload = workload
        self.reference = reference
        self._pairs = {}

    def expected(self, op):
        """Hand-derived verdicts, else the stratum's verdicts at the seed
        commit."""
        if op["expect"]:
            return op["expect"]
        return self.reference["verdicts"].get(
            f"{self.workload}/{op['stratum']}", {})

    def known(self, op):
        """Failure kinds the seed commit shows on the op's family and verb."""
        return set(self.reference["known_failures"].get(
            family_key(self.workload, op), ()))

    def pair(self, op, instance):
        """The reference solution of an instance (solved once per run)."""
        if op["name"] not in self._pairs:
            cfg = self.cc.SolverConfig(tol_kkt=instance.tol.kkt)
            self._pairs[op["name"]] = self.cc.solve(instance, cfg)
        return self._pairs[op["name"]]

    def check(self, op, instance, code, out_path):
        """Failure kinds of one op (empty when it passed), and its verdicts."""
        if code == 1:
            return ["exit1"], {}
        expect = self.expected(op)
        try:
            doc = json.loads(Path(out_path).read_text())
        except (OSError, ValueError):
            return ["no_output"], {}
        payload = doc["payload"]
        fails, got = [], {}
        if op["verb"] == "solve":
            fails += self._kkt(instance, payload["x_bar"], payload["y_bar"], 1.0)
        elif op["verb"] in ("certify", "certify-pd"):
            got = {"solution_map": payload["conclusion_solution_map"]["status"]}
            if payload["conclusion_primal_dual"] is not None:
                got["primal_dual"] = payload["conclusion_primal_dual"]["status"]
            pair = self.pair(op, instance)
            fails += self._kkt(instance, pair.x_bar, payload["y_used"], 100.0)
            witness = payload["conclusion_solution_map"]["witness"]
            if got["solution_map"] == "not_isolated_calm" and not \
                    self._refuted(instance, pair, witness):
                fails.append("witness")
        elif op["verb"] == "probe":
            got = {"solution_map": payload["certificate"]["status"]}
            if got["solution_map"] == "not_isolated_calm" and \
                    not payload.get("refuted"):
                fails.append("probe")
        elif op["verb"] == "sweep":
            if payload["blowup_flag"]:
                fails.append("blowup")
            if any(s["flag"] == "nonconverged" for s in payload["samples"]):
                fails.append("nonconverged")
        elif op["verb"] == "lab":
            fails += self._lab(payload)
        for side in ("solution_map", "primal_dual"):
            if side in got and side in expect and \
                    got[side] not in _allowed(expect[side]):
                fails.append("verdict")
        if op["verb"] in ("certify", "certify-pd"):
            if "unknown" in expect and (code == 2) not in _allowed(expect["unknown"]):
                fails.append("exit_code")
        elif code == 2 and op["verb"] != "lab" and \
                got.get("solution_map") != "inconclusive":
            fails.append("exit_code")
        return sorted(set(fails)), got

    # -- individual checks -------------------------------------------------

    def _kkt(self, instance, x, y, factor):
        res = self.cc.kkt_residual(instance, x, y)
        scale = 1.0 + float(np.linalg.norm(instance.b))
        return [] if max(res.values()) <= factor * instance.tol.kkt * scale \
            else ["kkt"]

    def _refuted(self, instance, pair, witness):
        if witness is None:
            return False
        probe = self.cc.instability_probe(instance, pair, witness, PROBE_GRID)
        return bool(probe["refuted"])

    def _lab(self, payload):
        fails = []
        if payload["kernel_formula"]["disagreements"]:
            fails.append("kernel_disagreement")
        zero = payload["zero_product"]
        if not zero.get("available", False):
            fails.append("zero_product_unavailable")
        for kind in ("positivity", "forward", "backward"):
            if zero.get(f"{kind}_violations"):
                fails.append(f"{kind}_violation")
        return fails
