"""Machine verdicts for isolated calmness of the solution mappings.

certify_solution_map: is the optimal-solution map of P(b, mu) isolated calm
at (b, mu) for x_bar?  Decided by one test for every (Phi, K),
Ker Phi cap K^-1 T_F = {0}, with T_F the tangent cone at K x_bar of the
conjugate-subdifferential face F: the sufficient condition.  The necessary
condition asks the same of K^-1 T_{F cap Im K}, which lies in K^-1 T_F, so
cond_nes takes a trivial verdict over as it stands.  It takes every verdict
over when the two cones are equal: for a polyhedral F, since
T_{F cap Im K} = T_F cap Im K and K^-1 (C cap Im K) = K^-1 C (Rockafellar &
Wets, Thm 6.42), and for a curved F whose relative interior meets Im K.
Otherwise a nontrivial cond_suf leaves cond_nes unknown.

The relative-interior qualification is decided only for a curved face
(nuclear): a polyhedral face is qualified by polyhedrality, and its qual_ri
is reported as not evaluated.

certify_primal_dual: the same for the primal-dual (Lagrange) solution map,
adding the adjoint-kernel condition Ker K* cap T_{dg(Kx)}(y) = {0}.

Each condition hands its operator, Phi or K^T, to trivial_intersection;
neither Ker Phi nor Ker K* is ever formed.

Verdict logic is three-valued and conservative: Unknown cone answers never
upgrade to a decisive conclusion.
"""

from dataclasses import dataclass, field

import numpy as np

from . import regularizers as rz
from .cones import (TrivialityVerdict, linear_program, preimage,
                    trivial_intersection)
from .linalg import nonzero, null_space, row_norms
from .solver import kkt_bound, kkt_residual, kkt_within


class CertificateError(RuntimeError):
    """Certificate preconditions (KKT point, valid multiplier) violated."""


@dataclass
class Conclusion:
    status: str                  # isolated_calm | not_isolated_calm | inconclusive
    witness: np.ndarray = None
    reason: str = ""

    @property
    def is_decisive(self):
        return self.status != "inconclusive"

    def to_json_dict(self):
        return {"status": self.status,
                "witness": None if self.witness is None
                else [float(v) for v in self.witness],
                "reason": self.reason}


def _verdict_json(v):
    if v is None:
        return {"outcome": "unknown", "witness": None, "reason": "not evaluated"}
    outcome = {"trivial": "holds", "nontrivial": "fails",
               "unknown": "unknown"}[v.outcome]
    return {"outcome": outcome,
            "witness": None if v.witness is None
            else [float(x) for x in v.witness],
            "reason": v.reason}


def _tri_json(value):
    if value is None:
        return "not evaluated"
    return {"yes": "holds", "no": "fails", "unknown": "unknown"}[value]


@dataclass
class CertificateReport:
    v_bar: np.ndarray
    y_used: np.ndarray
    cond_suf: TrivialityVerdict
    cond_nes: TrivialityVerdict
    qual_polyhedral: bool
    qual_ri: str                 # yes | no | unknown; None: not evaluated
    conclusion_solution_map: Conclusion
    srcq: TrivialityVerdict = None
    conclusion_primal_dual: Conclusion = None
    notes: dict = field(default_factory=dict)

    def to_json_dict(self):
        out = {
            "v_bar": [float(v) for v in self.v_bar],
            "y_used": [float(v) for v in self.y_used],
            "cond_suf": _verdict_json(self.cond_suf),
            "cond_nes": _verdict_json(self.cond_nes),
            "qual_polyhedral": bool(self.qual_polyhedral),
            "qual_ri": _tri_json(self.qual_ri),
            "srcq": _verdict_json(self.srcq),
            "conclusion_solution_map": self.conclusion_solution_map.to_json_dict(),
            "conclusion_primal_dual": None if self.conclusion_primal_dual is None
            else self.conclusion_primal_dual.to_json_dict(),
            "notes": self.notes,
        }
        return out

    @property
    def has_unknown(self):
        flags = [self.cond_suf.is_unknown, self.cond_nes.is_unknown,
                 self.qual_ri == "unknown",
                 not self.conclusion_solution_map.is_decisive]
        if self.srcq is not None:
            flags.append(self.srcq.is_unknown)
        if self.conclusion_primal_dual is not None:
            flags.append(not self.conclusion_primal_dual.is_decisive)
        return any(flags)


# ---------------------------------------------------------------------------
# multiplier validation


def prepare_multiplier(instance, pair):
    """Accept the pair under a solve's own bound, kkt_bound(instance).

    Returns (x_bar, y, residuals), y being pair.y_bar as given: the
    multiplier the certificates use (their y_used).  A pair past the bound
    raises CertificateError; no multiplier is repaired.
    """
    x = np.asarray(pair.x_bar, dtype=float)
    y = np.asarray(pair.y_bar, dtype=float)
    res = kkt_residual(instance, x, y)
    bound = kkt_bound(instance)
    if not kkt_within(res, bound):
        raise CertificateError(
            f"pair is not a KKT point: residuals {res} exceed "
            f"tol_kkt * scale = {bound:.3g}")
    return x, y, res


# ---------------------------------------------------------------------------
# solution-map certificate


def _compose_solution_conclusion(cond_suf, qualified):
    """(cond_nes, conclusion).  K^-1 T_{F cap Im K} lies in K^-1 T_F, with
    equality under the qualification: cond_nes is cond_suf when the face is
    qualified or cond_suf holds, and unknown otherwise."""
    if cond_suf.is_trivial:
        return cond_suf, Conclusion(
            "isolated_calm", reason="sufficient condition holds under the "
                                    "quadratic growth condition")
    if cond_suf.is_unknown:
        reason = cond_suf.reason or "sufficient condition undecided"
    elif qualified:
        return cond_suf, Conclusion(
            "not_isolated_calm", witness=cond_suf.witness,
            reason="necessary condition fails: nonzero direction in Ker Phi "
                   "meeting the restricted tangent cone")
    else:
        reason = ("sufficient condition fails but no qualification closes "
                  "the gap to necessity")
    cond_nes = cond_suf if qualified else TrivialityVerdict.unknown(
        "range-restricted tangent cone has no exact description for this face")
    return cond_nes, Conclusion("inconclusive", reason=reason)


def _solution_map(instance, pair, seed):
    """(report, kx): the solution-map report and kx = K x_bar."""
    tol = instance.tol
    x, y, _ = prepare_multiplier(instance, pair)
    v = instance.v_of(x)
    kx = instance.k.apply(x)
    face = rz.conj_subdiff_face(instance.reg, y, tol)
    if not face.contains(kx, tol.derived_member):
        dist = float(np.linalg.norm(kx - face.project(kx)))
        raise CertificateError(
            f"K x_bar is not in the conjugate face of y_used (distance {dist:.3g})")

    tangent = face.tangent_at(kx, tol)
    qual_polyhedral = face.is_polyhedral
    # a polyhedral face is qualified as it stands: no ri test can add to it
    qual_ri = None if qual_polyhedral \
        else rz.ri_intersects_range(face, instance.k, tol, x_bar=kx)
    qualified = qual_polyhedral or qual_ri == "yes"
    cond_suf = trivial_intersection(
        instance.phi, preimage(instance.k, tangent, tol), tol, seed=seed)
    cond_nes, conclusion = _compose_solution_conclusion(cond_suf, qualified)
    report = CertificateReport(
        v_bar=v, y_used=y,
        cond_suf=cond_suf, cond_nes=cond_nes,
        qual_polyhedral=qual_polyhedral, qual_ri=qual_ri,
        conclusion_solution_map=conclusion,
        notes={"face": face.describe(), "seed": int(seed)},
    )
    return report, kx


def certify_solution_map(instance, pair, seed=0):
    """Certificate for the optimal-solution mapping at (b, mu) for x_bar."""
    return _solution_map(instance, pair, seed)[0]


# ---------------------------------------------------------------------------
# primal-dual certificate


def certify_primal_dual(instance, pair, seed=0):
    """Certificate for the primal-dual solution mapping at (b, mu, 0).

    Extends the solution-map report with srcq and the primal-dual
    conclusion, which reads srcq and cond_suf only.
    """
    report, kx = _solution_map(instance, pair, seed)
    tol = instance.tol
    if instance.k.is_identity:      # Ker I = {0}: no tangent is built
        srcq = TrivialityVerdict.trivial()
    elif (tangent_sub := rz.tangent_subdiff(instance.reg, kx, report.y_used,
                                            tol)) is None:
        srcq = TrivialityVerdict.unknown(
            "tangent cone to dg(K x_bar) not representable for this multiplier")
    else:
        # K^T tied to K, so ||K^T|| = ||K|| is computed once per operator
        srcq = trivial_intersection(instance.k.adjoint, tangent_sub, tol,
                                    seed=seed)

    if srcq.is_nontrivial:
        pd = Conclusion("not_isolated_calm", witness=srcq.witness,
                        reason="adjoint-kernel condition fails: nonzero "
                               "multiplier direction in Ker K* meeting the "
                               "tangent cone to dg(K x_bar)")
    elif report.cond_suf.is_nontrivial:
        pd = Conclusion("not_isolated_calm", witness=report.cond_suf.witness,
                        reason="kernel condition fails: nonzero direction in "
                               "Ker Phi meeting the tangent cone preimage")
    elif srcq.is_trivial and report.cond_suf.is_trivial:
        pd = Conclusion("isolated_calm",
                        reason="both kernel conditions hold under the "
                               "primal-dual quadratic growth condition")
    else:
        reasons = [v.reason for v in (srcq, report.cond_suf) if v.is_unknown]
        pd = Conclusion("inconclusive",
                        reason="; ".join(r for r in reasons if r)
                        or "kernel conditions undecided")

    report.srcq = srcq
    report.conclusion_primal_dual = pd
    return report


# ---------------------------------------------------------------------------
# strong-solution relabeling (K = identity)


def strong_solution_equivalence(instance, pair, seed=0):
    """Relabel the kernel-tangent verdict as a strong-solution statement."""
    if not instance.k.is_identity:
        raise ValueError("strong-solution equivalence requires K = identity")
    v = certify_solution_map(instance, pair, seed=seed).cond_suf
    if v.is_trivial:
        return {"strong_solution": True, "witness": None,
                "statement": "x_bar is a strong solution"}
    if v.is_nontrivial:
        return {"strong_solution": False,
                "witness": [float(w) for w in v.witness],
                "statement": "x_bar is not a strong solution"}
    return {"strong_solution": None, "witness": None,
            "statement": f"undecided: {v.reason}"}


# ---------------------------------------------------------------------------
# the solution set near x_bar (polyhedral faces)


def solution_resolution(instance):
    """r = 10 tol_kkt (1 + ||b||) / sigma, sigma the least nonzero singular
    value of Phi (1 when Phi = 0): how far an alternate solution must lie
    from x_bar to be told apart from the pair's own error.  An interim
    multiple of the KKT bound, until the thresholds derive from the pair's
    backward error."""
    s = instance.phi.singular_values()
    s = s[nonzero(s, instance.tol.rank, s[0])] if s.size else s
    sigma = float(s[-1]) if s.size else 1.0
    return kkt_bound(instance, 10) / sigma


def _polyhedral_step(instance, face, x, c, box):
    """The LP's step along c, or None."""
    a, c_face, e, _ = face.polyhedral_system()
    # the LP rows A K, E K and Phi are dense, and E K is read entry by entry
    k = instance.k.matrix
    ek = e @ k
    # a row of E K with one entry that nonzero keeps on the row's scale
    # ||e_i|| ||K||_F pins that coordinate; a row with none constrains nothing
    kept = nonzero(np.abs(ek), instance.tol.rank, row_norms(e)[:, None],
                   float(np.linalg.norm(k)))
    count = kept.sum(axis=1)
    free = ~kept[count == 1].any(axis=0)
    if not free.any():
        return None
    # the LP's columns are Phi's free ones
    eq = np.vstack([instance.phi.matrix[:, free], ek[count > 1][:, free]])
    lp = linear_program(-c[free], (a @ k)[:, free],
                        np.maximum(c_face - a @ (k @ x), 0.0), eq,
                        np.zeros(eq.shape[0]), bounds=(-box, box))
    if lp.status != 0:
        return None
    d = np.zeros_like(x)
    d[free] = lp.x
    return d


def _nuclear_step(instance, face, x, c, box):
    """The step along d, c projected onto L = {d : Phi d = 0, K d in span F},
    or None when c has no component in L."""
    k, basis = instance.k.matrix, face.span_basis()   # the stack is dense
    line = null_space(np.vstack([  # each block at unit scale
        instance.phi.matrix / (instance.phi.op_norm() or 1.0),
        (k - basis @ (basis.T @ k)) / (instance.k.op_norm() or 1.0)]),
        instance.tol)
    d = line.project(c)
    norm = float(np.linalg.norm(d))
    if not nonzero(norm, instance.tol.rank, float(np.linalg.norm(c))):
        return None
    t = face.reach_along(instance.k.apply(x), instance.k.apply(d / norm),
                         instance.tol)
    return min(t, box * norm / float(np.abs(d).max())) * d / norm


def solution_set_extent(instance, pair, c, level):
    """(end, None) with end = x_bar + d the far end of the solution set
    along c, or (None, cause).

    Near x_bar the solution set is S = {x : Phi x = Phi x_bar, K x in F}, F
    the face of y_bar, and d stays within ||d||_inf <= max(1, ||x_bar||_inf).
    * A polyhedral face (group Lasso, l1 included, and a polyhedral g) makes
      S a polyhedron, and d maximizes c^T d over {d : Phi d = 0,
      K (x_bar + d) in F}, one HiGHS LP.  K x_bar meets F's system only to
      the solver's accuracy, so each row is written relative to it: E K d =
      0, and A K d <= c - A K x_bar with that slack floored at 0.  d = 0 is
      then feasible, and the pair's own error is not read as room to move.
      A coordinate that a row of E K pins at 0 (for K = I, each index of an
      interior group) leaves the LP; when none is left, no LP is solved.
    * The nuclear face {U_1 S V_1^T : S psd} is curved (the faces of the psd
      cone are {Q W Q^T : W psd}; Pataki, Handbook of Semidefinite
      Programming, 2000, ch. 3), and S is read along the line of c's
      projection onto L = {d : Phi d = 0, K d in the span of F}, the null
      space of [Phi; (I - B B^T) K], B the span's orthonormal basis: d is
      the farthest step with S_bar + t D psd (NuclearFace.reach_along),
      S_bar and D the compressions of K x_bar and K d.

    The end is returned when it passes KKT with y_bar at `level` (of
    kkt_bound) and lies farther from x_bar than solution_resolution.  The
    cause names why it is not: there is no step along c (the face pins
    every coordinate, its LP is infeasible, or c has no component in L),
    the end lies within solution_resolution, or the end fails KKT at
    `level`, given with its distance and residuals.
    """
    x = np.asarray(pair.x_bar, dtype=float)
    y = np.asarray(pair.y_bar, dtype=float)
    face = rz.conj_subdiff_face(instance.reg, y, instance.tol)
    box = max(1.0, float(np.abs(x).max(initial=0.0)))
    step = _polyhedral_step if face.is_polyhedral else _nuclear_step
    d = step(instance, face, x, np.asarray(c, dtype=float), box)
    if d is None:
        return None, ("the solution-set LP finds no step along the witness"
                      if face.is_polyhedral else "the witness has no "
                      "component along the span of the face")
    if float(np.linalg.norm(d)) <= solution_resolution(instance):
        return None, ("the solution set reaches no farther than the pair's "
                      "resolution along the witness")
    res, bound = kkt_residual(instance, x + d, y), kkt_bound(instance, level)
    if not kkt_within(res, bound):
        return None, (f"the solution set's end along the witness lies "
                      f"{float(np.linalg.norm(d)):.3g} from x_bar and fails "
                      f"KKT at level {level:g}: stationarity "
                      f"{res['stationarity']:.3g}, graph {res['graph']:.3g}, "
                      f"bound {bound:.3g}")
    return x + d, None


def uniqueness_oracle(instance, pair):
    """(unique, alternate, detail): is x_bar the only solution near itself?

    Two solution-set LPs, solution_set_extent at +c and -c for a seeded
    Gaussian c, look for a solution of the same data beyond the pair's
    resolution; a non-uniqueness claim is that alternate, verified by KKT
    at level 1e3.  detail holds movement_dim, the dimension of
    {d : Phi d = 0, E K d = 0} with E the equalities of the multiplier's
    face (no LP is solved when it is 0), and tight_groups, the boundary
    groups that active_groups reads as vertices at K x_bar.
    """
    reg = instance.reg
    if not isinstance(reg, rz.GroupLasso):
        raise ValueError("uniqueness oracle supports group lasso only")
    tol = instance.tol
    x = np.asarray(pair.x_bar, dtype=float)
    face = rz.conj_subdiff_face(reg, pair.y_bar, tol)
    e = face.polyhedral_system()[2]
    k = instance.k.matrix           # null_space factors the stack [Phi; E K]
    movement = null_space(np.vstack([instance.phi.matrix, e @ k]), tol)
    boundary = set(face.boundary)
    active = rz.active_groups(reg, k @ x, tol)[1]
    tight = [int(g) for g, on in zip(reg.segments.groups, active)
             if g in boundary and not on]
    detail = {"movement_dim": movement.dim, "tight_groups": tight}
    if movement.dim == 0:
        return True, None, detail
    c = np.random.default_rng(0).standard_normal(instance.dim_x)
    for direction in (c, -c):
        alternate = solution_set_extent(instance, pair, direction, 1e3)[0]
        if alternate is not None:
            return False, alternate, detail
    return True, None, detail


def uniqueness_equivalence_check(instance, pair, oracle_budget=8, seed=0):
    """Compare the certificate conclusion with the uniqueness oracle."""
    if not isinstance(instance.reg, rz.GroupLasso):
        raise ValueError("uniqueness equivalence applies to group lasso only")
    if instance.dim_x > oracle_budget:
        raise ValueError(f"oracle budget exceeded: dim X = {instance.dim_x} "
                         f"> {oracle_budget}")
    unique, alternate, detail = uniqueness_oracle(instance, pair)
    report = certify_solution_map(instance, pair, seed=seed)
    status = report.conclusion_solution_map.status
    if status == "inconclusive":
        agrees = None
    else:
        agrees = (status == "isolated_calm") == unique
    return {"agrees": agrees,
            "oracle_unique": unique,
            "certificate": status,
            "alternate": None if alternate is None
            else [float(v) for v in alternate],
            "detail": detail}
