import json
from fractions import Fraction

import numpy as np
import pytest

from calmcert import regularizers as rz
from calmcert import solver as solver_module
from calmcert.gallery import curated_cases, instance_for
from calmcert.model import load_instance
from calmcert.solver import (SolverConfig, SolverError, kkt_bound,
                             kkt_residual, kkt_within, solve, solve_perturbed)
from fista_reference import _fista, lasso, objective
from splitting_reference import SLOW_TV, _splitting, tv_image


def make(doc):
    return load_instance(json.dumps(doc))


def l1_doc(phi, b, mu=1.0, n=None):
    phi = np.atleast_2d(np.asarray(phi, dtype=float))
    n = n or phi.shape[1]
    return {"phi": {"kind": "dense", "rows": phi.shape[0], "cols": phi.shape[1],
                    "entries": [float(v) for v in phi.ravel()]},
            "b": list(np.atleast_1d(b).astype(float)), "mu": mu,
            "k": {"kind": "identity", "dim": n},
            "reg": {"kind": "group_lasso", "dim": n,
                    "groups": [[i] for i in range(n)], "weight": 1.0}}


def test_scalar_soft_threshold_closed_form():
    pair = solve(make(l1_doc([[1.0]], [3.0])))
    assert pair.x_bar[0] == pytest.approx(2.0, abs=1e-9)
    assert pair.y_bar[0] == pytest.approx(1.0, abs=1e-9)


def test_zero_data_zero_solution():
    pair = solve(make(l1_doc(np.eye(2), [0.0, 0.0])))
    assert np.allclose(pair.x_bar, 0.0, atol=1e-10)


def test_segment_instance_lands_on_solution_set():
    inst = make(l1_doc([[1.0, 1.0]], [2.0]))
    pair = solve(inst)
    x = pair.x_bar
    assert np.all(x >= -1e-9)
    assert x.sum() == pytest.approx(1.0, abs=1e-8)
    assert np.allclose(pair.y_bar, [1.0, 1.0], atol=1e-8)
    res = kkt_residual(inst, pair.x_bar, pair.y_bar)
    assert max(res.values()) <= 1e-9


def test_kkt_residual_detects_corruption():
    inst = make(l1_doc([[1.0]], [3.0]))
    good = kkt_residual(inst, np.array([2.0]), np.array([1.0]))
    assert max(good.values()) <= 1e-12
    bad = kkt_residual(inst, np.array([2.0]), np.array([1.5]))
    assert bad["graph"] >= 0.1
    zero = make(l1_doc([[1.0]], [0.0]))
    res = kkt_residual(zero, np.zeros(1), np.zeros(1))
    assert max(res.values()) == 0.0


def test_perturbed_identity_returns_warm():
    inst = make(l1_doc([[1.0]], [3.0]))
    pair = solve(inst)
    again = solve_perturbed(inst, np.zeros(1), 0.0, pair)
    assert again.iterations == 0
    assert np.array_equal(again.x_bar, pair.x_bar)


@pytest.mark.parametrize("name", ["l1", "group", "tv_grad1d"])
def test_solve_from_a_solution_ends_at_its_start_check(name):
    if name == "tv_grad1d":
        inst = instance_for(name)
    else:
        inst = make(lasso(np.random.default_rng([0, 60, 7]), 60,
                          grouped=name == "group"))
    pair = solve(inst)
    again = solve(inst, x0=pair.x_bar, y0=pair.y_bar)
    assert again.iterations == 0 and again.newton_steps == 0
    assert np.array_equal(again.x_bar, pair.x_bar)


@pytest.mark.parametrize("seed", range(8))
def test_warm_perturbed_tv_solves_take_no_first_order_iteration(seed):
    # under isolated calmness the perturbed solution is within
    # kappa ||db|| of the base pair, where Newton converges from the start
    inst = make(tv_image(np.random.default_rng([seed, 13]), 6, 6, noise=0.2,
                         weight=0.02))
    cfg = SolverConfig(tol_kkt=1e-12)
    pair = solve(inst, cfg)
    rng = np.random.default_rng(seed)
    for radius in (1e-2, 1e-3):
        d = rng.standard_normal(inst.b.size)
        db = radius * d / np.linalg.norm(d)
        warm = solve_perturbed(inst, db, 0.0, pair, cfg)
        assert warm.iterations == 0 and warm.newton_steps <= 4
        pert = inst.perturbed(db)
        target = cfg.tol_kkt * (1.0 + np.linalg.norm(pert.b))
        assert max(kkt_residual(pert, warm.x_bar, warm.y_bar).values()) \
            <= target
        cold = solve(pert, cfg)
        assert np.linalg.norm(warm.x_bar - cold.x_bar) \
            <= 1e-9 * (1.0 + np.linalg.norm(cold.x_bar))


def test_perturbed_b_and_mu_closed_forms():
    inst = make(l1_doc([[1.0]], [3.0]))
    pair = solve(inst)
    up = solve_perturbed(inst, np.array([0.1]), 0.0, pair)
    assert up.x_bar[0] == pytest.approx(2.1, abs=1e-8)
    # stationarity (1/mu)(x - b) + sign(x) = 0 gives x = b - mu
    remu = solve_perturbed(inst, np.zeros(1), 1.0, pair)
    assert remu.x_bar[0] == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("field", ["tol_kkt"])
@pytest.mark.parametrize("value", [0, -1])
def test_config_rejects_fewer_than_one_iteration_or_check(field, value):
    # the iteration cap and the check period are solver constants; the one
    # field left is the KKT tolerance, which must be positive
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: value})


def _iterations(monkeypatch, max_iter, check_every):
    """Set the solver's iteration cap and check period for one test."""
    monkeypatch.setattr(solver_module, "MAX_ITER", max_iter)
    monkeypatch.setattr(solver_module, "CHECK_EVERY", check_every)


def test_config_accepts_one_iteration_and_one_check(monkeypatch):
    # the Newton try at the one check solves tv_grad1d exactly
    _iterations(monkeypatch, 1, 1)
    pair = solve(instance_for("tv_grad1d"))
    assert pair.iterations == 1
    assert np.allclose(pair.x_bar, [2.0, 2.0, 2.0], atol=1e-8)


def test_solve_targets_the_instance_kkt_tolerance():
    # a random gallery draw with tol.kkt = 1e-12: solve(inst) meets that
    # bound, not a fixed 1e-10, and the certificate accepts its pair
    from dataclasses import replace
    from calmcert.certificates import certify_solution_map
    from calmcert.gallery import random_group_lasso_instance
    inst = random_group_lasso_instance(1)
    inst.tol = replace(inst.tol, kkt=1e-12)
    pair = solve(inst)
    assert kkt_within(pair.residuals, 1e-12 * (1.0 + np.linalg.norm(inst.b)))
    assert certify_solution_map(inst, pair).y_used.tolist() \
        == pair.y_bar.tolist()


def test_perturbed_rejects_nonpositive_mu():
    inst = make(l1_doc([[1.0]], [3.0]))
    pair = solve(inst)
    with pytest.raises(ValueError):
        solve_perturbed(inst, np.zeros(1), -1.0, pair)


def test_representation_invariance_identity_vs_dense():
    rng = np.random.default_rng(0)
    phi = rng.standard_normal((3, 4))
    b = rng.standard_normal(3)
    doc = l1_doc(phi, b)
    x_id = solve(make(doc)).x_bar
    doc_dense = dict(doc)
    doc_dense["k"] = {"kind": "dense", "rows": 4, "cols": 4,
                      "entries": [float(v) for v in np.eye(4).ravel()]}
    x_dense = solve(make(doc_dense)).x_bar
    assert np.linalg.norm(x_id - x_dense) <= 1e-8


def test_splitting_solves_analysis_problem():
    inst = instance_for("tv_grad1d")
    pair = solve(inst)
    assert np.allclose(pair.x_bar, [2.0, 2.0, 2.0], atol=1e-8)
    res = kkt_residual(inst, pair.x_bar, pair.y_bar)
    assert max(res.values()) <= 1e-9


def test_returned_multiplier_meets_the_graph_bound():
    rng = np.random.default_rng(4)
    for _ in range(5):
        phi = rng.standard_normal((2, 3))
        b = rng.standard_normal(2)
        inst = make(l1_doc(phi, b))
        pair = solve(inst)
        assert pair.residuals["graph"] <= kkt_bound(inst)


def test_pair_reports_the_residuals_it_was_accepted_on():
    # on every gallery case (l1, nuclear and polyhedral with K = I; l1 with
    # K = grad1d and K = [1; 1]) and a group Lasso with a two-index group,
    # the residuals are kkt_residual of the pair itself, within the target
    grouped = {"phi": {"kind": "dense", "rows": 2, "cols": 3,
                       "entries": [1.0, 0.0, 0.5, 0.0, 1.0, -0.5]},
               "b": [3.0, -1.0], "mu": 1.0, "k": {"kind": "identity", "dim": 3},
               "reg": {"kind": "group_lasso", "dim": 3, "groups": [[0, 1], [2]],
                       "weight": 1.0}}
    instances = [instance_for(case["name"]) for case in curated_cases()]
    instances.append(make(grouped))
    assert {inst.reg.kind for inst in instances} == \
        {"group_lasso", "nuclear", "polyhedral_indicator"}
    for inst in instances:
        pair = solve(inst)
        assert pair.residuals == kkt_residual(inst, pair.x_bar, pair.y_bar)
        assert kkt_within(pair.residuals, kkt_bound(inst, 1))


def test_multistart_agreement_on_certified_instance():
    from calmcert.certificates import certify_solution_map
    inst = make(l1_doc([[1.0, 0.2], [0.1, 1.0]], [2.0, -1.5]))
    pair = solve(inst)
    report = certify_solution_map(inst, pair)
    assert report.conclusion_solution_map.status == "isolated_calm"
    rng = np.random.default_rng(8)
    sols = [solve(inst, x0=3.0 * rng.standard_normal(2)).x_bar
            for _ in range(10)]
    spread = max(np.linalg.norm(s - pair.x_bar) for s in sols)
    assert spread <= 1e-6


def test_objective_close_to_high_accuracy_reference():
    inst = instance_for("tv_grad1d")
    rough = solve(inst, SolverConfig(tol_kkt=1e-8))
    tight = solve(inst, SolverConfig(tol_kkt=1e-13))
    obj_rough = objective(inst, rough.x_bar)
    obj_tight = objective(inst, tight.x_bar)
    assert obj_rough <= obj_tight + 1e-9 * (1.0 + abs(obj_tight))


def _assert_failure_pair(err, inst, iterations):
    """The pair of a SolverError is the last iterate, with the residuals
    of its check, and the message prints them."""
    pair = err.value.pair
    assert pair.iterations == iterations
    assert pair.residuals == kkt_residual(inst, pair.x_bar, pair.y_bar)
    assert str(pair.residuals) in str(err.value)


def test_nonconvergence_carries_last_iterate(monkeypatch):
    # the Newton finish solves tv_grad1d at the first check, to a residual
    # of exactly 0 at b = (1, 2, 3): only an unreachable tolerance, and data
    # whose solution (2, 2, 2.1) has no exact binary form, keep the solve
    # from converging
    inst = instance_for("tv_grad1d").perturbed(np.array([0.0, 0.0, 0.1]))
    _iterations(monkeypatch, 3, 1)
    with pytest.raises(SolverError) as err:
        solve(inst, SolverConfig(tol_kkt=1e-300))
    assert err.value.pair.x_bar.shape == (3,)
    _assert_failure_pair(err, inst, 3)


@pytest.mark.parametrize("name", ["polyhedral_box", "nuclear_nondegenerate"])
def test_fista_nonconvergence_carries_last_iterate(monkeypatch, name):
    # FISTA alone (no Newton finish for these kinds); its multiplier is
    # v(x) of the last iterate, bit for bit.  The gallery cases' Phi has one
    # singular value, so FISTA's first step lands on the solution: a
    # diagonal Phi with spread scales and data inside the set keeps three
    # steps from converging
    doc = instance_for(name).to_json_dict()
    n = doc["phi"]["cols"]
    scale = np.linspace(1.0, 2.0, n)
    doc["phi"] = {"kind": "dense", "rows": n, "cols": n,
                  "entries": np.diag(scale).ravel().tolist()}
    doc["b"] = (scale * np.linspace(0.3, 0.7, n)).tolist()
    inst = make(doc)
    _iterations(monkeypatch, 3, 1)
    with pytest.raises(SolverError) as err:
        solve(inst, SolverConfig(tol_kkt=1e-300))
    pair = err.value.pair
    assert np.array_equal(pair.y_bar, inst.v_of(pair.x_bar))
    _assert_failure_pair(err, inst, 3)


def test_nuclear_instance_solved_by_svt_path():
    inst = instance_for("nuclear_nondegenerate")
    pair = solve(inst)
    assert np.allclose(pair.x_bar.reshape(2, 2), np.diag([1.0, 0.0]), atol=1e-8)
    assert np.allclose(pair.y_bar.reshape(2, 2), np.diag([1.0, 0.5]), atol=1e-8)


def test_v_bar_recomputable():
    inst = instance_for("lasso_scalar")
    pair = solve(inst)
    assert np.allclose(pair.v_bar, inst.v_of(pair.x_bar), atol=1e-14)


# ---------------------------------------------------------------------------
# the Newton finish of the splitting solver against the first-order loop


def _splitting_cases():
    cases = {f"slow_tv{i}": tv_image(np.random.default_rng([image, 11]), n, n,
                                     noise=noise, weight=weight)
             for i, (n, noise, weight, image) in enumerate(SLOW_TV)}
    for seed in range(4):
        cases[f"tv6x6_draw{seed}"] = tv_image(np.random.default_rng([seed, 3]),
                                              6, 6, noise=0.2, weight=0.02)
    cases["tv4x4_scaled"] = tv_image(np.random.default_rng([0, 5]), 4, 4,
                                     scale=1e5)
    return cases


SPLITTING_CASES = _splitting_cases()


@pytest.mark.parametrize("name", sorted(SPLITTING_CASES)
                         + ["tv_grad1d", "pd_multiplier_segment"])
def test_newton_finish_agrees_with_first_order_reference(name):
    inst = (instance_for(name) if name not in SPLITTING_CASES
            else make(SPLITTING_CASES[name]))
    cfg = SolverConfig(tol_kkt=1e-12)
    ref = _splitting(inst, cfg, np.zeros(inst.dim_x), np.zeros(inst.dim_y))
    new = solve(inst, cfg)
    target = cfg.tol_kkt * (1.0 + np.linalg.norm(inst.b))
    for pair in (ref, new):
        assert max(kkt_residual(inst, pair.x_bar, pair.y_bar).values()) <= target
    assert np.linalg.norm(new.x_bar - ref.x_bar) \
        <= 1e-8 * (1.0 + np.linalg.norm(ref.x_bar))
    assert new.iterations <= ref.iterations
    assert ref.newton_steps == 0 and new.newton_steps > 0


def _assert_tries_back_off(monkeypatch, far_start):
    """A solve that cannot converge makes O(log(checks)) Newton tries: at
    checks 1, 3, 7, 15, 31 and 63 of its 80 (81 from a start)."""
    tries = []
    finish = solver_module._newton_finish

    def counted(*args):
        tries.append(1)
        return finish(*args)

    monkeypatch.setattr(solver_module, "_newton_finish", counted)
    inst = make(SPLITTING_CASES["slow_tv0"])
    _iterations(monkeypatch, 2000, 25)
    cfg = SolverConfig(tol_kkt=1e-300)
    x0 = None
    if far_start:
        x0 = np.random.default_rng(5).standard_normal(inst.dim_x)
    with pytest.raises(SolverError) as err:
        solve(inst, cfg, x0=x0)
    assert len(tries) == 6
    assert err.value.pair.iterations == 2000


def test_newton_tries_back_off_on_a_solve_that_cannot_converge(monkeypatch):
    _assert_tries_back_off(monkeypatch, far_start=False)


def test_newton_tries_back_off_from_a_far_start(monkeypatch):
    _assert_tries_back_off(monkeypatch, far_start=True)


def test_tv8x8_draw_solves_within_2000_iterations(monkeypatch):
    # the first-order loop alone needs about 9,200 iterations here
    inst = make(tv_image(np.random.default_rng([2, 11]), 8, 8, noise=0.05,
                         weight=0.1))
    _iterations(monkeypatch, 2000, solver_module.CHECK_EVERY)
    pair = solve(inst)
    res = kkt_residual(inst, pair.x_bar, pair.y_bar)
    assert max(res.values()) <= 1e-10 * (1.0 + np.linalg.norm(inst.b))
    assert pair.iterations <= 2000


def test_newton_steps_are_reported_apart_from_iterations():
    inst = instance_for("tv_grad1d")
    doc = solve(inst).to_json_dict()
    assert doc["iterations"] % solver_module.CHECK_EVERY == 0
    assert doc["newton_steps"] >= 1
    fista = solve(instance_for("lasso_scalar")).to_json_dict()
    assert fista["newton_steps"] == 0


# ---------------------------------------------------------------------------
# the K != I Newton direction against the (n + |Z|) saddle system


def _saddle_direction(instance, eps, stat, graph, u):
    """The reference direction: one LU of
    [[H + K_A^T M K_A, K_Z^T], [K_Z, -eps I]] (dx, dy_Z)
        = (-stat - K_A^T D_A^{-1} graph_A, -graph_Z)."""
    k = instance.k.matrix
    a, m = instance.reg.prox_jacobian(u)
    mk = np.zeros_like(k)
    mk[a] = m @ k[a]
    dinv_graph = np.zeros_like(graph)
    dinv_graph[a] = graph[a] + m @ graph[a]
    z = np.setdiff1d(np.arange(graph.size), a)
    n = k.shape[1]
    kz = k[z]
    lhs = np.zeros((n + z.size, n + z.size))
    lhs[:n, :n] = instance.phi.gram() / instance.mu + k.T @ mk
    lhs[:n, n:] = kz.T
    lhs[n:, :n] = kz
    lhs[n:, n:][np.diag_indices(z.size)] = -eps
    rhs = np.concatenate([-stat - k.T @ dinv_graph, -graph[z]])
    sol = np.linalg.solve(lhs, rhs)
    dy = mk @ sol[:n] + dinv_graph
    dy[z] = sol[n:]
    return sol[:n], dy


def _dense_k_doc(seed):
    """Phi 12 x 8 and K 10 x 8 with normal entries, groups of two rows."""
    rng = np.random.default_rng([seed, 17])
    phi = rng.standard_normal((12, 8))
    k = rng.standard_normal((10, 8))
    doc = l1_doc(phi, rng.standard_normal(12))
    doc["k"] = {"kind": "dense", "rows": 10, "cols": 8,
                "entries": [float(v) for v in k.ravel()]}
    doc["reg"] = {"kind": "group_lasso", "dim": 10,
                  "groups": [[2 * i, 2 * i + 1] for i in range(5)],
                  "weight": 1.0}
    return doc


def _try_states(monkeypatch, inst):
    """The (x, y) at which the Newton tries of a cold solve and of a solve
    warm-started 1e-2 away begin: first-order iterates and base pairs, whose
    stationarity is not yet at roundoff."""
    states = []
    finish = solver_module._newton_finish

    def recorded(instance, x, y, *args):
        states.append((instance, x.copy(), y.copy()))
        return finish(instance, x, y, *args)

    monkeypatch.setattr(solver_module, "_newton_finish", recorded)
    cfg = SolverConfig(tol_kkt=1e-12)
    pair = solve(inst, cfg)
    d = np.random.default_rng(1).standard_normal(inst.b.size)
    solve_perturbed(inst, 1e-2 * d / np.linalg.norm(d), 0.0, pair, cfg)
    return states


DIRECTION_CASES = {f"slow_tv{i}": SPLITTING_CASES[f"slow_tv{i}"]
                   for i in range(len(SLOW_TV))}
DIRECTION_CASES.update({f"dense_k{seed}": _dense_k_doc(seed)
                        for seed in range(4)})


@pytest.mark.parametrize("name", sorted(DIRECTION_CASES)
                         + ["tv_grad1d", "pd_multiplier_segment"])
def test_schur_direction_matches_the_saddle_system(monkeypatch, name):
    inst = (instance_for(name) if name not in DIRECTION_CASES
            else make(DIRECTION_CASES[name]))
    eps = inst.tol.rank * inst.k.op_norm() ** 2
    k = inst.k.matrix
    h = inst.phi.gram() / inst.mu
    states = _try_states(monkeypatch, inst)
    assert states
    for instance, x, y in states:
        stat, graph, u = solver_module._kkt_vectors(instance, x, y)
        dx, dy = solver_module._newton_direction(instance, eps, stat, graph, u)
        ref_dx, ref_dy = _saddle_direction(instance, eps, stat, graph, u)
        # relative to the step, or to the residuals it answers when the step
        # is O(eps) itself (see the exact pd_multiplier_segment test below)
        scale = max(np.linalg.norm(ref_dx),
                    np.linalg.norm(stat) + np.linalg.norm(graph))
        assert np.linalg.norm(dx - ref_dx) <= 1e-10 * scale
        # dy is fixed only up to Ker K_Z^T by the -eps I block, where two
        # solvers of the same system differ by far more than roundoff:
        # compare the stationarity equation H dx + K^T dy = -stat instead
        for ddx, ddy in ((dx, dy), (ref_dx, ref_dy)):
            assert np.linalg.norm(h @ ddx + k.T @ ddy + stat) \
                <= 1e-12 * np.linalg.norm(stat)


def _outer_jacobian(reg, u):
    """GroupLasso.prox_jacobian by its former formula: M_A = I minus the
    outer product of the unit blocks, masked to the groups."""
    owner = reg.segments.owner
    nrm = rz.group_norms(reg, u)[owner]
    a = np.flatnonzero(nrm > reg.weight)
    c = reg.weight / nrm[a]
    unit = u[a] / nrm[a]
    same = owner[a][:, None] == owner[a]
    m = np.eye(a.size) - np.where(same, np.outer(unit, unit), 0.0)
    return a, (c / (1.0 - c))[:, None] * m


def _deleting_direction(instance, eps, stat, graph, u):
    """_newton_direction by its former steps: that Jacobian, and the nonzero
    rows of K_Z read by deleting A from the mask."""
    k = instance.k.matrix
    a, m = _outer_jacobian(instance.reg, u)
    wk = k * (1.0 / eps)
    wk[a] = m @ k[a]
    q = graph / eps
    q[a] = graph[a] + m @ graph[a]
    h = instance.phi.gram() / instance.mu
    s = h + k.T @ wk
    dx = np.linalg.solve(s, -stat - k.T @ q)
    dy = wk @ dx + q
    if np.delete(instance.k.nonzero_rows, a).any():
        ddx = np.linalg.solve(s, -stat - h @ dx - k.T @ dy)
        dx += ddx
        dy += wk @ ddx
    return dx, dy


@pytest.mark.parametrize("name", sorted(DIRECTION_CASES))
def test_direction_matches_its_former_formulas_bit_for_bit(monkeypatch, name):
    inst = make(DIRECTION_CASES[name])
    eps = inst.tol.rank * inst.k.op_norm() ** 2
    states = _try_states(monkeypatch, inst)
    assert states
    for instance, x, y in states:
        stat, graph, u = solver_module._kkt_vectors(instance, x, y)
        for got, want in ((instance.reg.prox_jacobian(u),
                           _outer_jacobian(instance.reg, u)),
                          (solver_module._newton_direction(
                              instance, eps, stat, graph, u),
                           _deleting_direction(instance, eps, stat, graph, u))):
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_schur_direction_is_exact_where_x_stays_on_the_segment():
    # pd_multiplier_segment warm-started 1e-2 away: x = 0 stays optimal, both
    # rows of K = [1; 1] are in Z, and dx = -(stat + (g_1 + g_2) / eps) /
    # (1 + 2 / eps) is 1e-11.  The Schur form returns it to the last bit;
    # the LU of the 3 x 3 saddle system is off by about 1e-7 relative.
    inst = instance_for("pd_multiplier_segment")
    pair = solve(inst, SolverConfig(tol_kkt=1e-12))
    pert = inst.perturbed(np.array([-1e-2]))
    stat, graph, u = solver_module._kkt_vectors(pert, pair.x_bar, pair.y_bar)
    assert pert.reg.prox_jacobian(u)[0].size == 0
    eps = pert.tol.rank * pert.k.op_norm() ** 2
    dx, _ = solver_module._newton_direction(pert, eps, stat, graph, u)
    f_eps = Fraction(eps)
    exact = -(Fraction(stat[0]) + (Fraction(graph[0]) + Fraction(graph[1]))
              / f_eps) / (1 + 2 / f_eps)
    assert abs(Fraction(dx[0]) - exact) <= Fraction(1, 10 ** 15) * abs(exact)


@pytest.mark.parametrize("name, solves", [("slow_tv2", 2), ("tv6x6_draw0", 1)])
def test_schur_direction_refines_only_where_k_z_is_nonzero(monkeypatch, name,
                                                            solves):
    # slow_tv2 (8x8) has rows of grad2d in Z that are not zero rows, so S
    # carries K_Z^T K_Z / eps and the direction is refined; in the
    # well-conditioned 6x6 draw Z holds only the zero rows of grad2d, S is
    # H + K_A^T M K_A, and one solve gives the LU's accuracy
    inst = make(SPLITTING_CASES[name])
    (instance, x, y), *_ = _try_states(monkeypatch, inst)
    stat, graph, u = solver_module._kkt_vectors(instance, x, y)
    a = instance.reg.prox_jacobian(u)[0]
    assert np.any(np.delete(instance.k.matrix, a, axis=0)) == (solves == 2)
    shapes = []
    linsolve = np.linalg.solve

    def recorded(a, b):
        shapes.append(a.shape)
        return linsolve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    eps = inst.tol.rank * inst.k.op_norm() ** 2
    solver_module._newton_direction(instance, eps, stat, graph, u)
    assert shapes == [(inst.dim_x, inst.dim_x)] * solves


def test_singular_newton_system_fails_the_try():
    # the second column of Phi and of K is zero: x_2 enters no equation, so
    # S (and the saddle system) has a zero row, and the try gives up
    doc = l1_doc([[1.0, 0.0]], [3.0])
    doc["k"] = {"kind": "dense", "rows": 1, "cols": 2,
                "entries": [1.0, 0.0]}
    doc["reg"] = {"kind": "group_lasso", "dim": 1, "groups": [[0]],
                  "weight": 1.0}
    inst = make(doc)
    stat, graph, u = solver_module._kkt_vectors(inst, np.zeros(2), np.zeros(1))
    eps = inst.tol.rank * inst.k.op_norm() ** 2
    with pytest.raises(np.linalg.LinAlgError):
        solver_module._newton_direction(inst, eps, stat, graph, u)
    with pytest.raises(np.linalg.LinAlgError):
        _saddle_direction(inst, eps, stat, graph, u)
    assert solver_module._newton_finish(inst, np.zeros(2), np.zeros(1),
                                        1e-10) == (None, None, 1, None)
    # the first-order loop still solves it: x = (2, 0), y = 1
    pair = solve(inst)
    assert np.allclose(pair.x_bar, [2.0, 0.0], atol=1e-8)
    assert np.allclose(pair.y_bar, [1.0], atol=1e-8)


def test_a_try_gives_up_at_the_step_cap_and_the_solve_goes_on(monkeypatch):
    # the first Newton try on group-Lasso draw 4 takes two steps; with a cap
    # of one it gives up, and the solve still converges, its newton_steps
    # counting the steps of every try
    from calmcert.gallery import random_group_lasso_instance
    inst = random_group_lasso_instance(4)
    finish, tries = solver_module._newton_finish, []

    def recorded(instance, x, y, target, kkt=None):
        out = finish(instance, x, y, target, kkt)
        tries.append((x, y, target, out))
        return out
    monkeypatch.setattr(solver_module, "_newton_finish", recorded)
    solve(inst)
    x, y, target, out = tries[0]
    assert out[0] is not None and out[2] == 2
    monkeypatch.setattr(solver_module, "_NEWTON_STEPS", 1)
    assert finish(inst, x, y, target) == (None, None, 1, None)
    tries.clear()
    pair = solve(inst)
    assert tries[0][3] == (None, None, 1, None)
    assert pair.newton_steps == sum(out[2] for *_, out in tries) >= 1
    assert kkt_within(pair.residuals, kkt_bound(inst))


@pytest.mark.parametrize("name", ["slow_tv0", "tv6x6_draw0", "tv4x4_scaled"])
def test_solution_pair_residuals_are_those_of_the_pair(name):
    # the residuals a check or a Newton try computed are passed to the pair,
    # not recomputed: they must be the pair's own
    inst = make(SPLITTING_CASES[name])
    pair = solve(inst)
    warm = solve(inst, x0=pair.x_bar, y0=pair.y_bar)
    for p in (pair, warm):
        assert p.residuals["stationarity"] \
            == kkt_residual(inst, p.x_bar, p.y_bar)["stationarity"]


# ---------------------------------------------------------------------------
# the Newton finish of FISTA (K = I) against FISTA alone


def _both_fista(inst):
    """(reference pair, new pair, KKT target) at tol_kkt = 1e-12."""
    cfg = SolverConfig(tol_kkt=1e-12)
    ref = _fista(inst, cfg, np.zeros(inst.dim_x))
    new = solve(inst, cfg)
    target = cfg.tol_kkt * (1.0 + np.linalg.norm(inst.b))
    for pair in (ref, new):
        assert np.array_equal(pair.y_bar, inst.v_of(pair.x_bar))
        assert max(kkt_residual(inst, pair.x_bar, pair.y_bar).values()) <= target
    return ref, new


@pytest.mark.parametrize("n", [60, 200])
@pytest.mark.parametrize("grouped", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_fista_newton_finish_agrees_with_reference(n, grouped, seed):
    inst = make(lasso(np.random.default_rng([seed, n, 7]), n, grouped))
    ref, new = _both_fista(inst)
    assert np.linalg.norm(new.x_bar - ref.x_bar) \
        <= 1e-8 * (1.0 + np.linalg.norm(ref.x_bar))
    assert ref.newton_steps == 0


DUP_DRAWS = {f"{kind}_dup{n}": (kind == "group", n)
             for kind in ("l1", "group") for n in (60, 200)}


@pytest.mark.parametrize("name", sorted(DUP_DRAWS) + ["lasso_segment"])
def test_fista_newton_finish_objective_on_solution_segments(name):
    # the solution is not unique, so the solvers may end at different points
    # of the segment: compare objectives, not x_bar
    if name in DUP_DRAWS:
        grouped, n = DUP_DRAWS[name]
        inst = make(lasso(np.random.default_rng([n, 9]), n, grouped, dup=True))
    else:
        inst = instance_for(name)
    ref, new = _both_fista(inst)
    obj_ref = objective(inst, ref.x_bar)
    assert objective(inst, new.x_bar) == pytest.approx(obj_ref, rel=1e-12)


def test_generic_lasso_ends_at_the_first_check():
    # FISTA alone needs 125 iterations on this draw
    inst = make(lasso(np.random.default_rng([0, 60, 7]), 60))
    pair = solve(inst)
    assert pair.iterations == solver_module.CHECK_EVERY
    assert pair.newton_steps >= 1


def test_identity_newton_solves_at_the_size_of_the_support(monkeypatch):
    shapes = []
    linsolve = np.linalg.solve

    def recorded(a, b):
        shapes.append(a.shape)
        return linsolve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    inst = make(lasso(np.random.default_rng([0, 400, 7]), 400, grouped=True))
    pair = solve(inst)
    assert pair.newton_steps >= 1 and shapes
    support = int(np.count_nonzero(pair.x_bar))
    assert max(max(shape) for shape in shapes) <= support < inst.dim_x


def test_zero_solution_solves_with_an_empty_active_set():
    doc = lasso(np.random.default_rng([1, 60, 7]), 60)
    phi = np.reshape(doc["phi"]["entries"], (30, 60))
    doc["reg"]["weight"] = 2.0 * float(np.max(np.abs(phi.T @ doc["b"])))
    inst = make(doc)
    pair = solve(inst)
    assert np.array_equal(pair.x_bar, np.zeros(60))
    # from a point off the solution, one step with no active group lands on 0
    x = 1e-3 * np.random.default_rng(2).standard_normal(60)
    target = 1e-10 * (1.0 + np.linalg.norm(inst.b))
    xn, yn, steps, res = solver_module._newton_finish(inst, x, inst.v_of(x),
                                                      target)
    assert np.array_equal(xn, np.zeros(60)) and steps == 1
    assert np.array_equal(yn, inst.v_of(xn))
    assert res == kkt_residual(inst, xn, yn)


@pytest.mark.parametrize("name", ["nuclear_nondegenerate", "nuclear_degenerate",
                                  "polyhedral_box"])
def test_fista_without_group_lasso_takes_no_newton_step(name):
    inst = instance_for(name)
    assert inst.k.is_identity
    assert solve(inst).newton_steps == 0
