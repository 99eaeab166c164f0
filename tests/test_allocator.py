import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from fso_isac import allocator
from fso_isac.allocator import (
    CASE_A,
    CASE_C,
    CASE_D,
    CASE_F,
    MODE_COMM,
    MODE_SENSE,
    DualIterationError,
    InfeasibleProblem,
    ProblemSpec,
    _budget_level,
    _kkt_rule,
    _subcarrier_step,
    _subcarrier_weights,
    dual_iterate_comm,
    dual_iterate_sense,
    first_bias_step,
    golden_section_max,
    sensing_lp,
    solve_bias,
    solve_p1,
    solve_p2,
    waterfill_comm,
)
from fso_isac.clipping import SnrProfile
from fso_isac.config import OfdmConfig
from fso_isac.metrics import spectral_efficiency, varsigma_sq_from_precision

from conftest import uniform_allocation

# --- frozen convex-solver oracle fixture -----------------------------------
# N = 16 synthetic instance (7 data subcarriers):
#   gamma_c(k) = 40 / (1 + 0.3 (k-1)),  gamma_s(k) = 3 * 1.25^k,  p_max = 0.12
# solved once by a generic interior-point convex solver at 1e-12 gap
# tolerance; allocations and duals recorded verbatim.
N16_GAMMA_C = 40.0 / (1.0 + 0.3 * (np.arange(1, 8) - 1.0))
N16_GAMMA_S = 3.0 * 1.25 ** np.arange(1, 8)
N16_P_MAX = 0.12
N16_INFO_TARGET = 131.41065912286007
N16_CAP_TARGET_NATS = 5.851112710558301

ORACLE_P_A = np.array([
    0.09392857131967067, 0.08642857137358828, 0.07892857165098414,
    0.07142857133190397, 0.06392857148622569, 0.05642857138724297,
    0.04892857145022369,
])
ORACLE_MU_A = 8.408408421567577
ORACLE_P_C = np.array([
    0.07309759301492919, 0.06656460083171217, 0.06132761611501331,
    0.05841639217205769, 0.05993655518843539, 0.07108681907317914,
    0.10957042360461433,
])
ORACLE_MU_C = 10.218806757831889
ORACLE_ETA_C = 0.00663379245958137
ORACLE_P_F = np.array([
    0.02657247244010805, 0.02299737958757523, 0.0270602172403978,
    0.06336993073179982, 0.1199999999999883, 0.12000000000001927,
    0.12000000000003569,
])
ORACLE_MU_F = 215.84691166753603
ORACLE_ETA_F = 10.938362133998115


def comm_duals(gamma_c, gamma_s, target, p_max):
    """dual_iterate_comm from the water-filling allocation and its level, as
    the BCD step calls it."""
    k2gs = _subcarrier_weights(gamma_s.size) * gamma_s
    p_wf, mu0 = waterfill_comm(gamma_c, p_max)
    return dual_iterate_comm(gamma_c, k2gs, target, p_max, float(np.sum(k2gs * p_wf)), mu0)


def sense_duals(gamma_c, gamma_s, target, p_max):
    """dual_iterate_sense from the sensing LP, as the BCD step calls it."""
    k2gs = _subcarrier_weights(gamma_s.size) * gamma_s
    p_lp = sensing_lp(gamma_s, p_max)
    return dual_iterate_sense(gamma_c, k2gs, target, p_max,
                              float(np.sum(np.log1p(gamma_c * p_lp))))


class TestGoldenSection:
    def test_quadratic(self):
        x, fx, _ = golden_section_max(lambda x: -(x - 2.3) ** 2, 0.0, 5.0, 1e-8)
        assert x == pytest.approx(2.3, abs=1e-7)

    def test_against_dense_grid(self):
        f = lambda x: np.sin(x) * np.exp(-0.3 * x)
        x, fx, _ = golden_section_max(f, 0.0, 3.0, 1e-9)
        grid = np.linspace(0, 3, 10_001)
        g = grid[np.argmax(f(grid))]
        assert x == pytest.approx(g, abs=1e-3)
        assert fx >= f(g) - 1e-12


class FlatModel:
    """Stand-in system with gamma proportional to (P - b^2): no clipping
    noise and unit Bussgang gain, so bias only wastes power."""

    def __init__(self, cfg):
        self.cfg = cfg

    def snr(self, b, p_norm):
        gamma = np.full(self.cfg.n_data_subcarriers,
                        100.0 * (self.cfg.power_w - b * b))
        return SnrProfile(gamma_c=gamma, gamma_s=gamma)


class TestSolveBias:
    def test_linear_regime_prefers_zero_bias(self):
        cfg = OfdmConfig(n_symbols=2, n_subcarriers=32, delta_f=1e5,
                         guard_s=0.0, power_w=1.0)
        model = FlatModel(cfg)
        b, info = solve_bias("capacity", uniform_allocation(cfg), model)
        assert b == pytest.approx(0.0, abs=2e-4)
        assert not info["grid_fallback"]

    def test_deterministic(self, desk_model):
        p = uniform_allocation(desk_model.cfg)
        b1, _ = solve_bias("capacity", p, desk_model)
        b2, _ = solve_bias("capacity", p, desk_model)
        assert b1 == b2

    def test_matches_dense_grid_oracle(self, desk_model):
        # noise-dominated regime: argmax of the capacity against a dense scan
        p = uniform_allocation(desk_model.cfg)
        b_star, _ = solve_bias("capacity", p, desk_model)

        def capacity(b):
            return spectral_efficiency(desk_model.snr(b, p), p, desk_model.cfg)

        grid = np.linspace(0.0, np.sqrt(desk_model.cfg.power_w) * (1 - 1e-12), 2000)
        vals = [capacity(b) for b in grid]
        b_grid = grid[int(np.argmax(vals))]
        assert abs(b_star - b_grid) < 2e-3  # grid spacing + golden tolerance
        assert capacity(b_star) >= max(vals) - 1e-9

    def test_rejects_unknown_objective(self, desk_model):
        with pytest.raises(ValueError):
            solve_bias("throughput", uniform_allocation(desk_model.cfg), desk_model)


class TestWaterfill:
    def test_uniform_under_flat_gamma(self):
        gamma = np.full(3, 25.0)
        p, mu = waterfill_comm(gamma, 0.3)
        assert_allclose(p, 1 / 6, rtol=1e-9)

    def test_cap_binding(self):
        gamma_c = np.array([1e9, 1.0, 1.0])
        p, _ = waterfill_comm(gamma_c, 0.2)
        assert p[0] == pytest.approx(0.2, abs=1e-12)

    def test_infeasible_target_rejected(self):
        with pytest.raises(ValueError):
            waterfill_comm(np.ones(3), 0.05)

    def test_dense_grid_oracle(self):
        gamma_c = np.array([10.0, 1.0, 0.1])
        p_max = 0.3
        p, mu = waterfill_comm(gamma_c, p_max)
        # generic projected water-filling: dense mu grid for the
        # budget-matching level, refined once around the coarse winner
        def grid_best(lo, hi):
            mus = np.linspace(lo, hi, 1_000_000)
            alloc = np.clip(1.0 / mus[:, None] - 1.0 / gamma_c[None, :], 0.0, p_max)
            best = int(np.argmin(np.abs(alloc.sum(axis=1) - 0.5)))
            return mus[best], alloc[best], (hi - lo) / 1_000_000
        mu0, _, step = grid_best(1e-6, 10.0)
        _, alloc, _ = grid_best(mu0 - 2 * step, mu0 + 2 * step)
        assert_allclose(p, alloc, atol=1e-6)

    def test_budget_precision(self):
        # the eta-shifted xi_0 level, as dual_iterate_comm solves it
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = rng.integers(4, 40)
            gamma_c = rng.uniform(0.01, 1000, n)
            gamma_s = rng.uniform(0.01, 1000, n)
            eta = rng.uniform(0, 0.1)
            p_max = rng.uniform(0.5 / n * 1.2, 0.45)
            mu, p = _budget_level(1.0, eta * _subcarrier_weights(n) * gamma_s, gamma_c, p_max)
            assert abs(p.sum() - 0.5) < 1e-10
            assert p.sum() <= 0.5  # the level is the feasible end of its bracket
            assert np.all(p >= 0) and np.all(p <= p_max + 1e-12)
            assert mu >= 0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            waterfill_comm(np.array([1.0, -2.0]), 0.4)

    @pytest.mark.parametrize("eta", [1e-12, 1e-9, 1e-6])
    def test_budget_small_scale(self, eta):
        # the psi_0 level near eta = 0: one ulp of mu moves sum p by more
        # than POWER_SUM_TOL, and the allocation tends to the sensing LP
        k2gs = _subcarrier_weights(7) * N16_GAMMA_S
        mu, p = _budget_level(eta, k2gs, N16_GAMMA_C, N16_P_MAX)
        assert abs(p.sum() - 0.5) <= 1e-12
        assert np.all(p >= 0) and np.all(p <= N16_P_MAX)
        assert_allclose(p, sensing_lp(N16_GAMMA_S, N16_P_MAX), rtol=0, atol=1e-12)


class TestSensingLp:
    def test_n8_example(self):
        # N=8: three data bins, p_max = 0.2, flat gamma_s: ranks follow k^2
        p = sensing_lp(np.ones(3), 0.2)
        assert_allclose(p, [0.1, 0.2, 0.2], rtol=0, atol=1e-15)

    def test_n1024_counts(self):
        gamma_s = np.ones(511)
        p = sensing_lp(gamma_s, 0.01)
        at_cap = int(np.sum(p == 0.01))
        # l_m = 462: 49 capped ranks above the boundary, boundary remainder
        # 0.5 - 49*0.01 = 0.01 lands exactly at the cap as well
        assert at_cap == 50
        assert int(np.sum(p == 0.0)) == 461
        assert p.sum() == pytest.approx(0.5, abs=1e-12)
        assert np.all(p[-50:] == 0.01)

    def test_exhaustive_vertex_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            gamma_s = rng.uniform(0.1, 10.0, 3)
            p_max = 0.2
            key = gamma_s * np.arange(1, 4) ** 2
            p = sensing_lp(gamma_s, p_max)
            best = -np.inf
            # vertices of {0 <= p <= p_max, sum p = 1/2}: at most one
            # fractional coordinate
            for capped in range(1 << 3):
                for frac in range(3):
                    if capped >> frac & 1:
                        continue
                    vertex = np.array([(capped >> i & 1) * p_max for i in range(3)])
                    rem = 0.5 - vertex.sum()
                    if -1e-12 <= rem <= p_max + 1e-12:
                        vertex[frac] = min(max(rem, 0.0), p_max)
                        if abs(vertex.sum() - 0.5) < 1e-12:
                            best = max(best, float(key @ vertex))
            assert key @ p == pytest.approx(best, rel=1e-12)

    def test_never_beaten_by_feasible_vertex(self):
        # a linear objective over {0 <= p <= p_max, sum p = 1/2} peaks at a
        # vertex; with p_max = 0.06 and 15 bins every vertex has 8 bins at
        # the cap and one at the remaining 0.02: C(15, 8) * 7 = 45 045
        rng = np.random.default_rng(6)
        gamma_s = rng.uniform(0.5, 2.0, 15)
        p_max = 0.06
        key = gamma_s * np.arange(1, 16) ** 2
        p_star = sensing_lp(gamma_s, p_max)
        capped = np.array(list(itertools.combinations(range(15), 8)))
        free = np.ones((len(capped), 15), dtype=bool)
        free[np.arange(len(capped))[:, None], capped] = False
        rest = np.nonzero(free)[1].reshape(len(capped), 7)
        values = p_max * key[capped].sum(axis=1)[:, None] + (0.5 - 8 * p_max) * key[rest]
        assert values.size == 45_045
        assert key @ p_star == pytest.approx(values.max(), rel=1e-12)

    def test_stable_tiebreak(self):
        # equal keys: lower k keeps the lower rank, deterministically
        k2 = np.arange(1, 6) ** 2
        gamma_s = 1.0 / k2  # all keys equal
        p1 = sensing_lp(gamma_s, 0.2)
        p2 = sensing_lp(gamma_s, 0.2)
        assert_allclose(p1, p2, rtol=0, atol=0)
        assert_allclose(p1, [0.0, 0.0, 0.1, 0.2, 0.2], rtol=0, atol=1e-15)

    def test_invariant_rejected(self):
        with pytest.raises(ValueError):
            sensing_lp(np.ones(3), 0.12)  # 3 * 0.12 < 1/2


class TestDualIterateComm:
    def test_oracle_fixture_case_a(self):
        p, mu = waterfill_comm(N16_GAMMA_C, N16_P_MAX)
        assert np.max(np.abs(p - ORACLE_P_A)) < 1e-5
        assert mu == pytest.approx(ORACLE_MU_A, rel=1e-5)

    def test_oracle_fixture_case_c(self):
        duals, trace, p = comm_duals(
            N16_GAMMA_C, N16_GAMMA_S, N16_INFO_TARGET, N16_P_MAX
        )
        assert np.max(np.abs(p - ORACLE_P_C)) < 1e-5
        assert duals.mu == pytest.approx(ORACLE_MU_C, rel=1e-5)
        assert duals.eta == pytest.approx(ORACLE_ETA_C, rel=1e-5)

    def test_lemma2_region(self):
        duals, trace, _ = comm_duals(
            N16_GAMMA_C, N16_GAMMA_S, N16_INFO_TARGET, N16_P_MAX
        )
        k2gs = _subcarrier_weights(7) * N16_GAMMA_S
        for mu, eta in zip(trace.mu[1:], trace.eta[1:]):
            assert np.min(k2gs) * eta <= mu + 1e-9 * max(mu, 1.0)
            assert mu <= np.max(k2gs * eta + N16_GAMMA_C) + 1e-9 * max(mu, 1.0)


class TestDualIterateSense:
    def test_oracle_fixture_case_f(self):
        duals, trace, p = sense_duals(
            N16_GAMMA_C, N16_GAMMA_S, N16_CAP_TARGET_NATS, N16_P_MAX
        )
        assert np.max(np.abs(p - ORACLE_P_F)) < 1e-5
        assert duals.mu == pytest.approx(ORACLE_MU_F, rel=1e-5)
        assert duals.eta == pytest.approx(ORACLE_ETA_F, rel=1e-5)

    def test_defining_equations(self):
        duals, _, p = sense_duals(
            N16_GAMMA_C, N16_GAMMA_S, N16_CAP_TARGET_NATS, N16_P_MAX
        )
        assert abs(p.sum() - 0.5) / 0.5 < 1e-8
        cap = float(np.sum(np.log1p(N16_GAMMA_C * p)))
        assert abs(cap - N16_CAP_TARGET_NATS) / N16_CAP_TARGET_NATS < 1e-8


N16_K2GS = _subcarrier_weights(7) * N16_GAMMA_S
N16_DUALS = {
    # dual solver, its allocation rule p(mu, eta), the floored metric, the floor
    "comm": (comm_duals,
             lambda mu, eta: _kkt_rule(1.0, eta * N16_K2GS, N16_GAMMA_C, N16_P_MAX)[0](mu),
             lambda p: float(np.sum(N16_K2GS * p)), N16_INFO_TARGET),
    "sense": (sense_duals,
              lambda mu, eta: _kkt_rule(eta, N16_K2GS, N16_GAMMA_C, N16_P_MAX)[0](mu),
              lambda p: float(np.sum(np.log1p(N16_GAMMA_C * p))), N16_CAP_TARGET_NATS),
}


@pytest.mark.parametrize("mode", sorted(N16_DUALS))
class TestCoupledDuals:
    def test_feasible_by_construction(self, mode):
        solve, rule, metric, target = N16_DUALS[mode]
        duals, trace, p = solve(N16_GAMMA_C, N16_GAMMA_S, target, N16_P_MAX)
        assert abs(p.sum() - 0.5) <= 1e-12
        assert metric(p) >= target
        assert metric(p) <= target * (1 + 1e-8)
        # the floored metric does not decrease with eta over the evaluations
        order = np.argsort(trace.eta, kind="stable")
        s = [metric(rule(trace.mu[j], trace.eta[j])) for j in order]
        assert np.all(np.diff(s) >= 0)
        assert (duals.mu, duals.eta) in zip(trace.mu, trace.eta)

    def test_iteration_cap(self, mode, monkeypatch):
        monkeypatch.setattr(allocator, "MAX_DUAL_ITER", 1)
        solve, _, _, target = N16_DUALS[mode]
        with pytest.raises(DualIterationError) as exc:
            solve(N16_GAMMA_C, N16_GAMMA_S, target, N16_P_MAX)
        assert len(exc.value.trace.mu) == len(exc.value.trace.eta) == 1

    def test_lower_end_solved_once(self, mode, monkeypatch):
        # the BCD step hands its eta = 0 end (the water-filling level or the
        # sensing LP) to the dual instead of solving it a second time
        calls = {"_budget_level": 0, "sensing_lp": 0}
        for name in calls:
            def counted(*args, _real=getattr(allocator, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(allocator, name, counted)
        _, case, _, trace = allocator._subcarrier_step(
            mode == "comm", N16_GAMMA_C, N16_GAMMA_S, N16_DUALS[mode][3], N16_P_MAX)
        assert case == {"comm": CASE_C, "sense": CASE_F}[mode]
        # comm: the eta = 0 level is the trace's first entry; sense: one
        # water-filling tells case F from the infeasible case E
        assert calls == {"_budget_level": len(trace.eta) + (mode == "sense"),
                         "sensing_lp": 1}


class TestFloorJustAboveUncoupled:
    """A floor 1e-13 relative above what the uncoupled allocation reaches
    (water-filling for comm, sensing LP for sense) is not met by it: the
    step falls through to the coupled case, which meets the floor."""

    def test_comm_case_c(self):
        p_wf, _ = waterfill_comm(N16_GAMMA_C, N16_P_MAX)
        floor = float(np.sum(N16_K2GS * p_wf)) * (1.0 + 1e-13)
        p, case, _, _ = _subcarrier_step(True, N16_GAMMA_C, N16_GAMMA_S, floor, N16_P_MAX)
        assert case == CASE_C
        assert float(np.sum(N16_K2GS * p)) >= floor

    def test_sense_case_f(self):
        p_lp = sensing_lp(N16_GAMMA_S, N16_P_MAX)
        floor = float(np.sum(np.log1p(N16_GAMMA_C * p_lp))) * (1.0 + 1e-13)
        p, case, _, trace = _subcarrier_step(False, N16_GAMMA_C, N16_GAMMA_S, floor, N16_P_MAX)
        assert case == CASE_F
        assert float(np.sum(np.log1p(N16_GAMMA_C * p))) >= floor
        # the capacity equals the LP's on eta in [0, ~2.1]: the root-find
        # must bisect off that flat stretch, not creep up it by secant steps
        assert len(trace.eta) <= 100


def _desk_spec_comm(model, precision_m, p_max=0.04):
    return ProblemSpec.comm_centric(precision_m=precision_m, p_max=p_max)


class TestSolveP1P2:
    def test_unconstrained_floor_degenerates_to_waterfill(self, desk_model):
        spec = ProblemSpec(mode="comm", p_max=0.04, varsigma0_sq=0.0)
        sol = solve_p1(spec, desk_model)
        assert sol.case_tag == CASE_A
        snr = desk_model.snr(sol.b_opt, sol.p_norm)
        p_wf, _ = waterfill_comm(snr.gamma_c, 0.04)
        assert np.max(np.abs(sol.p_norm - p_wf)) < 1e-9
        assert sol.converged

    def test_boundary_floor_stays_case_a(self, desk_model):
        spec0 = ProblemSpec(mode="comm", p_max=0.04, varsigma0_sq=0.0)
        base = solve_p1(spec0, desk_model)
        spec = ProblemSpec(mode="comm", p_max=0.04,
                           varsigma0_sq=base.metrics.fisher_tau)
        sol = solve_p1(spec, desk_model)
        assert sol.case_tag == CASE_A
        assert np.max(np.abs(sol.p_norm - base.p_norm)) < 1e-6

    def test_just_active_floor_matches_case_a(self, desk_model):
        spec0 = ProblemSpec(mode="comm", p_max=0.04, varsigma0_sq=0.0)
        base = solve_p1(spec0, desk_model)
        spec = ProblemSpec(mode="comm", p_max=0.04,
                           varsigma0_sq=base.metrics.fisher_tau * (1 + 1e-9))
        sol = solve_p1(spec, desk_model)
        assert sol.case_tag == CASE_C
        assert sol.duals.eta < 1e-6 * sol.duals.mu
        assert np.max(np.abs(sol.p_norm - base.p_norm)) < 1e-6

    def test_infeasible_precision(self, desk_model):
        with pytest.raises(InfeasibleProblem):
            solve_p1(_desk_spec_comm(desk_model, 0.05), desk_model)

    def test_zero_capacity_floor_gives_lp(self, desk_model):
        spec = ProblemSpec(mode="sense", p_max=0.04, c0_bps_hz=0.0)
        sol = solve_p2(spec, desk_model)
        assert sol.case_tag == CASE_D
        snr = desk_model.snr(sol.b_opt, sol.p_norm)
        assert np.max(np.abs(sol.p_norm - sensing_lp(snr.gamma_s, 0.04))) < 1e-12

    def test_capacity_floor_above_waterfill_infeasible(self, desk_model):
        spec = ProblemSpec(mode="sense", p_max=0.04, c0_bps_hz=50.0)
        with pytest.raises(InfeasibleProblem):
            solve_p2(spec, desk_model)

    def test_deterministic(self, desk_model):
        spec = _desk_spec_comm(desk_model, 0.12)
        a = solve_p1(spec, desk_model)
        b = solve_p1(spec, desk_model)
        assert a.b_opt == b.b_opt
        assert np.array_equal(a.p_norm, b.p_norm)

    def test_solution_invariants(self, desk_model):
        spec = _desk_spec_comm(desk_model, 0.12)
        sol = solve_p1(spec, desk_model)
        assert sol.case_tag == CASE_C
        assert abs(sol.p_norm.sum() - 0.5) < 1e-9
        assert np.all(sol.p_norm >= 0)
        assert np.all(sol.p_norm <= spec.p_max + 1e-12)
        # active floor satisfied within 1e-6 relative, metrics refreshed
        assert sol.metrics.fisher_tau >= spec.varsigma0_sq * (1 - 1e-6)
        assert sol.duals.mu > 0 and sol.duals.eta > 0

    def test_mode_mismatch(self, desk_model):
        spec = ProblemSpec(mode="sense", p_max=0.04, c0_bps_hz=0.1)
        with pytest.raises(ValueError):
            solve_p1(spec, desk_model)
        with pytest.raises(ValueError):
            solve_p2(_desk_spec_comm(desk_model, 0.12), desk_model)
        # a shared first step carries its mode: the capacity search's step
        # is refused by a sensing solve, and its own gives the cold solve
        spec = ProblemSpec(mode="sense", p_max=0.04, c0_bps_hz=0.3)
        with pytest.raises(ValueError, match="first_step"):
            solve_p2(spec, desk_model, first_bias_step(MODE_COMM, desk_model))
        shared = solve_p2(spec, desk_model, first_bias_step(MODE_SENSE, desk_model))
        cold = solve_p2(spec, desk_model)
        assert shared.b_opt == cold.b_opt and shared.iterations == cold.iterations
        assert np.array_equal(shared.p_norm, cold.p_norm)

    def test_problem_spec_validation(self, desk_cfg):
        with pytest.raises(ValueError):
            ProblemSpec(mode="comm", p_max=0.6, varsigma0_sq=1.0)
        with pytest.raises(ValueError):
            ProblemSpec(mode="comm", p_max=0.1)
        with pytest.raises(ValueError):
            ProblemSpec(mode="both", p_max=0.1, varsigma0_sq=1.0)
        spec = ProblemSpec(mode="comm", p_max=1e-3, varsigma0_sq=1.0)
        with pytest.raises(ValueError):
            spec.validate_against(desk_cfg)


def closed_form_rule(mu, scale, shift, gamma_c, p_max):
    """p = {scale / max(mu - shift, scale / (p_max + 1/g_c)) - 1/g_c}^+ capped
    at p_max, evaluated whole at each level: the oracle of `_kkt_rule`."""
    inv_gc = 1.0 / gamma_c
    level = np.maximum(mu - shift, scale / (p_max + inv_gc))
    return np.clip(scale / level - inv_gc, 0.0, p_max)


class TestAllocationRules:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), eta=st.floats(0.0, 1.0))
    def test_comm_rule_box(self, seed, eta):
        rng = np.random.default_rng(seed)
        n = 9
        gamma_c = rng.uniform(0.1, 100, n)
        gamma_s = rng.uniform(0.1, 100, n)
        k2gs = _subcarrier_weights(n) * gamma_s
        fill, _, _ = _kkt_rule(1.0, eta * k2gs, gamma_c, 0.1)
        p = fill(rng.uniform(0.1, 50))
        assert np.all(p >= 0) and np.all(p <= 0.1 + 1e-12)

    def test_sense_rule_requires_positive_eta(self):
        for scale in (0.0, -0.0, -1e-300, -2.0):
            with pytest.raises(ValueError):
                # psi_0 rule at eta <= 0: scale eta, shift k^2 g_s
                _kkt_rule(scale, _subcarrier_weights(3) * np.ones(3), np.ones(3), 0.2)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rule=st.sampled_from(["comm", "sense", "waterfill"]),
           log_eta=st.floats(-6.0, 6.0), p_max=st.floats(0.005, 0.25), n=st.integers(1, 64))
    def test_rule_matches_closed_form_bit_for_bit(self, seed, rule, log_eta, p_max, n):
        # the rule built once per (scale, shift) rounds as the one-line
        # closed form does, at levels below, inside and above its bracket
        rng = np.random.default_rng(seed)
        gamma_c = 10.0 ** rng.uniform(-2.0, 4.0, n)
        k2gs = _subcarrier_weights(n) * 10.0 ** rng.uniform(-2.0, 4.0, n)
        eta = 10.0**log_eta
        scale, shift = {"comm": (1.0, eta * k2gs), "sense": (eta, k2gs),
                        "waterfill": (1.0, 0.0)}[rule]
        fill, lo, hi = _kkt_rule(scale, shift, gamma_c, p_max)
        assert lo == float(np.min(shift + scale / (p_max + 1.0 / gamma_c)))
        assert hi == float(np.max(shift + scale * gamma_c))
        levels = [0.5 * lo, math.nextafter(lo, 0.0), lo, math.nextafter(lo, math.inf),
                  *(lo + (hi - lo) * rng.uniform(size=8)),
                  math.nextafter(hi, 0.0), hi, math.nextafter(hi, math.inf), 2.0 * hi]
        for mu in levels:
            assert_array_equal(fill(mu), closed_form_rule(mu, scale, shift, gamma_c, p_max))
