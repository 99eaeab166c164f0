"""Joint DC-bias and subcarrier power-allocation solvers.

Two problems share one structure: maximize one metric subject to a floor on
the other, a per-subcarrier cap, and a total-power budget.  A block
coordinate descent alternates a golden-section search over the DC bias
(clipping statistics recomputed at every candidate) with a convex
subcarrier sub-problem solved in closed form from its KKT conditions.  The
sub-problem splits into cases: unconstrained water-filling (A) or sensing
LP (D), the feasibility probe (B/E), and the coupled case (C/F) with two
dual variables: for each floor dual eta the budget level mu(eta) spends the
power exactly, and a bracketed root-find on eta returns the feasible end of
its final bracket, so the floor holds by construction.

Internally the capacity constraint is handled in nats so the KKT allocation
rules keep their clean algebraic form; reported spectral efficiencies are
bits/s/Hz throughout.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .clipping import SnrProfile
from .config import OfdmConfig
from .metrics import (
    MetricReport,
    metric_report,
    spectral_efficiency,
    fisher_information,
    varsigma_sq_from_precision,
)
from .system import SystemModel

MODE_COMM = "comm"
MODE_SENSE = "sense"

CASE_A, CASE_B, CASE_C = "A", "B", "C"
CASE_D, CASE_E, CASE_F = "D", "E", "F"

BIAS_TOL_FACTOR = 1e-4
POWER_SUM_TOL = 1e-12
DUAL_RESIDUAL_TOL = 1e-8
FLOOR_SLACK = 1e-10  # relative overshoot of the floor at which the eta search stops
MAX_OUTER_BCD = 50
MAX_DUAL_ITER = 1000
ACTIVE_SLACK = 1e-12


class InfeasibleProblem(Exception):
    """The metric floor cannot be met by any feasible allocation."""


class DivergenceAborted(Exception):
    """The BCD loop failed to converge within the iteration cap."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class DualIterationError(DivergenceAborted):
    """The root-find on eta exceeded MAX_DUAL_ITER evaluations; `trace`
    holds the evaluations made."""


@dataclass(frozen=True)
class DualVariables:
    mu: float
    eta: float

    def __post_init__(self):
        if self.mu < 0 or self.eta < 0:
            raise ValueError("dual variables must be non-negative")


@dataclass
class DualTrace:
    """One (mu(eta), eta) pair per outer evaluation, in evaluation order."""

    mu: list = field(default_factory=list)
    eta: list = field(default_factory=list)


@dataclass
class SolveTrace:
    """Per-outer-iteration record of the BCD loop."""

    objective: list = field(default_factory=list)
    bias: list = field(default_factory=list)
    cases: list = field(default_factory=list)
    constraint: list = field(default_factory=list)
    dual_traces: list = field(default_factory=list)
    flags: list = field(default_factory=list)


@dataclass(frozen=True)
class ProblemSpec:
    """Which metric to maximize and the floor on the other one.

    mode "comm" maximizes spectral efficiency under a sensing-information
    floor varsigma0_sq (delay-domain, 1/s^2); mode "sense" maximizes Fisher
    information under a spectral-efficiency floor c0_bps_hz.
    """

    mode: str
    p_max: float
    varsigma0_sq: float | None = None
    c0_bps_hz: float | None = None

    def __post_init__(self):
        if self.mode not in (MODE_COMM, MODE_SENSE):
            raise ValueError(f"mode must be '{MODE_COMM}' or '{MODE_SENSE}'")
        if not 0 < self.p_max < 0.5:
            raise ValueError("p_max must lie in (0, 1/2)")
        if self.mode == MODE_COMM and (self.varsigma0_sq is None or self.varsigma0_sq < 0):
            raise ValueError("comm mode needs a non-negative varsigma0_sq")
        if self.mode == MODE_SENSE and (self.c0_bps_hz is None or self.c0_bps_hz < 0):
            raise ValueError("sense mode needs a non-negative c0_bps_hz")

    @classmethod
    def comm_centric(cls, precision_m: float, p_max: float) -> "ProblemSpec":
        return cls(mode=MODE_COMM, p_max=p_max,
                   varsigma0_sq=varsigma_sq_from_precision(precision_m))

    @classmethod
    def sensing_centric(cls, c0_bps_hz: float, p_max: float) -> "ProblemSpec":
        return cls(mode=MODE_SENSE, p_max=p_max, c0_bps_hz=c0_bps_hz)

    def validate_against(self, cfg: OfdmConfig) -> None:
        # (N/2 - 1) p_max > 1/2 keeps the box and budget simultaneously
        # satisfiable with room for a non-trivial cap.
        if cfg.n_data_subcarriers * self.p_max <= 0.5:
            raise ValueError("p_max too small: (N/2-1) p_max must exceed 1/2")

    def info_threshold(self, cfg: OfdmConfig) -> float:
        """Sensing floor in allocation units: N varsigma0^2 / (8 pi^2 M df^2)."""
        return (
            cfg.n_subcarriers
            * self.varsigma0_sq
            / (8.0 * np.pi**2 * cfg.n_symbols * cfg.delta_f**2)
        )

    def capacity_threshold_nats(self, cfg: OfdmConfig) -> float:
        """Capacity floor as sum of per-subcarrier natural logs."""
        return self.c0_bps_hz * cfg.bandwidth_hz * cfg.total_symbol_s * math.log(2.0)


@dataclass
class AllocationSolution:
    b_opt: float
    p_norm: np.ndarray
    case_tag: str
    duals: DualVariables | None
    metrics: MetricReport
    trace: SolveTrace
    converged: bool
    iterations: int


def _subcarrier_weights(n_data: int) -> np.ndarray:
    k = np.arange(1, n_data + 1, dtype=float)
    return k * k


def golden_section_max(f, lo: float, hi: float, tol: float):
    """Golden-section maximizer on [lo, hi]; returns (x, f(x), evals)."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    evals = 2
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        evals += 1
    x = 0.5 * (a + b)
    return x, f(x), evals + 1


def solve_bias(objective: str, p_norm: np.ndarray, model: SystemModel):
    """Optimize the DC bias for a fixed allocation by golden search.

    The clipping statistics (and hence the SNR profile) are recomputed at
    every candidate bias.  A coarse grid probe guards against a
    non-unimodal objective; on detection the search falls back to a
    64-point scan plus local golden refinement and flags the event.
    """
    if objective not in ("capacity", "fisher"):
        raise ValueError("objective must be 'capacity' or 'fisher'")
    sqrt_p = math.sqrt(model.cfg.power_w)
    lo, hi = 0.0, sqrt_p * (1.0 - 1e-12)
    tol = BIAS_TOL_FACTOR * sqrt_p

    def f(b):
        snr = model.snr(b, p_norm)
        if objective == "capacity":
            return spectral_efficiency(snr, p_norm, model.cfg)
        return fisher_information(snr, p_norm, model.cfg)

    b_star, f_star, evals = golden_section_max(f, lo, hi, tol)
    fallback = False
    probe = np.linspace(lo, hi, 17)
    probe_vals = np.array([f(b) for b in probe])
    best = int(np.argmax(probe_vals))
    if probe_vals[best] > f_star + 1e-9 * max(abs(f_star), 1e-30):
        fallback = True
        grid = np.linspace(lo, hi, 64)
        grid_vals = np.array([f(b) for b in grid])
        g = int(np.argmax(grid_vals))
        g_lo = grid[max(g - 1, 0)]
        g_hi = grid[min(g + 1, grid.size - 1)]
        b_star, f_star, extra = golden_section_max(f, g_lo, g_hi, tol)
        evals += 64 + extra
    return b_star, {"evals": evals + 17, "grid_fallback": fallback}


def _fill(mu, scale, shift, gamma_c, p_max):
    """Shared KKT rule p = {scale / max(mu - shift, scale / (p_max + 1/g_c)) - 1/g_c}^+.

    scale = 1, shift = eta k^2 g_s is the xi_0 (comm) rule; scale = eta,
    shift = k^2 g_s is the psi_0 (sense) rule.  The level floor caps p at
    p_max, and a level at or above scale g_c gives p = 0.
    """
    inv_gc = 1.0 / gamma_c
    level = np.maximum(mu - shift, scale / (p_max + inv_gc))
    return np.clip(scale / level - inv_gc, 0.0, p_max)


def _comm_allocation(gamma_c, gamma_s, mu, eta, p_max):
    """xi_0 rule: p = {1/max(mu - eta k^2 g_s, 1/(p_max + 1/g_c)) - 1/g_c}^+."""
    k2gs = _subcarrier_weights(gamma_s.size) * gamma_s
    return _fill(mu, 1.0, eta * k2gs, gamma_c, p_max)


def _sense_allocation(gamma_c, gamma_s, mu, eta, p_max):
    """psi_0 rule: p = {1/max((mu - k^2 g_s)/eta, 1/(p_max + 1/g_c)) - 1/g_c}^+."""
    if eta <= 0:
        raise ValueError("psi_0 rule needs eta > 0; the eta = 0 limit is the sensing LP")
    k2gs = _subcarrier_weights(gamma_s.size) * gamma_s
    return _fill(mu, eta, k2gs, gamma_c, p_max)


def _budget_level(scale, shift, gamma_c, p_max):
    """Level mu at which the shared rule spends exactly the budget 1/2.

    sum p(mu) falls monotonically from n p_max (every level at its floor)
    to 0 (every level at or above scale g_c); Brent's method finds the
    crossing to a few ulps of mu.  Returns (mu, p).
    """
    lo = float(np.min(shift + scale / (p_max + 1.0 / gamma_c)))
    hi = float(np.max(shift + scale * gamma_c))

    def excess(mu):
        return float(np.sum(_fill(mu, scale, shift, gamma_c, p_max))) - 0.5

    mu = brentq(excess, lo, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)
    p = _fill(mu, scale, shift, gamma_c, p_max)
    if abs(p.sum() - 0.5) > POWER_SUM_TOL:
        raise RuntimeError("budget level failed to meet the power sum")
    return mu, p


def waterfill_comm(
    gamma_c: np.ndarray,
    gamma_s: np.ndarray,
    eta: float,
    p_max: float,
):
    """Capped water-filling at fixed eta: the xi_0 level mu with sum p = 1/2.

    Returns (p_norm, mu); the budget is met within POWER_SUM_TOL.
    """
    gamma_c = np.asarray(gamma_c, dtype=float)
    gamma_s = np.asarray(gamma_s, dtype=float)
    if np.any(gamma_c <= 0) or np.any(gamma_s < 0):
        raise ValueError("gamma_c must be positive and gamma_s non-negative")
    if eta < 0:
        raise ValueError("eta must be non-negative")
    if gamma_c.size * p_max < 0.5:
        raise ValueError("infeasible target: caps sum below the power budget")
    k2gs = _subcarrier_weights(gamma_s.size) * gamma_s
    mu, p = _budget_level(1.0, eta * k2gs, gamma_c, p_max)
    return p, mu


def sensing_lp(gamma_s: np.ndarray, p_max: float) -> np.ndarray:
    """Sensing-optimal allocation: cap the highest k^2 gamma_s(k) ranks.

    Subcarriers are sorted ascending by k^2 gamma_s(k) (stable, lower k
    first on ties); the top N/2 - 1 - l_m ranks get p_max, rank l_m the
    remainder, everything below zero, with l_m = floor(N/2 - 1/(2 p_max)).
    """
    gamma_s = np.asarray(gamma_s, dtype=float)
    n_data = gamma_s.size
    if not 0 < p_max < 0.5 < n_data * p_max:
        raise ValueError("need 0 < p_max < 1/2 < (N/2-1) p_max")
    key = _subcarrier_weights(n_data) * gamma_s
    order = np.argsort(key, kind="stable")
    l_m = math.floor((n_data + 1) - 1.0 / (2.0 * p_max))
    remainder = 0.5 - (n_data - l_m) * p_max
    if not -1e-12 <= remainder <= p_max + 1e-12:
        raise RuntimeError("boundary-rank remainder out of range")
    p = np.zeros(n_data)
    p[order[l_m:]] = p_max
    p[order[l_m - 1]] = min(max(remainder, 0.0), p_max)
    return p


def _traced(solve_at, trace):
    """Wrap solve_at(eta) -> (S, mu) so each call is one recorded, capped
    outer evaluation."""

    def evaluate(eta):
        if len(trace.eta) >= MAX_DUAL_ITER or not math.isfinite(eta):
            raise DualIterationError(
                f"dual root-find exceeded {MAX_DUAL_ITER} eta evaluations", trace=trace
            )
        s, mu = solve_at(eta)
        trace.mu.append(mu)
        trace.eta.append(eta)
        return s, mu

    return evaluate


def _raise_to_floor(evaluate, target, s0, eta):
    """Smallest eta with S(eta) >= target, for non-decreasing S with S(0) = s0 < target.

    evaluate(eta) returns (S(eta), mu(eta)).  The upper end doubles from
    the given eta until it meets the floor; Anderson-Bjorck regula falsi
    then shrinks [lo, hi] keeping S(lo) < target <= S(hi), until S(hi) is
    within FLOOR_SLACK of the target or no float is left inside the
    bracket.  Returns (eta, mu) at the feasible end hi.
    """
    lo, f_lo = 0.0, s0 - target
    s, mu = evaluate(eta)
    while s < target:
        lo, f_lo = eta, s - target
        eta *= 2.0
        s, mu = evaluate(eta)
    hi, f_hi, mu_hi, slack = eta, s - target, mu, s - target
    side = None
    while slack > FLOOR_SLACK * target:
        eta = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < eta < hi:
            eta = 0.5 * (lo + hi)
            if not lo < eta < hi:
                break
        s, mu = evaluate(eta)
        f = s - target
        # Anderson-Bjorck: an end kept twice in a row has its value scaled
        # down, so the next secant point lands on its side
        if f >= 0.0:
            if side == "hi":
                m = 1.0 - f / f_hi
                f_lo *= m if m > 0.0 else 0.5
            hi, f_hi, mu_hi, slack, side = eta, f, mu, f, "hi"
        else:
            if side == "lo":
                m = 1.0 - f / f_lo
                f_hi *= m if m > 0.0 else 0.5
            lo, f_lo, side = eta, f, "lo"
    return hi, mu_hi


def dual_iterate_comm(
    gamma_c: np.ndarray,
    gamma_s: np.ndarray,
    target_info: float,
    p_max: float,
):
    """Duals (mu, eta) of the coupled comm case, feasible by construction.

    For each eta the budget level mu(eta) spends the power exactly; the
    sensing information S(eta) = sum k^2 g_s p(mu(eta), eta) does not
    decrease with eta, so a bracketed root-find on eta from eta = 0 meets
    the floor.  The returned pair is the feasible end of the final bracket:
    its xi_0 allocation meets the floor with >= at the given SNRs.
    """
    gamma_c = np.asarray(gamma_c, dtype=float)
    gamma_s = np.asarray(gamma_s, dtype=float)
    k2gs = _subcarrier_weights(gamma_s.size) * gamma_s
    if np.min(k2gs) <= 0:
        raise ValueError("gamma_s must be strictly positive in the coupled case")

    def sensing_info(eta):
        mu, p = _budget_level(1.0, eta * k2gs, gamma_c, p_max)
        return float(np.sum(k2gs * p)), mu

    trace = DualTrace()
    evaluate = _traced(sensing_info, trace)
    s0, mu0 = evaluate(0.0)
    if s0 >= target_info:
        return DualVariables(mu=mu0, eta=0.0), trace
    # first guess: eta k^2 g_s reaches the eta = 0 level on the best sensing bin
    eta, mu = _raise_to_floor(evaluate, target_info, s0, mu0 / float(np.max(k2gs)))
    return DualVariables(mu=mu, eta=eta), trace


def dual_iterate_sense(
    gamma_c: np.ndarray,
    gamma_s: np.ndarray,
    target_cap_nats: float,
    p_max: float,
):
    """Duals (mu, eta) of the coupled sensing case, feasible by construction.

    Mirrors the comm version with the psi_0 rule: the capacity
    sum ln(1 + g_c p(mu(eta), eta)) does not decrease with eta and tends to
    that of the sensing LP as eta -> 0, which is the lower bracket end.
    """
    gamma_c = np.asarray(gamma_c, dtype=float)
    gamma_s = np.asarray(gamma_s, dtype=float)
    k2gs = _subcarrier_weights(gamma_s.size) * gamma_s
    s0 = float(np.sum(np.log1p(gamma_c * sensing_lp(gamma_s, p_max))))
    if s0 >= target_cap_nats:
        raise ValueError("the sensing LP meets the capacity floor: not the coupled case")

    def capacity(eta):
        mu, p = _budget_level(eta, k2gs, gamma_c, p_max)
        return float(np.sum(np.log1p(gamma_c * p))), mu

    trace = DualTrace()
    # psi_0 levels (mu - k^2 g_s) / eta sit on the scale of g_c
    eta, mu = _raise_to_floor(_traced(capacity, trace), target_cap_nats, s0,
                              float(np.max(k2gs) / np.max(gamma_c)))
    return DualVariables(mu=mu, eta=eta), trace


def _subcarrier_step_comm(gamma_c, gamma_s, info_floor, p_max):
    """Case analysis A -> B -> C for the comm-centric sub-problem."""
    k2gs = _subcarrier_weights(gamma_s.size) * gamma_s
    p_wf, mu = waterfill_comm(gamma_c, gamma_s, 0.0, p_max)
    if float(np.sum(k2gs * p_wf)) >= info_floor * (1.0 - ACTIVE_SLACK):
        return p_wf, CASE_A, DualVariables(mu=mu, eta=0.0), None
    p_lp = sensing_lp(gamma_s, p_max)
    if float(np.sum(k2gs * p_lp)) < info_floor:
        raise InfeasibleProblem(
            "sensing floor exceeds the best achievable information"
        )
    duals, dtrace = dual_iterate_comm(gamma_c, gamma_s, info_floor, p_max)
    p = _comm_allocation(gamma_c, gamma_s, duals.mu, duals.eta, p_max)
    return p, CASE_C, duals, dtrace


def _subcarrier_step_sense(gamma_c, gamma_s, cap_floor_nats, p_max):
    """Case analysis D -> E -> F for the sensing-centric sub-problem."""
    p_lp = sensing_lp(gamma_s, p_max)
    if float(np.sum(np.log1p(gamma_c * p_lp))) >= cap_floor_nats * (1.0 - ACTIVE_SLACK):
        return p_lp, CASE_D, None, None
    p_wf, _ = waterfill_comm(gamma_c, gamma_s, 0.0, p_max)
    if float(np.sum(np.log1p(gamma_c * p_wf))) < cap_floor_nats:
        raise InfeasibleProblem(
            "capacity floor exceeds the water-filling capacity"
        )
    duals, dtrace = dual_iterate_sense(gamma_c, gamma_s, cap_floor_nats, p_max)
    p = _sense_allocation(gamma_c, gamma_s, duals.mu, duals.eta, p_max)
    return p, CASE_F, duals, dtrace


def _solve_bcd(spec: ProblemSpec, model: SystemModel) -> AllocationSolution:
    cfg = model.cfg
    spec.validate_against(cfg)
    comm = spec.mode == MODE_COMM
    objective = "capacity" if comm else "fisher"
    floor = spec.info_threshold(cfg) if comm else spec.capacity_threshold_nats(cfg)
    k2 = _subcarrier_weights(cfg.n_data_subcarriers)

    def constraint_of(snr, p):
        if comm:
            return float(np.sum(k2 * snr.gamma_s * p))
        return float(np.sum(np.log1p(snr.gamma_c * p)))

    p = np.full(cfg.n_data_subcarriers, 0.5 / cfg.n_data_subcarriers)
    trace = SolveTrace()
    obj_prev = None
    eps = None
    b = 0.5 * math.sqrt(cfg.power_w)
    case = duals = None
    converged = False
    iterations = 0

    for i in range(MAX_OUTER_BCD):
        b, bias_info = solve_bias(objective, p, model)
        snr = model.snr(b, p)  # frozen through the subcarrier step
        try:
            if comm:
                p_new, case, duals, dtrace = _subcarrier_step_comm(
                    snr.gamma_c, snr.gamma_s, floor, spec.p_max
                )
            else:
                p_new, case, duals, dtrace = _subcarrier_step_sense(
                    snr.gamma_c, snr.gamma_s, floor, spec.p_max
                )
        except InfeasibleProblem as e:
            if i == 0:
                raise
            # A later bias step made the floor unreachable.  The last iterate
            # met it at the SNRs frozen for its step; keep it only if it also
            # meets it at its own SNRs.
            b = trace.bias[-1]
            held = constraint_of(model.snr(b, p), p)
            if held < floor * (1.0 - DUAL_RESIDUAL_TOL):
                raise InfeasibleProblem(
                    f"floor unreachable at BCD step {i}, and the last iterate "
                    f"misses it by {1.0 - held / floor:.3g} (relative) at its own SNRs"
                ) from e
            trace.flags.append("reverted_infeasible")
            break
        obj = (spectral_efficiency if comm else fisher_information)(snr, p_new, cfg)
        constraint = constraint_of(snr, p_new)
        trace.objective.append(obj)
        trace.bias.append(b)
        trace.cases.append(case)
        trace.constraint.append(constraint)
        trace.dual_traces.append(dtrace)
        if bias_info["grid_fallback"]:
            trace.flags.append(f"bias_grid_fallback@{i}")
        p = p_new
        iterations = i + 1
        if eps is None:
            eps = 1e-6 * max(abs(obj), 1e-300)
        if obj_prev is not None and abs(obj - obj_prev) < eps:
            converged = True
            break
        obj_prev = obj
    if not converged and iterations >= MAX_OUTER_BCD:
        raise DivergenceAborted(
            f"BCD did not converge within {MAX_OUTER_BCD} iterations", trace=trace
        )

    report = model.metrics(b, p)
    return AllocationSolution(
        b_opt=b,
        p_norm=p,
        case_tag=case,
        duals=duals,
        metrics=report,
        trace=trace,
        converged=converged,
        iterations=iterations,
    )


def solve_p1(spec: ProblemSpec, model: SystemModel) -> AllocationSolution:
    """Communication-centric solve: max C subject to the sensing floor."""
    if spec.mode != MODE_COMM:
        raise ValueError("solve_p1 needs a comm-centric ProblemSpec")
    return _solve_bcd(spec, model)


def solve_p2(spec: ProblemSpec, model: SystemModel) -> AllocationSolution:
    """Sensing-centric solve: max Fisher information subject to a capacity floor."""
    if spec.mode != MODE_SENSE:
        raise ValueError("solve_p2 needs a sensing-centric ProblemSpec")
    return _solve_bcd(spec, model)
