"""Joint DC-bias and subcarrier power-allocation solvers.

P1 (mode "comm") maximizes spectral efficiency under a floor on the delay
Fisher information; P2 (mode "sense") maximizes the Fisher information
under a spectral-efficiency floor.  Both also have a per-subcarrier cap and
a total-power budget, and one solver serves both: the mode only picks which
metric is floored (`_floored`) and which KKT rule spends the power.  A
block coordinate descent alternates a golden-section search over the DC
bias (clipping statistics recomputed at every candidate) with a convex
subcarrier sub-problem solved in closed form from its KKT conditions.

The sub-problem (`_subcarrier_step`) splits into cases.  The uncoupled
optimum, water-filling for P1 (case A) or the sensing LP for P2 (D), is
kept if it meets the floor.  Otherwise the other one is the feasibility
probe (B/E): if even it misses the floor, no allocation meets it.  What is
left is the coupled case (C/F) with two dual variables: for each floor
dual eta a root-find on the budget level mu(eta) spends the power to
within POWER_SUM_TOL, and a root-find on eta (`_coupled`) meets the floor.
Both levels use one bracketed root-finder that returns the feasible end of
its final bracket with the allocation evaluated there, so the returned
allocation meets the budget and the floor by construction.  Both KKT rules
are one closed form (`_kkt_rule`), built once per eta: the terms that do
not depend on mu and the bracket of the budget level are computed there,
and each mu evaluation is one clamped reciprocal.

Internally the capacity constraint is handled in nats so the KKT allocation
rules keep their clean algebraic form; reported spectral efficiencies are
bits/s/Hz throughout.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .config import OfdmConfig
from .metrics import (
    MetricReport,
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
    """Per-outer-iteration record of the BCD loop: the bias and the dual
    trace (None outside the coupled case) of each step."""

    bias: list = field(default_factory=list)
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


def _kkt_rule(scale, shift, gamma_c, p_max):
    """Shared KKT rule p(mu) = {scale / max(mu - shift, cap) - 1/g_c}^+, capped at p_max.

    scale = 1, shift = eta k^2 g_s is the xi_0 (comm) rule; scale = eta,
    shift = k^2 g_s is the psi_0 (sense) rule.  The level floor
    cap = scale / (p_max + 1/g_c) gives p = p_max, and a level at or above
    scale g_c gives p = 0.  Everything that does not depend on mu is built
    here, once per (scale, shift).  Returns (fill, lo, hi): fill(mu) is the
    allocation at level mu, and [lo, hi] brackets the levels, from every
    bin at its cap (sum p = n p_max) to every bin at zero.
    """
    if scale <= 0:
        raise ValueError("the rule needs scale > 0; the eta = 0 limit of psi_0 is the sensing LP")
    inv_gc = 1.0 / gamma_c
    cap = scale / (p_max + inv_gc)

    def fill(mu):
        return np.minimum(np.maximum(scale / np.maximum(mu - shift, cap) - inv_gc, 0.0), p_max)

    return fill, float(np.min(shift + cap)), float(np.max(shift + scale * gamma_c))


def _feasible_root(f, lo, f_lo, hi, f_hi, at_hi, tol):
    """Feasible end of a root bracket of a non-decreasing function.

    f(x) returns (value, payload); f_lo < 0 <= f_hi, and at_hi is the
    payload at hi.  Anderson-Bjorck regula falsi shrinks [lo, hi] keeping
    f(lo) < 0 <= f(hi), until f(hi) <= tol or no float is left inside the
    bracket.  Returns (hi, payload at hi).
    """
    slack, side, flat = f_hi, None, False
    while slack > tol:
        if flat:
            # the last point repeated f(lo) exactly: lo sits on a flat
            # stretch of f, up which secant steps from lo would creep
            x = 0.5 * (lo + hi)
        else:
            # a secant point rounded onto an end means the root is within
            # a float or two of it: step one float inside the bracket instead
            x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
            x = min(max(x, math.nextafter(lo, hi)), math.nextafter(hi, lo))
        if not lo < x < hi:
            break
        fx, at_x = f(x)
        flat = fx == f_lo
        # Anderson-Bjorck: an end kept twice in a row has its value scaled
        # down, so the next secant point lands on its side
        if fx >= 0.0:
            if side == "hi":
                m = 1.0 - fx / f_hi
                f_lo *= m if m > 0.0 else 0.5
            hi, f_hi, at_hi, slack, side = x, fx, at_x, fx, "hi"
        else:
            if side == "lo":
                m = 1.0 - fx / f_lo
                f_hi *= m if m > 0.0 else 0.5
            lo, f_lo, side = x, fx, "lo"
    return hi, at_hi


def _budget_level(scale, shift, gamma_c, p_max):
    """Level mu at which the shared rule spends the budget 1/2.

    sum p(mu) falls monotonically from n p_max (every level at its floor)
    to 0 (every level at or above scale g_c).  `_feasible_root` keeps the
    feasible end, where sum p <= 1/2, and stops once it is within
    POWER_SUM_TOL of the budget or its bracket is two adjacent floats.
    Returns (mu, p).
    """
    fill, lo, hi = _kkt_rule(scale, shift, gamma_c, p_max)

    def unspent(mu):
        p = fill(mu)
        return 0.5 - float(p.sum()), p

    mu, p = _feasible_root(unspent, lo, 0.5 - gamma_c.size * p_max, hi, *unspent(hi),
                           POWER_SUM_TOL)
    if 0.5 - p.sum() > POWER_SUM_TOL:
        # The bracket closed on two adjacent floats, mu and one ulp below
        # it: at a small scale (the psi_0 rule near eta = 0) one ulp of mu
        # moves sum p by more than the tolerance.  The root lies between
        # them, and so does each p at the root: take the point of the
        # segment from p(mu) to p(mu - ulp) that spends the budget.
        p_below = fill(math.nextafter(mu, -math.inf))
        p = p + (0.5 - p.sum()) / (p_below.sum() - p.sum()) * (p_below - p)
    if abs(p.sum() - 0.5) > POWER_SUM_TOL:
        raise RuntimeError("budget level failed to meet the power sum")
    return mu, p


def waterfill_comm(gamma_c: np.ndarray, p_max: float):
    """Capped water-filling: the level mu at which
    p = min({1/mu - 1/g_c}^+, p_max) spends sum p = 1/2.

    This is the xi_0 rule at eta = 0; `dual_iterate_comm` solves the
    eta-shifted levels with `_budget_level` directly.  Returns (p_norm, mu);
    the budget is met within POWER_SUM_TOL.
    """
    gamma_c = np.asarray(gamma_c, dtype=float)
    if np.any(gamma_c <= 0):
        raise ValueError("gamma_c must be positive")
    if gamma_c.size * p_max < 0.5:
        raise ValueError("infeasible target: caps sum below the power budget")
    mu, p = _budget_level(1.0, 0.0, gamma_c, p_max)
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


def _floored(comm, gamma_c, k2gs, p):
    """The floored metric of an allocation: the information sum k^2 g_s p
    for comm, the capacity sum ln(1 + g_c p) in nats for sense."""
    if comm:
        return float((k2gs * p).sum())
    return float(np.log1p(gamma_c * p).sum())


def _coupled(comm, gamma_c, k2gs, floor, p_max, s0, eta, trace):
    """Smallest floor dual eta at which the budget-level allocation meets the floor.

    For each eta the budget level mu(eta) spends the power exactly; the
    floored metric S(eta) of its allocation does not decrease with eta.
    s0 = S(0) < floor is that of the uncoupled allocation (water-filling for
    comm, the sensing LP for sense), the lower bracket end.  The upper end
    doubles from the first guess eta until it meets the floor;
    `_feasible_root` then shrinks the bracket until S(hi) is within
    FLOOR_SLACK of the floor.  Every evaluation is recorded in `trace`, and
    DualIterationError is raised once it holds MAX_DUAL_ITER.  Returns
    (duals, trace, p) at the feasible end hi, where p is the allocation
    `_budget_level` evaluated, so it meets the floor with >= at the given SNRs.
    """
    if s0 >= floor:
        raise ValueError("the uncoupled allocation meets the floor: not the coupled case")

    def excess(eta):
        if len(trace.eta) >= MAX_DUAL_ITER or not math.isfinite(eta):
            raise DualIterationError(
                f"dual root-find exceeded {MAX_DUAL_ITER} eta evaluations", trace=trace
            )
        # xi_0 rule: scale 1, shift eta k^2 g_s; psi_0 rule: scale eta, shift k^2 g_s
        scale, shift = (1.0, eta * k2gs) if comm else (eta, k2gs)
        mu, p = _budget_level(scale, shift, gamma_c, p_max)
        trace.mu.append(mu)
        trace.eta.append(eta)
        return _floored(comm, gamma_c, k2gs, p) - floor, (mu, p)

    lo, f_lo = 0.0, s0 - floor
    f, at = excess(eta)
    while f < 0.0:
        lo, f_lo = eta, f
        eta *= 2.0
        f, at = excess(eta)
    eta, (mu, p) = _feasible_root(excess, lo, f_lo, eta, f, at, FLOOR_SLACK * floor)
    return DualVariables(mu=mu, eta=eta), trace, p


def dual_iterate_comm(gamma_c, k2gs, target_info, p_max, s0, mu0):
    """Coupled comm case C: `_coupled` with the xi_0 rule.

    s0 is the information of the water-filling allocation and mu0 its
    level, as `waterfill_comm` returns it; (mu0, 0) is the first entry of
    the trace.  Returns (duals, trace, p).
    """
    # first guess: eta k^2 g_s reaches the eta = 0 level on the best sensing bin
    return _coupled(True, gamma_c, k2gs, target_info, p_max, s0,
                    mu0 / float(np.max(k2gs)), DualTrace(mu=[mu0], eta=[0.0]))


def dual_iterate_sense(gamma_c, k2gs, target_cap_nats, p_max, s0):
    """Coupled sensing case F: `_coupled` with the psi_0 rule.

    s0 is the capacity of the sensing LP, the eta -> 0 limit of the rule.
    Returns (duals, trace, p).
    """
    # psi_0 levels (mu - k^2 g_s) / eta sit on the scale of g_c
    return _coupled(False, gamma_c, k2gs, target_cap_nats, p_max, s0,
                    float(np.max(k2gs) / np.max(gamma_c)), DualTrace())


def _subcarrier_step(comm, gamma_c, gamma_s, floor, p_max):
    """Case analysis A -> B -> C (comm) or D -> E -> F (sense) at frozen SNRs.

    The uncoupled allocation is water-filling for comm and the sensing LP
    for sense; the other one is the feasibility probe, computed only when
    the first misses the floor.  Returns (p, case, duals, dual trace).
    """
    k2gs = _subcarrier_weights(gamma_s.size) * gamma_s
    if comm:
        p, mu0 = waterfill_comm(gamma_c, p_max)
    else:
        p = sensing_lp(gamma_s, p_max)
    s0 = _floored(comm, gamma_c, k2gs, p)
    if s0 >= floor:
        if comm:
            return p, CASE_A, DualVariables(mu=mu0, eta=0.0), None
        return p, CASE_D, None, None
    probe = sensing_lp(gamma_s, p_max) if comm else waterfill_comm(gamma_c, p_max)[0]
    if _floored(comm, gamma_c, k2gs, probe) < floor:
        raise InfeasibleProblem(
            "sensing floor exceeds the best achievable information" if comm
            else "capacity floor exceeds the water-filling capacity"
        )
    if comm:
        duals, dtrace, p = dual_iterate_comm(gamma_c, k2gs, floor, p_max, s0, mu0)
        return p, CASE_C, duals, dtrace
    duals, dtrace, p = dual_iterate_sense(gamma_c, k2gs, floor, p_max, s0)
    return p, CASE_F, duals, dtrace


def first_bias_step(mode: str, model: SystemModel):
    """(mode, b, search info, SNRs at b) of the bias search at the uniform
    allocation that starts every BCD of `mode`; no floor enters it."""
    n = model.cfg.n_data_subcarriers
    p = np.full(n, 0.5 / n)
    b, info = solve_bias("capacity" if mode == MODE_COMM else "fisher", p, model)
    return mode, b, info, model.snr(b, p)


def _solve_bcd(spec: ProblemSpec, model: SystemModel, first_step) -> AllocationSolution:
    cfg = model.cfg
    spec.validate_against(cfg)
    comm = spec.mode == MODE_COMM
    objective = "capacity" if comm else "fisher"
    floor = spec.info_threshold(cfg) if comm else spec.capacity_threshold_nats(cfg)
    step = first_step if first_step is not None else first_bias_step(spec.mode, model)
    if step[0] != spec.mode:
        raise ValueError(f"first_step is of mode '{step[0]}', the problem of '{spec.mode}'")
    _, b, bias_info, snr = step
    trace = SolveTrace()
    obj_prev = None
    eps = None
    case = duals = None
    converged = False
    iterations = 0

    for i in range(MAX_OUTER_BCD):
        if i:
            b, bias_info = solve_bias(objective, p, model)
            snr = model.snr(b, p)  # frozen through the subcarrier step
        try:
            p_new, case, duals, dtrace = _subcarrier_step(
                comm, snr.gamma_c, snr.gamma_s, floor, spec.p_max
            )
        except InfeasibleProblem as e:
            if i == 0:
                raise
            # A later bias step made the floor unreachable.  The last iterate
            # met it at the SNRs frozen for its step; keep it only if it also
            # meets it at its own SNRs.
            b = trace.bias[-1]
            own = model.snr(b, p)
            held = _floored(comm, own.gamma_c, _subcarrier_weights(p.size) * own.gamma_s, p)
            if held < floor * (1.0 - DUAL_RESIDUAL_TOL):
                raise InfeasibleProblem(
                    f"floor unreachable at BCD step {i}, and the last iterate "
                    f"misses it by {1.0 - held / floor:.3g} (relative) at its own SNRs"
                ) from e
            trace.flags.append("reverted_infeasible")
            break
        obj = (spectral_efficiency if comm else fisher_information)(snr, p_new, cfg)
        trace.bias.append(b)
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


def solve_p1(spec: ProblemSpec, model: SystemModel, first_step=None) -> AllocationSolution:
    """P1, communication-centric: max C subject to the sensing floor (the
    BCD that `solve_p2` shares, with the comm-mode step); `first_step`, if
    given, is `first_bias_step(MODE_COMM, model)`, and another mode's raises."""
    if spec.mode != MODE_COMM:
        raise ValueError("solve_p1 needs a comm-centric ProblemSpec")
    return _solve_bcd(spec, model, first_step)


def solve_p2(spec: ProblemSpec, model: SystemModel, first_step=None) -> AllocationSolution:
    """P2, sensing-centric: max Fisher information subject to a capacity
    floor (the BCD that `solve_p1` shares, with the sense-mode step);
    `first_step` as in `solve_p1`, of `first_bias_step(MODE_SENSE, model)`."""
    if spec.mode != MODE_SENSE:
        raise ValueError("solve_p2 needs a sensing-centric ProblemSpec")
    return _solve_bcd(spec, model, first_step)
