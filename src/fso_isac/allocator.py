"""Joint DC-bias and subcarrier power-allocation solvers.

Two problems share one structure: maximize one metric subject to a floor on
the other, a per-subcarrier cap, and a total-power budget.  A block
coordinate descent alternates a golden-section search over the DC bias
(clipping statistics recomputed at every candidate) with a convex
subcarrier sub-problem solved in closed form from its KKT conditions.  The
sub-problem splits into cases: unconstrained water-filling (A) or sensing
LP (D), the feasibility probe (B/E), and the coupled case (C/F) where two
dual variables are found by alternating bisections that approach the
optimum monotonically from below.

Internally the capacity constraint is handled in nats so the KKT allocation
rules keep their clean algebraic form; reported spectral efficiencies are
bits/s/Hz throughout.
"""

import math
from dataclasses import dataclass, field

import numpy as np

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
POWER_SUM_TOL = 1e-10
DUAL_RESIDUAL_TOL = 1e-8
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


class DualIterationError(Exception):
    """The alternating dual bisection exceeded its iteration cap."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class DualVariables:
    mu: float
    eta: float

    def __post_init__(self):
        if self.mu < 0 or self.eta < 0:
            raise ValueError("dual variables must be non-negative")


@dataclass
class DualTrace:
    """Iterates of the alternating bisection, mu[j] / eta[j] from j = 0."""

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


def solve_bias(
    objective: str,
    p_norm: np.ndarray,
    model: SystemModel,
    tol: float | None = None,
):
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
    tol = BIAS_TOL_FACTOR * sqrt_p if tol is None else tol

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


def _comm_allocation(gamma_c, gamma_s, mu, eta, p_max):
    """xi_0 rule: p = {1/max(mu - eta k^2 g_s, 1/(p_max + 1/g_c)) - 1/g_c}^+."""
    k2gs = _subcarrier_weights(gamma_s.size) * gamma_s
    floor = 1.0 / (p_max + 1.0 / gamma_c)
    xi0 = np.maximum(mu - eta * k2gs, floor)
    return np.maximum(1.0 / xi0 - 1.0 / gamma_c, 0.0)


def _sense_allocation(gamma_c, gamma_s, mu, eta, p_max):
    """psi_0 rule: p = {1/max((mu - k^2 g_s)/eta, 1/(p_max + 1/g_c)) - 1/g_c}^+."""
    if eta <= 0:
        raise ValueError("psi_0 rule needs eta > 0; the eta = 0 limit is the sensing LP")
    k2gs = _subcarrier_weights(gamma_s.size) * gamma_s
    floor = 1.0 / (p_max + 1.0 / gamma_c)
    with np.errstate(over="ignore"):
        psi0 = np.maximum((mu - k2gs) / eta, floor)
        out = np.maximum(1.0 / psi0 - 1.0 / gamma_c, 0.0)
    return out


def _bisect(g, lo, hi, target, increasing, max_iter=100):
    """Solve g(x) = target for monotone g on [lo, hi].

    The bracket grows once, geometrically, when the endpoint signs
    disagree with monotonicity.  If g jumps across the target (degenerate
    eta = 0 sub-problems are step functions), the upper endpoint of the
    final bracket is returned: the smallest x whose value has crossed the
    target.  For continuous g this
    coincides with the root to machine precision.
    """
    g_lo, g_hi = g(lo), g(hi)
    lo_ok = g_lo <= target if increasing else g_lo >= target
    hi_ok = g_hi >= target if increasing else g_hi <= target
    if not hi_ok:
        hi += max(hi - lo, abs(hi), 1.0)
        g_hi = g(hi)
        hi_ok = g_hi >= target if increasing else g_hi <= target
    if not lo_ok:
        # left endpoint already past the root: the root is at or below lo
        return lo
    if not hi_ok:
        return hi
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        g_mid = g(mid)
        if g_mid == target:
            return mid
        if (g_mid < target) == increasing:
            lo = mid
        else:
            hi = mid
    return hi


def waterfill_comm(
    gamma_c: np.ndarray,
    gamma_s: np.ndarray,
    eta: float,
    p_max: float,
    target_sum: float = 0.5,
):
    """Capped water-filling at fixed eta: bisect mu until sum p = target.

    Returns (p_norm, mu); the budget is met within 1e-10.
    """
    gamma_c = np.asarray(gamma_c, dtype=float)
    gamma_s = np.asarray(gamma_s, dtype=float)
    if np.any(gamma_c <= 0) or np.any(gamma_s < 0):
        raise ValueError("gamma_c must be positive and gamma_s non-negative")
    if eta < 0:
        raise ValueError("eta must be non-negative")
    if gamma_c.size * p_max < target_sum:
        raise ValueError("infeasible target: caps sum below the power budget")
    k2gs = _subcarrier_weights(gamma_s.size) * gamma_s
    mu_hi = float(np.max(gamma_c + eta * k2gs))

    def total(mu):
        return float(np.sum(_comm_allocation(gamma_c, gamma_s, mu, eta, p_max)))

    mu = _bisect(total, 0.0, mu_hi, target_sum, increasing=False)
    p = _comm_allocation(gamma_c, gamma_s, mu, eta, p_max)
    if abs(p.sum() - target_sum) > POWER_SUM_TOL:
        raise RuntimeError("water-filling budget bisection failed to converge")
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


def _xi_pair(gamma_c, gamma_s, p_max):
    k2gs = _subcarrier_weights(gamma_s.size) * gamma_s

    def xi1(mu, eta):
        return float(np.sum(_comm_allocation(gamma_c, gamma_s, mu, eta, p_max)))

    def xi2(mu, eta):
        return float(np.sum(k2gs * _comm_allocation(gamma_c, gamma_s, mu, eta, p_max)))

    return xi1, xi2, k2gs


def _psi_pair(gamma_c, gamma_s, p_max):
    k2gs = _subcarrier_weights(gamma_s.size) * gamma_s

    def psi1(mu, eta):
        return float(np.sum(_sense_allocation(gamma_c, gamma_s, mu, eta, p_max)))

    def psi2(mu, eta):
        p = _sense_allocation(gamma_c, gamma_s, mu, eta, p_max)
        return float(np.sum(np.log1p(gamma_c * p)))

    return psi1, psi2, k2gs


def dual_iterate_comm(
    gamma_c: np.ndarray,
    gamma_s: np.ndarray,
    target_info: float,
    p_max: float,
    tol_mu: float = 1e-8,
    tol_eta: float = 1e-8,
):
    """Alternating bisections for (mu, eta) in the coupled comm case.

    Per iteration: bisect mu on [mu_j, max_l(g_s l^2 eta_j + g_c)] so the
    budget binds, then eta on [eta_j, mu_{j+1} / min_l(g_s l^2)] so the
    sensing floor binds.  Both sequences increase monotonically toward the
    optimum; stops when both move less than their relative tolerances and
    the constraint residuals fall under 1e-8.
    """
    gamma_c = np.asarray(gamma_c, dtype=float)
    gamma_s = np.asarray(gamma_s, dtype=float)
    xi1, xi2, k2gs = _xi_pair(gamma_c, gamma_s, p_max)
    if np.min(k2gs) <= 0:
        raise ValueError("gamma_s must be strictly positive in the coupled case")
    mu, eta = 0.0, 0.0
    trace = DualTrace(mu=[mu], eta=[eta])
    for _ in range(MAX_DUAL_ITER):
        mu_hi = float(np.max(k2gs * eta + gamma_c))
        mu_new = _bisect(lambda m: xi1(m, eta), mu, mu_hi, 0.5, increasing=False)
        eta_hi = mu_new / float(np.min(k2gs))
        eta_new = _bisect(lambda e: xi2(mu_new, e), eta, eta_hi, target_info,
                          increasing=True)
        trace.mu.append(mu_new)
        trace.eta.append(eta_new)
        if __debug__:
            slack = 1e-9 * max(mu_new, 1.0)
            assert np.min(k2gs) * eta_new <= mu_new + slack
            assert mu_new <= float(np.max(k2gs * eta_new + gamma_c)) + slack
        # step tolerances are relative to the bracket widths searched
        moved_mu = abs(mu_new - mu) > tol_mu * max(mu_hi - mu, 1e-30)
        moved_eta = abs(eta_new - eta) > tol_eta * max(eta_hi - eta, 1e-30)
        mu, eta = mu_new, eta_new
        res1 = abs(xi1(mu, eta) - 0.5) / 0.5
        res2 = abs(xi2(mu, eta) - target_info) / max(target_info, 1e-300)
        # converge to a quarter of the residual budget: the final budget
        # polish below nudges the other constraint by a comparable amount
        if (not moved_mu and not moved_eta
                and res1 < 0.25 * DUAL_RESIDUAL_TOL and res2 < 0.25 * DUAL_RESIDUAL_TOL):
            # final budget polish: one more mu-bisection at eta* so the
            # returned allocation meets the power sum to ~1e-13
            mu_hi = float(np.max(k2gs * eta + gamma_c))
            mu = _bisect(lambda m: xi1(m, eta), 0.0, mu_hi, 0.5, increasing=False)
            return DualVariables(mu=mu, eta=eta), trace
    raise DualIterationError("dual iteration exceeded its cap", trace=trace)


def dual_iterate_sense(
    gamma_c: np.ndarray,
    gamma_s: np.ndarray,
    target_cap_nats: float,
    p_max: float,
    tol_mu: float = 1e-8,
    tol_eta: float = 1e-8,
):
    """Alternating bisections for (mu, eta) in the coupled sensing case.

    Mirrors the comm version with the psi_0 rule; the eta bracket upper
    endpoint is max_l (p_max + 1/g_c(l)) (mu_{j+1} - g_s(l) l^2).
    """
    gamma_c = np.asarray(gamma_c, dtype=float)
    gamma_s = np.asarray(gamma_s, dtype=float)
    psi1, psi2, k2gs = _psi_pair(gamma_c, gamma_s, p_max)
    mu, eta = 0.0, 0.0
    trace = DualTrace(mu=[mu], eta=[eta])
    tiny_eta = 1e-300
    for _ in range(MAX_DUAL_ITER):
        mu_hi = float(np.max(k2gs + gamma_c * eta))
        eta_eval = max(eta, tiny_eta)
        mu_new = _bisect(lambda m: psi1(m, eta_eval), mu, mu_hi, 0.5,
                         increasing=False)
        eta_hi = float(np.max((p_max + 1.0 / gamma_c) * (mu_new - k2gs)))
        if eta_hi <= eta:
            eta_hi = eta + max(abs(eta), 1.0)
        eta_new = _bisect(lambda e: psi2(mu_new, max(e, tiny_eta)), eta, eta_hi,
                          target_cap_nats, increasing=True)
        trace.mu.append(mu_new)
        trace.eta.append(eta_new)
        moved_mu = abs(mu_new - mu) > tol_mu * max(mu_hi - mu, 1e-30)
        moved_eta = abs(eta_new - eta) > tol_eta * max(eta_hi - eta, 1e-30)
        mu, eta = mu_new, eta_new
        res1 = abs(psi1(mu, max(eta, tiny_eta)) - 0.5) / 0.5
        res2 = abs(psi2(mu, max(eta, tiny_eta)) - target_cap_nats) / max(
            target_cap_nats, 1e-300
        )
        if (not moved_mu and not moved_eta
                and res1 < 0.25 * DUAL_RESIDUAL_TOL and res2 < 0.25 * DUAL_RESIDUAL_TOL):
            mu_hi = float(np.max(k2gs + gamma_c * eta))
            mu = _bisect(lambda m: psi1(m, max(eta, tiny_eta)), 0.0, mu_hi, 0.5,
                         increasing=False)
            return DualVariables(mu=mu, eta=eta), trace
    raise DualIterationError("dual iteration exceeded its cap", trace=trace)


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
        except InfeasibleProblem:
            if i == 0:
                raise
            # A later bias step made the floor unreachable: keep the last
            # feasible iterate instead of discarding the whole solve.
            trace.flags.append("reverted_infeasible")
            b = trace.bias[-1]
            break
        if comm:
            obj = spectral_efficiency(snr, p_new, cfg)
            constraint = float(np.sum(k2 * snr.gamma_s * p_new))
        else:
            obj = fisher_information(snr, p_new, cfg)
            constraint = float(np.sum(np.log1p(snr.gamma_c * p_new)))
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
