"""Output checks that do not trust the program.

Every check recomputes what it compares from the program's written outputs
and the benchmark's own inputs, with the paper's formulas, or tests a
property the method must have.  None compares against a stored copy of an
earlier output.  Each returns a list of failure messages; empty means pass.
"""

import csv
import io
import math

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0

BUDGET_TOL = 1e-9        # |sum p - 1/2|
CAP_TOL = 1e-9           # relative excess over p_max
FLOOR_TOL = 1e-8         # the solver's stated relative constraint residual
RECOMPUTE_TOL = 1e-9     # outputs carry 12 significant digits
BCD_TOL = 1e-6           # the BCD's relative stopping tolerance
RMSE_GATE = (1.0, 1.3)
REQUIRED_CLIP_ROWS = ("bussgang_gain", "mean_wp", "power_wp", "r_wp_lag0",
                      "psd_scaled_max", "corr_wp_x")


class Frame:
    """The frame constants the metrics need, read from a scenario document."""

    def __init__(self, doc):
        o = doc["ofdm"]
        self.n = int(o["N"])
        self.m = int(o["M"])
        self.df = float(o["delta_f_hz"])
        self.t_o = 1.0 / self.df + float(o["T_g_s"])
        self.k = np.arange(1, self.n // 2, dtype=float)

    def capacity(self, gamma_c, p):
        """C = sum log2(1 + gamma_c p) / (N df T_o), bits/s/Hz."""
        return float(np.sum(np.log2(1.0 + gamma_c * p)) / (self.n * self.df * self.t_o))

    def fisher_tau(self, gamma_s, p):
        """I_tau = 8 pi^2 M df^2 / N * sum k^2 gamma_s p, 1/s^2."""
        return float(8.0 * math.pi**2 * self.m * self.df**2 / self.n
                     * np.sum(self.k**2 * gamma_s * p))

    def info_units(self, fisher_tau):
        """Fisher information in allocation units, sum k^2 gamma_s p."""
        return fisher_tau * self.n / (8.0 * math.pi**2 * self.m * self.df**2)


def floor_fisher_tau(precision_cm):
    """Delay-domain information a precision floor asks for, (c / 2 L)^2."""
    return (SPEED_OF_LIGHT / (2.0 * precision_cm / 100.0)) ** 2


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def read_allocation(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    cols = {key: np.array([float(r[key]) for r in rows]) for key in rows[0]}
    return cols


# --- the benchmark's own solver for the comm-centric sub-problem ---------

def _capped_fill(mu, eta, gamma_c, w, p_max):
    """KKT allocation min(p_max, (1/(mu - eta w) - 1/gamma_c)^+)."""
    level = mu - eta * w
    with np.errstate(divide="ignore"):
        p = np.where(level > 0.0, 1.0 / np.where(level > 0.0, level, 1.0) - 1.0 / gamma_c,
                     np.inf)
    return np.clip(p, 0.0, p_max)


def _bisect_until_collapse(pred, lo, hi):
    """Shrink [lo, hi] while keeping pred(lo) false and pred(hi) true."""
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _budget_fill(eta, gamma_c, w, p_max):
    """Allocation at dual eta whose level mu spends exactly the 1/2 budget."""
    lo = float(np.min(eta * w + 1.0 / (p_max + 1.0 / gamma_c)))
    hi = float(np.max(eta * w + gamma_c))
    lo, hi = _bisect_until_collapse(
        lambda mu: _capped_fill(mu, eta, gamma_c, w, p_max).sum() <= 0.5, lo, hi)
    p_lo = _capped_fill(lo, eta, gamma_c, w, p_max)
    p_hi = _capped_fill(hi, eta, gamma_c, w, p_max)
    return p_lo if abs(p_lo.sum() - 0.5) < abs(p_hi.sum() - 0.5) else p_hi


def nested_waterfill(gamma_c, gamma_s, info_floor, p_max):
    """max sum ln(1 + gamma_c p) s.t. sum p = 1/2, 0 <= p <= p_max and
    sum k^2 gamma_s p >= info_floor, by nested bisection: eta outside, the
    water level mu inside.  Returns the allocation at the feasible end of
    the final eta bracket, or None when no eta meets the floor."""
    w = np.arange(1, gamma_s.size + 1, dtype=float) ** 2 * gamma_s

    def meets(eta):
        return float(np.sum(w * _budget_fill(eta, gamma_c, w, p_max))) >= info_floor

    if meets(0.0):
        return _budget_fill(0.0, gamma_c, w, p_max)
    hi = float(np.max(gamma_c)) / float(np.min(w))
    for _ in range(200):
        if meets(hi):
            break
        hi *= 2.0
    else:
        return None
    _, hi = _bisect_until_collapse(meets, 0.0, hi)
    return _budget_fill(hi, gamma_c, w, p_max)


# --- checks --------------------------------------------------------------

def check_solution(doc, solution, allocation_text):
    """A comm-centric `solve`: box, budget, floor, recomputed metrics, and
    the capacity of the benchmark's own allocation at the same SNRs."""
    frame = Frame(doc)
    p_max = float(doc["problem"]["p_max"])
    floor_cm = float(doc["problem"]["precision_cm"])
    a = read_allocation(allocation_text)
    p, gamma_c, gamma_s = a["p_norm"], a["gamma_c"], a["gamma_s"]
    fails = []
    if not np.array_equal(a["k"], frame.k):
        return [f"allocation.csv rows: expected k = 1..{frame.n // 2 - 1}"]
    if np.any(p < 0.0) or np.any(p > p_max * (1.0 + CAP_TOL)):
        fails.append(f"cap: p outside [0, p_max], max p = {p.max()!r}")
    if abs(p.sum() - 0.5) > BUDGET_TOL:
        fails.append(f"budget: sum p = {p.sum()!r}")
    c = frame.capacity(gamma_c, p)
    i_tau = frame.fisher_tau(gamma_s, p)
    if _rel(solution["spectral_efficiency_bps_hz"], c) > RECOMPUTE_TOL:
        fails.append(f"capacity: reported {solution['spectral_efficiency_bps_hz']!r}, "
                     f"recomputed {c!r}")
    if _rel(solution["fisher_tau"], i_tau) > RECOMPUTE_TOL:
        fails.append(f"fisher: reported {solution['fisher_tau']!r}, recomputed {i_tau!r}")
    fisher_distance = i_tau * (2.0 / SPEED_OF_LIGHT) ** 2
    if _rel(solution["fisher_distance"], fisher_distance) > RECOMPUTE_TOL:
        fails.append(f"fisher_distance: reported {solution['fisher_distance']!r}, "
                     f"recomputed {fisher_distance!r}")
    if _rel(solution["precision_cm"], 100.0 / math.sqrt(fisher_distance)) > RECOMPUTE_TOL:
        fails.append(f"precision: reported {solution['precision_cm']!r}")
    target = floor_fisher_tau(floor_cm)
    if solution["fisher_tau"] < target * (1.0 - FLOOR_TOL):
        fails.append(f"floor: fisher_tau {solution['fisher_tau']!r} < {target!r}")
    own = nested_waterfill(gamma_c, gamma_s, frame.info_units(target), p_max)
    if own is None:
        fails.append("optimality: the floor is out of reach at the reported SNRs")
    else:
        c_own = frame.capacity(gamma_c, own)
        if _rel(solution["spectral_efficiency_bps_hz"], c_own) > BCD_TOL:
            fails.append(f"optimality: C = {solution['spectral_efficiency_bps_hz']!r}, "
                         f"nested water-filling gives {c_own!r}")
    return fails


def read_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _sweep_rows(rows, values):
    got = [float(r["value"]) for r in rows]
    if got != [float(v) for v in values]:
        return None, [f"sweep values {got} != requested {list(values)}"]
    return [r for r in rows if r["status"] == "ok"], []


def check_comm_sweep(rows, floors_cm):
    """precision_cm sweep: every solved point meets its floor, and C does
    not decrease as the floor loosens."""
    ok, fails = _sweep_rows(rows, floors_cm)
    if ok is None:
        return fails
    for r in ok:
        floor, prec, c = float(r["value"]), float(r["precision_cm"]), float(r["C_bps_hz"])
        if not (math.isfinite(c) and c > 0.0):
            fails.append(f"{floor} cm: C = {c!r}")
        if floor_fisher_tau(prec) < floor_fisher_tau(floor) * (1.0 - FLOOR_TOL):
            fails.append(f"floor: {floor} cm point reports precision {prec!r} cm")
    ok = sorted(ok, key=lambda r: float(r["value"]))
    for lo, hi in zip(ok, ok[1:]):
        if float(hi["C_bps_hz"]) < float(lo["C_bps_hz"]) * (1.0 - BCD_TOL):
            fails.append(f"monotone: C falls from {lo['C_bps_hz']} at {lo['value']} cm "
                         f"to {hi['C_bps_hz']} at {hi['value']} cm")
    return fails


def check_sense_sweep(rows, c0_values):
    """C0_bpshz sweep: every solved point meets its capacity floor, and the
    precision does not improve as the floor rises."""
    ok, fails = _sweep_rows(rows, c0_values)
    if ok is None:
        return fails
    for r in ok:
        c0, c, prec = float(r["value"]), float(r["C_bps_hz"]), float(r["precision_cm"])
        if c < c0 * (1.0 - FLOOR_TOL):
            fails.append(f"floor: C0 = {c0} point reports C = {c!r}")
        if not (math.isfinite(prec) and prec > 0.0):
            fails.append(f"C0 = {c0}: precision {prec!r}")
    ok = sorted(ok, key=lambda r: float(r["value"]))
    for lo, hi in zip(ok, ok[1:]):
        if float(hi["precision_cm"]) < float(lo["precision_cm"]) * (1.0 - BCD_TOL):
            fails.append(f"monotone: precision improves from {lo['precision_cm']} cm at "
                         f"C0 = {lo['value']} to {hi['precision_cm']} cm at {hi['value']}")
    return fails


def check_verify(exit_code, clipping_text, rmse_text):
    """`verify`: exit 0, every clipping-model row within its tolerance, and
    the top-SNR RMSE/CRB ratio inside the 1.0-1.3 gate."""
    fails = [] if exit_code == 0 else [f"verify exit code {exit_code}"]
    rows = read_rows(clipping_text)
    names = {r["quantity"] for r in rows}
    fails += [f"clipping report lacks {q}" for q in REQUIRED_CLIP_ROWS if q not in names]
    for r in rows:
        if not float(r["error"]) <= float(r["tolerance"]) or r["passed"] != "1":
            fails.append(f"clipping row {r['quantity']}: error {r['error']} "
                         f"> tolerance {r['tolerance']}")
    points = read_rows(rmse_text)
    if not points:
        return fails + ["rmse report is empty"]
    top = points[-1]
    ratio = float(top["rmse_m"]) / float(top["crb_m"])
    if _rel(float(top["ratio"]), ratio) > RECOMPUTE_TOL:
        fails.append(f"rmse ratio {top['ratio']} != rmse/crb {ratio!r}")
    if not RMSE_GATE[0] <= ratio <= RMSE_GATE[1]:
        fails.append(f"rmse gate: RMSE/CRB = {ratio!r} at {top['snr_db']} dB/Hz")
    return fails
