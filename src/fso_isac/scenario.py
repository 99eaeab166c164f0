"""Scenario files: JSON schema, validation, and model construction.

A scenario fully describes one experiment: frame geometry, link budgets
(with optional direct gain overrides), noise PSDs, the optimization
problem, and Monte Carlo settings.  Validation is strict: unknown keys are
rejected and every error message carries the JSON path and the line where
the offending key appears.
"""

import json
from dataclasses import dataclass

from .allocator import MODE_COMM, MODE_SENSE, ProblemSpec
from .channel import ChannelState, LinkParams, stationary_gains
from .config import OfdmConfig
from .system import SystemModel

_SCHEMA = {
    "ofdm": {
        "M": (int,),
        "N": (int,),
        "delta_f_hz": (int, float),
        "T_g_s": (int, float),
        "P_w": (int, float),
    },
    "channel": {
        "L_m": (int, float),
        "lambda_nm": (int, float),
        "atten_db_per_km": (int, float),
        "Cn2": (int, float),
        "theta_mrad": (int, float),
        "A_cm2": (int, float),
        "reflectivity": (int, float),
        "G_T": (int, float),
        "G_R": (int, float),
        "override_gain_c_db": (int, float, None),
        "override_gain_s_db": (int, float, None),
    },
    "noise": {
        "N_c_dbhz": (int, float),
        "N_s_dbhz": (int, float),
    },
    "problem": {
        "mode": (str,),
        "precision_cm": (int, float, None),
        "C0_bpshz": (int, float, None),
        "p_max": (int, float),
    },
    "mc": {
        "trials": (int,),
        "seed": (int,),
    },
}

_OPTIONAL = {
    ("channel", "override_gain_c_db"),
    ("channel", "override_gain_s_db"),
    ("problem", "precision_cm"),
    ("problem", "C0_bpshz"),
    ("mc",),
}

MODES = {"CommCentric": MODE_COMM, "SensingCentric": MODE_SENSE}


class ScenarioError(ValueError):
    """Scenario file violates the schema; message carries path and line."""


def _line_of(path: str, text: str) -> str:
    key = path.split(".")[-1]
    for i, line in enumerate(text.splitlines(), start=1):
        if f'"{key}"' in line:
            return f" (line {i})"
    return ""


@dataclass(frozen=True)
class McSettings:
    trials: int
    seed: int


@dataclass(frozen=True)
class Scenario:
    cfg: OfdmConfig
    chan: ChannelState
    problem: ProblemSpec
    mc: McSettings | None

    def model(self) -> SystemModel:
        return SystemModel(cfg=self.cfg, chan=self.chan)


def _check_section(name, section, spec, text):
    if not isinstance(section, dict):
        raise ScenarioError(f"section '{name}' must be an object{_line_of(name, text)}")
    for key in section:
        if key not in spec:
            raise ScenarioError(
                f"unknown key '{name}.{key}'{_line_of(key, text)}"
            )
    for key, types in spec.items():
        required = (name, key) not in _OPTIONAL
        if key not in section:
            if required:
                raise ScenarioError(f"missing key '{name}.{key}'")
            continue
        value = section[key]
        ok_types = tuple(t for t in types if t is not None)
        if isinstance(value, bool) or not isinstance(value, ok_types):
            raise ScenarioError(
                f"'{name}.{key}' has wrong type{_line_of(key, text)}: "
                f"expected {'/'.join(t.__name__ for t in ok_types)}"
            )


def parse_scenario(text: str) -> Scenario:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"invalid JSON (line {e.lineno}): {e.msg}") from e
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    for section in doc:
        if section not in _SCHEMA:
            raise ScenarioError(f"unknown section '{section}'{_line_of(section, text)}")
    for name, spec in _SCHEMA.items():
        if name not in doc:
            if (name,) in _OPTIONAL:
                continue
            raise ScenarioError(f"missing section '{name}'")
        _check_section(name, doc[name], spec, text)

    o = doc["ofdm"]
    cfg = OfdmConfig(
        n_symbols=o["M"],
        n_subcarriers=o["N"],
        delta_f=float(o["delta_f_hz"]),
        guard_s=float(o["T_g_s"]),
        power_w=float(o["P_w"]),
    )

    c = doc["channel"]
    n = doc["noise"]
    link_common = dict(
        path_m=float(c["L_m"]),
        wavelength_m=float(c["lambda_nm"]) * 1e-9,
        cn2=float(c["Cn2"]),
        atten_db_per_km=float(c["atten_db_per_km"]),
        theta_rad=float(c["theta_mrad"]) * 1e-3,
        aperture_m2=float(c["A_cm2"]) * 1e-4,
        gain_tx=float(c["G_T"]),
        gain_rx=float(c["G_R"]),
        reflectivity=float(c["reflectivity"]),
    )
    link_c = LinkParams(**link_common, noise_psd=10.0 ** (float(n["N_c_dbhz"]) / 10.0))
    link_s = LinkParams(**link_common, noise_psd=10.0 ** (float(n["N_s_dbhz"]) / 10.0))
    chan = stationary_gains(
        link_c,
        link_s,
        override_gain_c_db=c.get("override_gain_c_db"),
        override_gain_s_db=c.get("override_gain_s_db"),
    )

    p = doc["problem"]
    if p["mode"] not in MODES:
        raise ScenarioError(
            f"'problem.mode' must be CommCentric or SensingCentric{_line_of('mode', text)}"
        )
    mode = MODES[p["mode"]]
    if mode == MODE_COMM:
        if p.get("precision_cm") is None:
            raise ScenarioError("CommCentric mode needs 'problem.precision_cm'")
        problem = ProblemSpec.comm_centric(
            precision_m=float(p["precision_cm"]) / 100.0, p_max=float(p["p_max"])
        )
    else:
        if p.get("C0_bpshz") is None:
            raise ScenarioError("SensingCentric mode needs 'problem.C0_bpshz'")
        problem = ProblemSpec.sensing_centric(
            c0_bps_hz=float(p["C0_bpshz"]), p_max=float(p["p_max"])
        )
    problem.validate_against(cfg)

    mc = None
    if "mc" in doc:
        if doc["mc"]["trials"] < 2:
            raise ScenarioError(f"'mc.trials' must be at least 2{_line_of('trials', text)}")
        if doc["mc"]["seed"] < 0:
            raise ScenarioError(f"'mc.seed' must be at least 0{_line_of('seed', text)}")
        mc = McSettings(trials=doc["mc"]["trials"], seed=doc["mc"]["seed"])
    return Scenario(cfg=cfg, chan=chan, problem=problem, mc=mc)


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())
