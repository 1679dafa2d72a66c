"""Scenario configuration: a single hierarchical JSON document.

Key paths (all optional unless noted):

    n_agents            int, required (master is agent 0)
    duration            seconds, required
    payload.mass        kg (default 1.5 * max payload per agent)
    payload.inertia     [Jxx, Jyy, Jzz] (default: polygon disc approximation)
    payload.side        regular-polygon side length, m (default 1.2)
    payload.height      attachment height above the payload plane (default 0)
    payload.attachments explicit [[x, y, z], ...] overriding the polygon
    payload.drag_F      [dx, dy, dz] linear drag on payload velocity
    payload.drag_M      [dx, dy, dz] linear drag on payload rate
    tuning.M, tuning.C  lateral virtual mass / damping (defaults 8, 6)
    admittance.*        overrides forwarded to AdmittanceParams
    mav.*               overrides forwarded to MavParams (m, J, tau_att, ...)
    estimator           "ekf" | "ukf" | "nominal" (default "ekf")
    thrust_model        "attitude" | "lag" (default "attitude")
    rates.Ts_dyn        integrator step, s (default 0.001)
    rates.controller    Hz (default 100; must divide 1/Ts_dyn)
    rates.estimator     Hz (default 100; must divide controller rate)
    seed                int (default 0)
    noise.p, noise.v, noise.att, noise.rate   measurement std devs (default 0)
    divergence_bound    state-norm bound flagging divergence (default 100)
    start_engaged       bool (default true): start trimmed at transport
                        altitude with slaves engaged and offsets calibrated
    transport_altitude  m (default 1.2)
    mission.auto        bool: run the takeoff/landing coordinator FSM
    mission.dh, mission.land_at  coordinator altitude step (m) and landing
                        start time (s)
    mission.tol         acknowledgement tolerance (m), measured from each
                        agent's loaded-hover altitude: the commanded target
                        minus the sag of its payload share
    events              [{"t": s, "action": ...}, ...] with actions
                        master_step {"dp": [x,y,z]},
                        master_velocity {"v": [x,y,z]},
                        engage_slaves, disengage_slaves,
                        compute_offset, remove_offset

The schema is strict: an unknown key at the top level or in a section, an
unknown event action, an event vector not of length 3, a negative noise
value or seed, a non-positive divergence_bound or mission.dh, a
duration, rate, tuning value, mission.tol or payload.mass that is not a
positive finite number, a mission.land_at that is neither null nor a
non-negative finite number, and a start_engaged or mission.auto that is
not a JSON boolean raise ScenarioError when the scenario is loaded, as
does a value that the payload, mav or admittance parameters reject.
The Scenario fields are checked again when a copy is made with
dataclasses.replace, as the CLI does for its overrides.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .admittance import AdmittanceParams
from .errors import ScenarioError
from .mav import MavParams
from .payload import (
    PayloadParams,
    default_payload,
    polygon_payload_inertia,
    regular_polygon_attachments,
)

ESTIMATORS = ("ekf", "ukf", "nominal")
THRUST_MODELS = ("attitude", "lag")
NOISE_KEYS = ("p", "v", "att", "rate")
# each event action with the vector argument it takes, if any
EVENT_ARGS = {"master_step": "dp", "master_velocity": "v",
              "engage_slaves": None, "disengage_slaves": None,
              "compute_offset": None, "remove_offset": None}
TOP_KEYS = ("n_agents", "duration", "payload", "tuning", "admittance", "mav",
            "estimator", "thrust_model", "rates", "seed", "noise",
            "divergence_bound", "start_engaged", "transport_altitude",
            "mission", "events")
SECTION_KEYS = {
    "payload": ("mass", "inertia", "side", "height", "attachments",
                "drag_F", "drag_M"),
    "tuning": ("M", "C"),
    "rates": ("Ts_dyn", "controller", "estimator"),
    "mission": ("auto", "dh", "land_at", "tol"),
    # the rotor allocation is an object built from its geometry, which a
    # JSON document cannot give
    "mav": tuple(f.name for f in fields(MavParams)
                 if f.init and f.name != "allocation"),
    "admittance": tuple(f.name for f in fields(AdmittanceParams) if f.init),
}


def check_keys(name: str, d, allowed) -> None:
    if not isinstance(d, dict):
        raise ScenarioError(f"{name} must be an object")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ScenarioError(f"unknown key(s) {unknown} in {name}; "
                            f"expected one of {sorted(allowed)}")


def _check_noise(noise: dict) -> None:
    check_keys("noise", noise, NOISE_KEYS)
    for key, value in noise.items():
        if not (isinstance(value, numbers.Real) and value >= 0.0):
            raise ScenarioError(
                f"noise.{key} must be a non-negative number, got {value!r}")


def _check_positive(name: str, value) -> None:
    if not (isinstance(value, numbers.Real) and np.isfinite(value)
            and value > 0):
        raise ScenarioError(
            f"{name} must be a positive finite number, got {value!r}")


def _build(section: str, cls, **kwargs):
    """cls(**kwargs), with the range checks of its constructor raised as
    ScenarioError."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{section}: {exc}") from exc


def _check_event(ev) -> None:
    if not isinstance(ev, dict) or "t" not in ev or "action" not in ev:
        raise ScenarioError(f"event needs 't' and 'action': {ev}")
    if not isinstance(ev["t"], numbers.Real):
        raise ScenarioError(f"event time must be a number: {ev}")
    if ev["action"] not in EVENT_ARGS:
        raise ScenarioError(f"unknown event action {ev['action']!r}; "
                            f"expected one of {sorted(EVENT_ARGS)}")
    arg = EVENT_ARGS[ev["action"]]
    check_keys(f"event {ev['action']}", ev,
               ("t", "action") + ((arg,) if arg else ()))
    if arg is not None:
        try:
            shape = np.shape(np.asarray(ev.get(arg), dtype=float))
        except (TypeError, ValueError):
            shape = None
        if shape != (3,):
            raise ScenarioError(
                f"event {ev['action']} needs {arg!r} of length 3: {ev}")


@dataclass
class Scenario:
    n_agents: int
    duration: float
    payload: PayloadParams = None
    mav: MavParams = field(default_factory=MavParams)
    adm: AdmittanceParams = None
    tuning_M: float = 8.0
    tuning_C: float = 6.0
    estimator: str = "ekf"
    thrust_model: str = "attitude"
    Ts_dyn: float = 1e-3
    ctrl_rate: float = 100.0
    est_rate: float = 100.0
    seed: int = 0
    noise: dict = field(default_factory=dict)
    divergence_bound: float = 100.0
    start_engaged: bool = True
    transport_altitude: float = 1.2
    mission_auto: bool = False
    mission_dh: float = 0.25
    mission_tol: float = 0.05
    mission_land_at: float | None = None
    events: list = field(default_factory=list)

    def __post_init__(self):
        if self.n_agents < 1:
            raise ScenarioError("need at least one agent")
        for name, value in (("duration", self.duration),
                            ("rates.Ts_dyn", self.Ts_dyn),
                            ("rates.controller", self.ctrl_rate),
                            ("rates.estimator", self.est_rate),
                            ("tuning.M", self.tuning_M),
                            ("tuning.C", self.tuning_C),
                            ("mission.tol", self.mission_tol)):
            _check_positive(name, value)
        if self.estimator not in ESTIMATORS:
            raise ScenarioError(f"estimator must be one of {ESTIMATORS}")
        if self.thrust_model not in THRUST_MODELS:
            raise ScenarioError(f"thrust_model must be one of {THRUST_MODELS}")
        steps = 1.0 / (self.ctrl_rate * self.Ts_dyn)
        if abs(steps - round(steps)) > 1e-9 or steps < 1 - 1e-9:
            raise ScenarioError("controller rate must divide the dynamics rate")
        ratio = self.ctrl_rate / self.est_rate
        if abs(ratio - round(ratio)) > 1e-9 or ratio < 1 - 1e-9:
            raise ScenarioError("estimator rate must divide the controller rate")
        if self.seed < 0:
            raise ScenarioError("seed must be non-negative")
        if not self.divergence_bound > 0:
            raise ScenarioError("divergence_bound must be positive")
        if not self.mission_dh > 0:
            raise ScenarioError("mission.dh must be positive")
        for name, value in (("start_engaged", self.start_engaged),
                            ("mission.auto", self.mission_auto)):
            if not isinstance(value, bool):
                raise ScenarioError(
                    f"{name} must be true or false, got {value!r}")
        land = self.mission_land_at
        if land is not None and not (
                isinstance(land, numbers.Real) and not isinstance(land, bool)
                and np.isfinite(land) and land >= 0):
            raise ScenarioError("mission.land_at must be null or a non-negative"
                                f" finite number, got {land!r}")
        if self.payload is None:
            self.payload = default_payload(self.n_agents, self.mav.m_bar)
        if self.adm is None:
            self.adm = AdmittanceParams()
        self.adm = self.adm.lateral(self.tuning_M, self.tuning_C)
        _check_noise(self.noise)
        for ev in self.events:
            _check_event(ev)

    @property
    def steps_per_ctrl(self) -> int:
        return int(round(1.0 / (self.ctrl_rate * self.Ts_dyn)))

    @property
    def ctrl_per_est(self) -> int:
        return int(round(self.ctrl_rate / self.est_rate))

    def config_hash(self) -> str:
        """Digest of every resolved field, so overrides written after
        loading (a CLI --seed) and scenarios built in code are told apart;
        arrays enter as lists of floats, which json writes as exact reprs."""
        blob = json.dumps(asdict(self), sort_keys=True,
                          default=lambda a: a.tolist()).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _payload_from_dict(n_agents: int, mav: MavParams, d: dict) -> PayloadParams:
    side = float(d.get("side", 1.2))
    height = float(d.get("height", 0.0))
    m_p = float(d.get("mass", 1.5 * mav.m_bar))
    _check_positive("payload.mass", m_p)
    if "attachments" in d:
        att = np.asarray(d["attachments"], dtype=float)
    else:
        att = regular_polygon_attachments(n_agents, side, height)
    if "inertia" in d:
        J_p = np.asarray(d["inertia"], dtype=float)
    else:
        J_p = polygon_payload_inertia(m_p, n_agents, side)
    return _build(
        "payload", PayloadParams, m_p=m_p, J_p=J_p, attachments=att,
        drag_F=np.asarray(d.get("drag_F", [0.0, 0.0, 0.0]), dtype=float),
        drag_M=np.asarray(d.get("drag_M", [0.0, 0.0, 0.0]), dtype=float))


def scenario_from_dict(cfg: dict) -> Scenario:
    try:
        n_agents = int(cfg["n_agents"])
        duration = float(cfg["duration"])
    except KeyError as exc:
        raise ScenarioError(f"missing required key {exc}") from exc
    check_keys("scenario", cfg, TOP_KEYS)
    for section, allowed in SECTION_KEYS.items():
        check_keys(section, cfg.get(section, {}), allowed)
    mav_kw = dict(cfg.get("mav", {}))
    for key in ("J", "K_drag", "K_P", "K_D"):
        if key in mav_kw:
            mav_kw[key] = np.asarray(mav_kw[key], dtype=float)
    mav = _build("mav", MavParams, **mav_kw)
    adm_kw = dict(cfg.get("admittance", {}))
    for key in ("M", "C", "K"):
        if key in adm_kw:
            adm_kw[key] = np.asarray(adm_kw[key], dtype=float)
    adm = _build("admittance", AdmittanceParams, **adm_kw) if adm_kw else None
    rates = cfg.get("rates", {})
    tuning = cfg.get("tuning", {})
    mission = cfg.get("mission", {})
    payload = None
    if "payload" in cfg:
        payload = _payload_from_dict(n_agents, mav, cfg["payload"])
    sc = Scenario(
        n_agents=n_agents,
        duration=duration,
        payload=payload,
        mav=mav,
        adm=adm,
        tuning_M=float(tuning.get("M", 8.0)),
        tuning_C=float(tuning.get("C", 6.0)),
        estimator=cfg.get("estimator", "ekf"),
        thrust_model=cfg.get("thrust_model", "attitude"),
        Ts_dyn=float(rates.get("Ts_dyn", 1e-3)),
        ctrl_rate=float(rates.get("controller", 100.0)),
        est_rate=float(rates.get("estimator", 100.0)),
        seed=int(cfg.get("seed", 0)),
        noise=dict(cfg.get("noise", {})),
        divergence_bound=float(cfg.get("divergence_bound", 100.0)),
        start_engaged=cfg.get("start_engaged", True),
        transport_altitude=float(cfg.get("transport_altitude", 1.2)),
        mission_auto=mission.get("auto", False),
        mission_dh=float(mission.get("dh", 0.25)),
        mission_tol=float(mission.get("tol", 0.05)),
        mission_land_at=mission.get("land_at", None),
        events=list(cfg.get("events", [])),
    )
    return sc


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid JSON in {path}: {exc}") from exc
    return scenario_from_dict(cfg)
