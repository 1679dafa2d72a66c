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
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .admittance import AdmittanceParams
from .errors import ScenarioError
from .mav import MavParams
from .payload import (
    PayloadParams,
    polygon_payload_inertia,
    regular_polygon_attachments,
)

ESTIMATORS = ("ekf", "ukf", "nominal")
THRUST_MODELS = ("attitude", "lag")


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
        if self.duration <= 0:
            raise ScenarioError("duration must be positive")
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
        if self.payload is None:
            m_p = 1.5 * self.mav.m_bar
            self.payload = PayloadParams(
                m_p=m_p,
                J_p=polygon_payload_inertia(m_p, self.n_agents, 1.2),
                attachments=regular_polygon_attachments(self.n_agents, 1.2))
        if self.adm is None:
            self.adm = AdmittanceParams()
        self.adm = self.adm.lateral(self.tuning_M, self.tuning_C)
        for ev in self.events:
            if "t" not in ev or "action" not in ev:
                raise ScenarioError(f"event needs 't' and 'action': {ev}")

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
    if "attachments" in d:
        att = np.asarray(d["attachments"], dtype=float)
    else:
        att = regular_polygon_attachments(n_agents, side, height)
    if "inertia" in d:
        J_p = np.asarray(d["inertia"], dtype=float)
    else:
        J_p = polygon_payload_inertia(m_p, n_agents, side)
    return PayloadParams(
        m_p=m_p, J_p=J_p, attachments=att,
        drag_F=np.asarray(d.get("drag_F", [0.0, 0.0, 0.0]), dtype=float),
        drag_M=np.asarray(d.get("drag_M", [0.0, 0.0, 0.0]), dtype=float))


def scenario_from_dict(cfg: dict) -> Scenario:
    try:
        n_agents = int(cfg["n_agents"])
        duration = float(cfg["duration"])
    except KeyError as exc:
        raise ScenarioError(f"missing required key {exc}") from exc
    mav_kw = dict(cfg.get("mav", {}))
    for key in ("J", "K_drag", "K_P", "K_D"):
        if key in mav_kw:
            mav_kw[key] = np.asarray(mav_kw[key], dtype=float)
    mav = MavParams(**mav_kw)
    adm_kw = dict(cfg.get("admittance", {}))
    for key in ("M", "C", "K"):
        if key in adm_kw:
            adm_kw[key] = np.asarray(adm_kw[key], dtype=float)
    adm = AdmittanceParams(**adm_kw) if adm_kw else None
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
        start_engaged=bool(cfg.get("start_engaged", True)),
        transport_altitude=float(cfg.get("transport_altitude", 1.2)),
        mission_auto=bool(mission.get("auto", False)),
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
