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
    noise               {"p", "v", "att", "rate"}: measurement std devs
                        (default 0)
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

The schema is strict. SCHEMA gives each Scenario field's key path and its
check; the defaults are those of the Scenario dataclass. A key that is
unknown at the top level, in a section or in an event raises ScenarioError
when the scenario is loaded, and so does a value that fails its check:
    - n_agents and seed: an integer of at least 1 and 0 (not a bool, not
      2.7, not "3");
    - duration, the rates, the tuning, divergence_bound,
      transport_altitude, mission.dh, mission.tol, payload.mass and
      payload.side: a positive finite number (not a bool, not a string);
    - payload.height: a finite number (not a bool, not a string);
    - estimator and thrust_model: one of the names above;
    - start_engaged and mission.auto: a JSON boolean;
    - mission.land_at: null or a non-negative finite number;
    - noise: each std dev a non-negative finite number;
    - events: a known action, a non-negative finite time and, for the
      two master actions, a vector of 3 finite numbers;
    - the payload, mav and admittance values that their parameter objects
      reject (a non-finite or non-numeric value, a vector not of length 3,
      a non-positive mass), and attachments whose count is not n_agents;
    - admittance.M or admittance.C whose lateral (x, y) entries differ from
      tuning.M or tuning.C (given or default), which set them;
    - rates whose controller rate does not divide 1/Ts_dyn, or whose
      estimator rate does not divide the controller rate;
    - a duration that is not a whole number of controller ticks (within
      1e-9 of a tick, as the rate checks), so that no tick count is
      rounded; a log holds one row per tick, at least one.
A Scenario is frozen: a field changes only through dataclasses.replace,
which checks the fields again, as the CLI does for its overrides. Its noise
is a read-only mapping and its events a tuple of read-only mappings whose
vectors are tuples, so no write skips the checks. A document with no payload
section leaves the payload to the Scenario, which derives it from n_agents
and mav.m_bar, and derives it again on every replace; a given payload is
kept.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import weakref
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from types import MappingProxyType

from .admittance import AdmittanceParams
from .errors import ScenarioError
from .mav import MavParams, real_array
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


def check_keys(name: str, d, allowed) -> None:
    if not isinstance(d, Mapping):
        raise ScenarioError(f"{name} must be an object")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ScenarioError(f"unknown key(s) {unknown} in {name}; "
                            f"expected one of {sorted(allowed)}")


def checked_call(section: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with the range and type checks of a parameter
    object's constructor raised as ScenarioError."""
    try:
        return fn(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{section}: {exc}") from exc


def _finite(value) -> bool:
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _positive(path: str, value) -> float:
    if not (_finite(value) and value > 0):
        raise ScenarioError(
            f"{path} must be a positive finite number, got {value!r}")
    return float(value)


def _nonnegative(path: str, value):
    # kept as given, as the loader always kept noise, event times and
    # mission.land_at, so an integer stays one in config_hash
    if not (_finite(value) and value >= 0):
        raise ScenarioError(
            f"{path} must be a non-negative finite number, got {value!r}")
    return value


def _time(path: str, value):
    return None if value is None else _nonnegative(path, value)


def integer(path: str, value, least: int) -> int:
    # bool is an int subclass, but true is no count
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise ScenarioError(f"{path} must be an integer of at least {least}, "
                            f"got {value!r}")
    return int(value)


def boolean(path: str, value) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{path} must be true or false, got {value!r}")
    return value


def _one_of(path: str, value, options: tuple):
    if value not in options:
        raise ScenarioError(f"{path} must be one of {options}, got {value!r}")
    return value


def _noise(path: str, noise) -> Mapping:
    check_keys(path, noise, NOISE_KEYS)
    return MappingProxyType({key: _nonnegative(f"{path}.{key}", value)
                             for key, value in noise.items()})


def _events(path: str, events) -> tuple:
    """The events as a tuple of read-only mappings, each vector a tuple."""
    if not isinstance(events, (list, tuple)):
        raise ScenarioError(f"{path} must be a list, got {events!r}")
    frozen = []
    for ev in events:
        if not isinstance(ev, Mapping) or "t" not in ev or "action" not in ev:
            raise ScenarioError(f"event needs 't' and 'action': {ev}")
        action = ev["action"]
        if not isinstance(action, str) or action not in EVENT_ARGS:
            raise ScenarioError(f"unknown event action {action!r}; "
                                f"expected one of {sorted(EVENT_ARGS)}")
        arg = EVENT_ARGS[action]
        check_keys(f"event {action}", ev,
                   ("t", "action") + ((arg,) if arg else ()))
        _nonnegative(f"event {action} t", ev["t"])
        if arg is not None:
            try:
                real_array(arg, ev.get(arg), (3,))
            except ValueError:
                raise ScenarioError(f"event {action} needs {arg!r} of length "
                                    f"3 with finite entries: {ev}") from None
        frozen.append(MappingProxyType(
            {key: tuple(value) if key == arg else value
             for key, value in ev.items()}))
    return tuple(frozen)


# Scenario field -> (its key path in the document, the check that returns
# the value as the field's type, the check's further arguments)
SCHEMA = {
    "duration": ("duration", _positive),
    "tuning_M": ("tuning.M", _positive),
    "tuning_C": ("tuning.C", _positive),
    "estimator": ("estimator", _one_of, ESTIMATORS),
    "thrust_model": ("thrust_model", _one_of, THRUST_MODELS),
    "Ts_dyn": ("rates.Ts_dyn", _positive),
    "ctrl_rate": ("rates.controller", _positive),
    "est_rate": ("rates.estimator", _positive),
    "seed": ("seed", integer, 0),
    "noise": ("noise", _noise),
    "divergence_bound": ("divergence_bound", _positive),
    "start_engaged": ("start_engaged", boolean),
    "transport_altitude": ("transport_altitude", _positive),
    "mission_auto": ("mission.auto", boolean),
    "mission_dh": ("mission.dh", _positive),
    "mission_tol": ("mission.tol", _positive),
    "mission_land_at": ("mission.land_at", _time),
    "events": ("events", _events),
}
# the sections that build a parameter object, with their keys
PARAM_SECTIONS = {
    "payload": ("mass", "inertia", "side", "height", "attachments",
                "drag_F", "drag_M"),
    "mav": tuple(f.name for f in fields(MavParams) if f.init),
    "admittance": tuple(f.name for f in fields(AdmittanceParams) if f.init),
}


def _document_keys() -> dict:
    """The allowed keys of each section, "" for the top level."""
    paths = ["n_agents", *(path for path, *_ in SCHEMA.values()),
             *(f"{s}.{key}" for s, keys in PARAM_SECTIONS.items()
               for key in keys)]
    keys = {"": set()}
    for path in paths:
        section, _, key = path.rpartition(".")
        keys[""].add(section or key)
        keys.setdefault(section, set()).add(key)
    return keys


DOCUMENT_KEYS = _document_keys()
# the payloads that Scenario derived itself, by id, so that replace derives
# them again from the new n_agents and mav.m_bar; it marks immutable objects
# and keeps none alive
_DERIVED_PAYLOADS = weakref.WeakValueDictionary()


@dataclass(frozen=True)
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
    noise: Mapping = field(default_factory=dict)
    divergence_bound: float = 100.0
    start_engaged: bool = True
    transport_altitude: float = 1.2
    mission_auto: bool = False
    mission_dh: float = 0.25
    mission_tol: float = 0.05
    mission_land_at: float | None = None
    events: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "n_agents",
                           integer("n_agents", self.n_agents, 1))
        for name, (path, check, *args) in SCHEMA.items():
            object.__setattr__(self, name,
                               check(path, getattr(self, name), *args))
        steps = 1.0 / (self.ctrl_rate * self.Ts_dyn)
        if abs(steps - round(steps)) > 1e-9 or steps < 1 - 1e-9:
            raise ScenarioError("controller rate must divide the dynamics rate")
        ratio = self.ctrl_rate / self.est_rate
        if abs(ratio - round(ratio)) > 1e-9 or ratio < 1 - 1e-9:
            raise ScenarioError("estimator rate must divide the controller rate")
        ticks = self.duration * self.ctrl_rate
        if (not math.isfinite(ticks) or abs(ticks - round(ticks)) > 1e-9
                or ticks < 1 - 1e-9):
            raise ScenarioError(f"duration: {self.duration} s is not a whole "
                                f"number of ticks at {self.ctrl_rate} Hz")
        if (self.payload is None
                or _DERIVED_PAYLOADS.get(id(self.payload)) is self.payload):
            payload = checked_call("payload", default_payload, self.n_agents,
                                   self.mav.m_bar)
            _DERIVED_PAYLOADS[id(payload)] = payload
            object.__setattr__(self, "payload", payload)
        if self.payload.n_agents != self.n_agents:
            raise ScenarioError(
                f"payload.attachments: {self.payload.n_agents} rows for "
                f"{self.n_agents} agents")
        object.__setattr__(self, "adm", (self.adm or AdmittanceParams())
                           .lateral(self.tuning_M, self.tuning_C))

    @property
    def steps_per_ctrl(self) -> int:
        return int(round(1.0 / (self.ctrl_rate * self.Ts_dyn)))

    @property
    def ctrl_per_est(self) -> int:
        return int(round(self.ctrl_rate / self.est_rate))

    def config_hash(self) -> str:
        """Digest of every resolved field, so overrides written after
        loading (a CLI --seed) and scenarios built in code are told apart;
        arrays enter as lists of floats, which json writes as exact reprs,
        and parameter objects and read-only mappings as dicts."""
        blob = json.dumps({f.name: getattr(self, f.name)
                           for f in fields(self)}, sort_keys=True,
                          default=_plain).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _plain(value):
    """The JSON form of a field value that json cannot write itself."""
    if is_dataclass(value):
        return asdict(value)
    if isinstance(value, Mapping):
        return dict(value)
    return value.tolist()


def _payload_from_dict(n_agents: int, mav: MavParams, d: dict) -> PayloadParams:
    side = _positive("payload.side", d.get("side", 1.2))
    m_p = _positive("payload.mass", d.get("mass", 1.5 * mav.m_bar))
    height = d.get("height", 0.0)
    if not _finite(height):
        raise ScenarioError(
            f"payload.height must be a finite number, got {height!r}")
    att = d["attachments"] if "attachments" in d else (
        regular_polygon_attachments(n_agents, side, height))
    J_p = d["inertia"] if "inertia" in d else (
        polygon_payload_inertia(m_p, n_agents, side))
    drag = {key: d[key] for key in ("drag_F", "drag_M") if key in d}
    return checked_call("payload", PayloadParams, m_p=m_p, J_p=J_p,
                        attachments=att, **drag)


def scenario_from_dict(cfg: dict) -> Scenario:
    check_keys("scenario", cfg, DOCUMENT_KEYS[""])
    for key in ("n_agents", "duration"):
        if key not in cfg:
            raise ScenarioError(f"missing required key {key!r}")
    # every section present, so that a missing one reads as empty
    doc = {section: {} for section in DOCUMENT_KEYS if section} | cfg
    for section, allowed in DOCUMENT_KEYS.items():
        if section:
            check_keys(section, doc[section], allowed)
    flat = {f"{section}.{key}": value for section in DOCUMENT_KEYS if section
            for key, value in doc[section].items()} | cfg
    n_agents = integer("n_agents", cfg["n_agents"], 1)
    mav = checked_call("mav", MavParams, **doc["mav"])
    adm = checked_call("admittance", AdmittanceParams, **doc["admittance"])
    sc = Scenario(
        n_agents=n_agents, mav=mav, adm=adm,
        payload=(_payload_from_dict(n_agents, mav, doc["payload"])
                 if doc["payload"] else None),
        **{name: flat[path] for name, (path, *_) in SCHEMA.items()
           if path in flat})
    for key in ("M", "C"):
        given, tuned = getattr(adm, key)[:2], getattr(sc, f"tuning_{key}")
        if key in doc["admittance"] and any(given != tuned):
            raise ScenarioError(f"admittance.{key} has lateral entries "
                                f"{given.tolist()}, tuning.{key} {tuned}")
    return sc


def read_document(path: str):
    """The JSON document at path; malformed JSON raises ScenarioError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid JSON in {path}: {exc}") from exc


def load_scenario(path: str) -> Scenario:
    return scenario_from_dict(read_document(path))
