"""Centralized takeoff/landing coordinator.

A single FSM broadcasts the same altitude increment to every agent,
("set_altitude", h), and waits for all of them to acknowledge it (reach the
target within tolerance). Once the transport altitude is acknowledged it
engages the slaves' admittance controllers, ("engage_slaves",). Landing
mirrors the ascent: ("disengage_slaves",), then steps down to the ground at
altitude 0. Each phase passes once, so the slaves are engaged once; the
phases are valued as the codes the log writes. The transport altitude, step
and tolerance are the scenario's `transport_altitude`, `mission.dh` and
`mission.tol`.

An agent that carries part of the payload hovers below its commanded
altitude: its position loop feeds forward only its own weight, so it settles
`sag = share / K_P[2]` lower. Tolerance is therefore measured from the
loaded-hover altitude `target - sag`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class MissionPhase(enum.IntEnum):
    GROUNDED = 0
    ASCENDING = 1
    TRANSPORTING = 2
    DESCENDING = 3
    LANDED = 4


@dataclass
class MissionState:
    transport_altitude: float
    dh: float
    tol: float
    sag: float
    # the coordinator's state, which every mission starts from
    phase: MissionPhase = field(init=False, default=MissionPhase.GROUNDED)
    target: float = field(init=False, default=0.0)


def _all_acked(ms: MissionState, altitudes) -> bool:
    err = np.asarray(altitudes, dtype=float) - (ms.target - ms.sag)
    return bool(np.all(np.abs(err) <= ms.tol))


def mission_step(ms: MissionState, agent_altitudes, begin_descent: bool):
    """Advance the coordinator in place; returns its commands, the tuples
    above. Only an acknowledged step moves the target on."""
    phase, commands = ms.phase, []
    # an acknowledged step of the ascent or of the descent
    up = phase is MissionPhase.ASCENDING and _all_acked(ms, agent_altitudes)
    down = phase is MissionPhase.DESCENDING and _all_acked(ms, agent_altitudes)
    if phase is MissionPhase.GROUNDED or (
            up and ms.target < ms.transport_altitude - 1e-12):
        ms.phase = MissionPhase.ASCENDING
        ms.target = min(ms.target + ms.dh, ms.transport_altitude)
        commands.append(("set_altitude", ms.target))
    elif up:
        ms.phase = MissionPhase.TRANSPORTING
        commands.append(("engage_slaves",))
    elif (phase is MissionPhase.TRANSPORTING and begin_descent) or (
            down and ms.target > 1e-12):
        if phase is MissionPhase.TRANSPORTING:
            commands.append(("disengage_slaves",))
        ms.phase = MissionPhase.DESCENDING
        ms.target = max(ms.target - ms.dh, 0.0)
        commands.append(("set_altitude", ms.target))
    elif down:
        ms.phase = MissionPhase.LANDED
    return commands
