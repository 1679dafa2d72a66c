"""Centralized takeoff/landing coordinator.

A single FSM commands the same altitude increment to every agent, waits for
all of them to acknowledge (reach the target within tolerance), engages the
slaves' admittance controllers once the transport altitude is reached, and
mirrors the procedure for landing. Each phase passes once, so the slaves
are engaged once; the phases are valued as the codes the log writes.

An agent that carries part of the payload hovers below its commanded
altitude: its position loop feeds forward only its own weight, so it settles
`sag = share / K_P[2]` lower. Tolerance is therefore measured from the
loaded-hover altitude `target - sag`; with the default `sag = 0` that is the
commanded target itself.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class MissionPhase(enum.IntEnum):
    GROUNDED = 0
    ASCENDING = 1
    TRANSPORTING = 2
    DESCENDING = 3
    LANDED = 4


@dataclass
class MissionState:
    n_agents: int
    transport_altitude: float = 1.2
    dh: float = 0.25
    tol: float = 0.05
    ground_altitude: float = 0.0
    sag: float = 0.0
    phase: MissionPhase = MissionPhase.GROUNDED
    target: float = 0.0
    increments_issued: int = 0


def _all_acked(ms: MissionState, altitudes) -> bool:
    err = np.asarray(altitudes, dtype=float) - (ms.target - ms.sag)
    return bool(np.all(np.abs(err) <= ms.tol))


def mission_step(ms: MissionState, agent_altitudes, begin_descent: bool = False):
    """Advance the coordinator; returns (state, commands).

    Commands are tuples: ("set_altitude", h) broadcast to all agents,
    ("engage_slaves",), ("release_master",), ("disengage_slaves",),
    ("landed",). A new increment is issued only when every agent is within
    tolerance of its loaded-hover altitude, the current target minus `sag`.
    """
    if ms.n_agents < 1 or len(agent_altitudes) != ms.n_agents:
        raise ValueError("altitude list must cover every agent")
    commands = []

    if ms.phase is MissionPhase.GROUNDED:
        ms.target = min(ms.ground_altitude + ms.dh, ms.transport_altitude)
        ms.increments_issued += 1
        ms.phase = MissionPhase.ASCENDING
        commands.append(("set_altitude", ms.target))
        return ms, commands

    if ms.phase is MissionPhase.ASCENDING:
        if _all_acked(ms, agent_altitudes):
            if ms.target >= ms.transport_altitude - 1e-12:
                ms.phase = MissionPhase.TRANSPORTING
                commands.append(("engage_slaves",))
                commands.append(("release_master",))
            else:
                ms.target = min(ms.target + ms.dh, ms.transport_altitude)
                ms.increments_issued += 1
                commands.append(("set_altitude", ms.target))
        return ms, commands

    if ms.phase is MissionPhase.TRANSPORTING:
        if begin_descent:
            commands.append(("disengage_slaves",))
            ms.target = max(ms.target - ms.dh, ms.ground_altitude)
            ms.increments_issued += 1
            ms.phase = MissionPhase.DESCENDING
            commands.append(("set_altitude", ms.target))
        return ms, commands

    if ms.phase is MissionPhase.DESCENDING:
        if _all_acked(ms, agent_altitudes):
            if ms.target <= ms.ground_altitude + 1e-12:
                ms.phase = MissionPhase.LANDED
                commands.append(("landed",))
            else:
                ms.target = max(ms.target - ms.dh, ms.ground_altitude)
                ms.increments_issued += 1
                commands.append(("set_altitude", ms.target))
        return ms, commands

    return ms, commands
