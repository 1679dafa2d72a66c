"""The takeoff/landing coordinator: its increment barrier, its phase
sequence, and a seeded property test against its earlier formulation.

``OldMissionState`` and ``old_mission_step`` are the coordinator before its
two rules (one ascend, one descend) replaced four phase branches, kept
verbatim apart from their names. The new coordinator must give the same
phase, target and commands at every step, with the two commands that
nothing read, ``release_master`` and ``landed``, dropped.
"""

from dataclasses import dataclass

import numpy as np

from swarmlift.mission import MissionPhase, MissionState, mission_step


@dataclass
class OldMissionState:
    n_agents: int
    transport_altitude: float = 1.2
    dh: float = 0.25
    tol: float = 0.05
    ground_altitude: float = 0.0
    sag: float = 0.0
    phase: MissionPhase = MissionPhase.GROUNDED
    target: float = 0.0
    increments_issued: int = 0


def _old_all_acked(ms, altitudes) -> bool:
    err = np.asarray(altitudes, dtype=float) - (ms.target - ms.sag)
    return bool(np.all(np.abs(err) <= ms.tol))


def old_mission_step(ms, agent_altitudes, begin_descent: bool = False):
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
        if _old_all_acked(ms, agent_altitudes):
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
        if _old_all_acked(ms, agent_altitudes):
            if ms.target <= ms.ground_altitude + 1e-12:
                ms.phase = MissionPhase.LANDED
                commands.append(("landed",))
            else:
                ms.target = max(ms.target - ms.dh, ms.ground_altitude)
                ms.increments_issued += 1
                commands.append(("set_altitude", ms.target))
        return ms, commands

    return ms, commands


def state(sag=0.0):
    """The coordinator with the scenario's default settings."""
    return MissionState(transport_altitude=1.2, dh=0.25, tol=0.05, sag=sag)


def test_increment_barrier():
    ms = state()
    cmds = mission_step(ms, [0.0, 0.0, 0.0], False)
    assert ms.phase is MissionPhase.ASCENDING
    assert ("set_altitude", 0.25) in cmds
    # one lagging agent blocks the next increment
    cmds = mission_step(ms, [0.25, 0.25, 0.1], False)
    assert cmds == []
    assert ms.target == 0.25
    cmds = mission_step(ms, [0.26, 0.24, 0.23], False)
    assert ("set_altitude", 0.5) in cmds


def test_full_mission_phase_sequence():
    ms = state()
    alts = np.zeros(2)
    engaged, disengaged, engage_count, increments = False, False, 0, 0
    phases = []  # each phase the coordinator enters, in order
    for k in range(200):
        begin = ms.phase is MissionPhase.TRANSPORTING and k > 40
        cmds = mission_step(ms, alts, begin)
        if not phases or phases[-1] is not ms.phase:
            phases.append(ms.phase)
        for c in cmds:
            if c[0] == "set_altitude":
                alts[:] = c[1]  # agents track perfectly between calls
                increments += 1
            elif c[0] == "engage_slaves":
                assert not engaged  # engaged exactly once per mission
                engaged = True
                engage_count += 1
            elif c[0] == "disengage_slaves":
                assert engaged and not disengaged
                disengaged = True
        if ms.phase is MissionPhase.LANDED:
            break
    assert ms.phase is MissionPhase.LANDED
    assert engage_count == 1
    assert phases == [MissionPhase.ASCENDING, MissionPhase.TRANSPORTING,
                      MissionPhase.DESCENDING, MissionPhase.LANDED]
    # 1.2 / 0.25 -> 5 ascent increments (capped at 1.2), then 5 descent
    assert increments == 10


def test_disengage_precedes_descent():
    ms = state()
    mission_step(ms, [0, 0], False)
    for _ in range(10):
        cmds = mission_step(ms, [ms.target] * 2, False)
        if ms.phase is MissionPhase.TRANSPORTING:
            break
    cmds = mission_step(ms, [ms.target] * 2, True)
    names = [c[0] for c in cmds]
    assert names.index("disengage_slaves") < names.index("set_altitude")


def test_ack_measured_from_loaded_hover_altitude():
    # a loaded agent settles `sag` below its commanded altitude
    ms = state(sag=0.3)
    mission_step(ms, [0.0, 0.0], False)
    assert ms.target == 0.25
    cmds = mission_step(ms, [0.25, 0.25], False)  # at the bare target: no ack
    assert cmds == []
    cmds = mission_step(ms, [0.25 - 0.3, 0.25 - 0.3 + 0.04], False)
    assert ("set_altitude", 0.5) in cmds


def test_matches_the_old_coordinator_on_random_traces():
    # random teams, settings and altitude traces: most steps put each agent
    # near its loaded-hover altitude, so some are acknowledged and some are
    # not, and the landing may begin at any tick, in any phase. Half the
    # transport altitudes are a whole number of steps, where the summed
    # steps may stop a rounding error short of the top or of the ground.
    rng = np.random.default_rng(20171123)
    seen = set()
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        dh = float(rng.uniform(0.05, 0.6))
        top = float(rng.choice([rng.uniform(0.2, 2.0),
                                dh * rng.integers(1, 8)]))
        tol = float(rng.uniform(0.01, 0.1))
        sag = float(rng.choice([0.0, rng.uniform(0.0, 0.4)]))
        old = OldMissionState(n_agents=n, transport_altitude=top, dh=dh,
                              tol=tol, sag=sag)
        new = MissionState(top, dh, tol, sag)
        p_begin = rng.uniform(0.0, 0.3)
        for _ in range(int(rng.integers(1, 120))):
            hover = old.target - old.sag
            spread = tol * rng.choice([0.5, 1.0, 1.5])
            alts = hover + rng.uniform(-spread, spread, n)
            if rng.random() < 0.1:
                alts = rng.uniform(-1.0, 3.0, n)
            elif rng.random() < 0.1:  # on the tolerance's edge
                alts = hover + rng.choice([-tol, tol], n)
            begin = bool(rng.random() < p_begin)
            old, old_cmds = old_mission_step(old, alts, begin)
            cmds = mission_step(new, alts, begin)
            assert cmds == [c for c in old_cmds
                            if c[0] not in ("release_master", "landed")]
            assert new.phase is old.phase
            assert np.float64(new.target).tobytes() == \
                np.float64(old.target).tobytes()
            seen.add(new.phase)
    # the traces reach every phase
    assert seen == set(MissionPhase) - {MissionPhase.GROUNDED}
