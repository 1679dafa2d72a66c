import numpy as np

from swarmlift.mission import MissionPhase, MissionState, mission_step


def test_increment_barrier():
    ms = MissionState(n_agents=3)
    ms, cmds = mission_step(ms, [0.0, 0.0, 0.0])
    assert ms.phase is MissionPhase.ASCENDING
    assert ("set_altitude", 0.25) in cmds
    # one lagging agent blocks the next increment
    ms, cmds = mission_step(ms, [0.25, 0.25, 0.1])
    assert cmds == []
    assert ms.target == 0.25
    ms, cmds = mission_step(ms, [0.26, 0.24, 0.23])
    assert ("set_altitude", 0.5) in cmds


def test_full_mission_phase_sequence():
    ms = MissionState(n_agents=2, transport_altitude=1.2, dh=0.25, tol=0.05)
    alts = np.zeros(2)
    engaged, disengaged, engage_count = False, False, 0
    phases = []  # each phase the coordinator enters, in order
    for k in range(200):
        begin = ms.phase is MissionPhase.TRANSPORTING and k > 40
        ms, cmds = mission_step(ms, alts, begin_descent=begin)
        if not phases or phases[-1] is not ms.phase:
            phases.append(ms.phase)
        for c in cmds:
            if c[0] == "set_altitude":
                alts[:] = c[1]  # agents track perfectly between calls
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
    assert ms.increments_issued == 10


def test_disengage_precedes_descent():
    ms = MissionState(n_agents=2)
    ms, _ = mission_step(ms, [0, 0])
    for _ in range(10):
        ms, cmds = mission_step(ms, [ms.target] * 2)
        if ms.phase is MissionPhase.TRANSPORTING:
            break
    ms, cmds = mission_step(ms, [ms.target] * 2, begin_descent=True)
    names = [c[0] for c in cmds]
    assert names.index("disengage_slaves") < names.index("set_altitude")


def test_ack_measured_from_loaded_hover_altitude():
    # a loaded agent settles `sag` below its commanded altitude
    ms = MissionState(n_agents=2, dh=0.25, tol=0.05, sag=0.3)
    ms, _ = mission_step(ms, [0.0, 0.0])
    assert ms.target == 0.25
    ms, cmds = mission_step(ms, [0.25, 0.25])  # at the bare target: no ack
    assert cmds == []
    ms, cmds = mission_step(ms, [0.25 - 0.3, 0.25 - 0.3 + 0.04])
    assert ("set_altitude", 0.5) in cmds
