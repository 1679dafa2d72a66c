from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose

from swarmlift.admittance import (
    SNAP_EPS,
    AdmittanceMode,
    AdmittanceParams,
    AdmittanceState,
    admittance_step,
    fsm_step,
)
from swarmlift.errors import InvalidCommand

TS = 0.01


def engaged_state(M=(8.0, 8.0, 8.0), C=(6.0, 6.0, 6.0), K=(0.0, 0.0, 0.0)):
    p = AdmittanceParams(M=np.array(M), C=np.array(C), K=np.array(K))
    st = AdmittanceState(params=p)
    st = fsm_step(st, np.zeros(3), TS, command="engage",
                  current_pose=np.zeros(3))
    st = fsm_step(st, np.zeros(3), TS)  # estimates received -> tracking
    return st


def force_all_generating(st):
    st.axis_generating[:] = True
    st.mode = AdmittanceMode.GENERATING
    return st


def test_engage_initializes_reference():
    p = AdmittanceParams()
    st = AdmittanceState(params=p)
    st = fsm_step(st, np.zeros(3), TS, command="engage",
                  current_pose=[1.0, 2.0, 3.0])
    assert st.mode == AdmittanceMode.IDLE
    assert_allclose(st.Lambda_d, [1, 2, 3])
    assert_allclose(st.dLambda_d, np.zeros(3))
    assert_allclose(st.Lambda_r, [1, 2, 3])


def test_zero_force_holds_position():
    st = engaged_state()
    st = force_all_generating(st)
    for _ in range(500):
        st = admittance_step(st, np.zeros(3), TS)
    assert_allclose(st.Lambda_r, st.Lambda_d, atol=1e-12)


def test_constant_force_terminal_velocity():
    # K=0, M=8, C=6, F=6 N: reference velocity -> 1 m/s, settled after 5 M/C
    st = engaged_state()
    st = force_all_generating(st)
    n = int(round(5 * 8.0 / 6.0 / TS))
    for _ in range(n):
        st = admittance_step(st, [6.0, 0, 0], TS)
    assert abs(st.dLambda_r[0] - 1.0) < 0.01
    # analytic first-order solution of M a + C v = F
    v_analytic = 1.0 * (1 - np.exp(-6.0 / 8.0 * (n * TS)))
    assert abs(st.dLambda_r[0] - v_analytic) < 1e-6


def test_spring_static_offset():
    # K_z = 50: constant vertical force leaves offset F/K
    st = engaged_state(K=(0.0, 0.0, 50.0), C=(6.0, 6.0, 30.0))
    st = force_all_generating(st)
    for _ in range(3000):
        st = admittance_step(st, [0, 0, 2.5], TS)
    assert abs((st.Lambda_r[2] - st.Lambda_d[2]) - 2.5 / 50.0) < 0.01 * 2.5 / 50.0


def test_linearity_of_terminal_velocity():
    out = []
    for scale in (1.0, 2.0):
        st = engaged_state()
        st = force_all_generating(st)
        for _ in range(4000):
            st = admittance_step(st, [scale * 6.0, 0, 0], TS)
        out.append(st.dLambda_r[0])
    assert abs(out[1] - 2.0 * out[0]) < 1e-9


def test_compliance_direction():
    st = engaged_state()
    st = force_all_generating(st)
    for _ in range(200):
        st = admittance_step(st, [0.0, -3.0, 0.0], TS)
    assert np.sign(st.dLambda_r[1]) == -1.0


def test_fsm_engagement_debounce():
    # spike above threshold shorter than T_hi does not engage
    st = engaged_state()
    for k in range(8):  # 0.08 s < 0.1 s
        st = fsm_step(st, [1.0, 0, 0], TS)
    assert not st.axis_generating[0]
    st = fsm_step(st, [0.0, 0, 0], TS)
    assert st.timer_above[0] == 0.0
    for k in range(11):
        st = fsm_step(st, [1.0, 0, 0], TS)
    assert st.axis_generating[0]
    assert st.mode == AdmittanceMode.GENERATING


def test_fsm_sinusoid_schedule():
    # hand-computed engage/disengage schedule for |A sin(2 pi f t)| with the
    # documented thresholds 0.6/0.3 N and times 0.1/0.05 s
    p = AdmittanceParams()
    st = AdmittanceState(params=p)
    st = fsm_step(st, np.zeros(3), TS, command="engage", current_pose=np.zeros(3))
    A, f = 1.0, 0.25
    T_end = 4.0
    n = int(round(T_end / TS))
    ev = []  # (time, "w" when axis 0 starts generating, "v" when it stops)
    for k in range(n):
        t = (k + 1) * TS  # the tick's sample time
        F = np.array([A * np.sin(2 * np.pi * f * t), 0.0, 0.0])
        was = st.axis_generating[0]
        st = fsm_step(st, F, TS)
        if st.axis_generating[0] != was:
            ev.append((t, "v" if was else "w"))
    # hand schedule: |F| > 0.6 from t1 = asin(0.6)/w; engaged at t1 + 0.1
    w = 2 * np.pi * f
    t1 = np.arcsin(0.6 / A) / w
    t_engage = t1 + p.T_hi
    # |F| < 0.3 from t2 = (pi - asin(0.3))/w; disengaged at t2 + 0.05
    t2 = (np.pi - np.arcsin(0.3 / A)) / w
    t_disengage = t2 + p.T_lo
    # second period, same crossings shifted by pi/w (|sin| has period pi)
    t_engage2 = t1 + np.pi / w + p.T_hi
    expected = [(t_engage, "w"), (t_disengage, "v"), (t_engage2, "w")]
    assert len(ev) >= 3
    for (t_got, lab_got), (t_exp, lab_exp) in zip(ev, expected):
        assert lab_got == lab_exp
        assert abs(t_got - t_exp) <= TS + 1e-9


def test_fsm_below_threshold_freeze_and_noise_independence():
    def run(noise_seed):
        rng = np.random.default_rng(noise_seed)
        st = engaged_state()
        # engage axis 0 with a strong force, then drop below threshold with a
        # deterministic debounce window so the frozen state is shared
        for _ in range(20):
            st = fsm_step(st, [2.0, 0, 0], TS)
            st = admittance_step(st, [2.0, 0, 0], TS)
        for _ in range(6):
            st = fsm_step(st, [0.2, 0, 0], TS)
            st = admittance_step(st, [0.2, 0, 0], TS)
        assert not st.axis_generating[0]
        traj = []
        for _ in range(2200):
            F = np.array([rng.uniform(-0.25, 0.25), 0, 0])  # sub-threshold
            st = fsm_step(st, F, TS)
            st = admittance_step(st, F, TS)
            traj.append(st.Lambda_r.copy())
        return np.array(traj), st

    tr1, st1 = run(1)
    tr2, st2 = run(2)
    assert_allclose(tr1, tr2, atol=0.0)  # identical despite different noise
    # after the velocity decays, outputs are frozen exactly
    assert np.all(tr1[-100:] == tr1[-1])
    assert not st1.axis_generating[0]


def test_reference_is_c1_across_transitions():
    st = engaged_state()
    prev_r = st.Lambda_r.copy()
    prev_v = st.dLambda_r.copy()
    max_jump_r, max_jump_v = 0.0, 0.0
    for k in range(1200):
        t = k * TS
        F = np.array([3.0 * np.sin(2 * np.pi * 0.2 * t), 0, 0])
        st = fsm_step(st, F, TS)
        st = admittance_step(st, F, TS)
        max_jump_r = max(max_jump_r, abs(st.Lambda_r[0] - prev_r[0]))
        max_jump_v = max(max_jump_v, abs(st.dLambda_r[0] - prev_v[0]))
        prev_r = st.Lambda_r.copy()
        prev_v = st.dLambda_r.copy()
    # per-tick changes bounded by the smooth dynamics, no jumps
    vmax = 3.0 / 6.0  # F/C terminal velocity bound
    amax = (3.0 + 6.0 * vmax) / 8.0
    assert max_jump_r <= vmax * TS * 1.1
    assert max_jump_v <= amax * TS * 1.1


def test_calibration_averages_bias():
    st = engaged_state()
    st = fsm_step(st, np.zeros(3), TS, command="compute_offset")
    assert st.mode == AdmittanceMode.CALIBRATING
    bias = np.array([0.4, -0.2, 0.1])
    n = int(round(st.params.T_avg / TS))
    for _ in range(n):
        st = fsm_step(st, bias, TS)
    assert st.mode != AdmittanceMode.CALIBRATING
    assert_allclose(st.offset, bias, atol=1e-12)
    assert_allclose(st.corrected(bias), np.zeros(3), atol=1e-12)
    st = fsm_step(st, bias, TS, command="remove_offset")
    assert_allclose(st.offset, np.zeros(3))


def test_invalid_commands():
    p = AdmittanceParams()
    st = AdmittanceState(params=p)
    with pytest.raises(InvalidCommand):
        fsm_step(st, np.zeros(3), TS, command="disengage")
    with pytest.raises(InvalidCommand):
        fsm_step(st, np.zeros(3), TS, command="compute_offset")
    st = fsm_step(st, np.zeros(3), TS, command="engage", current_pose=np.zeros(3))
    with pytest.raises(InvalidCommand):
        fsm_step(st, np.zeros(3), TS, command="engage", current_pose=np.zeros(3))


def test_per_axis_engagement_isolated():
    st = engaged_state()
    for _ in range(15):
        st = fsm_step(st, [2.0, 0.1, 0.0], TS)
    assert st.axis_generating[0] and not st.axis_generating[1]
    for _ in range(300):
        st = admittance_step(st, [2.0, 0.1, 0.0], TS)
    assert st.Lambda_r[0] > 0.01
    assert st.Lambda_r[1] == 0.0  # sub-threshold axis never moves


# ------------------------------------------------- FSM properties (random)

# piecewise-constant force sequences: (force, number of ticks) runs, so
# that thresholds are held long enough to trip the debounce
FORCE_RUNS = hst.lists(
    hst.tuples(hst.lists(hst.floats(-2.0, 2.0), min_size=3, max_size=3),
               hst.integers(1, 25)),
    min_size=1, max_size=12)
OFFSETS = hst.lists(hst.floats(-0.5, 0.5), min_size=3, max_size=3)


def engaged_with_offset(offset):
    """Default parameters (a spring on z only), engaged at the origin, with
    a calibrated force offset."""
    st = AdmittanceState(params=AdmittanceParams())
    st = fsm_step(st, np.zeros(3), TS, command="engage",
                  current_pose=np.zeros(3))
    st.offset = np.array(offset)
    return st


def ticks(runs):
    for F, n in runs:
        for _ in range(n):
            yield np.array(F)


@settings(max_examples=50, deadline=None)
@given(FORCE_RUNS, OFFSETS)
def test_fsm_generating_mode_iff_an_axis_generates(runs, offset):
    st = engaged_with_offset(offset)
    for F in ticks(runs):
        st = fsm_step(st, F, TS)
        assert st.mode in (AdmittanceMode.TRACKING, AdmittanceMode.GENERATING)
        assert ((st.mode == AdmittanceMode.GENERATING)
                == bool(st.axis_generating.any()))


@settings(max_examples=50, deadline=None)
@given(FORCE_RUNS, OFFSETS)
def test_fsm_axis_generates_only_after_t_hi_above_f_hi(runs, offset):
    st = engaged_with_offset(offset)
    p = st.params
    above = np.zeros(3)  # time each axis has spent above F_hi, per tick
    for F in ticks(runs):
        was = st.axis_generating.copy()
        st = fsm_step(st, F, TS)
        above = np.where(np.abs(F - st.offset) > p.F_hi, above + TS, 0.0)
        started = st.axis_generating & ~was
        assert np.all(above[started] >= p.T_hi - 1e-9)
        # and a stretch that long always starts the axis
        assert np.all(st.axis_generating[above >= p.T_hi + 1e-9])


@settings(max_examples=50, deadline=None)
@given(FORCE_RUNS, OFFSETS,
       hst.lists(hst.floats(-0.99, 0.99), min_size=6, max_size=6))
def test_admittance_keeps_a_resting_idle_axis_frozen(runs, offset, start):
    st = engaged_with_offset(offset)
    K = st.params.K
    # start each axis at rest but off the exact zero: a residual velocity
    # below SNAP_EPS, and a displacement (below SNAP_EPS on a spring axis)
    st.zdot = SNAP_EPS * np.array(start[:3])
    st.z = np.where(K > 0.0, SNAP_EPS, 1.0) * np.array(start[3:])
    for F in ticks(runs):
        st = fsm_step(st, F, TS)
        z, zdot = st.z.copy(), st.zdot.copy()
        rest = (~st.axis_generating & (np.abs(zdot) < SNAP_EPS)
                & ((K == 0.0) | (np.abs(z) < SNAP_EPS)))
        st = admittance_step(st, F, TS)
        assert np.all(st.zdot[rest] == 0.0)
        assert np.all(st.z[rest] == np.where(K > 0.0, 0.0, z)[rest])


# ------------------------------------------- a stacked team (property)

# a team's schedule: steps of a command ("none" for no command) and then a
# force run, a seeded (S, 3) force in [-2, 2] N held for a number of ticks,
# so that axes cross both thresholds
TEAM_SCHEDULE = hst.lists(
    hst.tuples(hst.sampled_from(["none", "engage", "disengage",
                                 "compute_offset", "remove_offset"]),
               hst.integers(0, 2**32 - 1), hst.integers(1, 25)),
    min_size=1, max_size=12)


def assert_rows_are_states(team, rows):
    """Every array of the stacked team, byte for byte, is the stack of the
    unstacked states' arrays."""
    for f in fields(AdmittanceState):
        if f.name == "params":
            continue
        got = np.asarray(getattr(team, f.name))
        want = np.stack([np.asarray(getattr(st, f.name)) for st in rows])
        if f.name == "calib_time":  # the team's, and each row's
            want = np.unique(want)
        assert got.dtype == want.dtype, f.name
        assert got.tobytes() == want.tobytes(), f.name


@settings(max_examples=60, deadline=None)
@given(hst.integers(1, 5), TEAM_SCHEDULE)
def test_stacked_rows_equal_unstacked_states(S, schedule):
    p = AdmittanceParams(T_avg=0.1)  # calibration ends within a force run
    team = AdmittanceState(p, np.zeros((S, 3)))
    rows = [AdmittanceState(p) for _ in range(S)]
    # engaged first, so that most commands are accepted
    for command, seed, n in [("engage", 0, 1)] + schedule:
        rng = np.random.default_rng(seed)
        pose = rng.uniform(-1.0, 1.0, (S, 3))
        if command != "none":
            refused = set()
            for st, pose_i in zip(rows, pose):
                try:
                    fsm_step(st, None, TS, command=command,
                             current_pose=pose_i)
                    refused.add(False)
                except InvalidCommand:
                    refused.add(True)
            assert len(refused) == 1  # every row was in the same mode
            if refused.pop():
                with pytest.raises(InvalidCommand):
                    fsm_step(team, None, TS, command=command,
                             current_pose=pose)
            else:
                fsm_step(team, None, TS, command=command, current_pose=pose)
            assert_rows_are_states(team, rows)
        F = rng.uniform(-2.0, 2.0, (S, 3))
        for _ in range(n):
            fsm_step(team, F, TS)
            admittance_step(team, F, TS)
            for st, F_i in zip(rows, F):
                fsm_step(st, F_i, TS)
                admittance_step(st, F_i, TS)
            assert_rows_are_states(team, rows)
