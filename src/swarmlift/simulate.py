"""Fixed-step coupled simulation of N agents rigidly attached to a payload.

Classical RK4 integrates the continuous states (payload rigid body about
the composite CoM, per-agent attitude inner loops and motor lag, or the
per-agent thrust-vector lag in the reduced thrust model), while controller
and estimator outputs are zero-order-held between their ticks. Slaves run
estimator + admittance + PD; the master tracks the scripted reference.

The payload's states and the agents' states are two arrays. The agents
never read the payload, so each tick integrates them first and the
payload after them (integrate_tick).

The team's controller state is a set of (N, ...) arrays, row 0 the master.
Each controller tick runs the low-level cascade once on the whole team, the
slaves' admittance FSMs as one stacked state (one fsm_step and one
admittance_step call) and their EKFs or UKFs as one stacked filter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ekf as ekf_mod
from . import ukf as ukf_mod
from .admittance import AdmittanceState, admittance_step, fsm_step
from .attitude import (
    body_rate_from_euler_rate,
    euler_body_z,
    euler_to_quat,
    quat_normalize,
    quat_rate,
    quat_to_rotmat,
    rotmat_to_euler,
)
from .errors import InvalidCommand, ScenarioError
from .mav import (
    GRAVITY,
    attitude_accel,
    attitude_command,
    pd_position_control,
    rk4_step,
    rotor_speeds_from_wrench,
    saturate_thrust_command,
)
from .mission import MissionPhase, MissionState, mission_step
from .payload import (
    attachment_accel,
    attachment_kinematics,
    com_system,
    joint_interaction_force,
    payload_accel,
)
from .scenario import NOISE_KEYS, Scenario

LOG_VERSION = "swarmlift-log-v1"


def log_columns(n_agents: int, rotor_count: int) -> list[str]:
    cols = ["t"]
    for i in range(n_agents):
        cols += [f"a{i}_p{ax}" for ax in "xyz"]
        cols += [f"a{i}_v{ax}" for ax in "xyz"]
        cols += [f"a{i}_q{ax}" for ax in ("x", "y", "z", "w")]
        cols += [f"a{i}_w{ax}" for ax in "xyz"]
        cols += [f"a{i}_Fprop{ax}" for ax in "xyz"]
        cols += [f"a{i}_Fhat{ax}" for ax in "xyz"]
        cols += [f"a{i}_Lref{ax}" for ax in "xyz"]
        cols += [f"a{i}_cmd_phi", f"a{i}_cmd_theta", f"a{i}_cmd_psi",
                 f"a{i}_cmd_F"]
        cols += [f"a{i}_n{k}" for k in range(rotor_count)]
        cols += [f"a{i}_fsm"]
    cols += [f"pl_p{ax}" for ax in "xyz"]
    cols += [f"pl_q{ax}" for ax in ("x", "y", "z", "w")]
    cols += [f"pl_v{ax}" for ax in "xyz"]
    cols += [f"pl_w{ax}" for ax in "xyz"]
    cols += ["mission_phase"]
    return cols


@dataclass
class RunLog:
    columns: list
    data: np.ndarray
    diverged: bool = False
    diverged_step: int | None = None
    meta: dict = field(default_factory=dict)

    def col(self, name: str) -> np.ndarray:
        return self.data[:, self.columns.index(name)]

    def cols(self, names) -> np.ndarray:
        idx = [self.columns.index(n) for n in names]
        return self.data[:, idx]

    @property
    def t(self) -> np.ndarray:
        return self.col("t")

    def payload_columns(self) -> list:
        return [c for c in self.columns if c.startswith("pl_")]

    def payload_bytes(self) -> bytes:
        return self.cols(self.payload_columns()).tobytes()

    def to_csv(self, path_or_buf) -> None:
        buf = path_or_buf if hasattr(path_or_buf, "write") else open(
            path_or_buf, "w")
        try:
            # the hash of the scenario that wrote the log, when known
            config = ("" if "config_hash" not in self.meta
                      else f" config_hash={self.meta['config_hash']}")
            buf.write(f"# {LOG_VERSION} diverged={int(self.diverged)}"
                      f" diverged_step={self.diverged_step}{config}\n")
            buf.write(",".join(self.columns) + "\n")
            for row in self.data:
                buf.write(",".join(repr(float(x)) for x in row) + "\n")
        finally:
            if not hasattr(path_or_buf, "write"):
                buf.close()

    @classmethod
    def from_csv(cls, path_or_buf) -> "RunLog":
        """Load a log that to_csv wrote. Raises ScenarioError on any other
        file: a header token that is not key=value, a flag or cell that is
        not a number, no data row, or a row not as wide as the column
        names."""
        buf = path_or_buf if hasattr(path_or_buf, "read") else open(path_or_buf)
        try:
            header = buf.readline().strip()
            if not header.startswith(f"# {LOG_VERSION}"):
                raise ScenarioError(f"not a {LOG_VERSION} file: {header!r}")
            fields = {}
            for kv in header.split()[2:]:
                key, eq, value = kv.partition("=")
                if not eq:
                    raise ScenarioError(f"log header token {kv!r} is not "
                                        "key=value")
                fields[key] = value
            columns = buf.readline().strip().split(",")
            rows = buf.readlines()
            if not any(map(str.strip, rows)):  # loadtxt would only warn
                raise ScenarioError("malformed log: no data rows")
            data = np.loadtxt(rows, delimiter=",", ndmin=2)
            diverged = bool(int(fields.get("diverged", "0")))
            step = fields.get("diverged_step", "None")
            step = None if step == "None" else int(step)
        except ValueError as exc:  # int() or loadtxt on a malformed entry
            # loadtxt's advice on a ragged row ("; use `usecols`") is dropped
            msg = str(exc).split(";")[0]
            raise ScenarioError(f"malformed log: {msg}") from None
        finally:
            if not hasattr(path_or_buf, "read"):
                buf.close()
        if data.shape[1] != len(columns):
            raise ScenarioError(f"malformed log: its rows have {data.shape[1]}"
                                f" values, its header {len(columns)} names")
        meta = ({"config_hash": fields["config_hash"]}
                if "config_hash" in fields else {})
        return cls(columns=columns, data=data, diverged=diverged,
                   diverged_step=step, meta=meta)


def agent_thrust(sc: Scenario, xa):
    """World thrusts (..., N, 3) of stacked agent state arrays xa (..., n):
    the attitude model's (eta, eta_dot, each N x 3 row by row, then F_mag)
    or the lag model's thrust vectors F_lag (N x 3, row by row)."""
    N = sc.n_agents
    shape = xa.shape[:-1] + (N, 3)
    if sc.thrust_model == "attitude":
        return (euler_body_z(xa[..., :3 * N].reshape(shape))
                * xa[..., 6 * N:, None])
    return xa.reshape(shape)


def integrate_tick(sc: Scenario, com, x, xa, held, t: float):
    """Integrate one controller tick: the payload state x (p, v, q, w) and
    the agents' state array xa (see agent_thrust) under the held commands,
    (eta_cmd, F_cmd_mag) in the attitude model and the saturated thrust
    command in the lag model. Returns the new (x, xa).

    The agents never read the payload, so RK4 runs xa over the whole tick
    first and records the state of each of its 4 * steps stages (rk4_step
    calls rhs four times per step, in stage order). One agent_thrust call
    gives every stage's world thrust (4 * steps, N, 3), one np.add.reduce
    call their F_sum, and the payload's RK4 reads row k of both at its k-th
    stage, renormalizing the quaternion after every step. RK4 and the
    kernels are elementwise, so this has the bits of one RK4 on the joint
    state.
    """
    N, h, steps = sc.n_agents, sc.Ts_dyn, sc.steps_per_ctrl
    e, f = 3 * N, 6 * N
    mav, drag_F, drag_M = sc.mav, sc.payload.drag_F, sc.payload.drag_M
    stages = []
    if sc.thrust_model == "attitude":
        eta_cmd, F_cmd_mag = held
        eta_cmd = eta_cmd.reshape(-1)

        def agent_rhs(t, xa):
            stages.append(xa)
            etdd = attitude_accel(xa[:e], xa[e:f], eta_cmd, mav.omega_n_att)
            return np.concatenate((xa[e:f], etdd,
                                   (F_cmd_mag - xa[f:]) / mav.tau_motor))
    else:
        def agent_rhs(t, xa):
            stages.append(xa)
            return ((held - xa.reshape(N, 3)) / mav.tau_thrust).ravel()

    def payload_rhs(t, x):
        Fw, F_sum = next(stage_thrust)
        v, q, w = x[3:6], x[6:10], x[10:13]
        R = quat_to_rotmat(q)
        vdot, wdot = payload_accel(com, drag_F, drag_M, R, v, w, F_sum,
                                   Fw @ R)
        return np.concatenate((v, vdot, quat_rate(q, w), wdot))

    for j in range(steps):
        xa = rk4_step(agent_rhs, t + j * h, xa, h)
    Fw = agent_thrust(sc, np.array(stages))
    stage_thrust = zip(Fw, np.add.reduce(Fw, -2))
    for j in range(steps):
        x = rk4_step(payload_rhs, t + j * h, x, h)
        x[6:10] = quat_normalize(x[6:10])
    return x, xa


def run_scenario(sc: Scenario) -> RunLog:
    """Deterministic fixed-step simulation of a scenario; divergence is
    reported in the log, and an event the FSM refuses as ScenarioError."""
    N = sc.n_agents
    com = com_system(sc.payload, np.full(N, sc.mav.m))
    rng = np.random.default_rng(sc.seed)
    # std devs of the (p, v, att, rate) measurement noise
    noise_std = np.array([float(sc.noise.get(key, 0.0))
                          for key in NOISE_KEYS])[:, None]
    use_noise = noise_std.max() > 0.0

    share = sc.payload.m_p * GRAVITY / N
    F_int_trim = np.array([0.0, 0.0, -share])
    sag = share / sc.mav.K_P[2]

    # initial condition: engaged-hover trim at the transport altitude, or
    # hover at the ground level waiting for the coordinator
    alt0 = sc.transport_altitude if sc.start_engaged else 0.0
    p_pl = np.array([0.0, 0.0, alt0 - sag])
    v_pl = np.zeros(3)
    q_pl = np.array([0.0, 0.0, 0.0, 1.0])
    w_pl = np.zeros(3)
    eta = np.zeros((N, 3))
    eta_dot = np.zeros((N, 3))
    F_mag = np.full(N, sc.mav.m * GRAVITY + share)
    F_lag = np.zeros((N, 3))  # thrust-vector states for the lag model
    F_lag[:, 2] = F_mag

    # RK4 integrates the payload's p, v, q, w in the array x and the agents'
    # states in the array xa: the attitude model's eta, eta_dot (each N x 3,
    # row by row) and F_mag, or the lag model's F_lag. Each tick reads the
    # payload's names, and the attitude model's eta and eta_dot, as views.
    x = np.concatenate([p_pl, v_pl, q_pl, w_pl])
    if sc.thrust_model == "attitude":
        xa = np.concatenate([eta.ravel(), eta_dot.ravel(), F_mag])
    else:
        xa = F_lag.ravel()

    p_agents0 = p_pl[None, :] + com.attachments
    hover_ref = p_agents0 + np.array([0.0, 0.0, sag])[None, :]

    mission = None
    if sc.mission_auto:
        mission = MissionState(sc.transport_altitude, sc.mission_dh,
                               sc.mission_tol, sag)

    # The controllers' discrete state and zero-order-held outputs, one row
    # per agent, row 0 the master. hold is the position an agent holds
    # while it follows no reference: its takeoff pose, the reference a
    # disengaging FSM hands back, and the coordinator's altitude.
    master_p = hover_ref[0].copy()
    master_v = np.zeros(3)
    hold = hover_ref.copy()
    ref_p = hover_ref.copy()
    ref_v = np.zeros((N, 3))
    eta_cmd = np.zeros((N, 3))
    F_cmd_mag = F_mag.copy()
    rotor = rotor_speeds_from_wrench(np.zeros((N, 3)), F_mag, sc.mav)
    F_hat = np.zeros((N, 3))
    F_hat[1:] = F_int_trim
    # the slaves' admittance FSMs as one state, row i - 1 for agent i;
    # fsm_step and admittance_step update it in place
    adm = AdmittanceState(sc.adm, np.zeros((N - 1, 3)))
    if sc.start_engaged:
        fsm_step(adm, None, 1.0 / sc.ctrl_rate, command="engage",
                 current_pose=hover_ref[1:])
        adm.offset[:] = F_int_trim
    # the slaves' EKFs or UKFs run as one stacked filter, row i - 1 for
    # agent i
    ekf_est = None
    if sc.estimator == "ekf" and N > 1:
        ekf_est = ekf_mod.ekf_init(p_agents0[1:], np.zeros(3), np.zeros(3),
                                   np.zeros(3))
        ekf_est.x[:, ekf_mod.F_SL] = F_int_trim
    ukf_est = None
    if sc.estimator == "ukf" and N > 1:
        ukf_est = ukf_mod.ukf_init(p_agents0[1:], np.zeros(3),
                                   euler_to_quat(np.zeros(3)), np.zeros(3))
        ukf_est.xi[:, ukf_mod.F_SL] = F_int_trim

    ekf_Q = ekf_mod.default_ekf_Q(sc.est_rate)
    ekf_R = ekf_mod.default_ekf_R()
    ukf_Q = ukf_mod.default_ukf_Q(sc.est_rate)
    ukf_R = ukf_mod.default_ukf_R()

    n_ctrl = int(round(sc.duration * sc.ctrl_rate))
    cols = log_columns(N, sc.mav.rotor_count)
    data = np.zeros((n_ctrl, len(cols)))
    diverged = False
    diverged_step = None

    events = sorted(sc.events, key=lambda e: e["t"])
    ev_idx = 0
    dt_ctrl = 1.0 / sc.ctrl_rate
    dt_est = 1.0 / sc.est_rate
    t = 0.0

    drag_F = sc.payload.drag_F
    drag_M = sc.payload.drag_M
    def engage_slaves(calibrate=False):
        # latch at the held reference, not the sagged pose
        if not adm.engaged.any():
            fsm_step(adm, None, dt_ctrl, command="engage",
                     current_pose=ref_p[1:])
            if calibrate:
                fsm_step(adm, None, dt_ctrl, command="compute_offset")

    def disengage_slaves():
        # hold the reference the FSM hands back, not the takeoff position
        if adm.engaged.any():
            fsm_step(adm, None, dt_ctrl, command="disengage")
            hold[1:] = adm.Lambda_d

    for k in range(n_ctrl):
        p_pl, v_pl, q_pl, w_pl = x[0:3], x[3:6], x[6:10], x[10:13]
        if sc.thrust_model == "attitude":
            eta, eta_dot = xa[:6 * N].reshape(2, N, 3)

        # scheduled events
        while ev_idx < len(events) and events[ev_idx]["t"] <= t + 1e-12:
            ev = events[ev_idx]
            ev_idx += 1
            act = ev["action"]
            if act == "master_step":
                master_p = master_p + np.asarray(ev["dp"], dtype=float)
            elif act == "master_velocity":
                master_v = np.asarray(ev["v"], dtype=float)
            elif act == "engage_slaves":
                engage_slaves()
            elif act == "disengage_slaves":
                disengage_slaves()
            elif act in ("compute_offset", "remove_offset"):
                try:
                    fsm_step(adm, None, dt_ctrl, command=act)
                except InvalidCommand as exc:
                    raise ScenarioError(
                        f"event {act} at t={ev['t']}: {exc}") from None
            else:
                raise ScenarioError(f"unknown event action {act!r}")

        # current constrained kinematics
        R_pl = quat_to_rotmat(q_pl)
        p_i, v_i, w_x_r = attachment_kinematics(com, p_pl, v_pl, R_pl, w_pl)
        # the mission coordinator at the controller rate (it reads the
        # landing time only while transporting) and its three commands
        if mission is not None:
            begin = sc.mission_land_at is not None and t >= sc.mission_land_at
            for cmd in mission_step(mission, p_i[:, 2], begin):
                if cmd[0] == "set_altitude":
                    hold[:, 2] = cmd[1]
                elif cmd[0] == "engage_slaves":
                    # calibrate the static load share out of the estimate
                    engage_slaves(calibrate=True)
                elif cmd[0] == "disengage_slaves":
                    # the master, too, descends where transport left it
                    hold[0, :2] = master_p[:2]
                    disengage_slaves()

        Fw_now = agent_thrust(sc, xa)
        omega_i = body_rate_from_euler_rate(eta, eta_dot)

        # estimators (slaves) at their own rate
        if k % sc.ctrl_per_est == 0:
            # (slave, p / v / att / rate, axis), drawn slave by slave;
            # 0.0 + std * z is how rng.normal adds its zero mean
            meas = np.stack([p_i, v_i, eta, omega_i], axis=1)[1:]
            noise = (noise_std * rng.standard_normal(meas.shape)
                     if use_noise else 0.0)
            meas = meas + (0.0 + noise)
            if ekf_est is not None:
                u = np.concatenate([eta_cmd[1:], F_cmd_mag[1:, None]], axis=1)
                ekf_est = ekf_mod.ekf_predict(ekf_est, u, ekf_Q, dt_est,
                                              sc.mav)
                # each slave's (p, att) measurement
                ekf_est = ekf_mod.ekf_update(
                    ekf_est, meas[:, 0::2].reshape(-1, 6), ekf_R)
                F_hat[1:] = ekf_est.F_ext
            elif ukf_est is not None:
                q_m = euler_to_quat(meas[:, 2])
                ukf_est = ukf_mod.ukf_predict(ukf_est, rotor[1:], ukf_Q,
                                              sc.mav, dt_est)
                ukf_est = ukf_mod.ukf_update(ukf_est, meas[:, 0], meas[:, 1],
                                             q_m, meas[:, 3], ukf_R)
                F_hat[1:] = ukf_est.F_ext
            elif sc.estimator == "nominal":
                # the coupled accelerations, which only this model reads
                vdot_now, wdot_now = payload_accel(
                    com, drag_F, drag_M, R_pl, v_pl, w_pl,
                    np.add.reduce(Fw_now, -2), Fw_now @ R_pl)
                a_i = attachment_accel(com, R_pl, w_pl, w_x_r, vdot_now,
                                       wdot_now)
                F_int = joint_interaction_force(a_i[1:], Fw_now[1:], sc.mav.m)
                alpha = 1.0 - np.exp(-dt_est / sc.mav.tau_est)
                F_hat[1:] = F_hat[1:] + alpha * (F_int - F_hat[1:])

        # references: the master's script or hold, the slaves' admittance
        # FSM or hold
        master_p = master_p + dt_ctrl * master_v
        if mission is not None and mission.phase is not MissionPhase.TRANSPORTING:
            master_p = hold[0].copy()
            ref_p[0], ref_v[0] = hold[0], 0.0
        else:
            ref_p[0], ref_v[0] = master_p, master_v
        if adm.engaged.any():
            fsm_step(adm, F_hat[1:], dt_ctrl)
            admittance_step(adm, F_hat[1:], dt_ctrl)
            ref_p[1:], ref_v[1:] = adm.Lambda_r, adm.dLambda_r
        else:
            ref_p[1:], ref_v[1:] = hold[1:], 0.0

        # the team's low-level cascade: PD, thrust allocation, attitude loop
        # and rotors
        F_cmd_w = pd_position_control(p_i, v_i, ref_p, ref_v, sc.mav)
        eta_cmd, F_cmd_mag, M_cmd = attitude_command(F_cmd_w, eta, eta_dot,
                                                     omega_i, sc.mav)
        # the UKF's rotor input: allocated from the commanded thrust
        rotor = rotor_speeds_from_wrench(M_cmd, F_cmd_mag, sc.mav)

        # log the tick
        q_i = euler_to_quat(eta)
        agent_rows = np.concatenate(
            [p_i, v_i, q_i, omega_i, Fw_now, F_hat, ref_p, eta_cmd,
             F_cmd_mag[:, None], rotor,
             np.concatenate(([-1], adm.mode))[:, None]], axis=1)
        data[k, :] = np.concatenate(
            [[t], agent_rows.ravel(), p_pl, q_pl, v_pl, w_pl,
             [mission.phase if mission else -1]])

        # integrate the coupled dynamics over one controller period
        if sc.thrust_model == "attitude":
            held = eta_cmd, F_cmd_mag
        else:
            held = saturate_thrust_command(F_cmd_w, sc.mav)
        x, xa = integrate_tick(sc, com, x, xa, held, t)

        t += dt_ctrl
        # the payload's p, v and w, in one np.max so that a NaN anywhere
        # is flagged at its own tick
        state_mag = np.max(np.abs(np.concatenate((x[0:6], x[10:13]))))
        if not np.isfinite(state_mag) or state_mag > sc.divergence_bound:
            diverged = True
            diverged_step = k
            data = data[:k + 1]
            break

    return RunLog(columns=cols, data=data, diverged=diverged,
                  diverged_step=diverged_step,
                  meta={"config_hash": sc.config_hash()})


def replay_log(log: RunLog, sc: Scenario, agent: int = 1) -> np.ndarray:
    """Feed a recorded log back through an estimator for one agent.

    Returns (T, 4) array: time plus the re-estimated external force. Uses
    the commands (EKF) or rotor speeds (UKF) recorded in the log.
    """
    if agent < 1 or agent >= sc.n_agents:
        raise ScenarioError("replay runs on a slave agent index")
    groups = [[f"a{agent}_{name}" for name in group] for group in (
        ("px", "py", "pz"), ("vx", "vy", "vz"), ("qx", "qy", "qz", "qw"),
        ("wx", "wy", "wz"), ("cmd_phi", "cmd_theta", "cmd_psi", "cmd_F"),
        [f"n{k}" for k in range(sc.mav.rotor_count)])]
    for name in ["t"] + [name for group in groups for name in group]:
        if name not in log.columns:
            raise ScenarioError(f"replay needs the log column {name!r}, "
                                "which the log lacks")
    t = log.t
    if t.size < 2:  # the step is read off the first two rows
        raise ScenarioError(
            f"replay needs a log of at least two rows, got {t.size}")
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf
        dt = float(t[1] - t[0])
        off = ~(np.abs(np.diff(t) - dt) <= 1e-6 * dt)  # NaN counts as off
    if not 0.0 < dt < np.inf:
        raise ScenarioError(
            f"replay needs a positive finite time step, got {dt}")
    if off.any():
        k = int(np.argmax(off)) + 1
        raise ScenarioError(f"replay needs evenly stepped times: row {k} "
                            f"has t={t[k]} after t={t[k - 1]}")
    p, v, q, w, cmd, rotors = (log.cols(group) for group in groups)
    out = np.zeros((t.size, 4))
    out[:, 0] = t
    if sc.estimator == "ekf":
        Q, R = ekf_mod.default_ekf_Q(1.0 / dt), ekf_mod.default_ekf_R()
        eta0 = rotmat_to_euler(quat_to_rotmat(q[0]))
        est = ekf_mod.ekf_init(p[0], v[0], eta0, w[0])
        for k in range(t.size):
            est = ekf_mod.ekf_predict(est, tuple(cmd[k]), Q, dt, sc.mav)
            eta_k = rotmat_to_euler(quat_to_rotmat(q[k]))
            est = ekf_mod.ekf_update(est, np.concatenate([p[k], eta_k]), R)
            out[k, 1:] = est.F_ext
    elif sc.estimator == "ukf":
        Q, R = ukf_mod.default_ukf_Q(1.0 / dt), ukf_mod.default_ukf_R()
        est = ukf_mod.ukf_init(p[0], v[0], q[0], w[0])
        for k in range(t.size):
            est = ukf_mod.ukf_predict(est, rotors[k], Q, sc.mav, dt)
            est = ukf_mod.ukf_update(est, p[k], v[k], q[k], w[k], R)
            out[k, 1:] = est.F_ext
    else:
        raise ScenarioError("replay supports the ekf and ukf estimators")
    return out
