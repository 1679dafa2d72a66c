"""Fixed-step coupled simulation of N agents rigidly attached to a payload.

Classical RK4 integrates the continuous states (payload rigid body about
the composite CoM, per-agent attitude inner loops and motor lag, or the
per-agent thrust-vector lag in the reduced thrust model) while controller
and estimator outputs are zero-order-held between their ticks. Slaves run
estimator + admittance + PD; the master tracks the scripted reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ekf as ekf_mod
from . import ukf as ukf_mod
from .admittance import AdmittanceMode, AdmittanceState, admittance_step, fsm_step
from .attitude import (
    body_rate_from_euler_rate,
    cross3,
    euler_body_z,
    euler_to_quat,
    quat_normalize,
    quat_to_rotmat,
    rotmat_to_euler,
)
from .errors import ScenarioError
from .mav import (
    GRAVITY,
    AgentState,
    attitude_accel,
    pd_position_control,
    rk4_step,
    rotor_speeds_from_wrench,
    saturate_thrust_command,
    thrust_to_attitude,
)
from .mission import MissionPhase, MissionState, mission_step
from .payload import (
    attachment_kinematics,
    com_system,
    joint_interaction_force,
    payload_accel,
)
from .scenario import Scenario

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


FSM_CODE = {AdmittanceMode.DISENGAGED: 0, AdmittanceMode.IDLE: 1,
            AdmittanceMode.CALIBRATING: 2, AdmittanceMode.TRACKING: 3,
            AdmittanceMode.GENERATING: 4}
PHASE_CODE = {MissionPhase.GROUNDED: 0, MissionPhase.ASCENDING: 1,
              MissionPhase.TRANSPORTING: 2, MissionPhase.DESCENDING: 3,
              MissionPhase.LANDED: 4}


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
            buf.write(f"# {LOG_VERSION} diverged={int(self.diverged)}"
                      f" diverged_step={self.diverged_step}\n")
            buf.write(",".join(self.columns) + "\n")
            for row in self.data:
                buf.write(",".join(repr(float(x)) for x in row) + "\n")
        finally:
            if not hasattr(path_or_buf, "write"):
                buf.close()

    @classmethod
    def from_csv(cls, path_or_buf) -> "RunLog":
        buf = path_or_buf if hasattr(path_or_buf, "read") else open(path_or_buf)
        try:
            header = buf.readline().strip()
            if not header.startswith(f"# {LOG_VERSION}"):
                raise ScenarioError(f"not a {LOG_VERSION} file: {header!r}")
            fields = dict(kv.split("=") for kv in header.split()[2:])
            columns = buf.readline().strip().split(",")
            data = np.loadtxt(buf, delimiter=",", ndmin=2)
        finally:
            if not hasattr(path_or_buf, "read"):
                buf.close()
        step = fields.get("diverged_step", "None")
        return cls(columns=columns, data=data,
                   diverged=bool(int(fields.get("diverged", "0"))),
                   diverged_step=None if step == "None" else int(step))


@dataclass
class _AgentCtl:
    """Zero-order-held controller outputs and per-agent discrete state."""

    eta_cmd: np.ndarray
    F_cmd_mag: float
    F_cmd_w: np.ndarray
    rotor: np.ndarray
    adm: AdmittanceState | None = None
    est: object = None
    F_hat: np.ndarray = field(default_factory=lambda: np.zeros(3))
    ref_p: np.ndarray = field(default_factory=lambda: np.zeros(3))
    ref_v: np.ndarray = field(default_factory=lambda: np.zeros(3))
    alt_target: float = 0.0
    hold_xy: np.ndarray = field(default_factory=lambda: np.zeros(2))


class _MasterRef:
    """Scripted master reference: position holds, steps, velocity ramps."""

    def __init__(self, p0):
        self.p = np.array(p0, dtype=float)
        self.v = np.zeros(3)

    def advance(self, dt):
        self.p = self.p + dt * self.v

    def step(self, dp):
        self.p = self.p + np.asarray(dp, dtype=float)

    def set_velocity(self, v):
        self.v = np.asarray(v, dtype=float)


def _quat_rate(q, w):
    """Rate of a scalar-last unit quaternion under body rate w:
    qdot = 1/2 q (x) (w, 0)."""
    qx, qy, qz, qs = q.tolist()
    wx, wy, wz = w.tolist()
    # the scalar part stays np.dot: its BLAS kernel may fuse multiply-adds,
    # which a plain sum of products would not reproduce bit for bit
    return np.array([0.5 * (qs * wx + (qy * wz - qz * wy)),
                     0.5 * (qs * wy + (qz * wx - qx * wz)),
                     0.5 * (qs * wz + (qx * wy - qy * wx)),
                     -0.5 * np.dot(q[:3], w)])


def _rk4(rhs, t: float, x, h: float, n_steps: int):
    """RK4 steps of the state tuple x = (p, v, q, w, ...) of the payload and
    the agents; the payload quaternion q is renormalized after every
    step."""
    for k in range(n_steps):
        x = rk4_step(rhs, t + k * h, x, h)
        x[2] = quat_normalize(x[2])
    return x


def run_scenario(sc: Scenario) -> RunLog:
    """Deterministic fixed-step simulation of a scenario; divergence is
    reported in the log rather than raised."""
    N = sc.n_agents
    com = com_system(sc.payload, np.full(N, sc.mav.m))
    rng = np.random.default_rng(sc.seed)
    noise_p = float(sc.noise.get("p", 0.0))
    noise_v = float(sc.noise.get("v", 0.0))
    noise_att = float(sc.noise.get("att", 0.0))
    noise_rate = float(sc.noise.get("rate", 0.0))
    use_noise = max(noise_p, noise_v, noise_att, noise_rate) > 0.0

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

    p_agents0 = p_pl[None, :] + com.attachments
    hover_ref = p_agents0 + np.array([0.0, 0.0, sag])[None, :]

    mission = None
    if sc.mission_auto:
        mission = MissionState(n_agents=N, transport_altitude=sc.transport_altitude,
                               dh=sc.mission_dh, tol=sc.mission_tol, sag=sag)

    master = _MasterRef(hover_ref[0])
    agents = []
    for i in range(N):
        ctl = _AgentCtl(eta_cmd=np.zeros(3), F_cmd_mag=float(F_mag[i]),
                        F_cmd_w=np.array([0.0, 0.0, F_mag[i]]),
                        rotor=rotor_speeds_from_wrench(np.zeros(3),
                                                       float(F_mag[i]), sc.mav))
        ctl.alt_target = hover_ref[i, 2]
        ctl.hold_xy = hover_ref[i, :2].copy()
        ctl.ref_p = hover_ref[i].copy()
        if i > 0:
            ctl.adm = AdmittanceState(params=sc.adm)
            if sc.start_engaged:
                ctl.adm = fsm_step(ctl.adm, np.zeros(3), 1.0 / sc.ctrl_rate,
                                   command="engage", current_pose=hover_ref[i])
                ctl.adm.offset = F_int_trim.copy()
            if sc.estimator == "ekf":
                ctl.est = ekf_mod.ekf_init(p_agents0[i], np.zeros(3),
                                           np.zeros(3), np.zeros(3))
                ctl.est.x[ekf_mod.F_SL] = F_int_trim
            ctl.F_hat = F_int_trim.copy()
        agents.append(ctl)
    # the slaves' UKFs run as one stacked filter, row i - 1 for agent i
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
    h = sc.Ts_dyn
    t = 0.0

    drag_F = sc.payload.drag_F
    drag_M = sc.payload.drag_M
    tau_thrust = sc.mav.tau_thrust
    wn = sc.mav.omega_n_att

    def thrust_world():
        if sc.thrust_model == "attitude":
            return euler_body_z(eta) * F_mag[:, None]
        return F_lag.copy()

    # Right-hand sides of the coupled model on the state (p, v, q, w, agent
    # states); they read the commands held over the current controller tick.
    def attitude_rhs(t, p, v, q, w, et, etd, fm):
        vdot, wdot = payload_accel(com, drag_F, drag_M, v, q, w,
                                   euler_body_z(et) * fm[:, None])
        etdd = attitude_accel(et, etd, cmd_eta, wn)
        dfm = (cmd_F - fm) / sc.mav.tau_motor
        return v, vdot, _quat_rate(q, w), wdot, etd, etdd, dfm

    def lag_rhs(t, p, v, q, w, Fl):
        vdot, wdot = payload_accel(com, drag_F, drag_M, v, q, w, Fl)
        dF = (sat_cmd - Fl) / tau_thrust[None, :]
        return v, vdot, _quat_rate(q, w), wdot, dF

    def engage_slaves(calibrate=False):
        # latch at the held reference, not the sagged pose
        for ctl in agents[1:]:
            if not ctl.adm.engaged:
                ctl.adm = fsm_step(ctl.adm, np.zeros(3), dt_ctrl,
                                   command="engage", current_pose=ctl.ref_p)
                if calibrate:
                    ctl.adm = fsm_step(ctl.adm, np.zeros(3), dt_ctrl,
                                       command="compute_offset")

    def disengage_slaves():
        # hold the reference the FSM hands back, not the takeoff position
        for ctl in agents[1:]:
            if ctl.adm.engaged:
                ctl.adm = fsm_step(ctl.adm, np.zeros(3), dt_ctrl,
                                   command="disengage")
                ctl.hold_xy = ctl.adm.Lambda_d[:2].copy()
                ctl.alt_target = float(ctl.adm.Lambda_d[2])

    for k in range(n_ctrl):
        # scheduled events
        while ev_idx < len(events) and events[ev_idx]["t"] <= t + 1e-12:
            ev = events[ev_idx]
            ev_idx += 1
            act = ev["action"]
            if act == "master_step":
                master.step(ev["dp"])
            elif act == "master_velocity":
                master.set_velocity(ev["v"])
            elif act == "engage_slaves":
                engage_slaves()
            elif act == "disengage_slaves":
                disengage_slaves()
            elif act == "compute_offset":
                for i in range(1, N):
                    agents[i].adm = fsm_step(agents[i].adm, np.zeros(3),
                                             dt_ctrl, command="compute_offset")
            elif act == "remove_offset":
                for i in range(1, N):
                    agents[i].adm = fsm_step(agents[i].adm, np.zeros(3),
                                             dt_ctrl, command="remove_offset")
            else:
                raise ScenarioError(f"unknown event action {act!r}")

        # mission coordinator at the controller rate
        if mission is not None:
            p_i, _, _ = attachment_kinematics(com, p_pl, v_pl, q_pl, w_pl)
            begin = (sc.mission_land_at is not None
                     and t >= sc.mission_land_at
                     and mission.phase is MissionPhase.TRANSPORTING)
            mission, cmds = mission_step(mission, p_i[:, 2], begin_descent=begin)
            for cmd in cmds:
                if cmd[0] == "set_altitude":
                    for i in range(N):
                        agents[i].alt_target = cmd[1]
                elif cmd[0] == "engage_slaves":
                    # calibrate the static load share out of the estimate
                    engage_slaves(calibrate=True)
                elif cmd[0] == "disengage_slaves":
                    # the master, too, descends where transport left it
                    agents[0].hold_xy = master.p[:2].copy()
                    disengage_slaves()

        # current constrained kinematics and the coupled accelerations
        Fw_now = thrust_world()
        vdot_now, wdot_now = payload_accel(com, drag_F, drag_M, v_pl, q_pl,
                                           w_pl, Fw_now)
        p_i, v_i, a_i = attachment_kinematics(com, p_pl, v_pl, q_pl, w_pl,
                                              vdot_now, wdot_now)
        omega_i = body_rate_from_euler_rate(eta, eta_dot)

        # estimators (slaves) at their own rate
        if k % sc.ctrl_per_est == 0:
            ukf_meas = []
            for i in range(1, N):
                ctl = agents[i]
                p_m = p_i[i] + (rng.normal(scale=noise_p, size=3) if use_noise else 0.0)
                v_m = v_i[i] + (rng.normal(scale=noise_v, size=3) if use_noise else 0.0)
                eta_m = eta[i] + (rng.normal(scale=noise_att, size=3) if use_noise else 0.0)
                w_m = omega_i[i] + (rng.normal(scale=noise_rate, size=3) if use_noise else 0.0)
                if sc.estimator == "ekf":
                    ctl.est = ekf_mod.ekf_predict(
                        ctl.est, (ctl.eta_cmd[0], ctl.eta_cmd[1],
                                  ctl.eta_cmd[2], ctl.F_cmd_mag),
                        ekf_Q, dt_est, sc.mav)
                    ctl.est = ekf_mod.ekf_update(
                        ctl.est, np.concatenate([p_m, eta_m]), ekf_R)
                    ctl.F_hat = ctl.est.F_ext.copy()
                elif sc.estimator == "ukf":
                    ukf_meas.append((p_m, v_m, euler_to_quat(eta_m), w_m))
                else:
                    F_int = joint_interaction_force(a_i[i], Fw_now[i], sc.mav.m)
                    alpha = 1.0 - np.exp(-dt_est / sc.mav.tau_est)
                    ctl.F_hat = ctl.F_hat + alpha * (F_int - ctl.F_hat)
            if ukf_est is not None:
                rotors = np.array([ctl.rotor for ctl in agents[1:]])
                ukf_est = ukf_mod.ukf_predict(ukf_est, rotors, ukf_Q, sc.mav,
                                              dt_est)
                ukf_est = ukf_mod.ukf_update(
                    ukf_est, *(np.array(m) for m in zip(*ukf_meas)), ukf_R)
                for i in range(1, N):
                    agents[i].F_hat = ukf_est.F_ext[i - 1].copy()

        # admittance FSM + reference generation (slaves), then PD commands
        q_i = [euler_to_quat(e) for e in eta]
        for i in range(N):
            ctl = agents[i]
            if i == 0:
                master.advance(dt_ctrl)
                if mission is not None and mission.phase is not MissionPhase.TRANSPORTING:
                    ctl.ref_p = np.array([ctl.hold_xy[0], ctl.hold_xy[1],
                                          ctl.alt_target])
                    ctl.ref_v = np.zeros(3)
                    master.p = ctl.ref_p.copy()
                else:
                    ctl.ref_p = master.p.copy()
                    ctl.ref_v = master.v.copy()
            else:
                adm = ctl.adm
                if adm.engaged:
                    adm = fsm_step(adm, ctl.F_hat, dt_ctrl)
                    adm = admittance_step(adm, ctl.F_hat, dt_ctrl)
                    ctl.adm = adm
                    ctl.ref_p = adm.Lambda_r.copy()
                    ctl.ref_v = adm.dLambda_r.copy()
                else:
                    ctl.ref_p = np.array([ctl.hold_xy[0], ctl.hold_xy[1],
                                          ctl.alt_target])
                    ctl.ref_v = np.zeros(3)
            st = AgentState(p_i[i], v_i[i], q_i[i], omega_i[i])
            F_cmd_w = pd_position_control(st, ctl.ref_p, ctl.ref_v, sc.mav)
            ctl.F_cmd_w = F_cmd_w
            phi_c, theta_c, F_c = thrust_to_attitude(F_cmd_w, eta[i, 2], sc.mav)
            ctl.eta_cmd = np.array([phi_c, theta_c, 0.0])
            ctl.F_cmd_mag = F_c
            acc_att = attitude_accel(eta[i], eta_dot[i], ctl.eta_cmd, wn)
            M_cmd = sc.mav.J * acc_att + cross3(omega_i[i],
                                                sc.mav.J * omega_i[i])
            ctl.rotor = rotor_speeds_from_wrench(M_cmd, F_c, sc.mav)

        # log the tick
        row = [t]
        for i in range(N):
            ctl = agents[i]
            row += [*p_i[i], *v_i[i], *q_i[i], *omega_i[i],
                    *Fw_now[i], *ctl.F_hat, *ctl.ref_p,
                    ctl.eta_cmd[0], ctl.eta_cmd[1], ctl.eta_cmd[2],
                    ctl.F_cmd_mag, *ctl.rotor,
                    FSM_CODE[ctl.adm.mode] if ctl.adm else -1]
        row += [*p_pl, *q_pl, *v_pl, *w_pl,
                PHASE_CODE[mission.phase] if mission else -1]
        data[k, :] = row

        # integrate the coupled dynamics over one controller period
        if sc.thrust_model == "attitude":
            cmd_eta = np.array([ctl.eta_cmd for ctl in agents])
            cmd_F = np.array([ctl.F_cmd_mag for ctl in agents])
            p_pl, v_pl, q_pl, w_pl, eta, eta_dot, F_mag = _rk4(
                attitude_rhs, t, (p_pl, v_pl, q_pl, w_pl, eta, eta_dot, F_mag),
                h, sc.steps_per_ctrl)
        else:
            sat_cmd = np.array([saturate_thrust_command(ctl.F_cmd_w, sc.mav)
                                for ctl in agents])
            p_pl, v_pl, q_pl, w_pl, F_lag = _rk4(
                lag_rhs, t, (p_pl, v_pl, q_pl, w_pl, F_lag), h,
                sc.steps_per_ctrl)

        t += dt_ctrl
        state_mag = max(np.max(np.abs(p_pl)), np.max(np.abs(v_pl)),
                        np.max(np.abs(w_pl)))
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
    t = log.t
    a = f"a{agent}_"
    p = log.cols([a + "px", a + "py", a + "pz"])
    v = log.cols([a + "vx", a + "vy", a + "vz"])
    q = log.cols([a + "qx", a + "qy", a + "qz", a + "qw"])
    w = log.cols([a + "wx", a + "wy", a + "wz"])
    cmd = log.cols([a + "cmd_phi", a + "cmd_theta", a + "cmd_psi", a + "cmd_F"])
    rotors = log.cols([a + f"n{k}" for k in range(sc.mav.rotor_count)])
    dt = float(t[1] - t[0])
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
