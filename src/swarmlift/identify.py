"""Single-agent closed-loop experiments.

One hovering agent under its PD position loop, with an injectable external
force and an optional wrench estimator running in the loop. Used for
estimator convergence checks and for identifying the frequency responses
that feed the multiplicative-uncertainty weights (multisine experiments
correlated at the excitation harmonics).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ekf as ekf_mod
from . import ukf as ukf_mod
from .attitude import (body_rate_from_euler_rate, cross3, euler_to_quat,
                       euler_to_rotmat)
from .mav import (
    GRAVITY,
    MavParams,
    attitude_accel,
    pd_position_control,
    rk4_step,
    rotor_speeds_from_wrench,
    thrust_to_attitude,
    translational_dynamics,
)
from .uncertainty import FrequencyResponse


@dataclass
class SingleMavTrace:
    t: np.ndarray
    p: np.ndarray
    v: np.ndarray
    eta: np.ndarray
    F_ext: np.ndarray
    F_hat: np.ndarray | None
    F_cmd_w: np.ndarray
    F_prop_w: np.ndarray
    ref_p: np.ndarray
    ref_v: np.ndarray


def simulate_single_mav(params: MavParams, duration: float,
                        F_ext_fn=None, ref_fn=None, estimator: str | None = None,
                        Ts_dyn: float = 1e-3, ctrl_rate: float = 100.0,
                        est_rate: float = 100.0, Q=None, R=None,
                        p0=None) -> SingleMavTrace:
    """Fixed-step RK4 simulation of one agent holding (or tracking) a
    reference while an external world-frame force acts on it. The thrust
    magnitude lags its command with the motor time constant; the thrust
    direction follows the attitude inner loop."""
    steps_per_ctrl = int(round(1.0 / (ctrl_rate * Ts_dyn)))
    ctrl_per_est = int(round(ctrl_rate / est_rate))
    if abs(steps_per_ctrl * ctrl_rate * Ts_dyn - 1.0) > 1e-9:
        raise ValueError("controller rate must divide the dynamics rate")

    p = np.zeros(3) if p0 is None else np.array(p0, dtype=float)
    v = np.zeros(3)
    eta = np.zeros(3)
    eta_dot = np.zeros(3)
    F_mag = params.m * GRAVITY  # motor-lagged collective thrust

    if F_ext_fn is None:
        F_ext_fn = lambda t: np.zeros(3)
    if ref_fn is None:
        ref0 = p.copy()
        ref_fn = lambda t: (ref0, np.zeros(3))

    est = None
    if estimator == "ekf":
        Q = ekf_mod.default_ekf_Q(est_rate) if Q is None else Q
        R = ekf_mod.default_ekf_R() if R is None else R
        est = ekf_mod.ekf_init(p, v, eta, np.zeros(3))
    elif estimator == "ukf":
        Q = ukf_mod.default_ukf_Q(est_rate) if Q is None else Q
        R = ukf_mod.default_ukf_R() if R is None else R
        est = ukf_mod.ukf_init(p, v, euler_to_quat(eta), np.zeros(3))
    elif estimator is not None:
        raise ValueError(f"unknown estimator {estimator!r}")

    n_ctrl = int(round(duration * ctrl_rate))
    rec_t = np.empty(n_ctrl)
    rec = {k: np.empty((n_ctrl, 3)) for k in
           ("p", "v", "eta", "F_ext", "F_hat", "F_cmd", "F_prop",
            "ref_p", "ref_v")}

    t = 0.0
    for k in range(n_ctrl):
        ref_p, ref_v = ref_fn(t)
        F_cmd_w = pd_position_control(p, v, ref_p, ref_v, params)
        phi_c, theta_c, F_cmd_mag = thrust_to_attitude(F_cmd_w, eta[2], params)
        u_ctrl = (phi_c, theta_c, 0.0, F_cmd_mag)

        if est is not None and k % ctrl_per_est == 0:
            omega = body_rate_from_euler_rate(eta, eta_dot)
            if estimator == "ekf":
                est = ekf_mod.ekf_predict(est, u_ctrl, Q, 1.0 / est_rate, params)
                est = ekf_mod.ekf_update(est, np.concatenate([p, eta]), R)
            else:
                acc_att = attitude_accel(eta, eta_dot,
                                         np.array([phi_c, theta_c, 0.0]),
                                         params.omega_n_att)
                M_cmd = params.J * acc_att + cross3(omega, params.J * omega)
                n_rot = rotor_speeds_from_wrench(M_cmd, F_mag, params)
                est = ukf_mod.ukf_predict(est, n_rot, Q, params, 1.0 / est_rate)
                est = ukf_mod.ukf_update(est, p, v, euler_to_quat(eta), omega, R)

        rec_t[k] = t
        rec["p"][k], rec["v"][k], rec["eta"][k] = p, v, eta
        rec["F_ext"][k] = F_ext_fn(t)
        rec["F_hat"][k] = est.F_ext if est is not None else np.zeros(3)
        rec["F_cmd"][k] = F_cmd_w
        rec["F_prop"][k] = euler_to_rotmat(eta) @ np.array([0.0, 0.0, F_mag])
        rec["ref_p"][k], rec["ref_v"][k] = ref_p, ref_v

        eta_cmd = np.array([u_ctrl[0], u_ctrl[1], u_ctrl[2]])
        # rotor drag acts on the lateral body velocity only
        drag = (params.k_drag * F_cmd_mag / params.allocation.k_f
                * np.array([1.0, 1.0, 0.0]))

        def rhs(t_, p_, v_, eta_, etad_, Fm_):
            v_dot = translational_dynamics(euler_to_rotmat(eta_), v_, Fm_,
                                           drag, F_ext_fn(t_), params)
            return (v_, v_dot, etad_,
                    attitude_accel(eta_, etad_, eta_cmd, params.omega_n_att),
                    (F_cmd_mag - Fm_) / params.tau_motor)

        for _ in range(steps_per_ctrl):
            p, v, eta, eta_dot, F_mag = rk4_step(
                rhs, t, (p, v, eta, eta_dot, F_mag), Ts_dyn)
            t += Ts_dyn

    return SingleMavTrace(t=rec_t, p=rec["p"], v=rec["v"], eta=rec["eta"],
                          F_ext=rec["F_ext"], F_hat=rec["F_hat"],
                          F_cmd_w=rec["F_cmd"], F_prop_w=rec["F_prop"],
                          ref_p=rec["ref_p"], ref_v=rec["ref_v"])


def run_force_step(params: MavParams, estimator: str, magnitude: float = 1.0,
                   axis: int = 0, t_step: float = 1.0, duration: float = 6.0,
                   **kw) -> SingleMavTrace:
    """Hover then apply a constant world-frame force step on one axis."""
    step = np.zeros(3)
    step[axis] = magnitude

    def F_ext_fn(t):
        return step if t >= t_step else np.zeros(3)

    return simulate_single_mav(params, duration, F_ext_fn=F_ext_fn,
                               estimator=estimator, **kw)


# ------------------------------------------------------------ identification

DEFAULT_HARMONICS = (1, 2, 3, 4, 6, 8, 11, 16, 23, 32, 45, 64, 91, 128,
                     181, 256, 362, 512)


def multisine(harmonics, base_period: float, amplitude):
    """Deterministic multisine and its derivative; per-tone amplitudes may
    be a scalar or a sequence."""
    k = np.asarray(harmonics, dtype=float)
    w = 2.0 * np.pi * k / base_period
    amps = np.broadcast_to(np.asarray(amplitude, dtype=float), k.shape)
    phases = 2.0 * np.pi * np.arange(k.size) / max(k.size, 1)  # crest control

    def f(t):
        return float(np.sum(amps * np.sin(w * t + phases)))

    def df(t):
        return float(np.sum(amps * w * np.cos(w * t + phases)))

    return f, df, w


def correlate_tone(t, y, omega: float) -> complex:
    """Fourier coefficient of y at omega over the (integer-period) window."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    dt = t[1] - t[0]
    phase = np.exp(-1j * omega * t)
    return 2.0 * np.sum(y * phase) * dt / (t[-1] - t[0] + dt)


def identify_estimator_response(params: MavParams, estimator: str,
                                harmonics=DEFAULT_HARMONICS,
                                base_period: float = 40.0,
                                settle: float = 10.0,
                                amplitude: float = 0.4) -> FrequencyResponse:
    """Measured force-to-estimate response of the closed-loop estimator."""
    f, _, w = multisine(harmonics, base_period, amplitude)

    def F_ext_fn(t):
        return np.array([f(t), 0.0, 0.0])

    tr = simulate_single_mav(params, settle + base_period, F_ext_fn=F_ext_fn,
                             estimator=estimator)
    sel = tr.t >= settle
    H = np.array([
        correlate_tone(tr.t[sel], tr.F_hat[sel, 0], wk)
        / correlate_tone(tr.t[sel], tr.F_ext[sel, 0], wk) for wk in w])
    return FrequencyResponse(freqs=w, H=H)


def identify_pd_response(params: MavParams, harmonics=DEFAULT_HARMONICS,
                         base_period: float = 40.0, ctrl_rate: float = 100.0,
                         sim_rate: float = 1000.0,
                         amplitude: float = 0.01) -> FrequencyResponse:
    """Response of the implemented (sampled, zero-order-held) PD law to a
    continuous position-error multisine, per lateral axis.

    Run at the signal level: the controller samples the error at its own
    rate and the dynamics sees the held command, which is exactly the
    implementation effect the uncertainty weight has to cover.
    """
    f, df, w = multisine(harmonics, base_period, amplitude)
    t = np.arange(int(round(base_period * sim_rate))) / sim_rate
    hold = int(round(sim_rate / ctrl_rate))
    e = np.array([f(tk) for tk in t])
    ev = np.array([df(tk) for tk in t])
    KP, KD = params.K_P[0], params.K_D[0]
    F_held = np.empty_like(e)
    for k0 in range(0, t.size, hold):
        F_held[k0:k0 + hold] = KP * e[k0] + KD * ev[k0]
    H = np.array([correlate_tone(t, F_held, wk) / correlate_tone(t, e, wk)
                  for wk in w])
    return FrequencyResponse(freqs=w, H=H)


def identify_thrust_response(params: MavParams, axis: int = 0,
                             harmonics=DEFAULT_HARMONICS,
                             base_period: float = 40.0, settle: float = 4.0,
                             Ts_dyn: float = 1e-3, ctrl_rate: float = 100.0,
                             amplitude: float = 0.25) -> FrequencyResponse:
    """Thrust-command-to-realized-thrust response of the attitude inner loop
    plus motor lag, driven open loop around hover on one world axis."""
    f, _, w = multisine(harmonics, base_period, amplitude)
    hover = params.m * GRAVITY
    eta = np.zeros(3)
    eta_dot = np.zeros(3)
    F_mag = hover
    steps_per_ctrl = int(round(1.0 / (ctrl_rate * Ts_dyn)))
    n_ctrl = int(round((settle + base_period) * ctrl_rate))
    t_rec = np.empty(n_ctrl)
    cmd_rec = np.empty(n_ctrl)
    out_rec = np.empty(n_ctrl)
    t = 0.0
    for k in range(n_ctrl):
        F_cmd_w = np.array([0.0, 0.0, hover])
        F_cmd_w[axis] += f(t)
        phi_c, theta_c, F_cmd_mag = thrust_to_attitude(F_cmd_w, 0.0, params)
        eta_cmd = np.array([phi_c, theta_c, 0.0])
        t_rec[k] = t
        cmd_rec[k] = F_cmd_w[axis]
        out_rec[k] = (euler_to_rotmat(eta) @ np.array([0, 0, F_mag]))[axis]

        def rhs(t_, eta_, etad_, Fm_):
            return (etad_,
                    attitude_accel(eta_, etad_, eta_cmd, params.omega_n_att),
                    (F_cmd_mag - Fm_) / params.tau_motor)

        for _ in range(steps_per_ctrl):
            eta, eta_dot, F_mag = rk4_step(rhs, t, (eta, eta_dot, F_mag),
                                           Ts_dyn)
            t += Ts_dyn
    sel = t_rec >= settle
    # subtract the hover operating point before correlating
    out = out_rec[sel] - (0.0 if axis != 2 else hover)
    cmd = cmd_rec[sel] - (0.0 if axis != 2 else hover)
    H = np.array([correlate_tone(t_rec[sel], out, wk)
                  / correlate_tone(t_rec[sel], cmd, wk) for wk in w])
    return FrequencyResponse(freqs=w, H=H)
