"""Single-agent experiments.

One agent under its PD position loop or an open-loop thrust command, with
an injectable external force and an optional wrench estimator in the loop,
simulated by ``simulate_single_mav`` on the team simulator's kernels. Used
for estimator convergence checks and for identifying the frequency
responses that feed the multiplicative-uncertainty weights (multisine
experiments correlated at the excitation harmonics). The UKF's rotor
speeds come from the realized thrust here, from the commanded thrust in
``simulate.run_scenario``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ekf as ekf_mod
from . import ukf as ukf_mod
from .attitude import (body_rate_from_euler_rate, euler_to_quat,
                       euler_to_rotmat)
from .mav import (
    GRAVITY,
    MavParams,
    attitude_accel,
    attitude_command,
    pd_position_control,
    rk4_step,
    rotor_speeds_from_wrench,
    translational_dynamics,
)
from .uncertainty import FrequencyResponse

TS_DYN = 1e-3  # RK4 step
CTRL_RATE = 100.0  # controller and estimator rate, Hz
STEPS_PER_CTRL = int(round(1.0 / (CTRL_RATE * TS_DYN)))


@dataclass
class SingleMavTrace:
    t: np.ndarray
    p: np.ndarray
    v: np.ndarray
    eta: np.ndarray
    F_ext: np.ndarray
    F_hat: np.ndarray  # zeros without an estimator
    F_prop_w: np.ndarray
    F_cmd_w: np.ndarray  # the world thrust command


def simulate_single_mav(params: MavParams, duration: float, F_ext_fn,
                        estimator: str | None,
                        F_cmd_fn=None) -> SingleMavTrace:
    """Fixed-step RK4 simulation of one agent while an external world-frame
    force acts on it. The agent holds the origin with its PD position loop,
    or, given F_cmd_fn(t), flies that world thrust command open loop. The
    thrust magnitude lags its command with the motor time constant; the
    thrust direction follows the attitude inner loop."""
    # the RK4 state: p, v, eta, eta_dot and the motor-lagged collective
    # thrust F_mag
    x = np.zeros(13)
    x[12] = params.m * GRAVITY
    hold = np.zeros(3)

    est = None
    if estimator == "ekf":
        Q, R = ekf_mod.default_ekf_Q(CTRL_RATE), ekf_mod.default_ekf_R()
        est = ekf_mod.ekf_init(x[0:3], x[3:6], x[6:9], np.zeros(3))
    elif estimator == "ukf":
        Q, R = ukf_mod.default_ukf_Q(CTRL_RATE), ukf_mod.default_ukf_R()
        est = ukf_mod.ukf_init(x[0:3], x[3:6], euler_to_quat(x[6:9]),
                               np.zeros(3))
    elif estimator is not None:
        raise ValueError(f"unknown estimator {estimator!r}")

    n_ctrl = int(round(duration * CTRL_RATE))
    rec_t = np.empty(n_ctrl)
    rec = {k: np.empty((n_ctrl, 3)) for k in
           ("p", "v", "eta", "F_ext", "F_hat", "F_prop", "F_cmd")}

    t = 0.0
    for k in range(n_ctrl):
        p, v, eta, eta_dot, F_mag = x[0:3], x[3:6], x[6:9], x[9:12], x[12]
        F_cmd_w = (pd_position_control(p, v, hold, hold, params)
                   if F_cmd_fn is None else F_cmd_fn(t))
        omega = body_rate_from_euler_rate(eta, eta_dot)
        eta_cmd, F_cmd_mag, M_cmd = attitude_command(F_cmd_w, eta, eta_dot,
                                                     omega, params)

        if estimator == "ekf":
            est = ekf_mod.ekf_predict(est, np.append(eta_cmd, F_cmd_mag), Q,
                                      1.0 / CTRL_RATE, params)
            est = ekf_mod.ekf_update(est, np.concatenate([p, eta]), R)
        elif estimator == "ukf":
            # the UKF's rotor input: allocated from the realized thrust
            n_rot = rotor_speeds_from_wrench(M_cmd, F_mag, params)
            est = ukf_mod.ukf_predict(est, n_rot, Q, params, 1.0 / CTRL_RATE)
            est = ukf_mod.ukf_update(est, p, v, euler_to_quat(eta), omega, R)

        rec_t[k] = t
        rec["p"][k], rec["v"][k], rec["eta"][k] = p, v, eta
        rec["F_ext"][k] = F_ext_fn(t)
        rec["F_hat"][k] = est.F_ext if est is not None else np.zeros(3)
        rec["F_prop"][k] = euler_to_rotmat(eta) @ np.array([0.0, 0.0, F_mag])
        rec["F_cmd"][k] = F_cmd_w

        # rotor drag acts on the lateral body velocity only
        drag = (params.k_drag * F_cmd_mag / params.allocation.k_f
                * np.array([1.0, 1.0, 0.0]))

        def rhs(t_, x_):
            v_, eta_, etad_, Fm_ = x_[3:6], x_[6:9], x_[9:12], x_[12]
            v_dot = translational_dynamics(euler_to_rotmat(eta_), v_, Fm_,
                                           drag, F_ext_fn(t_), params)
            return np.concatenate((
                v_, v_dot, etad_,
                attitude_accel(eta_, etad_, eta_cmd, params.omega_n_att),
                [(F_cmd_mag - Fm_) / params.tau_motor]))

        for _ in range(STEPS_PER_CTRL):
            x = rk4_step(rhs, t, x, TS_DYN)
            t += TS_DYN

    return SingleMavTrace(t=rec_t, p=rec["p"], v=rec["v"], eta=rec["eta"],
                          F_ext=rec["F_ext"], F_hat=rec["F_hat"],
                          F_prop_w=rec["F_prop"], F_cmd_w=rec["F_cmd"])


def run_force_step(params: MavParams, estimator: str, magnitude: float,
                   t_step: float, duration: float) -> SingleMavTrace:
    """Hover then apply a constant world-frame force step along x."""
    step = np.array([magnitude, 0.0, 0.0])

    def F_ext_fn(t):
        return step if t >= t_step else np.zeros(3)

    return simulate_single_mav(params, duration, F_ext_fn=F_ext_fn,
                               estimator=estimator)


# ------------------------------------------------------------ identification

DEFAULT_HARMONICS = (1, 2, 3, 4, 6, 8, 11, 16, 23, 32, 45, 64, 91, 128,
                     181, 256, 362, 512)
BASE_PERIOD = 40.0  # multisine period, s
THRUST_SETTLE = 4.0  # the thrust response's settling before it correlates, s


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


def identify_estimator_response(params: MavParams,
                                estimator: str) -> FrequencyResponse:
    """Measured force-to-estimate response of the closed-loop estimator to
    a 0.4 N multisine along x, after 10 s of settling."""
    settle = 10.0
    f, _, w = multisine(DEFAULT_HARMONICS, BASE_PERIOD, 0.4)

    def F_ext_fn(t):
        return np.array([f(t), 0.0, 0.0])

    tr = simulate_single_mav(params, settle + BASE_PERIOD, F_ext_fn=F_ext_fn,
                             estimator=estimator)
    sel = tr.t >= settle
    H = np.array([
        correlate_tone(tr.t[sel], tr.F_hat[sel, 0], wk)
        / correlate_tone(tr.t[sel], tr.F_ext[sel, 0], wk) for wk in w])
    return FrequencyResponse(freqs=w, H=H)


def identify_pd_response(params: MavParams) -> FrequencyResponse:
    """Response of the implemented (sampled, zero-order-held) PD law to a
    continuous 0.01 m position-error multisine, per lateral axis.

    Run at the signal level: the controller samples the error at its own
    rate and the dynamics sees the held command, which is exactly the
    implementation effect the uncertainty weight has to cover.
    """
    f, df, w = multisine(DEFAULT_HARMONICS, BASE_PERIOD, 0.01)
    sim_rate = 1.0 / TS_DYN
    t = np.arange(int(round(BASE_PERIOD * sim_rate))) / sim_rate
    hold = int(round(sim_rate / CTRL_RATE))
    e = np.array([f(tk) for tk in t])
    ev = np.array([df(tk) for tk in t])
    KP, KD = params.K_P[0], params.K_D[0]
    F_held = np.empty_like(e)
    for k0 in range(0, t.size, hold):
        F_held[k0:k0 + hold] = KP * e[k0] + KD * ev[k0]
    H = np.array([correlate_tone(t, F_held, wk) / correlate_tone(t, e, wk)
                  for wk in w])
    return FrequencyResponse(freqs=w, H=H)


def identify_thrust_response(params: MavParams,
                             axis: int = 0) -> FrequencyResponse:
    """Thrust-command-to-realized-thrust response of the attitude inner loop
    plus motor lag, driven open loop by a 0.25 N multisine around hover on
    one world axis, after THRUST_SETTLE seconds of settling."""
    f, _, w = multisine(DEFAULT_HARMONICS, BASE_PERIOD, 0.25)
    hover = params.m * GRAVITY

    def F_cmd_fn(t):
        F_cmd_w = np.array([0.0, 0.0, hover])
        F_cmd_w[axis] += f(t)
        return F_cmd_w

    tr = simulate_single_mav(params, THRUST_SETTLE + BASE_PERIOD,
                             F_ext_fn=lambda t: np.zeros(3), estimator=None,
                             F_cmd_fn=F_cmd_fn)
    sel = tr.t >= THRUST_SETTLE
    # subtract the hover operating point before correlating
    out = tr.F_prop_w[sel, axis] - (0.0 if axis != 2 else hover)
    cmd = tr.F_cmd_w[sel, axis] - (0.0 if axis != 2 else hover)
    H = np.array([correlate_tone(tr.t[sel], out, wk)
                  / correlate_tone(tr.t[sel], cmd, wk) for wk in w])
    return FrequencyResponse(freqs=w, H=H)
