"""Property tests: the lean right-hand-side kernels give the bits of the
formulas they replaced.

Each oracle below is the earlier formula of its kernel, kept verbatim. The
kernels must match it byte for byte (``tobytes()``, so signed zeros and
imaginary parts count) on real inputs and on complex-step inputs, where
every state argument is complex as ``analysis.complex_step_jacobian``
passes them; for one agent and several; and for single and stacked
quaternions, rotation matrices and rates. The attitude-command kernel is
checked against the inline formulas of the team tick and of the
single-agent tick that it replaced. ``cross3`` is checked against its
component formula and ``np.cross``. The analysis model's right-hand sides
are checked against a frozen copy of their earlier ``_core``, built on
these oracles. The simulator's tick, agents first and then the payload,
is checked in both thrust models against its earlier joint RK4 on one
state array, and stacked ``euler_body_z`` rows against single calls. The
stacked admittance step of a team of slaves is checked against its earlier
loop over one slave's axes, one expm and one 2 x 2 product per axis.

The analysis model and the kernels it runs take a leading batch axis, so
that ``complex_step_jacobian`` evaluates every column in one call: each
stacked row must have the bits of its own unbatched call, and the batched
Jacobian the bits of the earlier loop of one call per column. A single
real call of a payload kernel runs its Python-float path, so a stack of one
real row checks that path against the array path; explicit examples pin
one agent and signed zeros.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.linalg._umath_linalg import solve1
from scipy.linalg import expm

from swarmlift.admittance import (
    SNAP_EPS,
    AdmittanceMode,
    AdmittanceParams,
    AdmittanceState,
    admittance_step,
)
from swarmlift.analysis import (
    TRANSPORT_VELOCITY,
    AnalysisConfig,
    chart_rhs_out,
    complex_step_jacobian,
    full_rhs,
    linearize,
    preroll_transport,
    rest_state,
    split_inputs,
    to_chart,
    unpack_state,
    zero_input,
)
from swarmlift.attitude import (
    _matmul_matvec,
    cross3,
    euler_body_z,
    matvec,
    integration_matrix,
    quat_normalize,
    quat_rate,
    quat_to_rotmat,
    rotmat_to_quat,
    rotvec_to_rotmat,
)
from swarmlift.mav import (
    EZ,
    GRAVITY,
    MavParams,
    attitude_accel,
    attitude_command,
    pd_position_control,
    rk4_step,
    saturate_thrust_command,
    thrust_to_attitude,
    translational_dynamics,
)
from swarmlift.payload import (
    PayloadParams,
    attachment_accel,
    attachment_kinematics,
    com_system,
    default_payload,
    payload_accel,
)
from swarmlift.scenario import Scenario
from swarmlift.simulate import integrate_tick

# ------------------------------------------------------ the earlier formulas


def old_cross3(a, b):
    a, b = np.asarray(a), np.asarray(b)
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    c0 = a1 * b2 - a2 * b1
    c1 = a2 * b0 - a0 * b2
    c2 = a0 * b1 - a1 * b0
    out = np.empty(np.shape(c0) + (3,), dtype=c0.dtype)
    out[..., 0] = c0
    out[..., 1] = c1
    out[..., 2] = c2
    return out


def old_quat_to_rotmat(q):
    q = np.asarray(q, dtype=float)
    x, y, z, w = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    R = np.empty(q.shape[:-1] + (3, 3))
    R[..., 0, 0] = 1.0 - 2.0 * (yy + zz)
    R[..., 0, 1] = 2.0 * (xy - wz)
    R[..., 0, 2] = 2.0 * (xz + wy)
    R[..., 1, 0] = 2.0 * (xy + wz)
    R[..., 1, 1] = 1.0 - 2.0 * (xx + zz)
    R[..., 1, 2] = 2.0 * (yz - wx)
    R[..., 2, 0] = 2.0 * (xz - wy)
    R[..., 2, 1] = 2.0 * (yz + wx)
    R[..., 2, 2] = 1.0 - 2.0 * (xx + yy)
    return R


def old_euler_body_z(eta):
    eta = np.asarray(eta, dtype=float)
    phi, theta, psi = eta[..., 0], eta[..., 1], eta[..., 2]
    cph, sph = np.cos(phi), np.sin(phi)
    cth, sth = np.cos(theta), np.sin(theta)
    cps, sps = np.cos(psi), np.sin(psi)
    z = np.empty(eta.shape)
    z[..., 0] = cps * sth * cph + sps * sph
    z[..., 1] = sps * sth * cph - cps * sph
    z[..., 2] = cth * cph
    return z


def old_attachment_kinematics(com, p, v, R, w):
    att = com.attachments
    p_i = p[None, :] + att @ R.T
    v_i = v[None, :] + old_cross3(w, att) @ R.T
    return p_i, v_i


def old_attachment_accel(com, R, w, vdot, wdot):
    att = com.attachments
    w_x_r = old_cross3(w, att)
    return vdot[None, :] + (old_cross3(wdot, att) + old_cross3(w, w_x_r)) @ R.T


def old_payload_accel(com, drag_F, drag_M, R, v, w, Fw, FP):
    drag_w = R @ (drag_F * (R.T @ v))
    vdot = (Fw.sum(axis=0) - drag_w) / com.m_sys - GRAVITY * EZ
    M_ag = old_cross3(com.attachments, FP).sum(axis=0)
    wdot = np.linalg.solve(com.J_sys,
                           M_ag - old_cross3(w, com.J_sys @ w) - drag_M * w)
    return vdot, wdot


def old_core(cfg, R, p, v, omega, p_ref, F_prop, F_hat, z, zdot, u):
    """``analysis._core`` before the lean right-hand side, on the oracles
    above: per-call constants, (1, 3) broadcasts and np.linalg.solve."""
    mav, adm, com = cfg.mav, cfg.adm, cfg.com
    u_mass, u_J, u_mpc, u_att, u_est, w = split_inputs(cfg, u)
    p_i, v_i = old_attachment_kinematics(com, p, v, R, omega)
    ref_p = np.concatenate((p_ref[None], cfg.engage_points[1:] + z))
    ref_v = np.concatenate((w[None], zdot))
    F_cmd = (mav.K_P * (ref_p - p_i) + mav.K_D * (ref_v - v_i)
             + mav.m * GRAVITY * EZ)
    F_lag_in_w = old_saturate_thrust_command(F_cmd + u_mpc, mav)
    F_lag_in_P = np.einsum("ji,nj->ni", R, F_lag_in_w)
    dF_prop = (F_lag_in_P - F_prop) / mav.tau_thrust
    F_cons_P = F_prop + u_att
    F_cons_w = np.einsum("ij,nj->ni", R, F_cons_P)
    v_dot, omega_dot = old_payload_accel(com, cfg.payload.drag_F,
                                         cfg.payload.drag_M, R, v, omega,
                                         F_cons_w, F_cons_P)
    v_dot = v_dot - cfg.w_mass * u_mass
    omega_dot = omega_dot - cfg.G_inertia @ u_J
    a_i = old_attachment_accel(com, R, omega, v_dot, omega_dot)
    F_int = mav.m * (a_i[1:] + GRAVITY * EZ) - F_cons_w[1:]
    dF_hat = (F_int - F_hat) / mav.tau_est
    F_used = F_hat + u_est - cfg.F_int_trim[None, :]
    dzdot = (F_used - adm.C[None, :] * zdot - adm.K[None, :] * z) \
        / adm.M[None, :]
    outputs = (v_dot + GRAVITY * EZ, omega_dot, F_cmd, F_prop, F_hat,
               F_cons_P[:, :2], v, p)
    return (v_dot, omega_dot, w, dF_prop, dF_hat, zdot, dzdot), outputs


def old_pack_state(p, v, q, omega, p_ref, F_prop, F_hat, z, zdot):
    return np.concatenate([p, v, q, omega, p_ref, np.reshape(F_prop, -1),
                           np.hstack([F_hat, z, zdot]).reshape(-1)])


def old_full_rhs(cfg, x, u):
    p, v, q, omega, p_ref, F_prop, F_hat, z, zdot = unpack_state(cfg, x)
    der, _ = old_core(cfg, quat_to_rotmat(q), p, v, omega, p_ref, F_prop,
                      F_hat, z, zdot, u)
    v_dot, omega_dot, dp_ref, dF_prop, dF_hat, dz, dzdot = der
    return old_pack_state(v, v_dot, quat_rate(q, omega), omega_dot, dp_ref,
                          dF_prop, dF_hat, dz, dzdot)


def old_chart_rhs_out(cfg, xc, u, q_ref):
    p, v, theta, omega, p_ref, F_prop, F_hat, z, zdot = unpack_state(
        cfg, xc, n_att=3)
    R = quat_to_rotmat(q_ref) @ rotvec_to_rotmat(theta)
    der, outputs = old_core(cfg, R, p, v, omega, p_ref, F_prop, F_hat, z,
                            zdot, u)
    v_dot, omega_dot, dp_ref, dF_prop, dF_hat, dz, dzdot = der
    dtheta = omega + 0.5 * old_cross3(theta, omega)
    return (old_pack_state(v, v_dot, dtheta, omega_dot, dp_ref, dF_prop,
                           dF_hat, dz, dzdot),
            np.concatenate([np.reshape(y, -1) for y in outputs]))


def old_complex_step_jacobian(f, x):
    """``analysis.complex_step_jacobian`` before the batch axis: one call of
    f per column."""
    h = 1e-100
    x = np.asarray(x, dtype=float)
    n = x.size
    f0 = f(x)
    J = np.empty((np.size(f0), n))
    for k in range(n):
        xe = x.astype(complex)
        xe[k] += 1j * h
        J[:, k] = np.imag(f(xe)) / h
    return J


def old_saturate_thrust_command(F_cmd_W, params):
    F = np.asarray(F_cmd_W)
    # the deleted MavParams.lateral_force_max
    lat = np.array(
        [np.sin(params.phi_cmd_max) * params.F_prop_max,
         np.sin(params.theta_cmd_max) * params.F_prop_max]
    )
    lo = np.array([-lat[0], -lat[1], 0.0])
    hi = np.array([lat[0], lat[1], params.F_prop_max])
    out = np.where(F.real < lo, lo.astype(F.dtype), F)
    out = np.where(out.real > hi, hi.astype(F.dtype), out)
    return out


def old_rotmat_to_quat(R):
    R = np.asarray(R, dtype=float)
    t = np.trace(R)
    if t > 0.0:
        s = np.sqrt(t + 1.0) * 2.0
        w = 0.25 * s
        x = (R[2, 1] - R[1, 2]) / s
        y = (R[0, 2] - R[2, 0]) / s
        z = (R[1, 0] - R[0, 1]) / s
    else:
        i = int(np.argmax(np.diag(R)))
        if i == 0:
            s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
            x = 0.25 * s
            y = (R[0, 1] + R[1, 0]) / s
            z = (R[0, 2] + R[2, 0]) / s
            w = (R[2, 1] - R[1, 2]) / s
        elif i == 1:
            s = np.sqrt(1.0 - R[0, 0] + R[1, 1] - R[2, 2]) * 2.0
            x = (R[0, 1] + R[1, 0]) / s
            y = 0.25 * s
            z = (R[1, 2] + R[2, 1]) / s
            w = (R[0, 2] - R[2, 0]) / s
        else:
            s = np.sqrt(1.0 - R[0, 0] - R[1, 1] + R[2, 2]) * 2.0
            x = (R[0, 2] + R[2, 0]) / s
            y = (R[1, 2] + R[2, 1]) / s
            z = 0.25 * s
            w = (R[1, 0] - R[0, 1]) / s
    q = np.array([x, y, z, w])
    if q[3] < 0.0:
        q = -q
    return quat_normalize(q)


def old_translational_dynamics(R, v, F_prop, drag, F_ext, params):
    f_b = np.array([0.0, 0.0, F_prop]) - drag * (R.T @ v)
    return R @ f_b / params.m + np.asarray(F_ext) / params.m - GRAVITY * EZ


def old_rk4_step(rhs, t, x, h):
    k1 = rhs(t, *x)
    k2 = rhs(t + 0.5 * h, *[xi + 0.5 * h * ki for xi, ki in zip(x, k1)])
    k3 = rhs(t + 0.5 * h, *[xi + 0.5 * h * ki for xi, ki in zip(x, k2)])
    k4 = rhs(t + h, *[xi + h * ki for xi, ki in zip(x, k3)])
    return [xi + h / 6 * (a + 2 * b + 2 * c + d)
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]


def old_joint_tick(sc, com, x, held, t):
    # run_scenario's earlier tick as one RK4 on the joint state: the
    # payload's 13 states, then the attitude model's eta, eta_dot (each
    # N x 3) and F_mag, or the lag model's F_lag (N x 3)
    N, h = sc.n_agents, sc.Ts_dyn
    e, f = 13 + 3 * N, 13 + 6 * N
    drag_F, drag_M = sc.payload.drag_F, sc.payload.drag_M
    tau_motor, wn = sc.mav.tau_motor, sc.mav.omega_n_att
    tau_thrust = sc.mav.tau_thrust

    def attitude_rhs(t, x):
        eta_cmd, F_cmd_mag = held
        v, q, w, et, etd, fm = (x[3:6], x[6:10], x[10:13], x[13:e], x[e:f],
                                x[f:])
        R = quat_to_rotmat(q)
        Fw = euler_body_z(et.reshape(N, 3)) * fm[:, None]
        vdot, wdot = payload_accel(com, drag_F, drag_M, R, v, w,
                                   np.add.reduce(Fw, -2), Fw @ R)
        etdd = attitude_accel(et, etd, eta_cmd.reshape(-1), wn)
        dfm = (F_cmd_mag - fm) / tau_motor
        return np.concatenate((v, vdot, quat_rate(q, w), wdot, etd, etdd,
                               dfm))

    def lag_rhs(t, x):
        v, q, w, Fl = x[3:6], x[6:10], x[10:13], x[13:].reshape(N, 3)
        R = quat_to_rotmat(q)
        vdot, wdot = payload_accel(com, drag_F, drag_M, R, v, w,
                                   np.add.reduce(Fl, -2), Fl @ R)
        dF = (held - Fl) / tau_thrust
        return np.concatenate((v, vdot, quat_rate(q, w), wdot, dF.ravel()))

    rhs = attitude_rhs if sc.thrust_model == "attitude" else lag_rhs
    for k_dyn in range(sc.steps_per_ctrl):
        x = rk4_step(rhs, t + k_dyn * h, x, h)
        x[6:10] = quat_normalize(x[6:10])
    return x


def old_integration_matrix(omega, Ts):
    omega = np.asarray(omega, dtype=float)
    w = np.sqrt((omega * omega).sum(axis=-1))
    half = 0.5 * w * Ts
    ups = np.cos(half)
    small = w * Ts < 1e-8
    wsafe = np.where(small, 1.0, w)
    sinc = np.where(small, 0.5 * Ts * (1.0 - half * half / 6.0),
                    np.sin(half) / wsafe)
    psi = sinc[..., None] * omega
    Om = np.zeros(omega.shape[:-1] + (4, 4))
    px, py, pz = psi[..., 0], psi[..., 1], psi[..., 2]
    Om[..., 0, 0] = ups
    Om[..., 1, 1] = ups
    Om[..., 2, 2] = ups
    Om[..., 3, 3] = ups
    Om[..., 0, 1] = pz
    Om[..., 0, 2] = -py
    Om[..., 1, 0] = -pz
    Om[..., 1, 2] = px
    Om[..., 2, 0] = py
    Om[..., 2, 1] = -px
    Om[..., 0, 3] = px
    Om[..., 1, 3] = py
    Om[..., 2, 3] = pz
    Om[..., 3, 0] = -px
    Om[..., 3, 1] = -py
    Om[..., 3, 2] = -pz
    return Om


def old_admittance_step(p, z, zdot, generating, F, Ts):
    """One slave's (z, zdot) after the earlier per-axis admittance step, on
    its offset-corrected force F."""
    z, zdot = z.copy(), zdot.copy()
    for j in range(3):
        u = F[j] if generating[j] else 0.0
        if not generating[j]:
            at_rest = abs(zdot[j]) < SNAP_EPS and (
                p.K[j] == 0.0 or abs(z[j]) < SNAP_EPS)
            if at_rest:
                zdot[j] = 0.0
                if p.K[j] > 0.0:
                    z[j] = 0.0
                continue
        blk = np.array([[0.0, 1.0, 0.0],
                        [-p.K[j] / p.M[j], -p.C[j] / p.M[j], 1.0 / p.M[j]],
                        [0.0, 0.0, 0.0]])
        E = expm(blk * Ts)
        Ad, Bd = E[:2, :2].copy(), E[:2, 2].copy()
        zj = Ad @ np.array([z[j], zdot[j]]) + Bd * u
        z[j], zdot[j] = zj
    return z, zdot


def old_team_attitude_command(F_cmd_w, eta, eta_dot, omega_i, params):
    # the team simulator's tick, inline
    N, J, wn = len(F_cmd_w), params.J, params.omega_n_att
    phi_c, theta_c, F_cmd_mag = thrust_to_attitude(F_cmd_w, eta[:, 2], params)
    eta_cmd = np.stack([phi_c, theta_c, np.zeros(N)], axis=1)
    acc_att = attitude_accel(eta, eta_dot, eta_cmd, wn)
    M_cmd = J * acc_att + cross3(omega_i, J * omega_i)
    return eta_cmd, F_cmd_mag, M_cmd


def old_single_attitude_command(F_cmd_w, eta, eta_dot, omega, params):
    # the single-agent loop's tick, inline
    phi_c, theta_c, F_cmd_mag = thrust_to_attitude(F_cmd_w, eta[2], params)
    acc_att = attitude_accel(eta, eta_dot, np.array([phi_c, theta_c, 0.0]),
                             params.omega_n_att)
    M_cmd = params.J * acc_att + cross3(omega, params.J * omega)
    return np.array([phi_c, theta_c, 0.0]), F_cmd_mag, M_cmd


# ---------------------------------------------------------------- strategies

# both signed zeros, subnormals and magnitudes up to 1e3
FINITE = st.floats(-1e3, 1e3, allow_nan=False)
# imaginary parts: a complex-step perturbation, signed zeros, or anything
IMAG = st.one_of(st.sampled_from([0.0, -0.0, 1e-100, -1e-100]), FINITE)


def reals(shape, elements=FINITE):
    return hnp.arrays(np.float64, shape, elements=elements)


@st.composite
def states(draw, shape, complex_step):
    re = draw(reals(shape))
    if not complex_step:
        return re
    z = np.empty(shape, dtype=complex)
    z.real = re
    z.imag = draw(reals(shape, IMAG))
    return z


@st.composite
def rigid_bodies(draw, max_agents=6):
    """A composite body of 1 to max_agents agents with nonzero payload
    drag, and a flag: complex-step inputs or real ones."""
    n = draw(st.integers(1, max_agents))
    payload = PayloadParams(
        m_p=draw(st.floats(0.1, 5.0)),
        J_p=draw(reals(3, st.floats(0.01, 1.0))),
        attachments=draw(reals((n, 3), st.floats(-2.0, 2.0))),
        drag_F=draw(reals(3, st.floats(0.01, 2.0))),
        drag_M=draw(reals(3, st.floats(0.01, 2.0))))
    com = com_system(payload, draw(reals(n, st.floats(0.5, 5.0))))
    return payload, com, draw(st.booleans())


class Draws:
    """Stands for st.data() in an explicit @example: each draw returns the
    next of the given values, in the order the test draws them."""

    def __init__(self, *values):
        self.values = iter(values)

    def draw(self, strategy):
        return next(self.values)


def one_agent_body(att, drag=0.0):
    """A real one-agent rigid body with the attachment att, as
    rigid_bodies() gives it."""
    payload = PayloadParams(m_p=1.0, J_p=np.ones(3), attachments=[att],
                            drag_F=np.full(3, drag), drag_M=np.full(3, drag))
    return payload, com_system(payload, [1.0]), False


def three_agent_body():
    """The real default body of three agents, with payload drag."""
    payload = replace(default_payload(3, 1.0),
                      drag_F=np.array([0.1, 0.2, 0.3]),
                      drag_M=np.array([0.05, 0.05, 0.1]))
    return payload, com_system(payload, np.full(3, 2.5)), False


Z3 = np.zeros(3)
NZ3 = np.array([-0.0, 0.0, -0.0])  # both signed zeros


def same_bits(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


# -------------------------------------------------------------------- tests

@settings(max_examples=150, deadline=None)
@given(rigid_bodies(), st.data())
# found by Hypothesis: np.add.reduce starts the moment sum from +0.0, which
# drops the -0.0 of a sum that starts from the first row
@example(one_agent_body(Z3),
         Draws(np.zeros((3, 3)), Z3, Z3, np.zeros((1, 3)),
               np.array([[-0.0, 0.0, 0.0]])))
def test_payload_accel_bits(body, data):
    payload, com, cs = body
    n = com.attachments.shape[0]
    R, v, w, Fw, FP = (data.draw(states(s, cs))
                       for s in ((3, 3), 3, 3, (n, 3), (n, 3)))
    got = payload_accel(com, payload.drag_F, payload.drag_M, R, v, w,
                        np.add.reduce(Fw, -2), FP)
    ref = old_payload_accel(com, payload.drag_F, payload.drag_M, R, v, w,
                            Fw, FP)
    for g, r in zip(got, ref):
        same_bits(g, r)


@settings(max_examples=150, deadline=None)
@given(rigid_bodies(), st.data())
def test_solve1_is_np_linalg_solve(body, data):
    # payload_accel's J_sys solve calls the gufunc behind np.linalg.solve;
    # this fails first if a numpy release moves or changes it
    _, com, cs = body
    b = data.draw(states(3, cs))
    same_bits(solve1(com.J_sys, b), np.linalg.solve(com.J_sys, b))


@settings(max_examples=150, deadline=None)
@given(rigid_bodies(), st.data())
# one agent, and signed zeros in every operand that the float path reads
@example(one_agent_body(NZ3), Draws(np.eye(3) * -0.0, NZ3, NZ3, NZ3, NZ3,
                                    -NZ3))
@example(one_agent_body([0.5, -0.0, 0.25], 0.1),
         Draws(np.diag([1.0, -1.0, -1.0]), NZ3, -NZ3,
               np.array([-0.0, 2.0, 0.0]), NZ3, np.array([0.0, -0.0, 3.0])))
def test_attachment_kernels_bits(body, data):
    _, com, cs = body
    R, p, v, w, vdot, wdot = (data.draw(states(s, cs))
                              for s in ((3, 3), 3, 3, 3, 3, 3))
    p_i, v_i, w_x_r = attachment_kinematics(com, p, v, R, w)
    for g, r in zip((p_i, v_i), old_attachment_kinematics(com, p, v, R, w)):
        same_bits(g, r)
    same_bits(w_x_r, old_cross3(w, com.attachments))
    same_bits(attachment_accel(com, R, w, w_x_r, vdot, wdot),
              old_attachment_accel(com, R, w, vdot, wdot))


# operand shape pairs of the kernels: one vector against rows, rows against
# rows, the (2, 1, 3) x (2, N, 3) stacking, and vector against vector
CROSS_SHAPES = [((3,), (4, 3)), ((5, 3), (5, 3)), ((2, 1, 3), (2, 3, 3)),
                ((3,), (3,)), ((6, 3), (3,)), ((2, 5, 3), (2, 5, 3))]


# entries of the two single vectors, which cross3 multiplies in numpy's
# loops as np.cross does: finite ones, signed zeros, subnormals, infinities
# and numpy's NaN
SPECIAL = st.one_of(FINITE, st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, np.inf, -np.inf,
     np.nan]))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CROSS_SHAPES), st.booleans(), st.booleans(),
       st.data())
def test_cross3_bits(shapes, cs_a, cs_b, data):
    # the cyclic-shift cross3 against the component formula and np.cross,
    # on real, complex-step and mixed operands
    a, b = (data.draw(states(s, cs)) for s, cs in zip(shapes, (cs_a, cs_b)))
    if shapes == ((3,), (3,)):
        a.real, b.real = (data.draw(reals(3, SPECIAL)) for _ in range(2))
    with np.errstate(over="ignore", invalid="ignore"):
        got, old, ref = cross3(a, b), old_cross3(a, b), np.cross(a, b)
    same_bits(got, old)
    same_bits(got, ref)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.booleans(), st.data())
def test_stacked_cross3_rows_are_single_calls(n, cs, data):
    # two products stacked on a leading axis, one vector against rows each,
    # give the bits of each product alone
    att = data.draw(reals((n, 3)))
    w, wdot = (data.draw(states(3, cs)) for _ in range(2))
    w_x_r = data.draw(states((n, 3), cs))
    wdot_x_r, w_x_w_x_r = cross3(np.array((wdot, w))[:, None],
                                 np.array((att, w_x_r)))
    same_bits(wdot_x_r, cross3(wdot, att))
    same_bits(w_x_w_x_r, cross3(w, w_x_r))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(4,), (1, 4), (5, 4), (2, 3, 4)]), st.data())
def test_quat_to_rotmat_bits(shape, data):
    q = data.draw(reals(shape, st.floats(-1.0, 1.0)))
    R = quat_to_rotmat(q)
    same_bits(R, old_quat_to_rotmat(q))
    # the single-quaternion form gives each row of the stacked one
    for idx in np.ndindex(shape[:-1]):
        same_bits(quat_to_rotmat(q[idx]), R[idx])


# row scales: unit-size quaternions, norms whose squares overflow or come
# near it, and norms whose squares are subnormal or underflow to zero
QUAT_SCALES = [1.0, 1e-3, 1e3, 1e153, 1e154, 2e154, 1e-155, 1e-160, 1e-170]


def test_single_quat_normalize_is_the_stacked_row():
    # the Python-float path of one quaternion against the stacked array
    # path, on seeded non-unit norms (a quarter of them needs the squares
    # summed in numpy's order) and on signed zeros, whose signs both keep
    rng = np.random.default_rng(0)
    q = (rng.normal(size=(len(QUAT_SCALES), 400, 4))
         * np.array(QUAT_SCALES)[:, None, None])
    q[rng.random(q.shape) < 0.2] = 0.0
    q[rng.random(q.shape) < 0.5] *= -1.0
    with np.errstate(all="ignore"):
        stacked = quat_normalize(q)
        for idx in np.ndindex(q.shape[:-1]):
            same_bits(quat_normalize(q[idx]), stacked[idx])


@pytest.mark.parametrize("q", [[0.0] * 4, [-0.0, 0.0, -0.0, 0.0]])
def test_zero_quat_normalize_is_nan_with_a_warning(q):
    # the float path leaves a zero norm to numpy: 0 / 0, not an exception
    with pytest.warns(RuntimeWarning, match="invalid value"):
        got = quat_normalize(q)
    assert np.isnan(got).all()
    with pytest.warns(RuntimeWarning):
        same_bits(got, quat_normalize(np.array([q]))[0])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 16), st.integers(1, 12), st.booleans(), st.data())
def test_stacked_force_sums_are_single_stage_sums(k, n, cs, data):
    # integrate_tick sums every stage's thrust (k, N, 3) in one call and
    # hands stage j row j as payload_accel's F_sum
    F = data.draw(states((k, n, 3), cs))
    sums = np.add.reduce(F, -2)
    for row, ref in zip(F, sums):
        same_bits(np.add.reduce(row, -2), ref)


# half turns about each axis: trace -1, one diagonal entry +1 (the three
# trace <= 0 branches), and the same turns slightly short of and past pi
HALF_TURNS = [np.append(np.sin(0.5 * a) * axis, np.cos(0.5 * a))
              for axis in np.eye(3) for a in (np.pi - 1e-3, np.pi, np.pi + 0.3)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(4,), (1, 4), (6, 4), (2, 5, 4)]), st.data())
def test_rotmat_to_quat_bits(shape, data):
    q = data.draw(reals(shape, st.floats(-1.0, 1.0)))
    # rotation matrices only: unit quaternions, some of them half turns
    q = q.reshape(-1, 4).copy()
    for k in range(len(q)):
        if data.draw(st.booleans()) or np.dot(q[k], q[k]) < 1e-6:
            q[k] = data.draw(st.sampled_from(HALF_TURNS))
    q = q / np.sqrt((q * q).sum(axis=-1, keepdims=True))
    R = quat_to_rotmat(q.reshape(shape))
    got = rotmat_to_quat(R)
    assert got.shape == shape
    # each row has the bits of its own call and of the earlier formula
    for idx in np.ndindex(shape[:-1]):
        same_bits(got[idx], old_rotmat_to_quat(R[idx]))
        same_bits(rotmat_to_quat(R[idx]), got[idx])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.booleans(), st.data())
def test_translational_dynamics_bits(n, cs, data):
    params = MavParams()
    # the EKF's complex-step inputs are complex states with a real thrust
    R, v, F_ext = (data.draw(states(s, cs)) for s in ((n, 3, 3), (n, 3),
                                                      (n, 3)))
    F_prop = data.draw(reals(n))
    drag = data.draw(reals(3, st.floats(0.0, 1.0)))
    got = translational_dynamics(R, v, F_prop, drag, F_ext, params)
    for k in range(n):
        ref = old_translational_dynamics(R[k], v[k], F_prop[k], drag,
                                         F_ext[k], params)
        same_bits(got[k], ref)
        same_bits(translational_dynamics(R[k], v[k], F_prop[k], drag,
                                         F_ext[k], params), ref)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.floats(0.05, 1.5), st.floats(0.05, 1.5),
       st.floats(1.0, 200.0), st.data())
def test_attitude_command_bits(n, phi_max, theta_max, F_max, data):
    params = MavParams(phi_cmd_max=phi_max, theta_cmd_max=theta_max,
                       F_prop_max=F_max)
    F = data.draw(reals((n, 3)))
    # thrust_to_attitude rejects a command of no length
    F[np.sqrt((F * F).sum(axis=1)) < 1e-6] = (0.0, 0.0, 34.335)
    eta = data.draw(reals((n, 3), st.floats(-4.0, 4.0)))
    eta_dot, omega = (data.draw(reals((n, 3), st.floats(-50.0, 50.0)))
                      for _ in range(2))
    got = attitude_command(F, eta, eta_dot, omega, params)
    for g, r in zip(got, old_team_attitude_command(F, eta, eta_dot, omega,
                                                   params)):
        same_bits(g, r)
    # each row has the bits of its own call and of the single-agent formula
    for k in range(n):
        one = attitude_command(F[k], eta[k], eta_dot[k], omega[k], params)
        assert np.ndim(one[1]) == 0
        for g, r, o in zip(got, one, old_single_attitude_command(
                F[k], eta[k], eta_dot[k], omega[k], params)):
            same_bits(r, g[k])
            same_bits(r, o)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(3,), (1, 3), (4, 3), (8, 3), (2, 5, 3)]), st.data())
def test_euler_body_z_bits(shape, data):
    eta = data.draw(reals(shape, st.floats(-4.0, 4.0)))
    same_bits(euler_body_z(eta), old_euler_body_z(eta))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(1, 1), (40, 2), (7, 8), (3, 4)]), st.data())
def test_stacked_euler_body_z_rows_are_single_calls(shape, data):
    eta = data.draw(reals(shape + (3,), st.floats(-4.0, 4.0)))
    z = euler_body_z(eta)
    for k in range(shape[0]):
        same_bits(z[k], euler_body_z(eta[k]))
        for i in range(shape[1]):
            same_bits(z[k, i], euler_body_z(eta[k, i]))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("thrust_model", ["attitude", "lag"])
def test_split_tick_bits(thrust_model, n, seed):
    # one tick of the agents-then-payload passes against the joint RK4
    rng = np.random.default_rng(seed)
    sc = Scenario(n_agents=n, duration=1.0, thrust_model=thrust_model)
    sc = replace(sc, payload=replace(sc.payload,
                                     drag_F=rng.uniform(0.1, 1.0, 3),
                                     drag_M=rng.uniform(0.1, 1.0, 3)))
    com = com_system(sc.payload, np.full(n, sc.mav.m))
    q = rng.standard_normal(4)
    x = np.concatenate([rng.uniform(-2.0, 2.0, 6), q / np.linalg.norm(q),
                        rng.uniform(-1.0, 1.0, 3)])
    if thrust_model == "attitude":
        xa = np.concatenate([rng.uniform(-0.5, 0.5, 3 * n),
                             rng.uniform(-2.0, 2.0, 3 * n),
                             rng.uniform(5.0, 30.0, n)])
        held = rng.uniform(-0.5, 0.5, (n, 3)), rng.uniform(5.0, 30.0, n)
    else:
        xa = rng.uniform(-10.0, 30.0, 3 * n)
        held = rng.uniform(-10.0, 30.0, (n, 3))
    t = float(rng.uniform(0.0, 10.0))
    got_x, got_xa = integrate_tick(sc, com, x.copy(), xa.copy(), held, t)
    ref = old_joint_tick(sc, com, np.concatenate([x, xa]), held, t)
    same_bits(np.concatenate([got_x, got_xa]), ref)
    assert not np.array_equal(ref[:13], x)
    assert not np.array_equal(ref[13:], xa)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(3,), (1, 3), (4, 3), (2, 33, 3)]),
       st.sampled_from([1e-3, 1e-2, 0.05]), st.data())
def test_integration_matrix_bits(shape, Ts, data):
    # rates from zero and the series branch below |omega| Ts < 1e-8 up
    omega = data.draw(reals(shape, st.one_of(
        st.sampled_from([0.0, -0.0, 1e-9, -3e-7]), st.floats(-50.0, 50.0))))
    same_bits(integration_matrix(omega, Ts), old_integration_matrix(omega, Ts))


@settings(max_examples=150, deadline=None)
@given(st.floats(0.05, 1.5), st.floats(0.05, 1.5), st.floats(1.0, 200.0),
       st.sampled_from([(3,), (1, 3), (6, 3)]), st.booleans(), st.data())
def test_saturate_thrust_command_bits(phi_max, theta_max, F_max, shape, cs,
                                      data):
    params = MavParams(phi_cmd_max=phi_max, theta_cmd_max=theta_max,
                       F_prop_max=F_max)
    # commands on, inside and outside the bounds
    bounds = np.concatenate([params.thrust_lo, params.thrust_hi]).tolist()
    F = data.draw(states(shape, cs)) if data.draw(st.booleans()) else \
        data.draw(reals(shape, st.sampled_from(bounds + [0.0, -0.0])))
    same_bits(saturate_thrust_command(F, params),
              old_saturate_thrust_command(F, params))


@settings(max_examples=100, deadline=None)
@given(reals(3, st.floats(-2.0, 2.0)), reals((2, 3), st.floats(-2.0, 2.0)),
       st.floats(0.0, 10.0), st.floats(1e-4, 0.1))
def test_flat_rk4_step_bits(a, b, t, h):
    # a nonlinear right-hand side on the parts (a, b) and on one flat array
    def parts_rhs(t_, a_, b_):
        return np.sin(b_[0]) * a_ + t_, a_ * b_ - np.cos(b_)

    def flat_rhs(t_, x_):
        da, db = parts_rhs(t_, x_[:3], x_[3:].reshape(2, 3))
        return np.concatenate((da, db.ravel()))

    got = rk4_step(flat_rhs, t, np.concatenate((a, b.ravel())), h)
    ref = old_rk4_step(parts_rhs, t, (a, b), h)
    same_bits(got, np.concatenate((ref[0], ref[1].ravel())))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.floats(0.5, 20.0), st.floats(0.5, 20.0),
       st.booleans(), st.data())
def test_analysis_rhs_bits(n, M, C, cs, data):
    # full_rhs (real: the pre-roll) and chart_rhs_out (real and complex
    # step: the Jacobians) against the frozen earlier _core
    cfg = AnalysisConfig(n_agents=n, tuning_M=M, tuning_C=C)
    nx = 16 + 3 * n + 9 * (n - 1)
    small = st.floats(-10.0, 10.0, allow_nan=False)
    x = data.draw(reals(nx, small))
    u = data.draw(reals(cfg.n_inputs, small))
    same_bits(full_rhs(cfg, x, u), old_full_rhs(cfg, x, u))
    q_ref = data.draw(reals(4, st.floats(-1.0, 1.0)))
    xc, uc = x[:-1], u
    if cs:
        # imaginary parts of a size that keeps the chart's sin and cosh
        # finite
        step = st.one_of(st.sampled_from([0.0, -0.0, 1e-100, -1e-100]),
                         st.floats(-1.0, 1.0))
        xc = xc + 1j * data.draw(reals(nx - 1, step))
        uc = uc + 1j * data.draw(reals(cfg.n_inputs, step))
    for g, r in zip(chart_rhs_out(cfg, xc, uc, q_ref),
                    old_chart_rhs_out(cfg, xc, uc, q_ref)):
        same_bits(g, r)


# ------------------------------------------------------------ the batch axis

def rows_are_single_calls(fn, batched, *args):
    """fn on args whose flagged entries carry a leading batch axis equals,
    row by row, fn on that row's arguments, bit for bit."""
    got = fn(*args)
    for b in range(len(next(a for a, f in zip(args, batched) if f))):
        ref = fn(*(a[b] if f else a for a, f in zip(args, batched)))
        if isinstance(ref, tuple):
            for g, r in zip(got, ref):
                same_bits(g[b], r)
        else:
            same_bits(got[b], ref)


@settings(max_examples=100, deadline=None)
@given(rigid_bodies(max_agents=8), st.integers(1, 6), st.data())
# a stack of one real row against the single call, which runs the kernels'
# Python-float path: one agent with signed zeros, and three agents
@example(one_agent_body(NZ3), 1, Draws(
    np.eye(3)[None] * -1.0, *(NZ3[None] * s for s in (1, -1, 1, -1, 1)),
    np.array([[[-0.0, 0.0, 0.0]]]), np.array([[[-0.0, 0.0, -0.0]]])))
@example(three_agent_body(), 1, Draws(
    quat_to_rotmat(quat_normalize([0.1, -0.2, 0.3, 0.9]))[None],
    *(np.array([[0.5 * s, -1.0, 2.0 * s]]) for s in range(5)),
    np.array([[[0.0, 0.0, 9.0], [1.0, -0.0, 8.0], [-1.0, 0.5, 10.0]]]),
    np.array([[[0.1, 0.2, 9.0], [-0.0, 1.0, 8.0], [0.3, -0.5, 10.0]]])))
def test_batched_payload_kernels_rows_are_single_calls(body, k, data):
    payload, com, cs = body
    n = com.attachments.shape[0]
    R, p, v, w, vdot, wdot, Fw, FP = (
        data.draw(states((k,) + s, cs))
        for s in ((3, 3), (3,), (3,), (3,), (3,), (3,), (n, 3), (n, 3)))
    rows_are_single_calls(
        lambda *a: attachment_kinematics(com, *a), (True,) * 4, p, v, R, w)
    w_x_r = attachment_kinematics(com, p, v, R, w)[2]
    rows_are_single_calls(
        lambda *a: attachment_accel(com, *a), (True,) * 5,
        R, w, w_x_r, vdot, wdot)
    rows_are_single_calls(
        lambda *a: payload_accel(com, payload.drag_F, payload.drag_M, *a),
        (True,) * 5, R, v, w, np.add.reduce(Fw, -2), FP)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(1, 6), st.booleans(), st.data())
def test_batched_agent_kernels_rows_are_single_calls(n, k, cs, data):
    params = MavParams()
    p, v, ref_p, ref_v = (data.draw(states((k, n, 3), cs)) for _ in range(4))
    rows_are_single_calls(lambda *a: pd_position_control(*a, params),
                          (True, True, True, False), p, v, ref_p, ref_v[0])
    rows_are_single_calls(lambda F: saturate_thrust_command(F, params),
                          (True,), p)
    theta = data.draw(states((k, 3), cs)) / 1e3  # finite sines and coshes
    theta[0] *= 1e-9  # the series branch near zero
    rows_are_single_calls(rotvec_to_rotmat, (True,), theta)
    rows_are_single_calls(cross3, (True, True), theta, v[:, 0])
    rows_are_single_calls(cross3, (True, False), theta[:, None], p[0])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(1, 6), st.booleans(), st.data())
def test_batched_chart_rhs_rows_are_single_calls(n, k, cs, data):
    cfg = AnalysisConfig(n_agents=n, tuning_M=4.0, tuning_C=12.0)
    nx = 15 + 3 * n + 9 * (n - 1)
    small = st.floats(-10.0, 10.0, allow_nan=False)
    xc = data.draw(reals((k, nx), small))
    u = data.draw(reals((k, cfg.n_inputs), small))
    if cs:
        step = st.one_of(st.sampled_from([0.0, -0.0, 1e-100, -1e-100]),
                         st.floats(-1.0, 1.0))
        xc = xc + 1j * data.draw(reals((k, nx), step))
        u = u + 1j * data.draw(reals((k, cfg.n_inputs), step))
    q_ref = quat_normalize(data.draw(reals(4, st.floats(0.1, 1.0))))
    rows_are_single_calls(lambda x_, u_: chart_rhs_out(cfg, x_, u_, q_ref),
                          (True, True), xc, u)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(), (1,), (5,), (2, 3)]), st.booleans(), st.booleans(),
       st.data())
def test_matvec_is_the_matmul_of_one_vector(lead, cs_A, cs_x, data):
    # attitude.matvec, and its matmul form for numpy < 2.2, give each matrix
    # and vector of a stack the bits of A @ x on that one vector; also for
    # a transposed (strided) stack, as payload_accel passes R^T, and for a
    # real matrix times a complex-step vector
    A = data.draw(states(lead + (3, 3), cs_A))
    x = data.draw(states(lead + (3,), cs_x))
    for M in (A, A.swapaxes(-1, -2)):
        for f in (matvec, _matmul_matvec):
            got = f(M, x)
            for k in np.ndindex(lead):
                same_bits(got[k], M[k] @ x[k])


@pytest.mark.parametrize("n, M, C", [(2, 8.0, 6.0), (3, 4.0, 12.0),
                                     (5, 8.0, 6.0)])
@pytest.mark.parametrize("op", ["rest", "transport"])
def test_batched_jacobian_is_the_column_loop(op, n, M, C):
    # the plants of margin_point: one chart_rhs_out call for every column
    # against one call per column
    cfg = AnalysisConfig(n_agents=n, tuning_M=M, tuning_C=C)
    u0 = zero_input(cfg)
    if op == "rest":
        x_full = rest_state(cfg)
    else:
        x_full = preroll_transport(cfg)
        u0[-3:] = TRANSPORT_VELOCITY
    xc, q_ref = to_chart(cfg, x_full)
    nx = xc.size

    def stacked(xu):
        dx, y = chart_rhs_out(cfg, xu[..., :nx], xu[..., nx:], q_ref)
        return np.concatenate([dx, y], axis=-1)

    xu = np.concatenate([xc, u0])
    J = complex_step_jacobian(stacked, xu)
    same_bits(J, old_complex_step_jacobian(stacked, xu))
    assert J.flags.c_contiguous
    plant = linearize(cfg, x_full=x_full, u0=u0)
    same_bits(np.block([[plant.A, plant.B], [plant.C, plant.D]]), J)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.data())
def test_stacked_admittance_step_is_the_per_axis_loop(S, data):
    # a team of S slaves, each axis at rest, at or near the rest threshold
    # or moving, with or without a spring, generating or not
    K = data.draw(reals(3, st.one_of(st.just(0.0), st.floats(1.0, 1e3))))
    p = AdmittanceParams(M=data.draw(reals(3, st.floats(0.5, 50.0))),
                         C=data.draw(reals(3, st.floats(0.5, 200.0))), K=K)
    Ts = data.draw(st.sampled_from([1e-3, 5e-3, 1e-2]))
    scale = st.sampled_from([0.0, 0.5 * SNAP_EPS, SNAP_EPS, 2.0 * SNAP_EPS,
                             1.0])
    team = AdmittanceState(p, np.zeros((S, 3)))
    unit = st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0))
    team.z, team.zdot = (data.draw(reals((S, 3), unit))
                         * data.draw(reals((S, 3), scale)) for _ in range(2))
    team.offset = data.draw(reals((S, 3), st.floats(-1.0, 1.0)))
    team.axis_generating = data.draw(hnp.arrays(bool, (S, 3)))
    team.mode = np.where(team.axis_generating.any(axis=-1),
                         AdmittanceMode.GENERATING.value,
                         AdmittanceMode.TRACKING.value)
    F_hat = data.draw(reals((S, 3), st.floats(-5.0, 5.0)))
    rows = [old_admittance_step(p, team.z[i], team.zdot[i],
                                team.axis_generating[i],
                                F_hat[i] - team.offset[i], Ts)
            for i in range(S)]
    admittance_step(team, F_hat, Ts)
    same_bits(team.z, np.array([z for z, _ in rows]))
    same_bits(team.zdot, np.array([zdot for _, zdot in rows]))
