"""Property tests: the lean right-hand-side kernels give the bits of the
formulas they replaced.

Each oracle below is the earlier formula of its kernel, kept verbatim. The
kernels must match it byte for byte (``tobytes()``, so signed zeros and
imaginary parts count) on real inputs and on complex-step inputs, where
every state argument is complex as ``analysis.complex_step_jacobian``
passes them; for one agent and several; and for single and stacked
quaternions and rotation matrices.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from swarmlift.attitude import (
    cross3,
    euler_body_z,
    quat_normalize,
    quat_to_rotmat,
    rotmat_to_quat,
)
from swarmlift.mav import (
    EZ,
    GRAVITY,
    MavParams,
    rk4_step,
    saturate_thrust_command,
    translational_dynamics,
)
from swarmlift.payload import (
    PayloadParams,
    attachment_accel,
    attachment_kinematics,
    com_system,
    payload_accel,
)

# ------------------------------------------------------ the earlier formulas


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
    v_i = v[None, :] + cross3(w, att) @ R.T
    return p_i, v_i


def old_attachment_accel(com, R, w, vdot, wdot):
    att = com.attachments
    w_x_r = cross3(w, att)
    return vdot[None, :] + (cross3(wdot, att) + cross3(w, w_x_r)) @ R.T


def old_payload_accel(com, drag_F, drag_M, R, v, w, Fw, FP):
    drag_w = R @ (drag_F * (R.T @ v))
    vdot = (Fw.sum(axis=0) - drag_w) / com.m_sys - GRAVITY * EZ
    M_ag = cross3(com.attachments, FP).sum(axis=0)
    wdot = np.linalg.solve(com.J_sys,
                           M_ag - cross3(w, com.J_sys @ w) - drag_M * w)
    return vdot, wdot


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
def rigid_bodies(draw):
    """A composite body of 1-6 agents with nonzero payload drag, and a
    flag: complex-step inputs or real ones."""
    n = draw(st.integers(1, 6))
    payload = PayloadParams(
        m_p=draw(st.floats(0.1, 5.0)),
        J_p=draw(reals(3, st.floats(0.01, 1.0))),
        attachments=draw(reals((n, 3), st.floats(-2.0, 2.0))),
        drag_F=draw(reals(3, st.floats(0.01, 2.0))),
        drag_M=draw(reals(3, st.floats(0.01, 2.0))))
    com = com_system(payload, draw(reals(n, st.floats(0.5, 5.0))))
    return payload, com, draw(st.booleans())


def same_bits(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


# -------------------------------------------------------------------- tests

@settings(max_examples=150, deadline=None)
@given(rigid_bodies(), st.data())
def test_payload_accel_bits(body, data):
    payload, com, cs = body
    n = com.attachments.shape[0]
    R, v, w, Fw, FP = (data.draw(states(s, cs))
                       for s in ((3, 3), 3, 3, (n, 3), (n, 3)))
    got = payload_accel(com, payload.drag_F, payload.drag_M, R, v, w, Fw, FP)
    ref = old_payload_accel(com, payload.drag_F, payload.drag_M, R, v, w,
                            Fw, FP)
    for g, r in zip(got, ref):
        same_bits(g, r)


@settings(max_examples=150, deadline=None)
@given(rigid_bodies(), st.data())
def test_attachment_kernels_bits(body, data):
    _, com, cs = body
    R, p, v, w, vdot, wdot = (data.draw(states(s, cs))
                              for s in ((3, 3), 3, 3, 3, 3, 3))
    for g, r in zip(attachment_kinematics(com, p, v, R, w),
                    old_attachment_kinematics(com, p, v, R, w)):
        same_bits(g, r)
    same_bits(attachment_accel(com, R, w, vdot, wdot),
              old_attachment_accel(com, R, w, vdot, wdot))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.booleans(), st.data())
def test_stacked_cross3_rows_are_single_calls(n, cs, data):
    # the two stackings the payload kernels use
    att = data.draw(reals((n, 3)))
    w, wdot, Jw = (data.draw(states(3, cs)) for _ in range(3))
    FP = data.draw(states((n, 3), cs))
    w_x_r, wdot_x_r = cross3(np.array((w, wdot))[:, None], att)
    same_bits(w_x_r, cross3(w, att))
    same_bits(wdot_x_r, cross3(wdot, att))
    c = cross3(np.concatenate((att, w[None])), np.concatenate((FP, Jw[None])))
    same_bits(c[:-1], cross3(att, FP))
    same_bits(c[-1], cross3(w, Jw))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(4,), (1, 4), (5, 4), (2, 3, 4)]), st.data())
def test_quat_to_rotmat_bits(shape, data):
    q = data.draw(reals(shape, st.floats(-1.0, 1.0)))
    R = quat_to_rotmat(q)
    same_bits(R, old_quat_to_rotmat(q))
    # the single-quaternion form gives each row of the stacked one
    for idx in np.ndindex(shape[:-1]):
        same_bits(quat_to_rotmat(q[idx]), R[idx])


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
@given(st.sampled_from([(3,), (1, 3), (4, 3), (8, 3), (2, 5, 3)]), st.data())
def test_euler_body_z_bits(shape, data):
    eta = data.draw(reals(shape, st.floats(-4.0, 4.0)))
    same_bits(euler_body_z(eta), old_euler_body_z(eta))


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
