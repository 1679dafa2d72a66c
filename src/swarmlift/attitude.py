"""Attitude representations and conversions.

Conventions used throughout the toolkit:

* Quaternions are Hamilton, stored scalar-last as ``[qx, qy, qz, qw]``.
* ``quat_to_rotmat(q)`` maps body-frame vectors into the inertial frame,
  and composition satisfies ``R(q1 (x) q2) = R(q1) R(q2)``.
* Euler angles are Z-Y-X (yaw-pitch-roll): ``R = Rz(psi) Ry(theta) Rx(phi)``.
* Modified Rodrigues Parameters follow ``p = f qv / (a + qs)`` with
  ``a = 1`` and ``f = 2 (a + 1) = 4``: the map is singular only at the
  full turn ``qs = -1``.

All functions accept batched inputs: a quaternion argument of shape
``(..., 4)`` is processed along its last axis.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMrp

IDENTITY_QUAT = np.array([0.0, 0.0, 0.0, 1.0])


def quat_normalize(q):
    """Rescale to unit norm along the last axis (no sign convention
    applied); a zero quaternion gives NaNs."""
    q = np.asarray(q, dtype=float)
    n = np.sqrt((q * q).sum(axis=-1, keepdims=True))
    return q / n


def row_norms(v):
    """Euclidean norm of each row of v (..., k). Each row is one BLAS dot
    product, which is how np.linalg.norm sums a single 1-D vector, so a
    stack gets the bits of row-by-row norms (a sum of squares would not)."""
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def quat_inverse(q):
    """Inverse of a unit quaternion: its conjugate."""
    q = np.asarray(q, dtype=float)
    out = np.empty_like(q)
    out[..., :3] = -q[..., :3]
    out[..., 3] = q[..., 3]
    return out


# cyclic shifts of the components: component k of a x b is
# a[k+1] b[k+2] - a[k+2] b[k+1]
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def cross3(a, b):
    """Cross product of 3-vectors along the last axis, with broadcasting.

    Same component arithmetic as ``np.cross`` in numpy's own loops, so the
    same bits, NaNs included: all three components are one product of cyclic
    shifts of a and b minus another, without ``np.cross``'s axis shuffling,
    which dominates the cost on small inputs.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    return (a.take(_NEXT, -1) * b.take(_PREV, -1)
            - a.take(_PREV, -1) * b.take(_NEXT, -1))


def quat_multiply(q1, q2):
    """Hamilton product q1 (x) q2, renormalized.

    ``quat_multiply(dq, q)`` rotates ``q`` by ``dq`` applied in the
    inertial frame: R(dq (x) q) = R(dq) R(q).
    """
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    v1, s1 = q1[..., :3], q1[..., 3:4]
    v2, s2 = q2[..., :3], q2[..., 3:4]
    v = s1 * v2 + s2 * v1 + cross3(v1, v2)
    s = s1 * s2 - (v1 * v2).sum(axis=-1, keepdims=True)
    return quat_normalize(np.concatenate([v, s], axis=-1))


def quat_from_axis_angle(axis, angle: float):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    half = 0.5 * angle
    return np.concatenate([np.sin(half) * axis, [np.cos(half)]])


def quat_rotation_angle(q) -> float:
    """Rotation angle in [0, pi] represented by a unit quaternion."""
    q = np.asarray(q, dtype=float)
    return 2.0 * np.arctan2(np.linalg.norm(q[..., :3], axis=-1), np.abs(q[..., 3]))


def quat_to_rotmat(q):
    """Rotation matrix (body -> inertial) of a unit quaternion.

    A single quaternion runs the same IEEE operations on Python floats,
    which skips numpy's per-call dispatch on 3-element arrays.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim == 1:
        x, y, z, w = q.tolist()
    else:
        x, y, z, w = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    rows = ((1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)),
            (2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)),
            (2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)))
    if q.ndim == 1:
        return np.array(rows)
    R = np.empty(q.shape[:-1] + (3, 3))
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            R[..., i, j] = entry
    return R


def _shepperd(branch, r, t):
    """(x, y, z, w) of one branch of Shepperd's method on the entries
    r = (R00, R01, ..., R22) and the trace t, as arrays over the rows:
    branch 3 for a positive trace, else the index of the largest diagonal
    entry."""
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = r
    if branch == 3:
        s = np.sqrt(t + 1.0) * 2.0
        return ((r21 - r12) / s, (r02 - r20) / s, (r10 - r01) / s, 0.25 * s)
    if branch == 0:
        s = np.sqrt(1.0 + r00 - r11 - r22) * 2.0
        return (0.25 * s, (r01 + r10) / s, (r02 + r20) / s, (r21 - r12) / s)
    if branch == 1:
        s = np.sqrt(1.0 - r00 + r11 - r22) * 2.0
        return ((r01 + r10) / s, 0.25 * s, (r12 + r21) / s, (r02 - r20) / s)
    s = np.sqrt(1.0 - r00 - r11 + r22) * 2.0
    return ((r02 + r20) / s, (r12 + r21) / s, 0.25 * s, (r10 - r01) / s)


def rotmat_to_quat(R):
    """Inverse of :func:`quat_to_rotmat`, scalar part kept non-negative.

    A stack (..., 3, 3) gives a stack (..., 4). Each branch runs only on
    its own rows, so every row has the bits of its own call.
    """
    R = np.asarray(R, dtype=float)
    rows = R.reshape(-1, 9)
    t = rows[:, 0] + rows[:, 4] + rows[:, 8]
    branch = np.where(t > 0.0, 3, np.argmax(rows[:, 0::4], axis=1))
    q = np.empty((rows.shape[0], 4))
    for b in set(branch.tolist()):
        on = branch == b
        q[on] = np.stack(_shepperd(b, rows[on].T, t[on]), axis=-1)
    q = np.where(q[:, 3:4] < 0.0, -q, q)
    return quat_normalize(q).reshape(R.shape[:-2] + (4,))


def euler_to_rotmat(eta):
    """Z-Y-X Euler angles (roll, pitch, yaw) to rotation matrix; a complex
    input gives a complex matrix (complex-step safe)."""
    eta = np.asarray(eta)
    eta = eta.astype(np.result_type(eta.dtype, float), copy=False)
    phi, theta, psi = eta[..., 0], eta[..., 1], eta[..., 2]
    cph, sph = np.cos(phi), np.sin(phi)
    cth, sth = np.cos(theta), np.sin(theta)
    cps, sps = np.cos(psi), np.sin(psi)
    R = np.empty(eta.shape[:-1] + (3, 3), dtype=eta.dtype)
    R[..., 0, 0] = cps * cth
    R[..., 0, 1] = cps * sth * sph - sps * cph
    R[..., 0, 2] = cps * sth * cph + sps * sph
    R[..., 1, 0] = sps * cth
    R[..., 1, 1] = sps * sth * sph + cps * cph
    R[..., 1, 2] = sps * sth * cph - cps * sph
    R[..., 2, 0] = -sth
    R[..., 2, 1] = cth * sph
    R[..., 2, 2] = cth * cph
    return R


def euler_body_z(eta):
    """Inertial-frame body z axis of Z-Y-X Euler angles: the third column
    of :func:`euler_to_rotmat`, computed with the same arithmetic."""
    eta = np.asarray(eta, dtype=float)
    c, s = np.cos(eta), np.sin(eta)
    cph, cth, cps = c[..., 0], c[..., 1], c[..., 2]
    sph, sth, sps = s[..., 0], s[..., 1], s[..., 2]
    z = np.empty(eta.shape)
    z[..., 0] = cps * sth * cph + sps * sph
    z[..., 1] = sps * sth * cph - cps * sph
    z[..., 2] = cth * cph
    return z


def rotmat_to_euler(R):
    """Z-Y-X Euler angles from a rotation matrix (|pitch| < pi/2 branch)."""
    R = np.asarray(R, dtype=float)
    theta = np.arcsin(np.clip(-R[..., 2, 0], -1.0, 1.0))
    phi = np.arctan2(R[..., 2, 1], R[..., 2, 2])
    psi = np.arctan2(R[..., 1, 0], R[..., 0, 0])
    return np.stack([phi, theta, psi], axis=-1)


def euler_to_quat(eta):
    return rotmat_to_quat(euler_to_rotmat(eta))


MRP_A = 1.0
MRP_F = 2.0 * (MRP_A + 1.0)


def quat_to_mrp(q):
    """MRP of a unit quaternion: p = f qv / (a + qs)."""
    q = np.asarray(q, dtype=float)
    denom = MRP_A + q[..., 3:4]
    if np.any(np.abs(denom) < 1e-12):
        raise SingularMrp(f"|a + qs| < 1e-12 with a={MRP_A}")
    return MRP_F * q[..., :3] / denom


def mrp_to_quat(p):
    """Unit quaternion of an MRP vector, scalar part forced non-negative."""
    p = np.asarray(p, dtype=float)
    a, f = MRP_A, MRP_F
    n2 = (p * p).sum(axis=-1, keepdims=True)
    qs = (-a * n2 + f * np.sqrt(f * f + (1.0 - a * a) * n2)) / (f * f + n2)
    qv = (a + qs) / f * p
    q = np.concatenate([qv, qs], axis=-1)
    neg = q[..., 3:4] < 0.0
    q = np.where(neg, -q, q)
    return quat_normalize(q)


def quat_rate(q, w):
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


def quat_integrate(q, omega, Ts: float):
    """Propagate a unit quaternion under constant body rate over Ts.

    Exact closed form of qdot = 1/2 q (x) (omega, 0); the zero-rate limit
    is handled with a series branch to avoid 0/0.
    """
    if Ts <= 0.0:
        raise ValueError("Ts must be positive")
    q = np.asarray(q, dtype=float)
    Om = integration_matrix(omega, Ts)
    out = np.einsum("...ij,...j->...i", Om, q)
    return quat_normalize(out)


_DIAG4 = np.arange(4)
# the entries of psi_x, psi_y, psi_z, psi_x, psi_y, psi_z in the propagator
_PSI_ROWS = np.array([1, 2, 0, 0, 1, 2])
_PSI_COLS = np.array([2, 0, 1, 3, 3, 3])


def integration_matrix(omega, Ts: float):
    """Orthogonal 4x4 propagator of the constant-rate quaternion kinematics."""
    omega = np.asarray(omega, dtype=float)
    w = np.sqrt((omega * omega).sum(axis=-1))
    half = 0.5 * w * Ts
    ups = np.cos(half)
    # sin(half)/w with a series branch below ||omega|| Ts < 1e-8
    small = w * Ts < 1e-8
    wsafe = np.where(small, 1.0, w)
    sinc = np.where(small, 0.5 * Ts * (1.0 - half * half / 6.0), np.sin(half) / wsafe)
    psi = sinc[..., None] * omega
    Om = np.zeros(omega.shape[:-1] + (4, 4))
    Om[..., _DIAG4, _DIAG4] = ups[..., None]
    # upsilon I3 - skew(psi) block plus psi column / -psi^T row: each psi_k
    # sits at two entries, and -psi_k at their mirror images
    psi2 = np.concatenate([psi, psi], axis=-1)
    Om[..., _PSI_ROWS, _PSI_COLS] = psi2
    Om[..., _PSI_COLS, _PSI_ROWS] = -psi2
    return Om


def skew(v):
    """Cross-product matrix: skew(v) @ u == v x u."""
    v = np.asarray(v)
    S = np.zeros(v.shape[:-1] + (3, 3), dtype=v.dtype)
    S[..., 0, 1] = -v[..., 2]
    S[..., 0, 2] = v[..., 1]
    S[..., 1, 0] = v[..., 2]
    S[..., 1, 2] = -v[..., 0]
    S[..., 2, 0] = -v[..., 1]
    S[..., 2, 1] = v[..., 0]
    return S


def rotvec_to_rotmat(theta):
    """Rodrigues formula, series branch near zero; complex-step safe."""
    theta = np.asarray(theta)
    a2 = (theta * theta).sum(axis=-1)
    S = skew(theta)
    S2 = S @ S
    small = np.abs(a2) < 1e-12
    a2safe = np.where(small, 1.0, a2)
    a = np.sqrt(a2safe)
    c1 = np.where(small, 1.0 - a2 / 6.0, np.sin(a) / a)
    c2 = np.where(small, 0.5 - a2 / 24.0, (1.0 - np.cos(a)) / a2safe)
    eye = np.eye(3, dtype=S.dtype)
    return eye + c1[..., None, None] * S + c2[..., None, None] * S2


def euler_rate_matrix(eta):
    """Map body rates to Z-Y-X Euler-angle rates: etadot = E(eta) omega."""
    eta = np.asarray(eta, dtype=float)
    phi, theta = eta[..., 0], eta[..., 1]
    cph, sph = np.cos(phi), np.sin(phi)
    cth, tth = np.cos(theta), np.tan(theta)
    E = np.empty(eta.shape[:-1] + (3, 3))
    E[..., 0, 0] = 1.0
    E[..., 0, 1] = sph * tth
    E[..., 0, 2] = cph * tth
    E[..., 1, 0] = 0.0
    E[..., 1, 1] = cph
    E[..., 1, 2] = -sph
    E[..., 2, 0] = 0.0
    E[..., 2, 1] = sph / cth
    E[..., 2, 2] = cph / cth
    return E


def body_rate_from_euler_rate(eta, eta_dot):
    """Inverse of :func:`euler_rate_matrix`: omega from Euler-angle rates."""
    eta = np.asarray(eta, dtype=float)
    eta_dot = np.asarray(eta_dot, dtype=float)
    phi, theta = eta[..., 0], eta[..., 1]
    cph, sph = np.cos(phi), np.sin(phi)
    cth, sth = np.cos(theta), np.sin(theta)
    dphi, dth, dpsi = eta_dot[..., 0], eta_dot[..., 1], eta_dot[..., 2]
    wx = dphi - sth * dpsi
    wy = cph * dth + sph * cth * dpsi
    wz = -sph * dth + cph * cth * dpsi
    return np.stack([wx, wy, wz], axis=-1)


def random_quat(rng: np.random.Generator, max_angle: float = np.pi):
    """Uniform random rotation axis with angle in (0, max_angle), qs >= 0."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, max_angle)
    return quat_from_axis_angle(axis, angle)
