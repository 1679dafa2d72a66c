"""Rigid payload coupled to N agents through ideal spherical joints.

The joints transmit force but no torque, so agent attitude dynamics are
decoupled from the payload while agent translational states are constrained
to the payload kinematics. Agents enter the system inertia as point masses
at their attachment points, and the lumped rigid body is written about the
composite CoM (``com_system``). The kernels take the rotation matrix R of
the payload, are complex-step safe, and are the one copy of their block:
``attachment_kinematics``, ``attachment_accel``, ``payload_accel`` and
``joint_interaction_force`` run in the coupled simulator and in the
analysis model ``analysis._core``, whose Jacobian is every linear plant.
The payload state (R, p, v, w, accelerations and forces) may carry leading
batch axes; each row then has the bits of its own unbatched call.

One real row (float64 R (3, 3), 1-D vectors and (N, 3) rows) runs the
elementwise arithmetic on Python floats in numpy's order, and every matrix
product and the solve as the array path's numpy call: the same bits, NaN
signs and payloads aside. The simulator's payload stages and the pre-roll
take it. Stacked and complex-step operands, as in the batched Jacobians,
run the array path, whose products are ``cross3``'s.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg._umath_linalg import solve1

from .attitude import cross3
from .errors import DimensionMismatch
from .mav import G_EZ, real_array


@dataclass(frozen=True)
class PayloadParams:
    m_p: float
    J_p: np.ndarray
    attachments: np.ndarray  # (N, 3) payload-frame offsets r_PBi
    drag_F: np.ndarray = field(default_factory=lambda: np.zeros(3))
    drag_M: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        real_array("m_p", self.m_p, ())
        for name in ("J_p", "drag_F", "drag_M"):
            object.__setattr__(self, name,
                               real_array(name, getattr(self, name), (3,)))
        object.__setattr__(self, "attachments", real_array(
            "attachments", self.attachments, (None, 3)))
        if self.m_p <= 0 or np.any(self.J_p <= 0):
            raise ValueError("payload mass and inertia must be positive")
        if len(self.attachments) < 1:
            raise ValueError("need at least one (N, 3) attachment")

    @property
    def n_agents(self) -> int:
        return self.attachments.shape[0]


def regular_polygon_attachments(n: int, side: float = 1.2, height: float = 0.0):
    """Attachment offsets for n agents on a regular n-gon of the given side
    length; two agents degenerate to a beam of length `side`. A nonzero
    height models gripper stems standing above the payload plane (adds a
    roll/pitch pendulum mode); the joints sit in the payload plane by
    default."""
    if n < 1:
        raise ValueError("need at least one agent")
    if n == 1:
        return np.array([[0.0, 0.0, height]])
    if n == 2:
        return np.array([[side / 2, 0.0, height], [-side / 2, 0.0, height]])
    radius = side / (2.0 * np.sin(np.pi / n))
    ang = 2.0 * np.pi * np.arange(n) / n
    return np.stack([radius * np.cos(ang), radius * np.sin(ang),
                     np.full(n, height)], axis=1)


def polygon_payload_inertia(m_p: float, n: int, side: float):
    """Disc-approximation inertia of a regular-polygon plate payload."""
    radius = side / 2 if n == 2 else side / (2.0 * np.sin(np.pi / n))
    jzz = 0.5 * m_p * radius**2
    jxx = 0.25 * m_p * radius**2
    return np.array([max(jxx, 1e-3), max(jxx, 1e-3), max(jzz, 1e-3)])


def default_payload(n_agents: int, m_bar: float) -> PayloadParams:
    """The payload of a team of n_agents: a regular-polygon plate of side
    1.2 m whose mass is 1.5 times one agent's maximum payload m_bar."""
    m_p = 1.5 * m_bar
    return PayloadParams(
        m_p=m_p, J_p=polygon_payload_inertia(m_p, n_agents, 1.2),
        attachments=regular_polygon_attachments(n_agents, 1.2))


def joint_interaction_force(a_i, F_applied_i, m_i: float):
    """World-frame force the payload exerts on agent i through the joint,
    closing Newton's law for the agent: m a = F_applied + F_int - m g."""
    return m_i * (a_i + G_EZ) - F_applied_i


@dataclass(frozen=True)
class ComSystem:
    """Composite-body description about the system center of mass.

    The lumped rigid-body equations are exact only about the composite CoM;
    when attachments are not mass-balanced about the payload CoG (gripper
    stems sit above the plate) everything is shifted there.
    """

    m_sys: float
    J_sys: np.ndarray  # (3, 3) about the composite CoM
    attachments: np.ndarray  # (N, 3) agent offsets from the CoM
    r_payload_cog: np.ndarray  # payload CoG offset from the CoM


def com_system(params: PayloadParams, agent_masses) -> ComSystem:
    agent_masses = np.asarray(agent_masses, dtype=float)
    if agent_masses.shape != (params.n_agents,):
        raise DimensionMismatch(
            f"expected {params.n_agents} agent masses, got {agent_masses.shape}")
    m_sys = params.m_p + float(np.sum(agent_masses))
    com = (agent_masses[:, None] * params.attachments).sum(axis=0) / m_sys
    att = params.attachments - com[None, :]
    r_pc = -com
    J = np.diag(params.J_p) + params.m_p * (
        np.dot(r_pc, r_pc) * np.eye(3) - np.outer(r_pc, r_pc))
    for m_i, r in zip(agent_masses, att):
        J += m_i * (np.dot(r, r) * np.eye(3) - np.outer(r, r))
    return ComSystem(m_sys=m_sys, J_sys=J, attachments=att,
                     r_payload_cog=r_pc)


def _real_row(R, rows, a, b, c):
    """Whether R (3, 3), rows (N, 3) and the vectors a, b, c are one real,
    unstacked row, all float64, which takes the float path."""
    return (R.ndim == rows.ndim == 2 and a.ndim == b.ndim == c.ndim == 1
            and R.dtype == rows.dtype == a.dtype == b.dtype == c.dtype
            == np.float64)


def attachment_kinematics(com: ComSystem, p, v, R, w):
    """World-frame position and velocity of every attachment, each (N, 3),
    for the payload pose (p, R) and twist (v, w about the CoM, w payload
    frame), and the payload-frame w x r (N, 3) that
    :func:`attachment_accel` takes. Complex-step safe. One real row takes
    the cross products on Python floats."""
    att, RT = com.attachments, R.swapaxes(-1, -2)
    if _real_row(R, att, p, v, w):
        w0, w1, w2 = w.tolist()
        w_x_r = np.array([[w1 * r2 - w2 * r1, w2 * r0 - w0 * r2,
                           w0 * r1 - w1 * r0] for r0, r1, r2 in att.tolist()])
    else:
        w_x_r = cross3(w[..., None, :], att)
    return p[..., None, :] + att @ RT, v[..., None, :] + w_x_r @ RT, w_x_r


def attachment_accel(com: ComSystem, R, w, w_x_r, vdot, wdot):
    """World-frame acceleration (N, 3) of every attachment under the payload
    accelerations (vdot, wdot about the CoM, wdot payload frame), given the
    payload-frame w x r of :func:`attachment_kinematics` at the same
    (R, w). Complex-step safe. One real row takes wdot x r + w x (w x r)
    on Python floats."""
    if _real_row(R, w_x_r, w, vdot, wdot):
        w0, w1, w2 = w.tolist()
        d0, d1, d2 = wdot.tolist()
        rel = np.array([[(d1 * r2 - d2 * r1) + (w1 * u2 - w2 * u1),
                         (d2 * r0 - d0 * r2) + (w2 * u0 - w0 * u2),
                         (d0 * r1 - d1 * r0) + (w0 * u1 - w1 * u0)]
                        for (r0, r1, r2), (u0, u1, u2)
                        in zip(com.attachments.tolist(), w_x_r.tolist())])
    else:
        rel = (cross3(wdot[..., None, :], com.attachments)
               + cross3(w[..., None, :], w_x_r))
    return vdot[..., None, :] + rel @ R.swapaxes(-1, -2)


def payload_accel(com: ComSystem, drag_F, drag_M, R, v, w, F_sum, FP):
    """Linear and angular acceleration of the composite body under the agent
    forces FP (N, 3) applied at the attachments in the payload frame, whose
    world-frame copies R FP sum to F_sum (3,): np.add.reduce(R FP, -2), which
    a caller may take for several calls in one. Drag is linear in the
    payload-frame velocity and rate. Complex-step safe. One real row takes
    the mass, gravity and rate-drag terms, the cross products and the
    moment sum on Python floats."""
    # np.matvec: the bits of A @ x on each vector of a stack, at less cost
    drag_w = np.matvec(R, drag_F * np.matvec(R.swapaxes(-1, -2), v))
    J_w = np.matvec(com.J_sys, w)
    # np.linalg.solve's gufunc for a 1-D right-hand side: the same gesv,
    # without the wrapper's checks (J_sys >= diag(J_p) > 0 is never singular)
    if not _real_row(R, FP, v, w, F_sum):
        vdot = (F_sum - drag_w) / com.m_sys - G_EZ
        M = np.add.reduce(cross3(com.attachments, FP), -2)
        return vdot, solve1(com.J_sys, M - cross3(w, J_w) - drag_M * w)
    m, (g0, g1, g2) = com.m_sys, G_EZ.tolist()
    (f0, f1, f2), (d0, d1, d2) = F_sum.tolist(), drag_w.tolist()
    vdot = np.array([(f0 - d0) / m - g0, (f1 - d1) / m - g1,
                     (f2 - d2) / m - g2])
    M0 = M1 = M2 = 0.0  # as np.add.reduce: from +0.0, the rows in order
    for (r0, r1, r2), (p0, p1, p2) in zip(com.attachments.tolist(),
                                          FP.tolist()):
        M0 += r1 * p2 - r2 * p1
        M1 += r2 * p0 - r0 * p2
        M2 += r0 * p1 - r1 * p0
    (w0, w1, w2), (j0, j1, j2) = w.tolist(), J_w.tolist()
    c0, c1, c2 = drag_M.tolist()
    return vdot, solve1(com.J_sys, np.array([
        M0 - (w1 * j2 - w2 * j1) - c0 * w0,
        M1 - (w2 * j0 - w0 * j2) - c1 * w1,
        M2 - (w0 * j1 - w1 * j0) - c2 * w2]))
