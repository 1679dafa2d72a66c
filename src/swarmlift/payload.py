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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg._umath_linalg import solve1

from .attitude import cross3
from .errors import DimensionMismatch
from .mav import G_EZ, real_array


@dataclass
class PayloadParams:
    m_p: float
    J_p: np.ndarray
    attachments: np.ndarray  # (N, 3) payload-frame offsets r_PBi
    drag_F: np.ndarray = field(default_factory=lambda: np.zeros(3))
    drag_M: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        real_array("m_p", self.m_p, ())
        for name in ("J_p", "drag_F", "drag_M"):
            setattr(self, name, real_array(name, getattr(self, name), (3,)))
        self.attachments = real_array(
            "attachments", np.atleast_2d(self.attachments), (None, 3))
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
    agent_masses: np.ndarray


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
                     r_payload_cog=r_pc, agent_masses=agent_masses)


def attachment_kinematics(com: ComSystem, p, v, R, w):
    """World-frame position and velocity of every attachment, each (N, 3),
    for the payload pose (p, R) and twist (v, w about the CoM, w payload
    frame), and the payload-frame w x r (N, 3) that
    :func:`attachment_accel` takes. Complex-step safe."""
    att, RT = com.attachments, R.T
    w_x_r = cross3(w, att)
    return p + att @ RT, v + w_x_r @ RT, w_x_r


def attachment_accel(com: ComSystem, R, w, w_x_r, vdot, wdot):
    """World-frame acceleration (N, 3) of every attachment under the payload
    accelerations (vdot, wdot about the CoM, wdot payload frame), given the
    payload-frame w x r of :func:`attachment_kinematics` at the same
    (R, w). Complex-step safe."""
    # one cross3 gives wdot x r and w x (w x r) for every attachment r
    wdot_x_r, w_x_w_x_r = cross3(np.array((wdot, w))[:, None],
                                 np.array((com.attachments, w_x_r)))
    return vdot + (wdot_x_r + w_x_w_x_r) @ R.T


def payload_accel(com: ComSystem, drag_F, drag_M, R, v, w, Fw, FP):
    """Linear and angular acceleration of the composite body under the agent
    forces applied at the attachments, given in both frames: Fw = R FP
    (world) and FP (payload), each (N, 3). Drag is linear in the
    payload-frame velocity and rate. Complex-step safe."""
    drag_w = R @ (drag_F * (R.T @ v))
    vdot = (np.add.reduce(Fw) - drag_w) / com.m_sys - G_EZ
    # one cross3 gives r_i x FP_i for every attachment and w x J w last
    c = cross3(np.concatenate((com.attachments, w[None])),
               np.concatenate((FP, (com.J_sys @ w)[None])))
    # np.linalg.solve's gufunc for a 1-D right-hand side: the same gesv,
    # without the wrapper's checks (J_sys >= diag(J_p) > 0 is never singular)
    wdot = solve1(com.J_sys, np.add.reduce(c[:-1]) - c[-1] - drag_M * w)
    return vdot, wdot
