"""Single-MAV model: the agent kernels, rotor allocation, low-level control,
and the RK4 step of the simulator, the identification experiments and the
analysis pre-roll.

The low-level controller is the cascade used by every agent: a PD position
loop with gravity feed-forward, thrust-vector-to-attitude command allocation
and a critically damped second-order attitude closed loop. Each kernel is
the one copy of its block. ``pd_position_control`` runs in the coupled
simulator (one agent at a time), the single-agent loop and
``analysis._core`` (all agents at once); ``saturate_thrust_command`` in the
simulator's lag model and ``_core``; ``attitude_accel`` in the simulator,
the single-agent loop, the identification runs and the EKF process model;
``translational_dynamics`` in the single-agent loop and the EKF;
``rotational_dynamics`` in the UKF.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attitude import cross3
from .errors import DimensionMismatch, ZeroThrust

GRAVITY = 9.81
EZ = np.array([0.0, 0.0, 1.0])

# 63% rise of a critically damped double pole at -a happens at t = x/a with
# (1 + x) exp(-x) = exp(-1)
CRIT_DAMP_RISE = 2.146193220620583


def _hexa_geometry():
    """Regular 6-arm geometry constants, shared so symmetric entries cancel
    exactly in floating point."""
    h = 0.5
    c = np.sqrt(3.0) / 2.0
    sin_b = np.array([h, 1.0, h, -h, -1.0, -h])
    cos_b = np.array([c, 0.0, -c, -c, 0.0, c])
    spin = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    return sin_b, cos_b, spin


@dataclass(frozen=True)
class Allocation:
    """Rotor-speed-squared to (U1, U2, U3, U4) wrench map for a hexacopter.

    U1..U3 are body torques about x, y, z; U4 is collective thrust. The
    matrix and its pseudo-inverse are built analytically from the regular
    6-arm geometry, so the torque rows are exactly orthogonal to the thrust
    row and sum(n_i^2) == U4 / k_f holds for any allocated command.
    """

    arm_length: float = 0.3
    k_f: float = 2.8e-5
    k_m: float = 2.8e-5 * 0.016
    matrix: np.ndarray = field(init=False, repr=False)
    pinv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        sin_b, cos_b, spin = _hexa_geometry()
        L, kf, km = self.arm_length, self.k_f, self.k_m
        A = np.vstack(
            [kf * L * sin_b, -kf * L * cos_b, km * spin, kf * np.ones(6)]
        )
        # rows of A are mutually orthogonal: A+ = A^T diag(1/row_norms^2)
        scale = np.array(
            [1.0 / (3 * kf * kf * L * L), 1.0 / (3 * kf * kf * L * L),
             1.0 / (6 * km * km), 1.0 / (6 * kf * kf)]
        )
        object.__setattr__(self, "matrix", A)
        object.__setattr__(self, "pinv", A.T * scale[None, :])

    @property
    def rotor_count(self) -> int:
        return self.matrix.shape[1]


@dataclass
class MavParams:
    """Physical and control parameters of one agent.

    Numeric defaults follow the experimental platform tabulated for the
    robustness analysis (mass 3.5 kg, tilt limits 0.26 rad, position gains
    diag(17, 17, 30) / diag(15, 15, 10), attitude time constant 0.25 s,
    force-estimator time constant 0.2 s, max payload 1.0 kg). The inertia
    tensor is an assumed value for a hexacopter of this class, not a
    published figure.
    """

    m: float = 3.5
    J: np.ndarray = field(default_factory=lambda: np.array([0.08, 0.08, 0.14]))
    k_drag: float = 2.0e-7
    K_drag: np.ndarray = field(default_factory=lambda: np.array([0.25, 0.25, 0.0]))
    F_prop_max: float = 80.0
    phi_cmd_max: float = 0.26
    theta_cmd_max: float = 0.26
    tau_att: float = 0.25
    tau_est: float = 0.2
    tau_motor: float = 0.08  # collective-thrust magnitude lag (assumed)
    m_bar: float = 1.0
    K_P: np.ndarray = field(default_factory=lambda: np.array([17.0, 17.0, 30.0]))
    K_D: np.ndarray = field(default_factory=lambda: np.array([15.0, 15.0, 10.0]))
    allocation: Allocation = field(default_factory=Allocation)

    def __post_init__(self):
        self.J = np.asarray(self.J, dtype=float)
        self.K_drag = np.asarray(self.K_drag, dtype=float)
        self.K_P = np.asarray(self.K_P, dtype=float)
        self.K_D = np.asarray(self.K_D, dtype=float)
        if self.m <= 0 or np.any(self.J <= 0):
            raise ValueError("mass and inertia must be positive")
        if not (0.0 < self.phi_cmd_max < np.pi / 2):
            raise ValueError("phi_cmd_max must lie in (0, pi/2)")
        if not (0.0 < self.theta_cmd_max < np.pi / 2):
            raise ValueError("theta_cmd_max must lie in (0, pi/2)")
        if self.tau_att <= 0 or self.tau_est <= 0:
            raise ValueError("time constants must be positive")

    @property
    def rotor_count(self) -> int:
        return self.allocation.rotor_count

    # attitude loop critically damped with its 63% step rise at tau_att, so
    # the first-order thrust-lag approximation matches the actual rise
    @property
    def omega_n_att(self) -> float:
        return CRIT_DAMP_RISE / self.tau_att

    @property
    def tau_thrust(self) -> np.ndarray:
        """Per-axis time constants of the world thrust-vector lag: the
        lateral components re-orient with the attitude loop, the collective
        magnitude with the motors."""
        return np.array([self.tau_att, self.tau_att, self.tau_motor])

    @property
    def lateral_force_max(self) -> np.ndarray:
        return np.array(
            [np.sin(self.phi_cmd_max) * self.F_prop_max,
             np.sin(self.theta_cmd_max) * self.F_prop_max]
        )


@dataclass
class PropWrench:
    """Propeller wrench: collective thrust along body z plus body torque."""

    F_prop: float
    M_prop: np.ndarray


def allocate_wrench(n, params: MavParams) -> PropWrench:
    """Wrench produced by rotor speeds: linear in the squared speeds.

    A stack of speed vectors (..., rotor_count) gives a stack of wrenches.
    The product runs on a trailing unit axis, so each vector is one BLAS
    gemv, with the same bits alone or stacked (a gemm would not be).
    """
    n = np.asarray(n, dtype=float)
    if n.shape[-1:] != (params.rotor_count,):
        raise DimensionMismatch(
            f"expected {params.rotor_count} rotor speeds, got shape {n.shape}"
        )
    U = (params.allocation.matrix @ (n * n)[..., None])[..., 0]
    # [()] turns the thrust of a single vector into a scalar
    return PropWrench(F_prop=U[..., 3][()], M_prop=U[..., :3])


def rotor_speeds_from_wrench(M_cmd, F_cmd: float, params: MavParams):
    """Invert the allocation map; infeasible (negative) squares clip to zero."""
    U = np.array([M_cmd[0], M_cmd[1], M_cmd[2], F_cmd])
    n_sq = params.allocation.pinv @ U
    return np.sqrt(np.maximum(n_sq, 0.0))


def rk4_step(rhs, t: float, x, h: float) -> list:
    """One classical RK4 step of the state arrays x over [t, t + h];
    rhs(t, *x) returns the derivative of every array of x."""
    k1 = rhs(t, *x)
    k2 = rhs(t + 0.5 * h, *[xi + 0.5 * h * ki for xi, ki in zip(x, k1)])
    k3 = rhs(t + 0.5 * h, *[xi + 0.5 * h * ki for xi, ki in zip(x, k2)])
    k4 = rhs(t + h, *[xi + h * ki for xi, ki in zip(x, k3)])
    return [xi + h / 6 * (a + 2 * b + 2 * c + d)
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]


def translational_dynamics(R, v, F_prop: float, drag, F_ext,
                           params: MavParams):
    """World-frame acceleration of a free agent with attitude matrix R.

    Thrust acts along body z; rotor drag, the per-axis gains drag times the
    body velocity, opposes it; F_ext is world frame.
    """
    f_b = np.array([0.0, 0.0, F_prop]) - drag * (R.T @ v)
    return R @ f_b / params.m + np.asarray(F_ext) / params.m - GRAVITY * EZ


def rotational_dynamics(omega, M_prop, M_ext, J):
    """Body angular acceleration with gyroscopic coupling, diagonal J
    (broadcasts over leading axes)."""
    return (M_prop - cross3(omega, J * omega) + M_ext) / J


def attitude_accel(eta, eta_dot, eta_cmd, omega_n: float):
    """J-free critically damped inner loop on each Euler axis."""
    return omega_n**2 * (eta_cmd - eta) - 2.0 * omega_n * eta_dot


def pd_position_control(p, v, ref_p, ref_v, params: MavParams):
    """World-frame thrust command: PD on position/velocity error plus
    gravity feed-forward. Broadcasts over agents; complex-step safe."""
    return (params.K_P * (np.asarray(ref_p) - p)
            + params.K_D * (np.asarray(ref_v) - v)
            + params.m * GRAVITY * EZ)


def thrust_to_attitude(F_cmd, psi: float, params: MavParams):
    """Roll/pitch commands and thrust magnitude realizing a world thrust.

    The command is rotated out of the yaw frame, solved for the tilt that
    aligns body z with it, and clamped: attitude commands first, then the
    thrust magnitude.
    """
    F_cmd = np.asarray(F_cmd, dtype=float)
    norm = float(np.linalg.norm(F_cmd))
    if norm < 1e-9:
        raise ZeroThrust("thrust command norm below 1e-9")
    cps, sps = np.cos(psi), np.sin(psi)
    u = np.array(
        [cps * F_cmd[0] + sps * F_cmd[1],
         -sps * F_cmd[0] + cps * F_cmd[1],
         F_cmd[2]]
    ) / norm
    phi_cmd = np.arcsin(np.clip(-u[1], -1.0, 1.0))
    theta_cmd = np.arctan2(u[0], u[2])
    phi_cmd = float(np.clip(phi_cmd, -params.phi_cmd_max, params.phi_cmd_max))
    theta_cmd = float(np.clip(theta_cmd, -params.theta_cmd_max, params.theta_cmd_max))
    return phi_cmd, theta_cmd, min(norm, params.F_prop_max)


def saturate_thrust_command(F_cmd_W, params: MavParams):
    """Clamp a world thrust command to the reachable set: lateral components
    to +-sin(tilt_max) * F_prop_max, vertical to [0, F_prop_max].

    Branches on real parts only, so complex-step differentiation through the
    unsaturated region stays exact.
    """
    F = np.asarray(F_cmd_W)
    lat = params.lateral_force_max
    lo = np.array([-lat[0], -lat[1], 0.0])
    hi = np.array([lat[0], lat[1], params.F_prop_max])
    out = np.where(F.real < lo, lo.astype(F.dtype), F)
    out = np.where(out.real > hi, hi.astype(F.dtype), out)
    return out

