"""Single-MAV model: the agent kernels, rotor allocation, low-level control,
and the RK4 step of the simulator, the single-agent experiments and the
analysis pre-roll. Each of those integrates one flat state array; its
right-hand side reads views of that array and returns one derivative array.

The low-level controller is the cascade used by every agent: a PD position
loop with gravity feed-forward, thrust-vector-to-attitude command allocation
and a critically damped second-order attitude closed loop. Each kernel is
the one copy of its block, and the controller kernels take a leading agent
axis. A controller tick runs ``pd_position_control`` (or takes a given
thrust command), ``attitude_command`` and ``rotor_speeds_from_wrench``: the
coupled simulator once per tick on the whole team, with
``saturate_thrust_command`` in its lag model, and ``identify``'s one
single-agent loop on one agent. ``analysis._core`` runs the PD law and the
clamp on all agents at once. ``attitude_accel`` also runs in the RK4
right-hand sides and the EKF process model; ``translational_dynamics`` in
the single-agent loop and the EKF; ``rotational_dynamics`` in the UKF.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attitude import cross3, row_norms
from .errors import DimensionMismatch, ZeroThrust

GRAVITY = 9.81
EZ = np.array([0.0, 0.0, 1.0])
G_EZ = GRAVITY * EZ

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


def real_entries(value) -> bool:
    """Whether value holds only real numbers. bool and str are none, and
    numpy casts a bool among numbers to 1.0 or 0.0, so each entry is read."""
    return np.asarray(value).dtype.kind in "iuf" and not any(isinstance(
        x, (bool, np.bool_)) for x in np.asarray(value, dtype=object).flat)


def real_array(name: str, value, shape: tuple) -> np.ndarray:
    """value as a read-only float copy of the given shape (None: any
    length), or ValueError unless it holds finite real numbers
    (real_entries). The parameter objects check and store their arrays
    with it, so an array changes only through replace(), which checks it
    again, and the caller's array stays writable."""
    a = np.asarray(value)
    if (not real_entries(value) or a.ndim != len(shape)
            or any(s not in (None, n) for n, s in zip(a.shape, shape))
            or not np.isfinite(a).all()):
        what = (f"finite numbers of shape {shape}" if shape
                else "a finite number")
        raise ValueError(f"{name} must be {what}, got {value!r}")
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


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
        object.__setattr__(self, "matrix", real_array("matrix", A, (4, 6)))
        object.__setattr__(self, "pinv",
                           real_array("pinv", A.T * scale[None, :], (6, 4)))

    @property
    def rotor_count(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
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
        for name in ("J", "K_drag", "K_P", "K_D"):
            object.__setattr__(self, name,
                               real_array(name, getattr(self, name), (3,)))
        for name in ("m", "k_drag", "F_prop_max", "phi_cmd_max",
                     "theta_cmd_max", "tau_att", "tau_est", "tau_motor",
                     "m_bar"):
            real_array(name, getattr(self, name), ())
        if self.m <= 0 or np.any(self.J <= 0):
            raise ValueError("mass and inertia must be positive")
        if not (0.0 < self.phi_cmd_max < np.pi / 2):
            raise ValueError("phi_cmd_max must lie in (0, pi/2)")
        if not (0.0 < self.theta_cmd_max < np.pi / 2):
            raise ValueError("theta_cmd_max must lie in (0, pi/2)")
        if not (self.tau_att > 0 and self.tau_est > 0 and self.tau_motor > 0):
            raise ValueError("time constants must be positive")
        if not self.F_prop_max > 0:
            raise ValueError("F_prop_max must be positive")
        if not self.m_bar > 0:
            raise ValueError("m_bar must be positive")
        # Derived by each construction and replace(), as plain attributes
        # (not fields, which config hashes see): the per-axis time constants
        # of the world thrust-vector lag, whose lateral components re-orient
        # with the attitude loop and whose magnitude follows the motors, the
        # weight m g e_z and the box of reachable world thrust commands.
        lat_x = np.sin(self.phi_cmd_max) * self.F_prop_max
        lat_y = np.sin(self.theta_cmd_max) * self.F_prop_max
        for name, value in (
                ("weight", self.m * GRAVITY * EZ),
                ("tau_thrust", np.array([self.tau_att, self.tau_att,
                                         self.tau_motor])),
                ("thrust_lo", np.array([-lat_x, -lat_y, 0.0])),
                ("thrust_hi", np.array([lat_x, lat_y, self.F_prop_max]))):
            object.__setattr__(self, name, real_array(name, value, (3,)))

    @property
    def rotor_count(self) -> int:
        return self.allocation.rotor_count

    # attitude loop critically damped with its 63% step rise at tau_att, so
    # the first-order thrust-lag approximation matches the actual rise
    @property
    def omega_n_att(self) -> float:
        return CRIT_DAMP_RISE / self.tau_att


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


def rotor_speeds_from_wrench(M_cmd, F_cmd, params: MavParams):
    """Invert the allocation map; infeasible (negative) squares clip to zero.

    Stacked torques (..., 3) and thrusts (...) give stacked speed vectors.
    As in allocate_wrench, each command is one gemv on a trailing unit axis,
    with the same bits alone or stacked.
    """
    U = np.concatenate([M_cmd, np.asarray(F_cmd)[..., None]], axis=-1)
    n_sq = (params.allocation.pinv @ U[..., None])[..., 0]
    return np.sqrt(np.maximum(n_sq, 0.0))


def rk4_step(rhs, t: float, x, h: float):
    """One classical RK4 step of the state array x over [t, t + h];
    rhs(t, x) returns the derivative of x as one array of its shape. rhs
    is called exactly four times per step, in stage order, which
    simulate.integrate_tick relies on to hand each payload stage its row."""
    k1 = rhs(t, x)
    k2 = rhs(t + 0.5 * h, x + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, x + 0.5 * h * k2)
    k4 = rhs(t + h, x + h * k3)
    return x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def translational_dynamics(R, v, F_prop, drag, F_ext, params: MavParams):
    """World-frame acceleration of a free agent with attitude matrix R.

    Thrust acts along body z; rotor drag, the per-axis gains drag times the
    body velocity, opposes it; F_ext is world frame. Stacked R (..., 3, 3),
    v and F_ext (..., 3) and F_prop (...) give stacked accelerations. As in
    allocate_wrench, each product is one gemv on a trailing unit axis, with
    the same bits alone or stacked.
    """
    RT_v = (R.swapaxes(-1, -2) @ v[..., None])[..., 0]
    f_b = np.zeros(RT_v.shape, dtype=np.result_type(RT_v, F_prop))
    f_b[..., 2] = F_prop
    f_b = f_b - drag * RT_v
    return ((R @ f_b[..., None])[..., 0] / params.m
            + np.asarray(F_ext) / params.m - G_EZ)


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
            + params.weight)


def thrust_to_attitude(F_cmd, psi, params: MavParams):
    """Roll/pitch commands and thrust magnitude realizing a world thrust.

    The command is rotated out of the yaw frame, solved for the tilt that
    aligns body z with it, and clamped: attitude commands first, then the
    thrust magnitude. Stacked commands (..., 3) and yaws (...) give stacked
    outputs with the bits of one call per command; a single command gives
    scalars.
    """
    F_cmd = np.asarray(F_cmd, dtype=float)
    norm = row_norms(F_cmd)
    if np.any(norm < 1e-9):
        raise ZeroThrust("thrust command norm below 1e-9")
    cps, sps = np.cos(psi), np.sin(psi)
    F_x, F_y = F_cmd[..., 0], F_cmd[..., 1]
    u_x = (cps * F_x + sps * F_y) / norm
    u_y = (-sps * F_x + cps * F_y) / norm
    u_z = F_cmd[..., 2] / norm
    phi_cmd = np.arcsin(np.clip(-u_y, -1.0, 1.0))
    theta_cmd = np.arctan2(u_x, u_z)
    phi_cmd = np.clip(phi_cmd, -params.phi_cmd_max, params.phi_cmd_max)
    theta_cmd = np.clip(theta_cmd, -params.theta_cmd_max, params.theta_cmd_max)
    # [()] turns the outputs of a single command into scalars
    return (phi_cmd[()], theta_cmd[()],
            np.minimum(norm, params.F_prop_max)[()])


def attitude_command(F_cmd, eta, eta_dot, omega, params: MavParams):
    """Attitude-command half of a controller tick: the (roll, pitch, zero
    yaw) command and thrust magnitude of thrust_to_attitude for the world
    thrust F_cmd, and the loop torque J acc + omega x J omega that makes the
    attitude loop at (eta, eta_dot), body rate omega, follow it.

    Stacked agents (..., 3) give stacked outputs, each row with the bits of
    its own call; a single agent gives a scalar thrust.
    """
    phi_c, theta_c, F_mag = thrust_to_attitude(F_cmd, eta[..., 2], params)
    eta_cmd = np.stack([phi_c, theta_c, np.zeros_like(phi_c)], axis=-1)
    acc = attitude_accel(eta, eta_dot, eta_cmd, params.omega_n_att)
    return eta_cmd, F_mag, params.J * acc + cross3(omega, params.J * omega)


def saturate_thrust_command(F_cmd_W, params: MavParams):
    """Clamp a world thrust command to the reachable set: lateral components
    to +-sin(tilt_max) * F_prop_max, vertical to [0, F_prop_max].

    Branches on real parts only, so complex-step differentiation through the
    unsaturated region stays exact.
    """
    F = np.asarray(F_cmd_W)
    lo, hi = params.thrust_lo, params.thrust_hi
    out = np.where(F.real < lo, lo, F)
    return np.where(out.real > hi, hi, out)

