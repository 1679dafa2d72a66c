"""Nominal coupled closed-loop model for robust tuning.

The model couples the rigid payload (about the composite CoM) to N agents
whose chains are the nominal blocks of the analysis: PD position loop,
first-order world-frame thrust lag, first-order force-estimator lag, and
the engaged admittance law on every slave. The master tracks an external
velocity command through a reference integrator.

Uncertainty enters through normalized injection channels u_<name> /
y_<name>, one pair per Delta channel that :func:`delta_channels` lists:

* mass: inverse-system-mass perturbation (payload mass interval),
* inertia: payload inertia diagonal perturbation,
* mpc_i: multiplicative perturbation on each position controller,
* att_i: multiplicative perturbation on each thrust lag,
* est_j: multiplicative perturbation on each slave estimator.

One nonlinear model, :func:`_core`, carries the physics. It runs the
simulator's kernels (``payload``'s attachment kinematics, rigid body and
joint force; ``mav``'s PD law and thrust clamp; ``attitude.quat_rate``) and
adds only what is the analysis's own: the references, the payload-frame
thrust lag, the uncertainty injections, the estimator lag and the
admittance law. Every linear plant is its complex-step Jacobian, exact to
machine precision, at the engaged-hover equilibrium for the rest plant
(:func:`build_closed_loop`) and at the pre-rolled state for the transport
plant; so the margins are computed on the Jacobian of the physics that the
simulator integrates. The model and its kernels take a leading batch axis,
so a plant's Jacobian is one :func:`chart_rhs_out` call on the stack of
its perturbed points, each row with the bits of its own call.

Only the Jacobians read the Delta channels. The transport pre-roll
integrates the nominal model (the uncertainty LFT closed with Delta = 0),
:func:`full_rhs` under the velocity command alone, which splits no input
vector and runs no injection. Its 924 calls at N = 3, (4, 12) are a large
share of a margin point at small N, so what a configuration fixes is built
once (``AnalysisConfig``, ``MavParams``) and a call runs only its blocks'
arithmetic, in pinned order.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

# einsum's C core, without the Python wrapper and its dispatch
from numpy._core._multiarray_umath import c_einsum

from .admittance import AdmittanceParams
from .attitude import (cross3, quat_normalize, quat_rate,
                       quat_to_rotmat, rotvec_to_rotmat)
from .errors import UnstableOperatingPoint
from .lti import LinearSystem
from .mav import (G_EZ, GRAVITY, MavParams, pd_position_control, rk4_step,
                  saturate_thrust_command)
from .payload import (attachment_accel, attachment_kinematics,
                      com_system, default_payload, joint_interaction_force,
                      payload_accel)

TRANSPORT_PREROLL_T = 5.0
PREROLL_STEP_RHO = 0.25  # h rho of the pre-roll's RK4 (stable to 2.785)
PREROLL_MAX_STEPS = 20_000  # a stiffer rest plant is refused unintegrated
PREROLL_DIVERGENCE_BOUND = 1e3  # a state entry past it fails the pre-roll
TRANSPORT_VELOCITY = np.array([0.5, 0.5, 0.0])
MASS_UNCERTAINTY = 0.5  # fraction of nominal payload mass
INERTIA_UNCERTAINTY = 0.1  # fraction of payload inertia diagonal


@dataclass(frozen=True)
class AnalysisConfig:
    n_agents: int
    tuning_M: float = 8.0
    tuning_C: float = 6.0
    # the agent that uncertainty's default weights were identified on
    mav: MavParams = field(init=False, default_factory=MavParams)

    def __post_init__(self):
        check_n_agents(self.n_agents)
        payload = default_payload(self.n_agents, self.mav.m_bar)
        com = com_system(payload, np.full(self.n_agents, self.mav.m))
        # equal static share of the payload weight per agent
        share = payload.m_p * GRAVITY / self.n_agents
        # slave desired positions / master reference at the attachment layout
        engage_points = com.attachments.copy()
        # Derived by each construction and replace(), as plain attributes
        for name, value in (
                ("payload", payload),
                ("adm", AdmittanceParams().lateral(self.tuning_M,
                                                   self.tuning_C)),
                ("com", com),
                ("share", share),
                ("F_trim", np.tile(
                    np.array([0.0, 0.0, self.mav.m * GRAVITY + share]),
                    (self.n_agents, 1))),
                # the sensed joint force at rest, removed by offset
                # calibration
                ("F_int_trim", np.array([0.0, 0.0, -share])),
                ("engage_points", engage_points),
                ("slave_points", engage_points[1:]),
                # mass channel gain: half-width of the payload mass interval
                # over the nominal system mass
                ("w_mass", MASS_UNCERTAINTY * payload.m_p / com.m_sys),
                # inertia channel gain: relative uncertainty on the diagonal
                # of the total system inertia (agents enter as point masses,
                # so this also covers the attachment-geometry modeling error)
                ("G_inertia", np.linalg.solve(
                    com.J_sys,
                    INERTIA_UNCERTAINTY * np.diag(np.diag(com.J_sys))))):
            object.__setattr__(self, name, value)

    @property
    def n_slaves(self) -> int:
        return self.n_agents - 1

    def input_channels(self):
        return [(f"u_{name}", size) for name, size in
                delta_channels(self.n_agents)] + [("w", 3)]

    def output_channels(self):
        return ([(f"y_{name}", size) for name, size in
                 delta_channels(self.n_agents)]
                + [(f"z_lat_{i}", 2) for i in range(self.n_agents)]
                + [("v_WP", 3), ("p_WP", 3)])

    @property
    def n_inputs(self) -> int:
        return sum(s for _, s in self.input_channels())


def check_n_agents(n_agents) -> None:
    """ValueError unless n_agents counts a team: an integer of at least 2,
    a master and a slave."""
    # bool is an int subclass, but true is no count
    if (isinstance(n_agents, bool) or not isinstance(
            n_agents, numbers.Integral) or n_agents < 2):
        raise ValueError("n_agents must be an integer of at least 2, a "
                         f"master and a slave; got {n_agents!r}")


def delta_channels(n_agents: int) -> list:
    """The Delta channels (name, size), in the order of the plant's
    u/y channels and of the analysis blocks: payload mass and inertia, one
    position controller mpc_i and one thrust lag att_i per agent, one
    estimator est_j per slave."""
    return ([("mass", 3), ("inertia", 3)]
            + [(f"mpc_{i}", 3) for i in range(n_agents)]
            + [(f"att_{i}", 3) for i in range(n_agents)]
            + [(f"est_{j}", 3) for j in range(1, n_agents)])


# ------------------------------------------------------------ state packing

def pack_state(p, v, q, omega, p_ref, F_prop, F_hat, z, zdot):
    """Payload (p, v, attitude, omega), master reference integrator, thrust
    lags per agent, then per slave the contiguous estimator and admittance
    block. A chart state passes theta in place of q."""
    flat = p.shape[:-1] + (-1,)
    return np.concatenate((p, v, q, omega, p_ref, F_prop.reshape(flat),
                           np.concatenate((F_hat, z, zdot), axis=-1)
                           .reshape(flat)), axis=-1)


def unpack_state(cfg: AnalysisConfig, x, n_att: int = 4):
    """Views into a full state (n_att = 4, quaternion q) or a chart state
    (n_att = 3, theta)."""
    a, N = 6 + n_att, cfg.n_agents
    # the thrust lags, then (F_hat, z, zdot) per slave: rows of 3
    rows = x[..., a + 6:].reshape(x.shape[:-1] + (-1, 3))
    return (x[..., 0:3], x[..., 3:6], x[..., 6:a], x[..., a:a + 3],
            x[..., a + 3:a + 6], rows[..., :N, :], rows[..., N::3, :],
            rows[..., N + 1::3, :], rows[..., N + 2::3, :])


def split_inputs(cfg: AnalysisConfig, u):
    N = cfg.n_agents
    U = u.reshape(u.shape[:-1] + (-1, 3))  # every channel is a 3-vector
    return (U[..., 0, :], U[..., 1, :], U[..., 2:2 + N, :],
            U[..., 2 + N:2 + 2 * N, :], U[..., 2 + 2 * N:-1, :], U[..., -1, :])


# ------------------------------------------------------- nonlinear dynamics

def _core(cfg: AnalysisConfig, R, p, v, omega, p_ref, F_prop, F_hat, z, zdot,
          w, delta=None):
    """Shared nonlinear dynamics; complex-step safe. Returns the state
    derivatives (except attitude kinematics), the PD force command and the
    payload-frame thrust, from which chart_rhs_out builds the channel
    outputs. w is the master's velocity command and delta the Delta-channel
    inputs (u_mass, u_J, u_mpc, u_att, u_est) of split_inputs; without
    them it is the nominal model (Delta = 0), which runs no injection. R,
    the states and the inputs may carry the same leading batch axes; each
    row then has the bits of its own call."""
    mav, adm, com = cfg.mav, cfg.adm, cfg.com

    p_i, v_i, w_x_r = attachment_kinematics(com, p, v, R, omega)

    # references: master integrates the velocity command, slaves follow the
    # engaged admittance law
    ref_p = np.concatenate((p_ref[..., None, :], cfg.slave_points + z), -2)
    ref_v = np.concatenate((w[..., None, :], zdot), -2)

    F_cmd = pd_position_control(p_i, v_i, ref_p, ref_v, mav)
    # the commanded and the realized thrust and the force estimate, with
    # their uncertainty injected
    F_in, F_cons_P, F_est = F_cmd, F_prop, F_hat
    if delta is not None:
        u_mass, u_J, u_mpc, u_att, u_est = delta
        F_in, F_cons_P, F_est = F_cmd + u_mpc, F_prop + u_att, F_hat + u_est
    F_lag_in_w = saturate_thrust_command(F_in, mav)
    # the realized thrust is carried in the payload frame (the joints are
    # fixed to the payload: once settled it tilts with the structure); lateral
    # components re-orient with the attitude time constant, the collective
    # magnitude with the (much faster) motor lag
    F_lag_in_P = c_einsum("...ji,...nj->...ni", R, F_lag_in_w)
    dF_prop = (F_lag_in_P - F_prop) / mav.tau_thrust
    F_cons_w = c_einsum("...ij,...nj->...ni", R, F_cons_P)

    # payload rigid body about the composite CoM, with the mass and inertia
    # uncertainty injected into its accelerations
    v_dot, omega_dot = payload_accel(com, cfg.payload.drag_F,
                                     cfg.payload.drag_M, R, v, omega,
                                     np.add.reduce(F_cons_w, -2), F_cons_P)
    if delta is not None:
        v_dot = v_dot - cfg.w_mass * u_mass
        omega_dot = omega_dot - np.matvec(cfg.G_inertia, u_J)

    dp_ref = w

    # slave joint force, estimator lag, admittance
    a_i = attachment_accel(com, R, omega, w_x_r, v_dot, omega_dot)
    F_int = joint_interaction_force(a_i[..., 1:, :], F_cons_w[..., 1:, :],
                                    mav.m)
    dF_hat = (F_int - F_hat) / mav.tau_est
    F_used = F_est - cfg.F_int_trim
    dzdot = (F_used - adm.C * zdot - adm.K * z) / adm.M

    return ((v_dot, omega_dot, dp_ref, dF_prop, dF_hat, zdot, dzdot), F_cmd,
            F_cons_P)


def full_rhs(cfg: AnalysisConfig, x, w):
    """State derivative of the nominal model (Delta = 0) under the velocity
    command w, with quaternion payload attitude (real arithmetic)."""
    p, v, q, omega, p_ref, F_prop, F_hat, z, zdot = unpack_state(cfg, x)
    der, _, _ = _core(cfg, quat_to_rotmat(q), p, v, omega, p_ref, F_prop,
                      F_hat, z, zdot, w)
    v_dot, omega_dot, dp_ref, dF_prop, dF_hat, dz, dzdot = der
    return pack_state(v, v_dot, quat_rate(q, omega), omega_dot, dp_ref,
                      dF_prop, dF_hat, dz, dzdot)


def chart_rhs_out(cfg: AnalysisConfig, xc, u, q_ref):
    """Dynamics and outputs in the 3-component attitude chart centered on
    q_ref: R = R(q_ref) expm(skew(theta)). Complex-step safe; xc and u may
    carry the same leading batch axes."""
    p, v, theta, omega, p_ref, F_prop, F_hat, z, zdot = unpack_state(
        cfg, xc, n_att=3)
    R = quat_to_rotmat(q_ref) @ rotvec_to_rotmat(theta)
    *delta, w = split_inputs(cfg, u)
    der, F_cmd, F_cons_P = _core(cfg, R, p, v, omega, p_ref, F_prop, F_hat,
                                 z, zdot, w, delta)
    v_dot, omega_dot, dp_ref, dF_prop, dF_hat, dz, dzdot = der
    dtheta = omega + 0.5 * cross3(theta, omega)
    # the outputs in output_channels order: y_mass, y_J, y_mpc, y_att,
    # y_est, z_lat, v_WP and p_WP
    outputs = (v_dot + G_EZ, omega_dot, F_cmd, F_prop, F_hat,
               F_cons_P[..., :2], v, p)
    return (pack_state(v, v_dot, dtheta, omega_dot, dp_ref, dF_prop, dF_hat,
                       dz, dzdot),
            np.concatenate([y.reshape(xc.shape[:-1] + (-1,))
                            for y in outputs], axis=-1))


# ------------------------------------------------------------- rest / trims

def rest_state(cfg: AnalysisConfig) -> np.ndarray:
    """Exact engaged-hover equilibrium (PD springs carry the payload share)."""
    sag = cfg.share / cfg.mav.K_P[2]
    p = np.array([0.0, 0.0, -sag])
    q = np.array([0.0, 0.0, 0.0, 1.0])
    p_ref = cfg.engage_points[0].copy()
    F_prop = cfg.F_trim.copy()
    S = cfg.n_slaves
    F_hat = np.tile(cfg.F_int_trim, (S, 1))
    return pack_state(p, np.zeros(3), q, np.zeros(3), p_ref, F_prop,
                      F_hat, np.zeros((S, 3)), np.zeros((S, 3)))


def zero_input(cfg: AnalysisConfig) -> np.ndarray:
    return np.zeros(cfg.n_inputs)


def preroll_transport(cfg: AnalysisConfig,
                      rest: LinearSystem | None = None) -> np.ndarray:
    """Integrate the nominal model from rest under TRANSPORT_VELOCITY;
    returns the state after TRANSPORT_PREROLL_T seconds. The RK4 step h
    keeps h rho <= PREROLL_STEP_RHO for the spectral radius rho of the
    rest plant (linearize(cfg, "rest") unless given): inside RK4's
    stability region for a stiff tuning, and no more steps than a soft
    one's accuracy needs. Past PREROLL_MAX_STEPS steps it raises
    UnstableOperatingPoint unintegrated, as a divergence past
    PREROLL_DIVERGENCE_BOUND does."""
    if rest is None:
        rest = linearize(cfg, "rest")
    rho = np.max(np.abs(np.linalg.eigvals(rest.A)))
    n = int(np.ceil(TRANSPORT_PREROLL_T * rho / PREROLL_STEP_RHO))
    if n > PREROLL_MAX_STEPS:
        raise UnstableOperatingPoint(f"transport pre-roll needs {n} RK4 "
                                     f"steps at spectral radius {rho:.4g} 1/s")
    x = rest_state(cfg)
    dt = TRANSPORT_PREROLL_T / n
    qsl = slice(6, 10)

    def rhs(t, x_):
        return full_rhs(cfg, x_, TRANSPORT_VELOCITY)

    for k in range(n):
        x = rk4_step(rhs, k * dt, x, dt)
        x[qsl] = quat_normalize(x[qsl])
        # a NaN or an infinity fails the test too
        if not np.max(np.abs(x)) <= PREROLL_DIVERGENCE_BOUND:
            raise UnstableOperatingPoint(
                "transport pre-roll diverged for this tuning")
    return x


def to_chart(cfg: AnalysisConfig, x):
    """Split a full state into (chart state with theta = 0, reference q)."""
    p, v, q, omega, p_ref, F_prop, F_hat, z, zdot = unpack_state(cfg, x)
    return pack_state(p, v, np.zeros(3), omega, p_ref, F_prop, F_hat, z,
                      zdot), q


def complex_step_jacobian(f, x):
    """Machine-precision Jacobian via the complex-step derivative. f maps a
    stack of points (k, n) to their values (k, m), each row with the bits of
    its own call, so the n perturbed points go through one call."""
    h = 1e-100
    x = np.asarray(x, dtype=float)
    n = x.size
    xe = np.tile(x.astype(complex), (n, 1))
    xe[np.arange(n), np.arange(n)] += 1j * h
    # C order, the layout the plants downstream were pinned with
    return np.imag(f(xe)).T.copy() / h


def linearize(cfg: AnalysisConfig, op: str = "rest", x_full=None,
              u0=None, rest: LinearSystem | None = None) -> LinearSystem:
    """Jacobian linearization of the nonlinear model at an operating point.

    op = "rest" uses the exact engaged-hover equilibrium; op = "transport"
    pre-rolls the nominal model (:func:`preroll_transport`, whose RK4 step
    is set by the spectral radius of the rest plant: rest, or else its own
    rest linearization) and takes the Jacobian under the same velocity
    command. A custom (x_full, u0) overrides both.
    """
    if x_full is None:
        if op == "rest":
            x_full = rest_state(cfg)
            u0 = zero_input(cfg)
        elif op == "transport":
            x_full = preroll_transport(cfg, rest)
            u0 = zero_input(cfg)
            u0[-3:] = TRANSPORT_VELOCITY
        else:
            raise ValueError(f"unknown operating point {op!r}")
    if u0 is None:
        u0 = zero_input(cfg)
    xc0, q_ref = to_chart(cfg, x_full)
    nx, nu = xc0.size, cfg.n_inputs

    def stacked(xu):
        dx, y = chart_rhs_out(cfg, xu[..., :nx], xu[..., nx:], q_ref)
        return np.concatenate([dx, y], axis=-1)

    J = complex_step_jacobian(stacked, np.concatenate([xc0, u0]))
    A, B = J[:nx, :nx], J[:nx, nx:]
    C, D = J[nx:, :nx], J[nx:, nx:]
    return LinearSystem(A, B, C, D, inputs=cfg.input_channels(),
                        outputs=cfg.output_channels())


def build_closed_loop(cfg: AnalysisConfig) -> LinearSystem:
    """Rest-point interconnection with uncertainty channels: the
    linearization of the nonlinear model at :func:`rest_state`."""
    return linearize(cfg, "rest")


REF_STATES = slice(12, 15)  # master reference integrator inside the chart


def deflate_marginal_modes(sys: LinearSystem) -> LinearSystem:
    """Quotient out the structurally marginal modes of the interconnection.

    The laterally compliant formation admits equilibrium continua: the
    collective yaw about the anchored master, and for the degenerate
    two-agent beam the roll about its attachment axis. They produce exact
    zero eigenvalues that persist under every admissible block perturbation
    (the perturbed system keeps the same continuum), so no admissible Delta
    can push them across the axis and they do not belong in the margin
    question; a finite pre-roll additionally smears them within numerical
    noise of the axis. Everything inside the |Re| <= 5e-4, |Im| <= 0.1 box
    is truncated via an ordered real Schur form; no legitimate plant
    dynamics oscillate that close to the axis below 0.1 rad/s. The master
    reference integrator is identified by its eigenvector support and
    always kept.
    """
    A = sys.A
    n = A.shape[0]
    if n == 0:
        return sys
    w, V = np.linalg.eig(A)
    deflate_vals = []
    for k in range(n):
        vn = max(np.linalg.norm(V[:, k]), 1e-30)
        ref_support = np.linalg.norm(V[REF_STATES, k]) / vn
        if ref_support > 0.5:
            continue  # reference integrator
        if abs(w[k].real) <= 5e-4 and abs(w[k].imag) <= 0.1:
            deflate_vals.append(w[k])
    if not deflate_vals:
        return sys
    vals = np.array(deflate_vals)

    from scipy.linalg import schur

    def keep(re, im):
        lam = re + 1j * im
        return bool(np.min(np.abs(vals - lam)) > 1e-7)

    T, Z, sdim = schur(A, output="real", sort=keep)
    k = int(sdim)
    A_r = T[:k, :k]
    B_r = (Z.T @ sys.B)[:k, :]
    C_r = (sys.C @ Z)[:, :k]
    return LinearSystem(A_r, B_r, C_r, sys.D.copy(),
                        inputs=list(sys.inputs), outputs=list(sys.outputs))


def margin_plant(sys: LinearSystem):
    """Deflate the structural modes and gate nominal stability.

    Returns (deflated system, stable flag): stable means every remaining
    eigenvalue either has real part at most 1e-6 (strictly decaying, or
    trim residue at the analysis scale) or is an exact zero of the
    reference integrator.
    """
    d = deflate_marginal_modes(sys)
    ev = np.linalg.eigvals(d.A) if d.n_states else np.array([])
    ok = True
    for lam in ev:
        if lam.real <= 1e-6 or abs(lam) <= 1e-9:
            continue
        ok = False
        break
    return d, ok
