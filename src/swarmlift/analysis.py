"""Nominal coupled closed-loop model for robust tuning.

The model couples the rigid payload (about the composite CoM) to N agents
whose chains are the nominal blocks of the analysis: PD position loop,
first-order world-frame thrust lag, first-order force-estimator lag, and
the engaged admittance law on every slave. The master tracks an external
velocity command through a reference integrator.

Uncertainty enters through normalized injection channels:

* u_mass / y_mass: inverse-system-mass perturbation (payload mass interval),
* u_inertia / y_inertia: payload inertia diagonal perturbation,
* u_mpc_i / y_mpc_i: multiplicative perturbation on each position controller,
* u_att_i / y_att_i: multiplicative perturbation on each thrust lag,
* u_est_j / y_est_j: multiplicative perturbation on each slave estimator.

One nonlinear model, :func:`_core`, carries the physics. It runs the
simulator's kernels (``payload``'s attachment kinematics, rigid body and
joint force; ``mav``'s PD law and thrust clamp; ``attitude.quat_rate``) and
adds only what is the analysis's own: the references, the payload-frame
thrust lag, the uncertainty injections, the estimator lag and the
admittance law. Every linear plant is its complex-step Jacobian, exact to
machine precision, at the engaged-hover equilibrium for the rest plant
(:func:`build_closed_loop`) and at the pre-rolled state for the transport
plant; so the margins are computed on the Jacobian of the physics that the
simulator integrates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .admittance import AdmittanceParams
from .attitude import (cross3, quat_normalize, quat_rate, quat_to_rotmat,
                       rotvec_to_rotmat)
from .errors import UnstableOperatingPoint
from .lti import LinearSystem
from .mav import (EZ, GRAVITY, MavParams, pd_position_control, rk4_step,
                  saturate_thrust_command)
from .payload import (ComSystem, PayloadParams, attachment_accel,
                      attachment_kinematics, com_system,
                      joint_interaction_force, payload_accel)

TRANSPORT_PREROLL_T = 5.0
TRANSPORT_VELOCITY = np.array([0.5, 0.5, 0.0])


@dataclass
class AnalysisConfig:
    n_agents: int
    tuning_M: float = 8.0
    tuning_C: float = 6.0
    mav: MavParams = field(default_factory=MavParams)
    payload: PayloadParams = None
    adm: AdmittanceParams = None
    mass_uncertainty: float = 0.5  # fraction of nominal payload mass
    inertia_uncertainty: float = 0.1  # fraction of payload inertia diagonal

    def __post_init__(self):
        if self.n_agents < 2:
            raise ValueError("need a master and at least one slave")
        if self.payload is None:
            from .payload import polygon_payload_inertia, regular_polygon_attachments

            m_p = 1.5 * self.mav.m_bar
            side = 1.2
            self.payload = PayloadParams(
                m_p=m_p,
                J_p=polygon_payload_inertia(m_p, self.n_agents, side),
                attachments=regular_polygon_attachments(self.n_agents, side))
        if self.adm is None:
            self.adm = AdmittanceParams(
                C=np.array([6.0, 6.0, 120.0]), K=np.array([0.0, 0.0, 400.0]))
        self.adm = self.adm.lateral(self.tuning_M, self.tuning_C)
        self.com: ComSystem = com_system(
            self.payload, np.full(self.n_agents, self.mav.m))
        # equal static share of the payload weight per agent
        self.share = self.payload.m_p * GRAVITY / self.n_agents
        self.F_trim = np.tile(
            np.array([0.0, 0.0, self.mav.m * GRAVITY + self.share]),
            (self.n_agents, 1))
        # the sensed joint force at rest, removed by offset calibration
        self.F_int_trim = np.array([0.0, 0.0, -self.share])
        # slave desired positions / master reference at the attachment layout
        self.engage_points = self.com.attachments.copy()
        # mass channel gain: half-width of the payload mass interval over the
        # nominal system mass
        self.w_mass = self.mass_uncertainty * self.payload.m_p / self.com.m_sys
        # inertia channel gain: relative uncertainty on the diagonal of the
        # total system inertia (agents enter as point masses, so this also
        # covers the attachment-geometry modeling error)
        self.G_inertia = np.linalg.solve(
            self.com.J_sys,
            self.inertia_uncertainty * np.diag(np.diag(self.com.J_sys)))

    @property
    def n_slaves(self) -> int:
        return self.n_agents - 1

    # ---------------------------------------------------------------- sizes
    @property
    def n_states(self) -> int:
        return 15 + 3 * self.n_agents + 9 * self.n_slaves + 1  # q has 4 comps

    @property
    def n_chart_states(self) -> int:
        return 15 + 3 * self.n_agents + 9 * self.n_slaves

    def input_channels(self):
        ch = [("u_mass", 3), ("u_inertia", 3)]
        ch += [(f"u_mpc_{i}", 3) for i in range(self.n_agents)]
        ch += [(f"u_att_{i}", 3) for i in range(self.n_agents)]
        ch += [(f"u_est_{j}", 3) for j in range(1, self.n_agents)]
        ch += [("w", 3)]
        return ch

    def output_channels(self):
        ch = [("y_mass", 3), ("y_inertia", 3)]
        ch += [(f"y_mpc_{i}", 3) for i in range(self.n_agents)]
        ch += [(f"y_att_{i}", 3) for i in range(self.n_agents)]
        ch += [(f"y_est_{j}", 3) for j in range(1, self.n_agents)]
        ch += [(f"z_lat_{i}", 2) for i in range(self.n_agents)]
        ch += [("v_WP", 3), ("p_WP", 3)]
        return ch

    @property
    def n_inputs(self) -> int:
        return sum(s for _, s in self.input_channels())

    @property
    def n_outputs(self) -> int:
        return sum(s for _, s in self.output_channels())


# ------------------------------------------------------------ state packing

def pack_state(p, v, q, omega, p_ref, F_prop, F_hat, z, zdot):
    """Payload (p, v, attitude, omega), master reference integrator, thrust
    lags per agent, then per slave the contiguous estimator and admittance
    block. A chart state passes theta in place of q."""
    return np.concatenate([p, v, q, omega, p_ref, np.reshape(F_prop, -1),
                           np.hstack([F_hat, z, zdot]).reshape(-1)])


def unpack_state(cfg: AnalysisConfig, x, n_att: int = 4):
    """Views into a full state (n_att = 4, quaternion q) or a chart state
    (n_att = 3, theta)."""
    a, N = 6 + n_att, cfg.n_agents
    f = a + 6 + 3 * N  # first slave block
    slaves = x[f:].reshape(cfg.n_slaves, 9)
    return (x[0:3], x[3:6], x[6:a], x[a:a + 3], x[a + 3:a + 6],
            x[a + 6:f].reshape(N, 3), slaves[:, 0:3], slaves[:, 3:6],
            slaves[:, 6:9])


def split_inputs(cfg: AnalysisConfig, u):
    N, S = cfg.n_agents, cfg.n_slaves
    u_mass = u[0:3]
    u_J = u[3:6]
    u_mpc = u[6:6 + 3 * N].reshape(N, 3)
    u_att = u[6 + 3 * N:6 + 6 * N].reshape(N, 3)
    u_est = u[6 + 6 * N:6 + 6 * N + 3 * S].reshape(S, 3)
    w = u[6 + 6 * N + 3 * S:]
    return u_mass, u_J, u_mpc, u_att, u_est, w


# ------------------------------------------------------- nonlinear dynamics

def _core(cfg: AnalysisConfig, R, p, v, omega, p_ref, F_prop, F_hat, z, zdot,
          u):
    """Shared nonlinear dynamics; complex-step safe. Returns state
    derivatives (except attitude kinematics) and the channel outputs, in
    output order and not yet flattened."""
    N = cfg.n_agents
    mav, adm, com = cfg.mav, cfg.adm, cfg.com
    u_mass, u_J, u_mpc, u_att, u_est, w = split_inputs(cfg, u)
    dt_ = np.result_type(R.dtype, p.dtype, u.dtype)

    p_i, v_i = attachment_kinematics(com, p, v, R, omega)

    # references: master integrates the velocity command, slaves follow the
    # engaged admittance law
    ref_p = np.zeros((N, 3), dtype=dt_)
    ref_v = np.zeros((N, 3), dtype=dt_)
    ref_p[0] = p_ref
    ref_v[0] = w
    ref_p[1:] = cfg.engage_points[1:] + z
    ref_v[1:] = zdot

    F_cmd = pd_position_control(p_i, v_i, ref_p, ref_v, mav)
    y_mpc = F_cmd
    F_lag_in_w = saturate_thrust_command(F_cmd + u_mpc, mav)
    # the realized thrust is carried in the payload frame (constant-R_PB
    # aggregation: once settled it tilts with the structure); lateral
    # components re-orient with the attitude time constant, the collective
    # magnitude with the (much faster) motor lag
    F_lag_in_P = np.einsum("ji,nj->ni", R, F_lag_in_w)
    dF_prop = (F_lag_in_P - F_prop) / mav.tau_thrust[None, :]
    y_att = F_prop
    F_cons_P = F_prop + u_att
    F_cons_w = np.einsum("ij,nj->ni", R, F_cons_P)

    # payload rigid body about the composite CoM, with the mass and inertia
    # uncertainty injected into its accelerations
    v_dot, omega_dot = payload_accel(com, cfg.payload.drag_F,
                                     cfg.payload.drag_M, R, v, omega,
                                     F_cons_w, F_cons_P)
    v_dot = v_dot - cfg.w_mass * u_mass
    omega_dot = omega_dot - cfg.G_inertia @ u_J
    y_mass = v_dot + GRAVITY * EZ
    y_J = omega_dot

    dp_ref = w

    # slave joint force, estimator lag, admittance
    a_i = attachment_accel(com, R, omega, v_dot, omega_dot)
    F_int = joint_interaction_force(a_i[1:], F_cons_w[1:], mav.m)
    dF_hat = (F_int - F_hat) / mav.tau_est
    F_used = F_hat + u_est - cfg.F_int_trim[None, :]
    dzdot = (F_used - adm.C[None, :] * zdot - adm.K[None, :] * z) \
        / adm.M[None, :]

    outputs = (y_mass, y_J, y_mpc, y_att, F_hat, F_cons_P[:, :2], v, p)
    return (v_dot, omega_dot, dp_ref, dF_prop, dF_hat, zdot, dzdot), outputs


def full_rhs(cfg: AnalysisConfig, x, u):
    """State derivative with quaternion payload attitude (real arithmetic)."""
    p, v, q, omega, p_ref, F_prop, F_hat, z, zdot = unpack_state(cfg, x)
    der, _ = _core(cfg, quat_to_rotmat(q), p, v, omega, p_ref, F_prop, F_hat,
                   z, zdot, u)
    v_dot, omega_dot, dp_ref, dF_prop, dF_hat, dz, dzdot = der
    return pack_state(v, v_dot, quat_rate(q, omega), omega_dot, dp_ref,
                      dF_prop, dF_hat, dz, dzdot)


def chart_rhs_out(cfg: AnalysisConfig, xc, u, q_ref):
    """Dynamics and outputs in the 3-component attitude chart centered on
    q_ref: R = R(q_ref) expm(skew(theta)). Complex-step safe."""
    p, v, theta, omega, p_ref, F_prop, F_hat, z, zdot = unpack_state(
        cfg, xc, n_att=3)
    R = quat_to_rotmat(q_ref) @ rotvec_to_rotmat(theta)
    der, outputs = _core(cfg, R, p, v, omega, p_ref, F_prop, F_hat, z, zdot, u)
    v_dot, omega_dot, dp_ref, dF_prop, dF_hat, dz, dzdot = der
    dtheta = omega + 0.5 * cross3(theta, omega)
    return (pack_state(v, v_dot, dtheta, omega_dot, dp_ref, dF_prop, dF_hat,
                       dz, dzdot),
            np.concatenate([np.reshape(y, -1) for y in outputs]))


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


def preroll_transport(cfg: AnalysisConfig, T: float = TRANSPORT_PREROLL_T,
                      v_cmd=TRANSPORT_VELOCITY, dt: float = 0.005,
                      divergence_bound: float = 1e3) -> np.ndarray:
    """Integrate the nominal model from rest under the transport velocity
    command; returns the state after T seconds."""
    x = rest_state(cfg)
    u = zero_input(cfg)
    u[-3:] = v_cmd
    n = int(round(T / dt))
    qsl = slice(6, 10)

    def rhs(t, x_):
        return (full_rhs(cfg, x_, u),)

    for k in range(n):
        x, = rk4_step(rhs, k * dt, (x,), dt)
        x[qsl] = quat_normalize(x[qsl])
        if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > divergence_bound:
            raise UnstableOperatingPoint(
                "transport pre-roll diverged for this tuning")
    return x


def to_chart(cfg: AnalysisConfig, x):
    """Split a full state into (chart state with theta = 0, reference q)."""
    p, v, q, omega, p_ref, F_prop, F_hat, z, zdot = unpack_state(cfg, x)
    return pack_state(p, v, np.zeros(3), omega, p_ref, F_prop, F_hat, z,
                      zdot), q


def complex_step_jacobian(f, x, h: float = 1e-100):
    """Machine-precision Jacobian via the complex-step derivative."""
    x = np.asarray(x, dtype=float)
    n = x.size
    f0 = f(x)
    J = np.empty((np.size(f0), n))
    for k in range(n):
        xe = x.astype(complex)
        xe[k] += 1j * h
        J[:, k] = np.imag(f(xe)) / h
    return J


def linearize(cfg: AnalysisConfig, op: str = "rest", x_full=None,
              u0=None) -> LinearSystem:
    """Jacobian linearization of the nonlinear model at an operating point.

    op = "rest" uses the exact engaged-hover equilibrium; op = "transport"
    pre-rolls the nonlinear model for 5 s under the (0.5, 0.5, 0) velocity
    command. A custom (x_full, u0) overrides both.
    """
    if x_full is None:
        if op == "rest":
            x_full = rest_state(cfg)
            u0 = zero_input(cfg)
        elif op == "transport":
            x_full = preroll_transport(cfg)
            u0 = zero_input(cfg)
            u0[-3:] = TRANSPORT_VELOCITY
        else:
            raise ValueError(f"unknown operating point {op!r}")
    if u0 is None:
        u0 = zero_input(cfg)
    xc0, q_ref = to_chart(cfg, x_full)
    nx, nu = xc0.size, cfg.n_inputs

    def stacked(xu):
        dx, y = chart_rhs_out(cfg, xu[:nx], xu[nx:], q_ref)
        return np.concatenate([dx, y])

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


def deflate_marginal_modes(sys: LinearSystem, re_window: float = 5e-4,
                           freq_window: float = 0.1) -> LinearSystem:
    """Quotient out the structurally marginal modes of the interconnection.

    The laterally compliant formation admits equilibrium continua: the
    collective yaw about the anchored master, and for the degenerate
    two-agent beam the roll about its attachment axis. They produce exact
    zero eigenvalues that persist under every admissible block perturbation
    (the perturbed system keeps the same continuum), so no admissible Delta
    can push them across the axis and they do not belong in the margin
    question; a finite pre-roll additionally smears them within numerical
    noise of the axis. Everything inside the |Re| <= re_window,
    |Im| <= freq_window box is truncated via an ordered real Schur form;
    no legitimate plant dynamics oscillate that close to the axis below
    freq_window. The master reference integrator is identified by its
    eigenvector support and always kept.
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
        if abs(w[k].real) <= re_window and abs(w[k].imag) <= freq_window:
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


def margin_plant(sys: LinearSystem, growth_tol: float = 1e-6):
    """Deflate the structural modes and gate nominal stability.

    Returns (deflated system, stable flag): stable means every remaining
    eigenvalue either sits below growth_tol (strictly decaying, or trim
    residue at the analysis scale) or is an exact zero of the reference
    integrator.
    """
    d = deflate_marginal_modes(sys)
    ev = np.linalg.eigvals(d.A) if d.n_states else np.array([])
    ok = True
    for lam in ev:
        if lam.real <= growth_tol or abs(lam) <= 1e-9:
            continue
        ok = False
        break
    return d, ok
