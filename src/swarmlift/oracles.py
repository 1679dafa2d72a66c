"""Built-in independent oracles, run by ``swarmlift oracles``.

Each check recomputes a quantity through a route independent of the
implementation it validates: finite differences against analytic Jacobians,
brute-force sums against closed forms, the package's RK4 step against a
closed-form propagator, random admissible perturbations against margin
claims. The tests inject a sign error into a kernel to show that the
check of that kernel fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ekf as ekf_mod
from . import ukf as ukf_mod
from .admittance import AdmittanceParams, AdmittanceState, admittance_step, fsm_step
from .admittance import AdmittanceMode
from .analysis import (AnalysisConfig, chart_rhs_out, complex_step_jacobian,
                       rest_state, to_chart, zero_input)
from .attitude import (
    mrp_to_quat,
    quat_integrate,
    quat_multiply,
    quat_rate,
    quat_to_mrp,
    quat_to_rotmat,
    random_quat,
)
from .lti import LinearSystem
from .mav import (
    EZ,
    GRAVITY,
    MavParams,
    rk4_step,
    rotational_dynamics,
    translational_dynamics,
)
from .payload import PayloadParams, com_system


@dataclass
class OracleResult:
    name: str
    measured: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.measured < self.tolerance

    def line(self) -> str:
        flag = "pass" if self.passed else "FAIL"
        return f"[{flag}] {self.name}: {self.measured:.3e} < {self.tolerance:.1e}"


@dataclass
class OracleReport:
    results: list

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def summary(self) -> str:
        lines = [r.line() for r in self.results]
        verdict = "ALL PASS" if self.all_passed else "FAILURES PRESENT"
        return "\n".join(lines + [verdict])


def _fd_column_error(f, x, J, j):
    """Error of column j of the Jacobian J of f at x against a central
    difference of step 1e-6, relative to the difference (at least 1)."""
    eps = 1e-6
    dx = np.zeros(x.size)
    dx[j] = eps
    col = (f(x + dx) - f(x - dx)) / (2 * eps)
    return float(np.max(np.abs(J[:, j] - col))
                 / max(1.0, np.max(np.abs(col))))


def oracle_suite() -> OracleReport:
    rng = np.random.default_rng(1234)
    params = MavParams()
    results = []

    # free fall: zero thrust, zero drag, acceleration equals gravity exactly
    v = rng.normal(size=3)
    R = quat_to_rotmat(random_quat(rng))
    vdot = translational_dynamics(R, v, 0.0, np.zeros(3), np.zeros(3), params)
    results.append(OracleResult(
        "free-fall acceleration equals -g", float(np.max(np.abs(vdot - (-GRAVITY * EZ)))),
        1e-12))

    # gyroscopic term against a hand cross product
    J = params.J
    omega = rng.normal(size=3)
    impl = rotational_dynamics(omega, np.zeros(3), np.zeros(3), J)
    oracle = -np.cross(omega, J * omega) / J
    results.append(OracleResult(
        "gyroscopic torque sign", float(np.max(np.abs(impl - oracle))), 1e-12))

    # rotor drag opposes lateral body velocity
    n_rot = 400.0 * np.ones(6)
    vdot_d = translational_dynamics(np.eye(3), np.array([1.0, 0.0, 0.0]),
                                    params.m * GRAVITY,
                                    params.k_drag * float(np.sum(n_rot**2))
                                    * np.array([1.0, 1.0, 0.0]),
                                    np.zeros(3), params)
    results.append(OracleResult(
        "rotor drag opposes velocity", float(max(vdot_d[0] + 1e-15, 0.0)),
        1e-12))

    # quaternion round trips and integration against the ODE oracle
    worst = 0.0
    for _ in range(300):
        q = random_quat(rng, max_angle=np.pi - 1e-3)
        worst = max(worst, float(np.max(np.abs(mrp_to_quat(quat_to_mrp(q)) - q))))
    results.append(OracleResult("quat<->MRP round trip", worst, 1e-12))

    worst = 0.0
    for _ in range(20):
        q = random_quat(rng)
        om = rng.normal(scale=0.5, size=3)
        q1 = quat_integrate(q, om, 0.05)
        qq, h = q, 0.05 / 200
        for k in range(200):
            qq = rk4_step(lambda t, x: quat_rate(x, om), k * h, qq, h)
        qq /= np.linalg.norm(qq)
        worst = max(worst, float(np.max(np.abs(q1 - qq))))
    results.append(OracleResult("quat integration vs ODE", worst, 1e-8))

    worst = 0.0
    for _ in range(50):
        a, b = random_quat(rng), random_quat(rng)
        worst = max(worst, float(np.max(np.abs(
            quat_to_rotmat(quat_multiply(a, b))
            - quat_to_rotmat(a) @ quat_to_rotmat(b)))))
    results.append(OracleResult("Hamilton composition", worst, 1e-9))

    # EKF process Jacobian against central finite differences
    worst = 0.0
    for _ in range(100):
        x = rng.normal(size=ekf_mod.NX) * np.repeat(
            [2.0, 1.0, 0.2, 0.5, 2.0, 0.1], 3)
        u = (rng.normal(scale=0.1), rng.normal(scale=0.1), 0.0,
             params.m * GRAVITY + rng.normal(scale=3.0))
        A = ekf_mod.process_jacobian(x, u, params)
        for j in range(ekf_mod.NX):
            worst = max(worst, _fd_column_error(
                lambda z: ekf_mod.process_rhs(z, u, params), x, A, j))
    results.append(OracleResult("EKF Jacobian vs finite differences", worst,
                                1e-4))

    # linearization against central finite differences at random states
    cfg = AnalysisConfig(n_agents=2)
    x0 = rest_state(cfg)
    u0 = zero_input(cfg)
    xc0, q_ref = to_chart(cfg, x0)
    worst = 0.0
    for _ in range(20):
        xc = xc0 + rng.normal(scale=0.02, size=xc0.size)
        u = u0 + rng.normal(scale=0.02, size=u0.size)
        J_cs = complex_step_jacobian(
            lambda z: chart_rhs_out(cfg, z, np.tile(u.astype(z.dtype),
                                                    (len(z), 1)), q_ref)[0],
            xc)
        for j in rng.choice(xc.size, size=6, replace=False):
            worst = max(worst, _fd_column_error(
                lambda z: chart_rhs_out(cfg, z, u, q_ref)[0], xc, J_cs, j))
    results.append(OracleResult(
        "coupled-model linearization vs finite differences", worst, 1e-4))

    # unscented transform affine exactness
    A_m = rng.normal(size=(ukf_mod.NXI, ukf_mod.NXI))
    P = A_m @ A_m.T + 0.5 * np.eye(ukf_mod.NXI)
    xi = rng.normal(size=ukf_mod.NXI)
    M = rng.normal(size=(7, ukf_mod.NXI))
    b = rng.normal(size=7)
    pts = ukf_mod.sigma_points(xi, P)
    w = ukf_mod.WEIGHTS
    ypts = pts @ M.T + b[None, :]
    ymean = w @ ypts
    dev = ypts - ymean[None, :]
    ycov = dev.T @ (w[:, None] * dev)
    err = max(float(np.max(np.abs(ymean - (M @ xi + b)))),
              float(np.max(np.abs(ycov - M @ P @ M.T))))
    results.append(OracleResult("unscented transform affine exactness", err,
                                1e-9))

    # composite inertia about the system CoM against a brute-force sum over
    # the point masses (agents and the payload CoG at the origin)
    att = np.array([[0.7, 0.1, 0.0], [-0.3, 0.5, 0.1], [-0.4, -0.6, -0.1]])
    pay = PayloadParams(m_p=2.0, J_p=[0.2, 0.25, 0.4], attachments=att)
    masses = np.array([3.5, 3.3, 3.7])
    cs = com_system(pay, masses)
    points = np.vstack([att, np.zeros(3)])
    point_m = np.append(masses, 2.0)
    com = sum(m * r for m, r in zip(point_m, points)) / point_m.sum()
    brute = np.diag([0.2, 0.25, 0.4]).astype(float)
    for m_i, r in zip(point_m, points - com):
        for a in range(3):
            for b in range(3):
                brute[a, b] += m_i * ((a == b) * (r @ r) - r[a] * r[b])
    results.append(OracleResult(
        "point-mass inertia brute force",
        float(np.max(np.abs(cs.J_sys - brute))), 1e-12))

    # admittance exact discretization against the analytic terminal velocity
    p_adm = AdmittanceParams(M=np.array([8.0, 8.0, 8.0]),
                             C=np.array([6.0, 6.0, 6.0]),
                             K=np.array([0.0, 0.0, 0.0]))
    stt = AdmittanceState(params=p_adm)
    stt = fsm_step(stt, np.zeros(3), 0.01, command="engage",
                   current_pose=np.zeros(3))
    stt.axis_generating[:] = True
    stt.mode = AdmittanceMode.GENERATING
    ncyc = 500
    for _ in range(ncyc):
        stt = admittance_step(stt, [6.0, 0, 0], 0.01)
    v_expect = 1.0 * (1 - np.exp(-6.0 / 8.0 * ncyc * 0.01))
    results.append(OracleResult(
        "admittance ZOH vs analytic response",
        float(abs(stt.dLambda_r[0] - v_expect)), 1e-9))

    return OracleReport(results=results)


def series_realization(N) -> LinearSystem:
    """A state-space realization of the weighted plant N = diag(W_r) P
    (:class:`lti.WeightedPlant`): each weighted row's SISO weight in series
    after the plant's row, its states after the plant's, in row order. A
    check of N's frequency response in its own arithmetic, and the states
    that random_delta_hurwitz_check closes Delta around."""
    P, weights = N.plant, N.weights
    n = P.n_states
    m = sum(w.n_states for w in weights if w is not None)
    A = np.pad(P.A, (0, m))
    B = np.pad(P.B, ((0, m), (0, 0)))
    C = np.pad(P.C, ((0, 0), (0, m)))
    D = P.D.copy()
    off = n
    for r, w in enumerate(weights):
        if w is None:
            continue
        ws = slice(off, off + w.n_states)
        off = ws.stop
        A[ws, ws] = w.A
        A[ws, :n] = w.B @ P.C[r:r + 1]
        B[ws] = w.B @ P.D[r:r + 1]
        C[r, :n] *= w.D[0, 0]
        C[r, ws] = w.C[0]
        D[r] *= w.D[0, 0]
    return LinearSystem(A, B, C, D, inputs=P.inputs, outputs=P.outputs)


def random_delta_hurwitz_check(n_agents: int, M: float, C: float,
                               n_samples: int, freqs):
    """Monte-Carlo necessary condition: at a tuning point with rs > 1, every
    sampled admissible perturbation (mass pinned at both interval endpoints
    included) leaves the closed loop without growing modes.

    Returns (rs_margin, worst real part over sampled perturbed loops).
    Perturbations close the Delta channels of the series realization of
    the deflated rest interconnection, built without the performance
    weight, whose pole no Delta moves; growth is measured on the perturbed
    state matrix, complex as Delta is.
    """
    from .analysis import build_closed_loop, margin_plant
    from .mu import assemble_n_delta, default_blocks, margin_point
    from .mu import sample_admissible_perturbation

    res = margin_point(n_agents, M, C, freqs=freqs)
    cfg = AnalysisConfig(n_agents=n_agents, tuning_M=M, tuning_C=C)
    plant, ok = margin_plant(build_closed_loop(cfg))
    N, structure = assemble_n_delta(plant, default_blocks(n_agents))
    N_sys = series_realization(N)
    rng = np.random.default_rng(0)
    worst = -np.inf
    for k in range(n_samples):
        D = sample_admissible_perturbation(rng, structure, mass_endpoint={
            0: 1.0, 1: -1.0}.get(k))
        ev = np.linalg.eigvals(_close_delta(N_sys, D))
        ev = ev[np.abs(ev) > 1e-9]  # structural zeros persist by symmetry
        if ev.size:
            worst = max(worst, float(ev.real.max()))
    return res.rs_margin, worst


def _close_delta(N_sys: LinearSystem, Delta):
    """State matrix of N_sys with u = Delta y closed around its leading
    channels: the complex LFT A + B_u Delta (I - D_yu Delta)^-1 C_y."""
    n_u, n_y = Delta.shape
    B, C, D = N_sys.B[:, :n_u], N_sys.C[:n_y], N_sys.D[:n_y, :n_u]
    return N_sys.A + B @ Delta @ np.linalg.solve(np.eye(n_y) - D @ Delta, C)
