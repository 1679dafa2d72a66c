import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from swarmlift import analysis
from swarmlift.analysis import (
    MASS_UNCERTAINTY,
    AnalysisConfig,
    build_closed_loop,
    chart_rhs_out,
    full_rhs,
    linearize,
    margin_plant,
    preroll_transport,
    rest_state,
    to_chart,
    zero_input,
)
from swarmlift.attitude import skew
from swarmlift.errors import UnstableOperatingPoint


def cfg2(M=8.0, C=6.0):
    return AnalysisConfig(n_agents=2, tuning_M=M, tuning_C=C)


def test_rest_state_is_equilibrium():
    cfg = cfg2()
    x = rest_state(cfg)
    dx = full_rhs(cfg, x, zero_input(cfg))
    assert np.max(np.abs(dx)) < 1e-12


def test_rest_state_is_equilibrium_5_agents():
    cfg = AnalysisConfig(n_agents=5)
    dx = full_rhs(cfg, rest_state(cfg), zero_input(cfg))
    assert np.max(np.abs(dx)) < 1e-12


def test_rest_jacobian_closed_form_entries():
    # entries of the rest plant whose closed form reads off the model
    cfg = AnalysisConfig(n_agents=3, tuning_M=4.0, tuning_C=12.0)
    sys = build_closed_loop(cfg)
    A, B = sys.A, sys.B
    N, mav, adm = cfg.n_agents, cfg.mav, cfg.adm
    V, TH, OM = slice(3, 6), slice(6, 9), slice(9, 12)

    def close(X, oracle):
        assert_allclose(X, oracle, rtol=1e-12, atol=1e-12)

    for i in range(N):  # thrust lags
        f = 15 + 3 * i
        close(A[f:f + 3, f:f + 3], -np.diag(1.0 / mav.tau_thrust))
    for j in range(cfg.n_slaves):  # estimator lag, then admittance
        e = 15 + 3 * N + 9 * j
        z, zd = e + 3, e + 6
        close(A[e:e + 3, e:e + 3], -np.eye(3) / mav.tau_est)
        close(A[zd:zd + 3, z:z + 3], -np.diag(adm.K / adm.M))
        close(A[zd:zd + 3, zd:zd + 3], -np.diag(adm.C / adm.M))
        close(A[zd:zd + 3, e:e + 3], np.diag(1.0 / adm.M))
    # tilting the structure tilts the total trim thrust with it
    close(A[V, TH], -skew(cfg.F_trim.sum(axis=0)) / cfg.com.m_sys)
    close(B[V, sys.input_slice("u_mass")], -cfg.w_mass * np.eye(3))
    close(B[OM, sys.input_slice("u_inertia")], -cfg.G_inertia)


def test_stable_tuning_is_hurwitz():
    # after quotienting the structural symmetry modes, every eigenvalue of
    # the stable tuning decays strictly (reference integrator aside)
    from swarmlift.analysis import margin_plant

    for n in (2, 3):
        sys = build_closed_loop(AnalysisConfig(n_agents=n))
        d, ok = margin_plant(sys)
        assert ok
        ev = np.linalg.eigvals(d.A)
        ev = ev[np.abs(ev) > 1e-9]
        assert ev.real.max() < 0


def test_dc_gain_velocity_reference_to_payload_velocity():
    # along the master-centroid axis the formation translates one-to-one;
    # perpendicular commands pivot the laterally compliant formation about
    # the slaves instead, which halves the payload-velocity gain
    for n in (2, 3):
        cfg = AnalysisConfig(n_agents=n)
        sys = build_closed_loop(cfg)
        sub = sys.subsystem(out_names=["v_WP"], in_names=["w"])
        G = sub.freq_response([1e-7])[0]
        assert_allclose(abs(G[0, 0]), 1.0, atol=1e-4)
        assert_allclose(abs(G[1, 1]), 0.5, atol=1e-4)
        assert abs(G[0, 1]) < 1e-6 and abs(G[1, 0]) < 1e-6


def test_dc_master_lateral_force_balances_slave_dampers():
    # at constant velocity along the symmetric axis each slave is dragged
    # with force C*v, so the master carries (N-1) C v of lateral thrust
    for n, C in ((2, 6.0), (3, 10.0)):
        cfg = AnalysisConfig(n_agents=n, tuning_M=8.0, tuning_C=C)
        sys = build_closed_loop(cfg)
        sub = sys.subsystem(out_names=["z_lat_0"], in_names=["w"])
        G0 = sub.freq_response([1e-7])[0]
        assert_allclose(abs(G0[0, 0]), (n - 1) * C, rtol=1e-4)


def test_rigid_slaves_make_master_force_stiff():
    soft = build_closed_loop(cfg2(8.0, 6.0))
    hard = build_closed_loop(cfg2(8.0, 1e6))
    w = [1e-3]
    g_soft = np.abs(soft.subsystem(["z_lat_0"], ["w"]).freq_response(w))[0, 0, 0]
    g_hard = np.abs(hard.subsystem(["z_lat_0"], ["w"]).freq_response(w))[0, 0, 0]
    assert g_hard > 100 * g_soft


def test_transport_preroll_trim_tilt():
    cfg = cfg2()
    x = preroll_transport(cfg)
    xc, q_ref = to_chart(cfg, x)
    _, y = chart_rhs_out(cfg, xc, np.concatenate(
        [np.zeros(cfg.n_inputs - 3), [0.5, 0.5, 0.0]]), q_ref)
    # every agent carries nonzero lateral thrust (nonzero trim tilt)
    for i in range(cfg.n_agents):
        sys_out = dict(zip([n for n, _ in cfg.output_channels()],
                           np.split(y, np.cumsum([s for _, s in cfg.output_channels()])[:-1])))
        lat = sys_out[f"z_lat_{i}"]
        assert np.linalg.norm(lat) > 0.5


def test_preroll_calls_full_rhs_through_the_module_global(monkeypatch):
    # a wrapper on analysis.full_rhs sees every right-hand side of the
    # pre-roll: 5 s of RK4 at 5 ms, four stages a step
    calls = []
    real = analysis.full_rhs

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(analysis, "full_rhs", counting)
    cfg = AnalysisConfig(n_agents=3, tuning_M=4.0, tuning_C=12.0)
    x = preroll_transport(cfg)
    assert len(calls) == 4000
    monkeypatch.undo()
    assert x.tobytes() == preroll_transport(cfg).tobytes()


def test_transport_linearization_differs_from_rest():
    cfg = cfg2()
    at_rest = linearize(cfg, "rest")
    at_transport = linearize(cfg, "transport")
    assert at_rest.A.shape == at_transport.A.shape
    assert np.abs(at_rest.A - at_transport.A).max() > 1e-6


def test_unstable_tuning_preroll_flagged():
    # near-zero damping and tiny virtual mass destabilize the loop; thrust
    # saturation caps the blowup at a large limit cycle, so the operating
    # envelope bound flags it
    cfg = AnalysisConfig(n_agents=2, tuning_M=0.05, tuning_C=0.01)
    sys = build_closed_loop(cfg)
    assert not margin_plant(sys)[1]
    with pytest.raises(UnstableOperatingPoint):
        preroll_transport(cfg, divergence_bound=5.0)


def test_mass_channel_lft_first_order():
    # closing the mass channel with a small real perturbation reproduces the
    # plant rebuilt with the perturbed system mass, to first order
    cfg = cfg2()
    nom = linearize(cfg, "rest")
    x0 = rest_state(cfg)

    def rebuilt(delta):
        cfg_p = cfg2()
        m_new = cfg.com.m_sys + delta * MASS_UNCERTAINTY * cfg.payload.m_p
        cfg_p.com = dataclasses.replace(cfg_p.com, m_sys=m_new)
        return linearize(cfg_p, op="custom", x_full=x0,
                         u0=zero_input(cfg_p))

    def lft_closed(delta):
        isl = nom.input_slice("u_mass")
        osl = nom.output_slice("y_mass")
        F = np.zeros((nom.n_inputs, nom.n_outputs))
        F[isl, osl] = delta * np.eye(3)
        G = np.linalg.inv(np.eye(nom.n_outputs) - nom.D @ F)
        return nom.A + nom.B @ F @ G @ nom.C

    for delta in (0.05, -0.05):
        A_lft = lft_closed(delta)
        A_reb = rebuilt(delta).A
        err = np.abs(A_lft - A_reb).max()
        assert err < 20.0 * delta**2  # first-order agreement
