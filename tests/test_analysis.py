import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from swarmlift import analysis
from swarmlift.analysis import (
    MASS_UNCERTAINTY,
    PREROLL_STEP_RHO,
    TRANSPORT_PREROLL_T,
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
from swarmlift.mu import (TuningGrid, default_frequency_grid, margin_point,
                          margins)


def cfg2(M=8.0, C=6.0):
    return AnalysisConfig(n_agents=2, tuning_M=M, tuning_C=C)


# a bool, a fraction, a float or a string count, and a team without a slave
@pytest.mark.parametrize("n_agents", [2.0, 2.5, np.float64(3.0), "3", True,
                                      False, 1, np.int64(1)],
                         ids=["2.0", "2.5", "float64-3", "str-3", "True",
                              "False", "1", "int64-1"])
def test_analysis_config_refuses_a_count_that_is_no_team(n_agents):
    with pytest.raises(ValueError, match="n_agents must be an integer of "
                                         "at least 2"):
        AnalysisConfig(n_agents=n_agents)


def test_margin_point_refuses_a_fractional_count():
    with pytest.raises(ValueError, match="n_agents"):
        margin_point(2.5, 8.0, 6.0)


# a bad argument is refused at a degenerate tuning too, which returns the
# zero margin before any plant is built
@pytest.mark.parametrize("call, match", [
    (lambda: margin_point(2.5, 0.0, 10.0), "n_agents must be an integer"),
    (lambda: margin_point("3", 8.0, -1.0), "n_agents must be an integer"),
    (lambda: margins(TuningGrid([0.0], [0.0, 10.0]), 2.5),
     "n_agents must be an integer"),
    (lambda: margin_point(3, True, 6.0), "M must be a finite number"),
    (lambda: margin_point(3, 8.0, False), "C must be a finite number"),
    (lambda: margin_point(3, "8", 6.0), "M must be a finite number"),
    (lambda: margin_point(3, np.nan, -1.0), "M must be a finite number"),
], ids=["fraction", "str", "margins", "bool-M", "bool-C", "str-M",
        "nan-M"])
def test_margin_point_checks_its_arguments_before_a_zero_margin(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_rest_state_is_equilibrium():
    cfg = cfg2()
    x = rest_state(cfg)
    dx = full_rhs(cfg, x, np.zeros(3))
    assert np.max(np.abs(dx)) < 1e-12


def test_rest_state_is_equilibrium_5_agents():
    cfg = AnalysisConfig(n_agents=5)
    dx = full_rhs(cfg, rest_state(cfg), np.zeros(3))
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
    close(sys.subsystem(in_names=["u_mass"]).B[V], -cfg.w_mass * np.eye(3))
    close(sys.subsystem(in_names=["u_inertia"]).B[OM], -cfg.G_inertia)


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


def _count_full_rhs(monkeypatch):
    calls = []
    real = analysis.full_rhs

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(analysis, "full_rhs", counting)
    return calls


def test_preroll_calls_full_rhs_through_the_module_global(monkeypatch):
    # a wrapper on analysis.full_rhs sees every right-hand side of the
    # pre-roll: 5 s of RK4 in n steps, h rho <= PREROLL_STEP_RHO for the
    # rest plant's spectral radius rho, four stages a step
    calls = _count_full_rhs(monkeypatch)
    cfg = AnalysisConfig(n_agents=3, tuning_M=4.0, tuning_C=12.0)
    x = preroll_transport(cfg)
    rho = np.max(np.abs(np.linalg.eigvals(build_closed_loop(cfg).A)))
    n = int(np.ceil(TRANSPORT_PREROLL_T * rho / PREROLL_STEP_RHO))
    assert len(calls) == 4 * n == 924
    monkeypatch.undo()
    assert x.tobytes() == preroll_transport(cfg).tobytes()


def test_preroll_evaluates_no_delta_channel(monkeypatch):
    # given the rest plant, as margin_point passes it, the pre-roll
    # integrates the nominal model alone: no input vector is split into
    # its Delta channels, and no plant is linearized again
    cfg = AnalysisConfig(n_agents=3, tuning_M=4.0, tuning_C=12.0)
    rest = build_closed_loop(cfg)
    ref = preroll_transport(cfg)

    def refused(*args):
        raise AssertionError("the pre-roll split a Delta input")

    monkeypatch.setattr(analysis, "split_inputs", refused)
    assert preroll_transport(cfg, rest).tobytes() == ref.tobytes()
    with pytest.raises(AssertionError, match="split a Delta input"):
        preroll_transport(cfg)


@pytest.mark.parametrize("n_agents,M,C", [(2, 8.0, 6.0), (3, 4.0, 12.0),
                                          (5, 8.0, 6.0)])
def test_preroll_agrees_with_twice_the_steps(monkeypatch, n_agents, M, C):
    # the step rule leaves the pre-roll accurate far below what the margins
    # resolve; a model change that makes it stiffer or rougher fails here
    cfg = AnalysisConfig(n_agents=n_agents, tuning_M=M, tuning_C=C)
    x = preroll_transport(cfg)
    monkeypatch.setattr(analysis, "PREROLL_STEP_RHO",
                        analysis.PREROLL_STEP_RHO / 2)
    ref = preroll_transport(cfg)
    assert np.max(np.abs(x - ref)) <= 1e-8 * np.max(np.abs(ref))


def test_stiff_tuning_preroll_stays_stable():
    # rho = 600 1/s: a fixed 5-ms step (h rho = 3) lies past RK4's
    # real-axis stability limit of 2.785, and the pre-roll blew up
    cfg = cfg2(0.05, 30.0)
    assert margin_plant(build_closed_loop(cfg))[1]
    r = margin_point(2, 0.05, 30.0, freqs=default_frequency_grid(40))
    assert r.nominal_stable and r.rs_margin > 0.0 and r.rp_margin > 0.0


def test_preroll_past_the_step_cap_is_refused_unintegrated(monkeypatch):
    # rho = 3e5 1/s would need 6e6 steps; the rest plant itself is stable
    cfg = cfg2(1e-4, 30.0)
    assert margin_plant(build_closed_loop(cfg))[1]
    calls = _count_full_rhs(monkeypatch)
    with pytest.raises(UnstableOperatingPoint,
                       match=r"needs \d{7} RK4 steps at spectral radius 3e"):
        preroll_transport(cfg)
    assert calls == []
    r = margin_point(2, 1e-4, 30.0, freqs=default_frequency_grid(40))
    assert calls == []
    assert (r.rs_margin, r.rp_margin, r.nominal_stable) == (0.0, 0.0, False)


def test_transport_linearization_differs_from_rest():
    cfg = cfg2()
    at_rest = linearize(cfg, "rest")
    at_transport = linearize(cfg, "transport")
    assert at_rest.A.shape == at_transport.A.shape
    assert np.abs(at_rest.A - at_transport.A).max() > 1e-6


def test_unstable_tuning_preroll_flagged(monkeypatch):
    # near-zero damping and tiny virtual mass destabilize the loop; thrust
    # saturation caps the blowup at a large limit cycle, so the operating
    # envelope bound flags it
    cfg = AnalysisConfig(n_agents=2, tuning_M=0.05, tuning_C=0.01)
    sys = build_closed_loop(cfg)
    assert not margin_plant(sys)[1]
    monkeypatch.setattr(analysis, "PREROLL_DIVERGENCE_BOUND", 5.0)
    with pytest.raises(UnstableOperatingPoint):
        preroll_transport(cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_preroll_flags_a_non_finite_state(monkeypatch, bad):
    # the one max |x| test catches NaN and infinity too
    def blown(cfg, x, u):
        dx = np.zeros_like(x)
        dx[0] = bad
        return dx

    monkeypatch.setattr(analysis, "full_rhs", blown)
    with pytest.raises(UnstableOperatingPoint):
        preroll_transport(cfg2())


def test_mass_channel_lft_first_order():
    # closing the mass channel with a small real perturbation reproduces the
    # plant rebuilt with the perturbed system mass, to first order
    cfg = cfg2()
    nom = linearize(cfg, "rest")
    x0 = rest_state(cfg)

    def rebuilt(delta):
        cfg_p = cfg2()
        m_new = cfg.com.m_sys + delta * MASS_UNCERTAINTY * cfg.payload.m_p
        # the frozen config's composite body, with only the mass perturbed
        object.__setattr__(cfg_p, "com",
                           dataclasses.replace(cfg_p.com, m_sys=m_new))
        return linearize(cfg_p, op="custom", x_full=x0,
                         u0=zero_input(cfg_p))

    def lft_closed(delta):
        # u_mass = delta y_mass
        m = nom.subsystem(out_names=["y_mass"], in_names=["u_mass"])
        K = delta * np.linalg.inv(np.eye(3) - delta * m.D)
        return m.A + m.B @ K @ m.C

    for delta in (0.05, -0.05):
        A_lft = lft_closed(delta)
        A_reb = rebuilt(delta).A
        err = np.abs(A_lft - A_reb).max()
        assert err < 20.0 * delta**2  # first-order agreement
