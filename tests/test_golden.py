"""Golden digests of the integrator users besides run_scenario, and of
the margin pipeline.

The transport pre-roll, the single-agent closed loop and the thrust
identification experiment on each axis all step their dynamics with RK4.
The rest and
transport linearizations, the weighted N-Delta response, the
balanced and polished SSV bounds and the margins of two tuning points are
pinned as
well. These digests pin their outputs bit for
bit, so a refactor of the integrator, the physics kernels or the SSV bound
cannot change a number unnoticed.
"""

import hashlib

import numpy as np
import pytest

from swarmlift import identify
from swarmlift.analysis import (AnalysisConfig, build_closed_loop, linearize,
                               margin_plant, preroll_transport)
from swarmlift.identify import identify_thrust_response, run_force_step
from swarmlift.mav import MavParams
from swarmlift.mu import (assemble_n_delta, default_blocks,
                          default_frequency_grid, margin_point,
                          ssv_upper_bound)
from swarmlift.uncertainty import UncertaintyBlock, performance_weight


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


PREROLL_DIGESTS = {
    (2, 8.0, 6.0):
        "b7e8aa4c98a37061e8be15a907bb546f7a843c0854f19b4b34b39d0ccb73fb44",
    (3, 4.0, 12.0):
        "f2d1f4f818aafb1c660888f0b46700808a05351f07c40f8c83dac653599de34a",
}


@pytest.mark.parametrize("n_agents,M,C", sorted(PREROLL_DIGESTS))
def test_preroll_transport_digest(n_agents, M, C):
    cfg = AnalysisConfig(n_agents=n_agents, tuning_M=M, tuning_C=C)
    x = preroll_transport(cfg)
    assert _digest(x) == PREROLL_DIGESTS[(n_agents, M, C)]


# the force step lands between two RK4 steps' stage times, so the stage
# clock of the integrator is pinned too
FORCE_STEP_DIGESTS = {
    None: "bc5276357b76cefa67e3e7e81bc82d68e62f53c2b78e14f6dbcb03d8088beab0",
    "ekf": "0f643af99193eee476814355ce3035c30d6582770b05e6eebe2e8ae77dbff9f6",
    "ukf": "214117e08d41010ce66ee30dbefc4eddbf8f93eab84a06a26717a21971551559",
}


@pytest.mark.parametrize("estimator", [None, "ekf", "ukf"])
def test_force_step_trace_digest(estimator):
    tr = run_force_step(MavParams(), estimator, magnitude=1.5,
                        t_step=0.3005, duration=0.8)
    digest = _digest(tr.t, tr.p, tr.v, tr.eta, tr.F_prop_w, tr.F_hat)
    assert digest == FORCE_STEP_DIGESTS[estimator]


THRUST_RESPONSE_DIGEST = \
    "db8938da6cc2dda4024b89b330739686b387e74d3ba75432f72a702763e1aa71"


@pytest.fixture
def short_multisine(monkeypatch):
    # three harmonics of a 1-s period after 0.5 s of settling
    monkeypatch.setattr(identify, "DEFAULT_HARMONICS", (1, 2, 5))
    monkeypatch.setattr(identify, "BASE_PERIOD", 1.0)
    monkeypatch.setattr(identify, "THRUST_SETTLE", 0.5)


def test_thrust_response_digest(short_multisine):
    fr = identify_thrust_response(MavParams(), axis=0)
    assert _digest(fr.freqs, fr.H) == THRUST_RESPONSE_DIGEST


# the other lateral axis, and the vertical one around the hover thrust
THRUST_RESPONSE_AXIS_DIGESTS = {
    1: "2d487eedbbf3696471118ae114e4fe017e454a4c78ad3f2e62f8c2b20a54562d",
    2: "bfdb75f40fe924aa35157b875212bb6ad1252c99ca1c66c746447a21e1bac59b",
}


@pytest.mark.parametrize("axis", sorted(THRUST_RESPONSE_AXIS_DIGESTS))
def test_thrust_response_digest_on_axes_1_and_2(short_multisine, axis):
    fr = identify_thrust_response(MavParams(), axis=axis)
    assert _digest(fr.freqs, fr.H) == THRUST_RESPONSE_AXIS_DIGESTS[axis]


# the complex-step Jacobian of chart_rhs_out at the pre-rolled state
LINEARIZE_DIGESTS = {
    (2, 8.0, 6.0):
        "5fab281018f6542de5d4730e63c4d3fd9d07ee32fc613f7894aa36795807e94c",
    (3, 4.0, 12.0):
        "540568e8d2235b2a5c2b44a6bbeb1e7a538966fab6f1828e8c6db7b75fb4106a",
}


@pytest.mark.parametrize("n_agents,M,C", sorted(LINEARIZE_DIGESTS))
def test_transport_linearization_digest(n_agents, M, C):
    sys = linearize(AnalysisConfig(n_agents=n_agents, tuning_M=M,
                                   tuning_C=C), "transport")
    assert _digest(sys.A, sys.B, sys.C, sys.D) \
        == LINEARIZE_DIGESTS[(n_agents, M, C)]


# the complex-step Jacobian of chart_rhs_out at the rest equilibrium, which
# is what build_closed_loop returns
REST_DIGESTS = {
    (2, 8.0, 6.0):
        "3790cdb8a4943ab00626c73e1327469b2de6b8cede0c1eec74cf5f467037cfce",
    (3, 4.0, 12.0):
        "ccafa443bea27d82d81dbc3b0e1b136cab35269a8958d17f25e9c8919b9d35a8",
}


@pytest.mark.parametrize("n_agents,M,C", sorted(REST_DIGESTS))
def test_rest_linearization_digest(n_agents, M, C):
    sys = build_closed_loop(AnalysisConfig(n_agents=n_agents, tuning_M=M,
                                           tuning_C=C))
    assert _digest(sys.A, sys.B, sys.C, sys.D) \
        == REST_DIGESTS[(n_agents, M, C)]


# N(jw) of the default blocks and performance weight on a fixed 40-point
# grid, on the deflated rest and transport plants that margin_point closes
# through Delta
N_DELTA_DIGESTS = {
    (2, 8.0, 6.0, "rest"):
        "18addef5d17921fc791256d47160b0d63c825f4c37037654f2abbbc050d0859d",
    (3, 4.0, 12.0, "transport"):
        "6e7682854b9039a3c96690c7eaad0bafcac90e5706f2416eca5001472e180b33",
}


@pytest.mark.parametrize("n_agents,M,C,point", sorted(N_DELTA_DIGESTS))
def test_n_delta_digest(n_agents, M, C, point):
    cfg = AnalysisConfig(n_agents=n_agents, tuning_M=M, tuning_C=C)
    sys = build_closed_loop(cfg) if point == "rest" else linearize(cfg, point)
    plant, ok = margin_plant(sys)
    assert ok
    N, _ = assemble_n_delta(plant, default_blocks(n_agents),
                            performance_weight())
    assert _digest(N.freq_response(default_frequency_grid(40))) \
        == N_DELTA_DIGESTS[(n_agents, M, C, point)]


# (rs, rp, peak_freq_rs, peak_freq_rp), compared with ==
MARGINS = {
    (3, 4.0, 12.0, 80): (1.029187186829336, 0.2523270309335942,
                         3.501900461431713, 3.501900461431713),
    (2, 8.0, 6.0, 60): (1.5224835745791974, 0.31928612916117266,
                        3.6251170499885315, 2.982471286216888),
}

# MARGINS as the BFGS polish gave them. It stopped at its 200-step cap on
# the repeated top singular value of the (3, 4, 12, 80) transport peak,
# 1.7e-7 above the certified descent, and at its gradient tolerance at the
# (2, 8, 6, 60) peak, 1.6e-11 above; rp at (3, 4, 12, 80) sat 2.6e-13 above
MARGINS_OF_THE_BFGS_POLISH = {
    (3, 4.0, 12.0, 80): (1.029187015015137, 0.25232703093352915,
                         3.501900461431713, 3.501900461431713),
    (2, 8.0, 6.0, 60): (1.522483574554708, 0.31928612916117266,
                        3.6251170499885315, 2.982471286216888),
}

# MARGINS_OF_THE_BFGS_POLISH as the pre-roll at a fixed 5-ms step gave
# them; the step set by the rest plant's stiffness moves the transport
# operating point within the pre-roll's truncation error, and rs at
# (3, 4, 12, 80) by where the BFGS polish stopped
MARGINS_OF_THE_5_MS_PREROLL = {
    (3, 4.0, 12.0, 80): (1.0291870974387152, 0.2523270309287751,
                         3.501900461431713, 3.501900461431713),
    (2, 8.0, 6.0, 60): (1.5224835795413485, 0.3192861291313446,
                        3.6251170499885315, 2.982471286216888),
}

# MARGINS_OF_THE_BFGS_POLISH as the weights' states in series with the
# plant gave them; N(jw) as diag(W(jw)) P(jw) moves them by rounding, and
# rs at (3, 4, 12, 80) by where the BFGS polish stopped
MARGINS_OF_THE_SERIES_N = {
    (3, 4.0, 12.0, 80): (1.0291870745808271, 0.2523270309287733,
                         3.501900461431713, 3.501900461431713),
    (2, 8.0, 6.0, 60): (1.5224835795413467, 0.31928612913134197,
                        3.6251170499885315, 2.982471286216888),
}


@pytest.mark.parametrize("n_agents,M,C,n_freqs", sorted(MARGINS))
def test_margin_point_fields(n_agents, M, C, n_freqs):
    r = margin_point(n_agents, M, C, freqs=default_frequency_grid(n_freqs))
    assert (r.rs_margin, r.rp_margin, r.peak_freq_rs, r.peak_freq_rp) \
        == MARGINS[(n_agents, M, C, n_freqs)]


def test_margin_point_takes_a_numpy_integer_count():
    r = margin_point(np.int64(2), 8.0, 6.0, freqs=default_frequency_grid(60))
    assert (r.rs_margin, r.rp_margin, r.peak_freq_rs, r.peak_freq_rp) \
        == MARGINS[(2, 8.0, 6.0, 60)]


def test_margins_moved_from_the_bfgs_polish_by_tightening_only():
    # every bound is a sigma_max at some scaling and the descent ends at
    # the optimal one, so a margin can only grow, up to rounding
    assert MARGINS.keys() == MARGINS_OF_THE_BFGS_POLISH.keys()
    for key, new in MARGINS.items():
        old = MARGINS_OF_THE_BFGS_POLISH[key]
        assert new[2:] == old[2:], key  # the peak frequencies
        assert all(n >= o * (1.0 - 1e-12) for n, o in zip(new[:2], old[:2]))


def test_margins_moved_from_the_series_n_by_rounding_only():
    assert MARGINS_OF_THE_BFGS_POLISH.keys() == MARGINS_OF_THE_SERIES_N.keys()
    for key, new in MARGINS_OF_THE_BFGS_POLISH.items():
        old = MARGINS_OF_THE_SERIES_N[key]
        assert new[2:] == old[2:], key  # the peak frequencies
        assert np.allclose(new[:2], old[:2], rtol=1e-7, atol=0.0), key


def test_margins_moved_from_the_5_ms_preroll_by_truncation_only():
    assert (MARGINS_OF_THE_BFGS_POLISH.keys()
            == MARGINS_OF_THE_5_MS_PREROLL.keys())
    for key, new in MARGINS_OF_THE_BFGS_POLISH.items():
        old = MARGINS_OF_THE_5_MS_PREROLL[key]
        assert new[2:] == old[2:], key  # the peak frequencies
        assert np.allclose(new[:2], old[:2], rtol=1e-6, atol=0.0), key


# repeated scalars only, and with a full block, whose groups span several
# channels
BALANCED_DIGESTS = {
    "repeated":
        "07646419b9f6f94a3d6a24f269ae67b10dc248f4f869004788857db92f0c11bd",
    "mixed":
        "2133a1294e7bd9ab146747171f47592f44a0c0b9804026cbac333f72e517008d",
}

# the polished bound with no floor, where each of the six frequencies
# descends to the end
POLISHED_DIGESTS = {
    "repeated":
        "22b37e46ff7e9eb58f230a285ce66b2ac8906eb2237283fb14c608241c773e85",
    "mixed":
        "ad620a607d1063205f1492d7de66db28585d6783c31ff8fd46be5f3b57d7f2cd",
}


def test_balanced_bound_digest():
    rng = np.random.default_rng(11)
    rep = [UncertaintyBlock(f"r{i}", "repeated", 3, 3) for i in range(3)]
    structures = {"repeated": rep,
                  "mixed": rep[:2] + [UncertaintyBlock("f", "full", 2, 3)]}
    for name, structure in structures.items():
        ny = sum(b.dim_y for b in structure)
        nu = sum(b.dim_u for b in structure)
        G = rng.normal(size=(6, ny, nu)) + 1j * rng.normal(size=(6, ny, nu))
        mu = ssv_upper_bound(G, structure, polish=False)
        assert _digest(mu) == BALANCED_DIGESTS[name], name
        assert (_digest(ssv_upper_bound(G, structure))
                == POLISHED_DIGESTS[name]), name
