import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from swarmlift import identify, uncertainty
from swarmlift.errors import FitInfeasible
from swarmlift.identify import (
    correlate_tone,
    identify_estimator_response,
    identify_pd_response,
    identify_thrust_response,
    multisine,
)
from swarmlift.lti import first_order_lag
from swarmlift.mav import MavParams
from swarmlift.uncertainty import (
    FrequencyResponse,
    default_weight_att,
    default_weight_att_lateral,
    default_weight_est,
    default_weight_mpc,
    fit_bounding_weight,
    fit_uncertainty_weight,
    performance_weight,
    relative_error,
)

FREQS = np.logspace(-2, 2, 25)


def test_identical_plant_gives_floor_weight():
    nom = first_order_lag(0.2)
    H = nom.freq_response(FREQS)[:, 0, 0]
    w = fit_uncertainty_weight(nom, FrequencyResponse(FREQS, H))
    mag = np.abs(w.freq_response(FREQS)[:, 0, 0])
    assert np.all(mag <= 0.01)


def test_double_time_constant_shape():
    # analytic relative error of a lag with twice the time constant:
    # |tau w / (1 + 2j tau w)| -> 0 at DC, 1/2 at high frequency
    tau = 0.2
    nom = first_order_lag(tau)
    act = first_order_lag(2 * tau)
    H = act.freq_response(FREQS)[:, 0, 0]
    r = relative_error(nom, FrequencyResponse(FREQS, H))
    oracle = tau * FREQS / np.sqrt(1.0 + (2 * tau * FREQS) ** 2)
    assert_allclose(r, oracle, rtol=1e-9)
    w = fit_uncertainty_weight(nom, FrequencyResponse(FREQS, H))
    mag = np.abs(w.freq_response(FREQS)[:, 0, 0])
    # hard bound everywhere, and within +3 dB of the analytic curve where
    # the error is appreciable
    assert np.all(mag >= r - 1e-12)
    band = r > 0.05
    assert np.all(mag[band] / r[band] <= 10 ** (3.0 / 20.0))


def test_fit_bound_is_hard():
    # eight of these seeds push a least-squares trial corner out of the
    # float range; such a trial must read as the magnitude floor, not reach
    # siso_tf's ValueError on a vanishing leading coefficient, and no
    # warning of any kind may escape the fit
    for seed in range(10):
        rng = np.random.default_rng(seed)
        r = 0.3 * FREQS / (1 + 0.2 * FREQS) + rng.uniform(0, 0.02, FREQS.size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = fit_bounding_weight(FREQS, r)
        mag = np.abs(w.freq_response(FREQS)[:, 0, 0])
        assert np.all(mag >= r - 1e-12), seed


def test_fit_infeasible_for_wild_samples(monkeypatch):
    rng = np.random.default_rng(1)
    r = np.exp(rng.uniform(-4, 4, FREQS.size))  # 8 decades of scatter
    monkeypatch.setattr(uncertainty, "MAX_ORDER", 1)
    monkeypatch.setattr(uncertainty, "EXCESS_CAP_DB", 1.0)
    with pytest.raises(FitInfeasible):
        fit_bounding_weight(FREQS, r)


def test_performance_weight_band_shape():
    w = performance_weight()
    mags = np.abs(w.freq_response([0.001, 0.025, 1.0])[:, 0, 0])
    assert mags[1] < mags[0]  # transient band is cheaper than DC
    assert mags[1] < mags[2]  # and cheaper than fast content
    assert np.max(np.linalg.eigvals(w.A).real) < 0  # stable
    hi = np.abs(w.freq_response([1e5])[0, 0, 0])
    assert np.isfinite(hi)  # proper


def test_default_weights_cover_fresh_identification(monkeypatch):
    # the frozen weights must upper-bound a freshly identified response on
    # a small harmonic set (regression against drift in the plant model)
    params = MavParams()
    monkeypatch.setattr(identify, "DEFAULT_HARMONICS", (2, 8, 32, 128))
    fr = identify_pd_response(params)
    Gn = params.K_P[0] + 1j * fr.freqs * params.K_D[0]
    r_pd = np.abs((fr.H - Gn) / Gn)
    mag = np.abs(default_weight_mpc().freq_response(fr.freqs)[:, 0, 0])
    assert np.all(mag >= r_pd * 0.98)

    fr = identify_thrust_response(params, axis=0)
    r_att = relative_error(first_order_lag(params.tau_att), fr)
    mag = np.abs(default_weight_att_lateral().freq_response(fr.freqs)[:, 0, 0])
    assert np.all(mag >= r_att * 0.98)


def test_default_est_weight_covers_fresh_identification():
    # the EKF's closed-loop force response against the tau_est lag, with
    # the slack of the test above; the est weight touches it at 5.03 rad/s.
    # (The UKF run, which the weight also covers, takes twice as long.)
    params = MavParams()
    fr = identify_estimator_response(params, "ekf")
    r_est = relative_error(first_order_lag(params.tau_est), fr)
    mag = np.abs(default_weight_est().freq_response(fr.freqs)[:, 0, 0])
    assert np.all(mag >= r_est * 0.98)


def test_default_att_weight_is_per_axis():
    ws = default_weight_att()
    assert len(ws) == 3
    w_mid = [abs(w.freq_response([3.0])[0, 0, 0]) for w in ws]
    assert w_mid[0] == w_mid[1]
    assert w_mid[2] < w_mid[0]  # vertical chain is much closer to nominal


def test_multisine_correlation_identity():
    f, df, w = multisine((1, 4, 16), 10.0, [0.5, 0.3, 0.2])
    t = np.arange(0, 10.0, 1e-3)
    y = np.array([f(tk) for tk in t])
    for k, wk in enumerate(w):
        c = correlate_tone(t, y, wk)
        amp = [0.5, 0.3, 0.2][k]
        assert abs(abs(c) - amp) < 1e-3
