"""Multiplicative uncertainty weights and their identification.

Dynamic uncertainty is modeled relatively: G = (1 + w(s) Delta) G_nom with
|Delta| <= 1, so the weight magnitude must upper-bound the sampled relative
error |(G - G_nom)/G_nom| at every grid frequency. Weights are fitted as
low-order shelf cascades; the identification data comes from this package's
own simulations (multisine experiments on a single agent).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitInfeasible
from .lti import LinearSystem, siso_tf

REL_ERR_FLOOR = 1e-4  # relative errors below it are fitted as this floor
MAX_ORDER = 3  # the highest shelf-cascade order fit_bounding_weight tries
EXCESS_CAP_DB = 10.0  # the worst over-bound a fitted weight may keep


@dataclass
class FrequencyResponse:
    freqs: np.ndarray  # rad/s
    H: np.ndarray  # complex samples

    def __post_init__(self):
        self.freqs = np.asarray(self.freqs, dtype=float)
        self.H = np.asarray(self.H, dtype=complex)
        if self.freqs.shape != self.H.shape:
            raise ValueError("freqs and H must align")


@dataclass(frozen=True)
class UncertaintyBlock:
    """One block of the structured perturbation.

    kind "repeated" is a scalar delta times the identity (square); kind
    "full" is an unstructured complex block mapping dim_y inputs to dim_u
    outputs. `weight` filters the plant's y-channel: one SISO weight for
    every entry, a list of one per entry, or None (unity, used for the
    normalized parametric blocks).
    """

    name: str
    kind: str
    dim_y: int
    dim_u: int
    weight: LinearSystem | list | None = None

    def __post_init__(self):
        if self.kind not in ("repeated", "full"):
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.kind == "repeated" and self.dim_y != self.dim_u:
            raise ValueError("repeated blocks are square")


def relative_error(G_nom: LinearSystem, actual: FrequencyResponse) -> np.ndarray:
    """|(G_actual - G_nom)/G_nom| at the sample frequencies (SISO)."""
    Gn = G_nom.freq_response(actual.freqs)[:, 0, 0]
    return np.abs((actual.H - Gn) / Gn)


def _shelf_cascade(params: np.ndarray) -> LinearSystem | None:
    """k * prod_i (s/z_i + 1)/(s/p_i + 1) from log-parameters.

    A least-squares trial may push a corner's log past the float range.
    Such a trial gives None: siso_tf rejects a vanishing leading
    coefficient, and an overflow would leave the realization non-finite.
    """
    with np.errstate(all="ignore"):
        k = np.exp(params[0])
        num, den = np.array([k]), np.array([1.0])
        m = (params.size - 1) // 2
        for i in range(m):
            z = np.exp(params[1 + 2 * i])
            p = np.exp(params[2 + 2 * i])
            num = np.convolve(num, [1.0 / z, 1.0])
            den = np.convolve(den, [1.0 / p, 1.0])
        if not (den[0] > 0.0 and 1e-14 < num[0] / den[0] < np.inf):
            return None
        sys = siso_tf(num, den)
    if not all(np.all(np.isfinite(M)) for M in (sys.A, sys.B, sys.C, sys.D)):
        return None
    return sys


def fit_uncertainty_weight(G_nom: LinearSystem,
                           actual: FrequencyResponse) -> LinearSystem:
    """Fit a stable minimum-phase weight upper-bounding the relative error
    of the sampled response against the nominal model."""
    return fit_bounding_weight(actual.freqs, relative_error(G_nom, actual))


def fit_bounding_weight(freqs, rel_err) -> LinearSystem:
    """Fit a weight magnitude upper bound to relative-error samples.

    Tries shelf cascades of increasing order, least-squares in log magnitude,
    then scales the gain up so the bound holds at every sample (margin >= 0
    dB, hard). Above the sampled band the last measured error is treated as
    persistent, so the weight cannot roll off where no data says it may. The
    lowest order up to MAX_ORDER whose worst over-bound stays within
    EXCESS_CAP_DB wins; FitInfeasible if none does.
    """
    # scipy.optimize is imported here: nothing else in the package needs it
    from scipy.optimize import least_squares

    w = np.asarray(freqs, dtype=float)
    r = np.asarray(rel_err, dtype=float)
    r_eff = np.maximum(r, REL_ERR_FLOOR)
    if np.max(r) <= REL_ERR_FLOOR:
        return siso_tf([REL_ERR_FLOOR], [1.0])
    w_chk = np.concatenate([w, w[-1] * np.array([2.0, 5.0, 10.0])])
    r_chk = np.concatenate([r_eff, np.full(3, r_eff[-1])])
    log_r = np.log(r_eff)
    best = None
    for order in range(1, MAX_ORDER + 1):
        x0 = np.empty(1 + 2 * order)
        x0[0] = log_r.mean()
        geo = np.exp(np.linspace(np.log(w[0]), np.log(w[-1]), order + 2))[1:-1]
        for i, wc in enumerate(geo):
            x0[1 + 2 * i] = np.log(wc)      # zero
            x0[2 + 2 * i] = np.log(10 * wc)  # pole above it: rising shelf

        def resid(x):
            # a trial out of the float range reads as the magnitude floor,
            # so least squares rejects it as a bad step
            trial = _shelf_cascade(x)
            mag = (0.0 if trial is None
                   else np.abs(trial.freq_response(w)[:, 0, 0]))
            return np.log(np.maximum(mag, 1e-12)) - log_r

        sol = least_squares(resid, x0, method="lm", max_nfev=400)
        x_scaled = sol.x.copy()
        mag = np.abs(_shelf_cascade(x_scaled).freq_response(w_chk)[:, 0, 0])
        x_scaled[0] += np.log(np.max(r_chk / mag))
        weight = _shelf_cascade(x_scaled)
        mag = np.abs(weight.freq_response(w_chk)[:, 0, 0])
        if np.any(mag < r_chk - 1e-12):
            continue
        excess_db = 20.0 * np.log10(np.max(mag[:w.size] / r_eff))
        if excess_db <= EXCESS_CAP_DB and (best is None or excess_db < best[0]):
            best = (excess_db, weight)
            if excess_db <= 1.0:  # tight enough, prefer the lower order
                break
    if best is None:
        raise FitInfeasible(
            f"no weight up to order {MAX_ORDER} bounds the samples within "
            f"{EXCESS_CAP_DB} dB")
    return best[1]


def performance_weight() -> LinearSystem:
    """Force-performance weight
    0.07 (s/w_z + 1)^2 / ((s/w_lo + 1)(s/w_c + 1)) with w_lo = 0.01,
    w_z = 0.067 and w_c = 0.385 rad/s: reduced magnitude inside the
    transient band [w_lo, w_z], higher outside, stable and proper.

    The scale is an artifact calibration (the reference figure is not
    numerically recoverable): the DC gain prices the steady lateral force
    each slave's damper demands from the master, which is what pushes the
    performant region toward low virtual damping as the team grows.
    """
    w_lo, w_z, w_c = 0.01, 0.067, 0.385
    num = 0.07 * np.convolve([1.0 / w_z, 1.0], [1.0 / w_z, 1.0])
    den = np.convolve([1.0 / w_lo, 1.0], [1.0 / w_c, 1.0])
    return siso_tf(num, den)


# ---------------------------------------------------------------------------
# Frozen default weights, identified against this package's own single-agent
# multisine experiments (100 Hz control/estimation, harmonics 0.157..80 rad/s)
# and fitted with fit_bounding_weight:
#  * mpc: sampled+held PD implementation vs the continuous PD law,
#  * att: attitude-loop+motor thrust response vs the tau_att lag (max over
#    lateral and vertical axes),
#  * est: EKF and UKF closed-loop force response vs the tau_est lag
#    (elementwise max of both).
# Regenerate with identify_pd_response, identify_thrust_response (axes 0 and
# 2) and identify_estimator_response ("ekf" and "ukf"), whose multisines
# share identify.DEFAULT_HARMONICS and BASE_PERIOD (the thrust response
# settles THRUST_SETTLE first), and a fit_bounding_weight of each relative
# error (MAX_ORDER, EXCESS_CAP_DB). tests/test_uncertainty.py regenerates
# none of them: it checks that the mpc and lateral att weights still cover
# a fresh identification on four harmonics, and the est weight a fresh EKF
# identification on every harmonic. No test runs the UKF experiment.
# ---------------------------------------------------------------------------

def default_weight_mpc() -> LinearSystem:
    return LinearSystem([[-444.913797947]], [[1.0]], [[-890.8171940576]],
                        [[2.0022242736]])


def default_weight_att_lateral() -> LinearSystem:
    return LinearSystem([[-17.1427269037, -73.4682714237], [1.0, 0.0]],
                        [[1.0], [0.0]], [[-17.802523976, -80.1524219117]],
                        [[1.0914037792]])


def default_weight_att_vertical() -> LinearSystem:
    return LinearSystem(
        [[-1.5038391786e3, -1.2530546014e3, -2.6109293638e2],
         [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        [[1.0], [0.0], [0.0]],
        [[-12516.8576114057, -10435.0916021666, -2174.3161475404]],
        [[8.3277480191]])


def default_weight_att() -> list[LinearSystem]:
    """Per-axis thrust-chain weights sharing one repeated scalar: the
    vertical mismatch (fast motor magnitude vs tau_att lag) exceeds the
    lateral one, so tying a single weight to the worst axis would load the
    lateral channels far beyond what was identified. The two lateral axes
    share one weight object, so an N-Delta response evaluates it once."""
    lateral = default_weight_att_lateral()
    return [lateral, lateral, default_weight_att_vertical()]


def default_weight_est() -> LinearSystem:
    return LinearSystem(
        [[-22.8652345582, -130.7040146082], [1.0, 0.0]], [[1.0], [0.0]],
        [[8.9585433765, -157.1376907637]], [[1.204690083]])
