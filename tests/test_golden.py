"""Golden digests of the integrator users besides run_scenario.

The transport pre-roll, the single-agent closed loop and the thrust
identification experiment all step their dynamics with RK4. These digests
pin their outputs bit for bit, so a refactor of the integrator or of the
physics kernels cannot change a number unnoticed.
"""

import hashlib

import numpy as np
import pytest

from swarmlift.analysis import AnalysisConfig, preroll_transport
from swarmlift.identify import identify_thrust_response, run_force_step
from swarmlift.mav import MavParams


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


PREROLL_DIGESTS = {
    (2, 8.0, 6.0):
        "34e99f02326e1705bceba0b23ad06d3abe1f778dae1f5ffa9a4e9cc66983ea50",
    (3, 4.0, 12.0):
        "37a8b40f884e1c0368ce345c321fcff5e7e65724bd504c87f2280abb70e7447a",
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
    tr = run_force_step(MavParams(), estimator, magnitude=1.5, axis=0,
                        t_step=0.3005, duration=0.8)
    digest = _digest(tr.t, tr.p, tr.v, tr.eta, tr.F_prop_w, tr.F_hat)
    assert digest == FORCE_STEP_DIGESTS[estimator]


THRUST_RESPONSE_DIGEST = \
    "db8938da6cc2dda4024b89b330739686b387e74d3ba75432f72a702763e1aa71"


def test_thrust_response_digest():
    fr = identify_thrust_response(MavParams(), axis=0, harmonics=(1, 2, 5),
                                  base_period=1.0, settle=0.5)
    assert _digest(fr.freqs, fr.H) == THRUST_RESPONSE_DIGEST
