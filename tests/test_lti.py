import functools
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.signal import tf2ss

from swarmlift import uncertainty
from swarmlift.analysis import (AnalysisConfig, build_closed_loop, linearize,
                               margin_plant)
from swarmlift.errors import ChannelMismatch
from swarmlift.lti import CHUNK_ENTRIES, LinearSystem, first_order_lag, siso_tf
from swarmlift.mu import (assemble_n_delta, default_blocks,
                          default_frequency_grid)
from swarmlift.oracles import series_realization


def test_freq_response_first_order():
    sys = first_order_lag(0.5)
    w = np.array([0.0, 2.0, 20.0])
    G = sys.freq_response(w)[:, 0, 0]
    oracle = 1.0 / (1j * w * 0.5 + 1.0)
    assert_allclose(G, oracle, rtol=1e-12)


def one_stack_response(sys, w):
    """G(jw) with every frequency's (jwI - A) in one (F, n, n) stack."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    n = sys.n_states
    M = (1j * w)[:, None, None] * np.eye(n)[None, :, :] - sys.A[None, :, :]
    X = np.linalg.solve(M, np.broadcast_to(sys.B, (w.size, n, sys.n_inputs)))
    return sys.C[None, :, :] @ X + sys.D[None, :, :]


def assert_one_stack_bits(sys, w):
    got, want = sys.freq_response(w), one_stack_response(sys, w)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@functools.lru_cache(maxsize=None)
def n_delta(n_agents, M, C, point):
    cfg = AnalysisConfig(n_agents=n_agents, tuning_M=M, tuning_C=C)
    sys = build_closed_loop(cfg) if point == "rest" else linearize(cfg, point)
    plant, ok = margin_plant(sys)
    assert ok
    return assemble_n_delta(plant, default_blocks(n_agents),
                            uncertainty.performance_weight())[0]


@pytest.mark.parametrize("n_agents,M,C,point,n_freqs",
                         [(3, 4.0, 12.0, "transport", 80),
                          (2, 8.0, 6.0, "rest", 200)])
def test_freq_response_matches_one_stack_on_n_delta(n_agents, M, C, point,
                                                    n_freqs):
    # the N-Delta with its weights' states in series: 93 and 59 states
    N = series_realization(n_delta(n_agents, M, C, point))
    assert N.n_states ** 2 * n_freqs > 4 * CHUNK_ENTRIES  # several chunks
    assert_one_stack_bits(N, default_frequency_grid(n_freqs))


@pytest.mark.parametrize("n", [3, 40, 300])
def test_freq_response_matches_one_stack_at_the_chunk_edge(n):
    rng = np.random.default_rng(n)
    sys = LinearSystem(rng.normal(size=(n, n)), rng.normal(size=(n, 4)),
                       rng.normal(size=(3, n)), rng.normal(size=(3, 4)))
    k = max(1, CHUNK_ENTRIES // (n * n))
    for size in (k, k + 1):  # exactly one chunk, one chunk and one more
        assert_one_stack_bits(sys, np.logspace(-2.0, 2.0, size))


def test_freq_response_matches_one_stack_on_degenerate_inputs():
    rng = np.random.default_rng(7)
    sys = LinearSystem(rng.normal(size=(5, 5)), rng.normal(size=(5, 2)),
                       rng.normal(size=(3, 5)), rng.normal(size=(3, 2)))
    static = LinearSystem(np.zeros((0, 0)), np.zeros((0, 2)),
                          np.zeros((3, 0)), rng.normal(size=(3, 2)))
    for s, w in [(sys, [0.7]), (sys, 0.7), (sys, []), (static, [0.1, 2.0]),
                 (static, [])]:
        assert_one_stack_bits(s, w)


def test_freq_response_peak_memory_stays_within_chunks():
    N = series_realization(n_delta(3, 4.0, 12.0, "transport"))
    w = default_frequency_grid(80)
    G = N.freq_response(w)  # warm start outside the trace
    tracemalloc.start()
    try:
        N.freq_response(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # G is 1.5 MB; all 80 frequencies in one (F, n, n) stack peak at 22 MB
    assert G.nbytes < 2e6 and peak < 8e6


def test_channel_slices():
    sys = LinearSystem(-np.eye(3), np.eye(3), np.eye(3), np.zeros((3, 3)),
                       inputs=[("u1", 1), ("u2", 2)], outputs=[("y", 3)])
    assert sys.n_inputs == 3 and sys.n_outputs == 3
    sub = sys.subsystem(out_names=["y"], in_names=["u2"])
    assert sub.inputs == [("u2", 2)] and sub.outputs == [("y", 3)]
    assert np.array_equal(sub.B, np.eye(3)[:, 1:3])
    with pytest.raises(ChannelMismatch):
        sys.subsystem(out_names=["nope"])


def test_integrator_block():
    # the rest plant carries the master reference integrator, a pole at 0
    sys = LinearSystem(np.zeros((2, 2)), np.eye(2), np.eye(2),
                       np.zeros((2, 2)))
    G = sys.freq_response([0.5])[0]
    assert_allclose(G, np.eye(2) / (0.5j), rtol=1e-12)


def assert_tf2ss_bits(sys, num, den):
    for got, want in zip((sys.A, sys.B, sys.C, sys.D), tf2ss(num, den)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def recording_siso_tf(monkeypatch):
    """Record the (num, den) that uncertainty passes to siso_tf."""
    calls = []

    def record(num, den):
        calls.append((np.copy(num), np.copy(den)))
        return siso_tf(num, den)

    monkeypatch.setattr(uncertainty, "siso_tf", record)
    return calls


def test_siso_tf_matches_tf2ss_on_the_performance_weight(monkeypatch):
    calls = recording_siso_tf(monkeypatch)
    w = uncertainty.performance_weight()
    assert len(calls) == 1 and w.n_states == 2
    assert_tf2ss_bits(w, *calls[0])


def test_siso_tf_matches_tf2ss_on_the_static_floor():
    floor = siso_tf([uncertainty.REL_ERR_FLOOR], [1.0])
    assert floor.n_states == 1 and not floor.A.any() and not floor.C.any()
    assert_tf2ss_bits(floor, [uncertainty.REL_ERR_FLOOR], [1.0])


@pytest.mark.parametrize("order", [1, 2, 3])
def test_siso_tf_matches_tf2ss_on_shelf_cascades(monkeypatch, order):
    calls = recording_siso_tf(monkeypatch)
    rng = np.random.default_rng(order)
    for _ in range(50):
        params = rng.uniform(-6.0, 6.0, 1 + 2 * order)  # log gain, corners
        sys = uncertainty._shelf_cascade(params)
        assert sys.n_states == order
        assert_tf2ss_bits(sys, *calls[-1])


def test_siso_tf_rejects_an_improper_numerator():
    with pytest.raises(ValueError, match="improper"):
        siso_tf([1.0, 2.0, 3.0], [1.0, 1.0])


def test_siso_tf_rejects_a_leading_coefficient_that_tf2ss_trims():
    # tf2ss would drop the 1e-15 and realize 1/(s + 1) instead
    with pytest.raises(ValueError, match="1e-14"):
        siso_tf([1e-15, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="1e-14"):
        siso_tf([1e-15, 1.0], [0.5, 1.0])  # relative to den[0]: 2e-15
