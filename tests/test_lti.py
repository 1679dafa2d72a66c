import numpy as np
import pytest
from numpy.testing import assert_allclose

from swarmlift.errors import ChannelMismatch
from swarmlift.lti import LinearSystem, first_order_lag


def test_freq_response_first_order():
    sys = first_order_lag(0.5)
    w = np.array([0.0, 2.0, 20.0])
    G = sys.freq_response(w)[:, 0, 0]
    oracle = 1.0 / (1j * w * 0.5 + 1.0)
    assert_allclose(G, oracle, rtol=1e-12)


def test_channel_slices():
    sys = LinearSystem(-np.eye(3), np.eye(3), np.eye(3), np.zeros((3, 3)),
                       inputs=[("u1", 1), ("u2", 2)], outputs=[("y", 3)])
    assert sys.n_inputs == 3 and sys.n_outputs == 3
    assert sys.input_slice("u2") == slice(1, 3)
    with pytest.raises(ChannelMismatch):
        sys.output_slice("nope")


def test_integrator_block():
    # the rest plant carries the master reference integrator, a pole at 0
    sys = LinearSystem(np.zeros((2, 2)), np.eye(2), np.eye(2),
                       np.zeros((2, 2)))
    G = sys.freq_response([0.5])[0]
    assert_allclose(G, np.eye(2) / (0.5j), rtol=1e-12)
