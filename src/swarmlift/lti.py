"""Continuous-time state-space systems with named signal channels.

Carrier for the linear plants of the robust-tuning analysis: the
linearized interconnection arrives whole from the nonlinear model, its
named channels select the uncertainty and performance signals
(:meth:`LinearSystem.subsystem`), and ``mu.assemble_n_delta`` gives each
selected output row a SISO weight built here. That weighted plant,
:class:`WeightedPlant`, is evaluated on frequency grids as
diag(W_r(jw)) P(jw), on the plant's own states: the weights scale the
rows of P's response and add no state. Kept deliberately small: only what
the margin computation and the weight identification need. The SISO
realization is the package's own numpy code; it performs the operations
of ``scipy.signal.tf2ss`` and gives its matrices bit for bit, without
importing the signal package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ChannelMismatch, SingularAssembly

# Complex entries of one frequency chunk's stacked (k, n, n) system in
# LinearSystem.freq_response: 2**16 of them take 1 MiB.
CHUNK_ENTRIES = 2**16


def _normalize_channels(chs, total, kind):
    if chs is None:
        return [(f"{kind}0", total)] if total else []
    out = []
    for name, size in chs:
        out.append((str(name), int(size)))
    if sum(s for _, s in out) != total:
        raise ChannelMismatch(
            f"{kind} channels sum to {sum(s for _, s in out)}, expected {total}")
    names = [n for n, _ in out]
    if len(set(names)) != len(names):
        raise ChannelMismatch(f"duplicate {kind} channel names: {names}")
    return out


@dataclass
class LinearSystem:
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    inputs: list = field(default_factory=lambda: None)
    outputs: list = field(default_factory=lambda: None)

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.B = np.atleast_2d(np.asarray(self.B, dtype=float))
        self.C = np.atleast_2d(np.asarray(self.C, dtype=float))
        self.D = np.atleast_2d(np.asarray(self.D, dtype=float))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise SingularAssembly("A must be square")
        if self.B.shape[0] != n and self.B.size == 0:
            self.B = self.B.reshape(n, 0)
        if self.C.shape[1] != n and self.C.size == 0:
            self.C = self.C.reshape(0, n)
        if self.B.shape[0] != n or self.C.shape[1] != n:
            raise SingularAssembly(
                f"B/C dimensions inconsistent with {n} states")
        if self.D.shape != (self.C.shape[0], self.B.shape[1]):
            if self.D.size == 0:
                self.D = np.zeros((self.C.shape[0], self.B.shape[1]))
            else:
                raise SingularAssembly("D dimension mismatch")
        self.inputs = _normalize_channels(self.inputs, self.n_inputs, "u")
        self.outputs = _normalize_channels(self.outputs, self.n_outputs, "y")

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.C.shape[0]

    def freq_response(self, w) -> np.ndarray:
        """G(jw) = C (jwI - A)^-1 B + D, shape (len(w), p, m).

        The frequencies are solved in chunks of k = max(1, CHUNK_ENTRIES //
        n^2), so each stacked (k, n, n) system jwI - A and its temporary
        hold at most CHUNK_ENTRIES complex entries (1 MiB) whatever the
        grid's length: besides the returned G, the call allocates O(n^2 +
        k n m), not O(F n^2). A SISO weight's whole grid is one chunk.
        Chunking cannot change a bit: ``np.linalg.solve`` runs one LAPACK
        gesv per frequency, alone or stacked, and the products and sums
        are per frequency too.
        """
        return _response(self, w)

    def subsystem(self, out_names=None, in_names=None) -> "LinearSystem":
        """Restrict to the named channels (states retained)."""
        o_idx, o_ch = _gather(self.outputs, out_names, "output")
        i_idx, i_ch = _gather(self.inputs, in_names, "input")
        return LinearSystem(self.A, self.B[:, i_idx], self.C[o_idx, :],
                            self.D[np.ix_(o_idx, i_idx)],
                            inputs=i_ch, outputs=o_ch)


def _response(sys: LinearSystem, w) -> np.ndarray:
    """The solve behind :meth:`LinearSystem.freq_response`."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if sys.n_states == 0:
        return np.broadcast_to(sys.D.astype(complex),
                               (w.size, *sys.D.shape)).copy()
    n = sys.n_states
    G = np.empty((w.size, sys.n_outputs, sys.n_inputs), dtype=complex)
    k = max(1, CHUNK_ENTRIES // (n * n))
    for s in range(0, w.size, k):
        wk = w[s:s + k]
        M = (1j * wk)[:, None, None] * np.eye(n)[None, :, :] \
            - sys.A[None, :, :]
        X = np.linalg.solve(
            M, np.broadcast_to(sys.B, (wk.size, n, sys.n_inputs)))
        G[s:s + k] = sys.C[None, :, :] @ X + sys.D[None, :, :]
    return G


@dataclass
class WeightedPlant:
    """diag(W_r(s)) P(s): the plant P with one SISO weight W_r, or None
    (unweighted), on each output row r."""

    plant: LinearSystem
    weights: list

    def __post_init__(self):
        self.weights = list(self.weights)
        if len(self.weights) != self.plant.n_outputs:
            raise ChannelMismatch(f"{self.plant.n_outputs} output rows, got "
                                  f"{len(self.weights)} weights")
        if any(w is not None and w.D.shape != (1, 1) for w in self.weights):
            raise ChannelMismatch("weights must be SISO")

    def freq_response(self, w) -> np.ndarray:
        """diag(W_r(jw)) P(jw), shape (len(w), p, m): P(jw) from one
        :meth:`LinearSystem.freq_response` call on the plant's own states,
        each weighted row scaled by its weight's response. A weight that
        serves several rows is evaluated once per call, through the same
        solve, and an unweighted row keeps P's bits."""
        G = self.plant.freq_response(w)
        responses = {}
        for r, weight in enumerate(self.weights):
            if weight is not None:
                if id(weight) not in responses:
                    responses[id(weight)] = _response(weight, w)[:, 0]
                G[:, r] *= responses[id(weight)]
        return G

    def subsystem(self, out_names=None, in_names=None) -> "WeightedPlant":
        """Restrict to the named channels, each kept row with its weight."""
        rows, _ = _gather(self.plant.outputs, out_names, "output")
        return WeightedPlant(self.plant.subsystem(out_names, in_names),
                             [self.weights[r] for r in rows])


def _channel_slice(channels, name, kind):
    start = 0
    for n, size in channels:
        if n == name:
            return slice(start, start + size)
        start += size
    raise ChannelMismatch(f"no {kind} channel named {name!r}")


def _gather(channels, names, kind):
    if names is None:
        names = [n for n, _ in channels]
    idx, chs = [], []
    for name in names:
        sl = _channel_slice(channels, name, kind)
        idx.extend(range(sl.start, sl.stop))
        chs.append((name, sl.stop - sl.start))
    return np.array(idx, dtype=int), chs


def siso_tf(num, den) -> LinearSystem:
    """SISO transfer function num(s)/den(s), coefficients in descending
    powers, to state space from input u to output y.

    The controllable canonical realization (Zhou, Doyle & Glover, Robust
    and Optimal Control, 1996) with the operations and results of
    ``scipy.signal.tf2ss``: normalized by den[0], the numerator zero-padded
    to the denominator's length, and a static gain realized with one
    all-zero state. ValueError on an improper numerator, or on a leading
    numerator coefficient of at most 1e-14 relative to den[0], which tf2ss
    would trim and so realize a different system.
    """
    num = np.atleast_1d(np.asarray(num, dtype=float))
    den = np.atleast_1d(np.asarray(den, dtype=float))
    if num.size > den.size:
        raise ValueError("improper transfer function: num is longer than den")
    num, den = num / den[0], den / den[0]
    if num.size > 1 and abs(num[0]) <= 1e-14:
        raise ValueError(
            f"leading numerator coefficient {num[0]:g} (relative to den[0]) "
            "is at most 1e-14")
    K = den.size
    num = np.concatenate([np.zeros(K - num.size), num])
    D = num[:1].reshape(1, 1)
    if K == 1:
        A, B, C = np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1))
    else:
        A = np.vstack([-den[None, 1:], np.eye(K - 2, K - 1)])
        B = np.eye(K - 1, 1)
        C = num[None, 1:] - np.outer(num[0], den[1:])
    return LinearSystem(A, B, C, D, inputs=[("u", 1)], outputs=[("y", 1)])


def first_order_lag(tau: float) -> LinearSystem:
    """1 / (tau s + 1) from input u to output y."""
    return LinearSystem([[-1.0 / tau]], [[1.0 / tau]], [[1.0]], [[0.0]],
                        inputs=[("u", 1)], outputs=[("y", 1)])
