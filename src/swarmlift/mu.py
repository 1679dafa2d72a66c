"""N-Delta assembly, structured-singular-value bounds, and margin maps.

Robustness margins are the inverse of the peak structured singular value:
the stability margin uses the perturbation channels alone, the performance
margin augments them with a full fictitious block closing the weighted
disturbance-to-performance path. All blocks are treated as complex, which
upper-bounds the mixed real/complex value (conservative direction: the
reported safe region can only shrink).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .analysis import (
    AnalysisConfig,
    build_closed_loop,
    linearize,
    margin_plant,
)
from .errors import ChannelMismatch, UnstableOperatingPoint
from .lti import LinearSystem, output_weight
from .uncertainty import (
    UncertaintyBlock,
    default_weight_att,
    default_weight_est,
    default_weight_mpc,
    performance_weight,
)


def default_blocks(n_agents: int) -> list[UncertaintyBlock]:
    """The block set of the analysis: payload mass and inertia, one
    position-controller and one attitude block per agent, one estimator
    block per slave: 2 + 2 N + (N - 1) blocks."""
    blocks = [UncertaintyBlock("mass", "repeated", 3, 3, None),
              UncertaintyBlock("inertia", "repeated", 3, 3, None)]
    w_mpc, w_att, w_est = (default_weight_mpc(), default_weight_att(),
                           default_weight_est())
    blocks += [UncertaintyBlock(f"mpc_{i}", "repeated", 3, 3, w_mpc)
               for i in range(n_agents)]
    blocks += [UncertaintyBlock(f"att_{i}", "repeated", 3, 3, w_att)
               for i in range(n_agents)]
    blocks += [UncertaintyBlock(f"est_{j}", "repeated", 3, 3, w_est)
               for j in range(1, n_agents)]
    return blocks


def assemble_n_delta(plant: LinearSystem, blocks, perf_weight=None,
                     w_name: str = "w", z_prefix: str = "z_lat"):
    """Wrap the plant's uncertainty taps with their weights and order the
    channels into the canonical upper-LFT arrangement.

    Returns (N, structure): N has inputs [u_blocks..., w] and outputs
    [y_blocks..., z...]; the structure appends the full performance block
    mapping the weighted outputs back to the disturbance.
    """
    sys = plant
    for b in blocks:
        if b.weight is not None:
            sys = output_weight(sys, f"y_{b.name}", b.weight)
    z_names = [name for name, _ in sys.outputs if name.startswith(z_prefix)]
    if not z_names:
        raise ChannelMismatch(f"no outputs with prefix {z_prefix!r}")
    if perf_weight is not None:
        for zn in z_names:
            sys = output_weight(sys, zn, perf_weight)
    out_names = [f"y_{b.name}" for b in blocks] + z_names
    in_names = [f"u_{b.name}" for b in blocks] + [w_name]
    N = sys.subsystem(out_names=out_names, in_names=in_names)
    n_z = sum(sl.stop - sl.start for sl in
              (N.output_slice(zn) for zn in z_names))
    n_w = N.input_slice(w_name).stop - N.input_slice(w_name).start
    structure = list(blocks) + [
        UncertaintyBlock("perf", "full", dim_y=n_z, dim_u=n_w, weight=None)]
    return N, structure


def _block_spans(structure):
    """Row (y side) and column (u side) index spans per block."""
    spans = []
    r = c = 0
    for b in structure:
        spans.append((slice(r, r + b.dim_y), slice(c, c + b.dim_u)))
        r += b.dim_y
        c += b.dim_u
    return spans, r, c


def _scaling_groups(structure):
    """One positive scaling per degree of freedom that commutes with the
    block structure: per-entry for repeated-scalar blocks (any diagonal
    commutes with delta I), a single scalar for full blocks."""
    groups = []
    r = c = 0
    for b in structure:
        if b.kind == "repeated":
            for i in range(b.dim_y):
                groups.append(([r + i], [c + i]))
        else:
            groups.append((list(range(r, r + b.dim_y)),
                           list(range(c, c + b.dim_u))))
        r += b.dim_y
        c += b.dim_u
    return groups, r, c


def ssv_upper_bound(G, structure, polish: bool = True,
                    balance_tol: float = 1e-9, max_balance: int = 200,
                    polish_tol: float = 1e-8) -> np.ndarray:
    """D-scaled upper bound of the structured singular value per frequency.

    G has shape (F, ny, nu); the structure lists the blocks in channel
    order. One positive scalar scaling per block (the last is pinned to 1):
    Osborne-style balancing to the unique equalized point, then coordinate
    descent with golden-section line searches until the bound stops
    improving. Any scaling is a valid upper bound, so early termination
    stays conservative.
    """
    G = np.asarray(G)
    if G.ndim == 2:
        G = G[None, :, :]
    groups, ny, nu = _scaling_groups(structure)
    if G.shape[1] != ny or G.shape[2] != nu:
        raise ChannelMismatch(
            f"matrix {G.shape[1:]} does not match structure ({ny}, {nu})")
    ng = len(groups)
    row_group = np.empty(ny, dtype=int)
    col_group = np.empty(nu, dtype=int)
    for g, (rr, cc) in enumerate(groups):
        row_group[np.asarray(rr, dtype=int)] = g
        col_group[np.asarray(cc, dtype=int)] = g
    F = G.shape[0]
    mu = np.empty(F)
    logd = np.zeros(ng)

    def scaled(M, logd):
        d = np.exp(logd)
        return (d[row_group][:, None] * M) / d[col_group][None, :]

    def scaled_sv(M, logd):
        return np.linalg.svd(scaled(M, logd), compute_uv=False)[0]

    def balance(M, logd):
        for _ in range(max_balance):
            Ms2 = np.abs(scaled(M, logd)) ** 2
            rn2 = np.bincount(row_group, weights=Ms2.sum(axis=1), minlength=ng)
            cn2 = np.bincount(col_group, weights=Ms2.sum(axis=0), minlength=ng)
            ok = (rn2 > 1e-300) & (cn2 > 1e-300)
            step = np.zeros(ng)
            step[ok] = 0.25 * (np.log(cn2[ok]) - np.log(rn2[ok]))
            step[-1] = 0.0  # last group pinned
            logd += step
            if np.max(np.abs(step)) < balance_tol:
                break
        return logd

    def coordinate_descent(M, logd, sweeps=2, iters=12, window=0.7):
        best = scaled_sv(M, logd)
        for _ in range(sweeps):
            improved = False
            for g in range(ng - 1):
                gr = (np.sqrt(5.0) - 1.0) / 2.0
                a, b = logd[g] - window, logd[g] + window
                c1, d1 = b - gr * (b - a), a + gr * (b - a)
                t = logd.copy()
                t[g] = c1
                f1 = scaled_sv(M, t)
                t[g] = d1
                f2 = scaled_sv(M, t)
                for _ in range(iters):
                    if f1 < f2:
                        b, d1, f2 = d1, c1, f1
                        c1 = b - gr * (b - a)
                        t[g] = c1
                        f1 = scaled_sv(M, t)
                    else:
                        a, c1, f1 = c1, d1, f2
                        d1 = a + gr * (b - a)
                        t[g] = d1
                        f2 = scaled_sv(M, t)
                x = c1 if f1 <= f2 else d1
                cand = min(f1, f2)
                if cand < best - polish_tol * max(best, 1.0):
                    best = cand
                    logd[g] = x
                    improved = True
            if not improved:
                break
        return best, logd

    # balanced bound everywhere (warm-started across frequency)
    saved = np.empty((F, ng))
    for k in range(F):
        logd = balance(G[k], logd)
        saved[k] = logd
        mu[k] = scaled_sv(G[k], logd)
    if polish:
        # refine the scalings only around the peak, where the margin lives:
        # a coarse descent pass, then a narrow-window pass to convergence
        order = np.argsort(mu)[::-1]
        for k in order[:min(8, F)]:
            logd_k = saved[k].copy()
            best, logd_k = coordinate_descent(G[k], logd_k, sweeps=3)
            best2, _ = coordinate_descent(G[k], logd_k, sweeps=8, iters=20,
                                          window=0.1)
            mu[k] = min(mu[k], best, best2)
    return mu


def rs_partition(G, structure):
    """Sub-matrix and sub-structure of the pure-stability channels."""
    rs_blocks = [b for b in structure if b.name != "perf"]
    r_end = sum(b.dim_y for b in rs_blocks)
    c_end = sum(b.dim_u for b in rs_blocks)
    return G[..., :r_end, :c_end], rs_blocks


@dataclass(frozen=True)
class TuningGrid:
    M_values: np.ndarray = field(
        default_factory=lambda: np.linspace(0.0, 30.0, 31))
    C_values: np.ndarray = field(
        default_factory=lambda: np.linspace(0.0, 30.0, 31))

    def __post_init__(self):
        M = np.sort(np.asarray(self.M_values, dtype=float))
        C = np.sort(np.asarray(self.C_values, dtype=float))
        if M.size == 0 or C.size == 0:
            raise ValueError("grid must be nonempty")
        if M.min() < 0 or M.max() > 30 or C.min() < 0 or C.max() > 30:
            raise ValueError("tuning sets live in [0, 30]")
        object.__setattr__(self, "M_values", M)
        object.__setattr__(self, "C_values", C)

    def points(self):
        return [(M, C) for M in self.M_values for C in self.C_values]


@dataclass
class MarginResult:
    M: float
    C: float
    rs_margin: float
    rp_margin: float
    peak_freq_rs: float
    peak_freq_rp: float
    nominal_stable: bool


def default_frequency_grid(n: int = 200) -> np.ndarray:
    return np.logspace(-3.0, 2.0, n)


def margin_point(n_agents: int, M: float, C: float, freqs=None, blocks=None,
                 perf_weight=None, polish: bool = True,
                 cfg_kwargs=None) -> MarginResult:
    """Robust stability and performance margins of one tuning point.

    Stability: peak SSV of the perturbation channels, worst case over the
    rest and transport operating points. Performance: SSV with the full
    performance block appended, at the transport point (performance cannot
    exceed stability, so the reported rp is clamped by rs). Tunings with an
    unstable nominal loop (including the degenerate M = 0 / C = 0 edge of
    the tuning set) report margin 0.
    """
    if freqs is None:
        freqs = default_frequency_grid()
    zero = MarginResult(M, C, 0.0, 0.0, np.nan, np.nan, False)
    if M <= 0.0 or C <= 0.0:
        return zero
    cfg = AnalysisConfig(n_agents=n_agents, tuning_M=M, tuning_C=C,
                         **(cfg_kwargs or {}))
    if blocks is None:
        blocks = default_blocks(n_agents)
    if perf_weight is None:
        perf_weight = performance_weight()

    rest_d, ok = margin_plant(build_closed_loop(cfg))
    if not ok:
        return zero
    try:
        transport = linearize(cfg, "transport")
    except UnstableOperatingPoint:
        return zero
    tr_d, ok = margin_plant(transport)
    if not ok:
        return zero

    N_rest, structure = assemble_n_delta(rest_d, blocks, perf_weight)
    N_tr, _ = assemble_n_delta(tr_d, blocks, perf_weight)
    G_rest = N_rest.freq_response(freqs)
    G_tr = N_tr.freq_response(freqs)

    G11_rest, rs_struct = rs_partition(G_rest, structure)
    G11_tr, _ = rs_partition(G_tr, structure)
    mu_rest = ssv_upper_bound(G11_rest, rs_struct, polish=polish)
    mu_tr = ssv_upper_bound(G11_tr, rs_struct, polish=polish)
    mu_rs = np.maximum(mu_rest, mu_tr)
    k_rs = int(np.argmax(mu_rs))
    rs = 1.0 / mu_rs[k_rs] if mu_rs[k_rs] > 0 else np.inf

    mu_rp = ssv_upper_bound(G_tr, structure, polish=polish)
    mu_rp = np.maximum(mu_rp, mu_rs)
    k_rp = int(np.argmax(mu_rp))
    rp = 1.0 / mu_rp[k_rp] if mu_rp[k_rp] > 0 else np.inf

    return MarginResult(M, C, float(rs), float(rp), float(freqs[k_rs]),
                        float(freqs[k_rp]), True)


def margins(grid: TuningGrid, n_agents: int, freqs=None, blocks=None,
            perf_weight=None, polish: bool = True, n_jobs: int = 1,
            cfg_kwargs=None) -> list[MarginResult]:
    """Margin map over the tuning grid; points are independent work items."""
    pts = grid.points()
    if freqs is None:
        freqs = default_frequency_grid()
    if blocks is None:
        blocks = default_blocks(n_agents)
    if perf_weight is None:
        perf_weight = performance_weight()
    fn = partial(margin_point, n_agents, freqs=freqs, blocks=blocks,
                 perf_weight=perf_weight, polish=polish, cfg_kwargs=cfg_kwargs)
    if n_jobs == 1:
        return [fn(M, C) for (M, C) in pts]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=n_jobs) as ex:
        return list(ex.map(fn, [M for M, _ in pts], [C for _, C in pts],
                           chunksize=4))


def sample_admissible_perturbation(rng, structure, mass_endpoint=None):
    """Random admissible Delta (complex, norm <= 1 per block) as a dense
    matrix matching the structure; the mass block can be pinned to an
    interval endpoint (+1 or -1)."""
    spans, ny, nu = _block_spans(structure)
    rs_blocks = [b for b in structure if b.name != "perf"]
    n_y = sum(b.dim_y for b in rs_blocks)
    n_u = sum(b.dim_u for b in rs_blocks)
    D = np.zeros((n_u, n_y), dtype=complex)
    r = c = 0
    for b in rs_blocks:
        if b.kind == "repeated":
            if b.name == "mass" and mass_endpoint is not None:
                delta = complex(mass_endpoint)
            else:
                delta = (rng.normal() + 1j * rng.normal()) / np.sqrt(2.0)
                if abs(delta) > 1.0:
                    delta /= abs(delta)
            D[c:c + b.dim_u, r:r + b.dim_y] = delta * np.eye(b.dim_y)
        else:
            Z = rng.normal(size=(b.dim_u, b.dim_y)) \
                + 1j * rng.normal(size=(b.dim_u, b.dim_y))
            s = np.linalg.svd(Z, compute_uv=False)[0]
            D[c:c + b.dim_u, r:r + b.dim_y] = Z / max(s, 1.0)
        r += b.dim_y
        c += b.dim_u
    return D
