"""N-Delta assembly, structured-singular-value bounds, and margin maps.

Robustness margins are the inverse of the peak structured singular value:
the stability margin uses the perturbation channels alone, the performance
margin augments them with a full fictitious block closing the weighted
disturbance-to-performance path. All blocks are treated as complex, which
upper-bounds the mixed real/complex value (conservative direction: the
reported safe region can only shrink).

The SSV upper bound is the largest singular value of D G D^-1 over
block-commuting diagonal scalings D. Balancing gives D at every frequency:
Osborne's fixed point, where each scaling group's row energy equals its
column energy, minimises the Frobenius norm of D G D^-1, a convex problem
in log D that a damped Newton method solves for all frequencies at once
(Cohen, Madry, Tsipras & Vladu, FOCS 2017). Near the peak a BFGS descent
on log D, with the gradient read off the top singular vectors, tightens
it further. Polish runs in decreasing balanced order and stops once the
next balanced value cannot raise the maximum: with no floor after at
least the eight largest (every frequency keeps a tight bound near the
peak), with a floor as soon as the next balanced value is at or below the
floor or the running maximum (only the peak is tight). A margin needs
only the peak, so margin_point bounds transport first with floor 0, then
rest with the transport peak as floor, then performance with the
stability peak as floor.
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
from .errors import ChannelMismatch, NonFiniteResponse, UnstableOperatingPoint
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


def _scaling_groups(structure):
    """Scaling group of each row and column channel, and the group count:
    one per entry of a repeated-scalar block (any diagonal commutes with
    delta I), one per full block."""
    row_group, col_group, ng = [], [], 0
    for b in structure:
        if b.kind == "repeated":
            row_group += range(ng, ng + b.dim_y)
            col_group += range(ng, ng + b.dim_y)
            ng += b.dim_y
        else:
            row_group += [ng] * b.dim_y
            col_group += [ng] * b.dim_u
            ng += 1
    return np.array(row_group, dtype=int), np.array(col_group, dtype=int), ng


def _scaled(M, logd, row_group, col_group):
    """D M D^-1 with d = exp(logd) per scaling group. A scaling that
    overflows or underflows leaves non-finite entries, silently: the caller
    counts such a trial as an infinite bound."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d = np.exp(logd)
        return (d[row_group][:, None] * M) / d[col_group][None, :]


def scaled_sv_gradient(M, logd, row_group, col_group):
    """Largest singular value sigma of D M D^-1 and its gradient in the
    log-scales, from the top singular vectors u, v of one SVD:
    d sigma / d log d_g = sigma (sum_{r in g} |u_r|^2 - sum_{c in g} |v_c|^2)
    (Packard & Doyle 1993). Exact where sigma is simple. A scaling that
    overflows gives (inf, 0)."""
    Ms, ng = _scaled(M, logd, row_group, col_group), len(logd)
    if not np.isfinite(Ms).all():  # LAPACK may not return on inf entries
        return np.inf, np.zeros(ng)
    U, s, Vh = np.linalg.svd(Ms, full_matrices=False)
    return s[0], s[0] * (np.bincount(row_group, np.abs(U[:, 0]) ** 2, ng)
                         - np.bincount(col_group, np.abs(Vh[0]) ** 2, ng))


def _descend(M, logd, row_group, col_group, tol):
    """Least bound met by BFGS on the log-scales from logd, the last one
    pinned. sigma has kinks where its top singular value is repeated, often
    at the minimum, so the line search bisects to the weak Wolfe conditions
    (Lewis & Overton, Math. Program. 2013). Stops when every derivative is
    below tol * sigma, the line search fails, or after 200 steps."""
    def f(x):
        s, g = scaled_sv_gradient(M, np.append(x, logd[-1]), row_group,
                                  col_group)
        return s, g[:-1]

    x = logd[:-1]
    fx, g = f(x)
    best = fx
    H = np.eye(x.size)
    for it in range(200):
        p = -H @ g
        gp = g @ p
        if not gp < 0.0 or np.max(np.abs(g)) <= tol * fx:
            break
        lo, hi, t = 0.0, np.inf, 1.0
        for _ in range(40):
            fn, gn = f(x + t * p)
            best = min(best, fn)
            if not fn <= fx + 1e-4 * t * gp:
                hi = t
            elif gn @ p < 0.9 * gp:
                lo = t
            else:
                break
            t = 0.5 * (lo + hi) if hi < np.inf else 2.0 * lo
        else:
            break
        s, y = t * p, gn - g
        x, fx, g = x + s, fn, gn
        sy = s @ y
        if sy > 0.0:
            if it == 0:
                H *= sy / (y @ y)
            Hy = H @ y
            H += ((1.0 + (y @ Hy) / sy) * np.outer(s, s)
                  - np.outer(s, Hy) - np.outer(Hy, s)) / sy
    return best


def _balance(G, row_group, col_group, ng, tol, max_steps):
    """Log-scales (F, ng) at Osborne's fixed point, every frequency at once.

    With u = 2 log d and E_ab the energy of G in the rows of group a and
    the columns of group b, the energy of D G D^-1 is the convex function
    sum_ab E_ab exp(u_a - u_b). Its gradient is each group's row energy
    minus its column energy, so the fixed point is its minimiser. Each
    damped Newton step is one stacked solve with the Hessian, the Laplacian
    of the scaled energies, then an Armijo backtracking search on the
    energy. The last group is pinned, and so is a group with no
    off-diagonal row or column energy, whose scaling would run off to
    infinity. A frequency drops out once a step lowers its energy by less
    than tol, relative, or when no step length lowers it; max_steps caps
    the steps. An accepted energy is finite, so every ratio d_a / d_b that
    meets a nonzero entry of G is finite too.
    """
    F = G.shape[0]
    cell = ((np.arange(F)[:, None, None] * ng + row_group[:, None]) * ng
            + col_group)
    E = np.bincount(cell.ravel(), (G.real ** 2 + G.imag ** 2).ravel(),
                    F * ng * ng).reshape(F, ng, ng)
    diag = np.arange(ng)
    off = E.copy()
    off[:, diag, diag] = 0.0
    pinned = (off.sum(axis=2) == 0.0) | (off.sum(axis=1) == 0.0)
    pinned[:, -1] = True
    u = np.zeros((F, ng))
    S = E.copy()  # E_ab exp(u_a - u_b) at the current u
    energy = S.sum(axis=(1, 2))
    active = ~pinned.all(axis=1)
    m = diag[:-1]  # the unknowns: every group but the last
    for _ in range(max_steps):
        k = np.flatnonzero(active)
        if k.size == 0:
            break
        Sk, pin = S[k], pinned[k][:, :-1]
        W = Sk + Sk.transpose(0, 2, 1)
        H = -W[:, :-1, :-1]
        H[pin[:, :, None] | pin[:, None, :]] = 0.0
        # a pinned group gets an identity row; the ridge keeps the solve
        # regular where free groups have no path to a pinned one
        H[:, m, m] = np.where(pin, 1.0, (W.sum(axis=2) - W[:, diag, diag])
                              [:, :-1] * (1.0 + 1e-12) + 1e-300)
        g = np.where(pin, 0.0, (Sk.sum(axis=2) - Sk.sum(axis=1))[:, :-1])
        p = np.zeros((k.size, ng))
        p[:, :-1] = -np.linalg.solve(H, g[..., None])[..., 0]
        slope = (g * p[:, :-1]).sum(axis=1)
        t = np.ones(k.size)
        todo = np.arange(k.size)
        for _ in range(40):
            kt = k[todo]
            ut = u[kt] + t[todo, None] * p[todo]
            St = E[kt] * np.exp(ut[:, :, None] - ut[:, None, :])
            et = St.sum(axis=(1, 2))
            # slack for the rounding of the sums, so that the last Newton
            # step is taken though it moves the energy by less
            ok = (et <= energy[kt] * (1.0 + 1e-15)
                  + 1e-4 * t[todo] * slope[todo])
            acc = kt[ok]
            active[acc] = energy[acc] - et[ok] >= tol * energy[acc]
            u[acc], S[acc], energy[acc] = ut[ok], St[ok], et[ok]
            t[todo[~ok]] *= 0.5
            todo = todo[~ok]
            if todo.size == 0:
                break
        active[k[todo]] = False  # no step length lowers the energy
    return 0.5 * u


def ssv_upper_bound(G, structure, polish: bool = True,
                    balance_tol: float = 1e-9, max_balance: int = 200,
                    polish_tol: float = 1e-8,
                    floor: float | None = None) -> np.ndarray:
    """D-scaled upper bound of the structured singular value per frequency.

    G has shape (F, ny, nu) and must be finite; the structure lists the
    blocks in channel order. One positive scaling per scaling group, the
    last pinned to 1. All frequencies are balanced at once by damped Newton
    steps on the Frobenius energy: a frequency stops once a step lowers its
    energy by less than balance_tol, relative, and after max_balance steps.
    No frequency starts from another's result, so each balanced value does
    not depend on the rest of the grid. With polish, frequencies then
    descend by BFGS on the log-scales (analytic gradient) until every
    relative derivative is below polish_tol, in decreasing balanced order:

    * floor None: the eight largest, then on while the next balanced value
      exceeds the largest polished one;
    * floor given: until the next balanced value is at or below the floor
      or the largest polished one. Only the maximum over frequency (with
      the floor) is then tight; use it when only the peak matters.

    Any scaling gives a valid upper bound, so a polished frequency keeps
    the lesser of its two values, an unpolished one its balanced value, and
    an early stop stays conservative.
    """
    G = np.asarray(G)
    if G.ndim == 2:
        G = G[None, :, :]
    if not np.isfinite(G).all():  # LAPACK may not return on inf entries
        raise NonFiniteResponse("G has a non-finite entry")
    row_group, col_group, ng = _scaling_groups(structure)
    ny, nu = len(row_group), len(col_group)
    if G.shape[1] != ny or G.shape[2] != nu:
        raise ChannelMismatch(
            f"matrix {G.shape[1:]} does not match structure ({ny}, {nu})")
    with np.errstate(over="ignore", invalid="ignore"):
        logd = _balance(G, row_group, col_group, ng, balance_tol,
                        max_balance)
    # the ratio d_r / d_c at once: d_r alone may overflow where it is not
    scale = np.exp(logd[:, row_group, None] - logd[:, None, col_group])
    mu = np.linalg.svd(G * scale, compute_uv=False)[:, 0]
    if polish and ng > 1:
        top = -np.inf if floor is None else floor
        for i, k in enumerate(np.argsort(mu)[::-1]):
            if mu[k] <= top and (floor is not None or i >= 8):
                break  # no frequency left can raise the maximum
            mu[k] = min(mu[k], _descend(G[k], logd[k], row_group, col_group,
                                        polish_tol))
            top = max(top, mu[k])
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

    Only the peaks set the margins, so the bounds are polished with a
    floor, in this order: transport stability with floor 0, rest stability
    with the transport peak, performance with the stability peak. A
    frequency is polished only where it could raise the peak, so the
    margins are those of polishing every frequency.
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
    mu_tr = ssv_upper_bound(G11_tr, rs_struct, polish=polish, floor=0.0)
    mu_rest = ssv_upper_bound(G11_rest, rs_struct, polish=polish,
                              floor=mu_tr.max())
    mu_rs = np.maximum(mu_rest, mu_tr)
    k_rs = int(np.argmax(mu_rs))
    rs = 1.0 / mu_rs[k_rs] if mu_rs[k_rs] > 0 else np.inf

    mu_rp = ssv_upper_bound(G_tr, structure, polish=polish,
                            floor=mu_rs.max())
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
