"""N-Delta assembly, structured-singular-value bounds, and margin maps.

Robustness margins are the inverse of the peak structured singular value:
the stability margin uses the perturbation channels alone, the performance
margin augments them with a full fictitious block closing the weighted
disturbance-to-performance path. All blocks are treated as complex, which
upper-bounds the mixed real/complex value (conservative direction: the
reported safe region can only shrink). The N-Delta interconnection is
evaluated as N(jw) = diag(W(jw)) P(jw) on the plant's own states: the SISO
weights scale the rows of P's response and add no state.

The SSV upper bound is the largest singular value of D G D^-1 over
block-commuting diagonal scalings D, and rho(G) <= mu(G) <=
sigma_max(D G D^-1) <= |D G D^-1|_F for every admissible D (Packard &
Doyle, Automatica 1993). Balancing gives D at every frequency: Osborne's
fixed point, where each scaling group's row energy equals its column
energy, minimises the Frobenius norm, a convex problem in log D that a
damped Newton method solves for a chunk of frequencies at once (Cohen,
Madry, Tsipras & Vladu, FOCS 2017). Near the peak a second-order descent
polishes it: sigma_max(D G D^-1) is convex in log D (Sezginer & Overton,
IEEE TAC 1990), with kinks where it is repeated, so each step solves the
model of Overton & Womersley (Math. Program. 1995) for the singular values
near the top, and the descent ends on a stationarity certificate. A margin
needs only the peak, so margin_point gives each SSV call a proven lower
bound on it as a floor, below which a frequency is neither balanced,
bounded by sigma_max nor polished.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np

from .analysis import (
    AnalysisConfig,
    build_closed_loop,
    check_n_agents,
    delta_channels,
    linearize,
    margin_plant,
)
from .errors import ChannelMismatch, NonFiniteResponse, UnstableOperatingPoint
from .lti import CHUNK_ENTRIES, LinearSystem, WeightedPlant
from .mav import real_array, real_entries
from .uncertainty import (
    UncertaintyBlock,
    default_weight_att,
    default_weight_est,
    default_weight_mpc,
    performance_weight,
)

# Relative slack of margin_point's lower bounds on a peak, for the rounding
# of the spectral radius and singular value that give them.
FLOOR_SLACK = 1e-9
BALANCE_TOL = 1e-9
MAX_BALANCE = 200
POLISH_TOL = 1e-8


def default_blocks(n_agents: int) -> list[UncertaintyBlock]:
    """One repeated-scalar block per Delta channel of the analysis, in
    :func:`analysis.delta_channels` order: 2 + 2 N + (N - 1) blocks. The
    parametric mass and inertia blocks are normalized (no weight); the
    mpc, att and est blocks carry the frozen identified weights."""
    weights = {"mpc": default_weight_mpc(), "att": default_weight_att(),
               "est": default_weight_est()}
    return [UncertaintyBlock(name, "repeated", size, size,
                             weights.get(name.split("_")[0]))
            for name, size in delta_channels(n_agents)]


def assemble_n_delta(plant: LinearSystem, blocks, perf_weight=None):
    """N = W P in the canonical upper-LFT arrangement.

    Selects the plant's inputs [u_blocks..., w] and outputs
    [y_blocks..., z_lat...] once, and gives each output entry its SISO
    weight: a block's weight (copied per entry, or a list of one per entry)
    on its y channel, perf_weight on every z_lat entry. N is the weighted
    plant :class:`lti.WeightedPlant`, evaluated as diag(W(jw)) P(jw) on the
    plant's own states. Returns (N, structure); the structure appends the
    full performance block mapping the weighted outputs back to the
    disturbance.
    """
    z_names = [name for name, _ in plant.outputs if name.startswith("z_lat")]
    if not z_names:
        raise ChannelMismatch("no outputs with prefix 'z_lat'")
    P = plant.subsystem(out_names=[f"y_{b.name}" for b in blocks] + z_names,
                        in_names=[f"u_{b.name}" for b in blocks] + ["w"])
    weights = []  # per output entry of P: its SISO weight, or None
    for (name, k), weight in zip(P.outputs, [b.weight for b in blocks]
                                 + [perf_weight] * len(z_names)):
        entry = (list(weight) if isinstance(weight, (list, tuple))
                 else [weight] * k)
        if len(entry) != k:
            raise ChannelMismatch(
                f"channel {name!r} has {k} entries, got {len(entry)} weights")
        weights += entry
    structure = list(blocks) + [UncertaintyBlock(
        "perf", "full", dim_y=sum(k for _, k in P.outputs[len(blocks):]),
        dim_u=P.inputs[-1][1], weight=None)]
    return WeightedPlant(P, weights), structure


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


@cache
def _hermitian_basis(r):
    """Rows: an orthonormal basis of the Hermitian r x r matrices in the
    trace inner product, flattened: e_i e_i^T, (E_ij + E_ji) / sqrt 2 and
    i (E_ij - E_ji) / sqrt 2 for i < j."""
    i, j = np.triu_indices(r, 1)
    k, m, h = np.arange(r), r + np.arange(i.size), 2 ** -0.5
    E = np.zeros((r * r, r, r), complex)
    E[k, k, k], E[m, i, j], E[m, j, i] = 1.0, h, h
    E[m + i.size, i, j], E[m + i.size, j, i] = 1j * h, -1j * h
    E.setflags(write=False)  # every caller shares it
    return E.reshape(r * r, r * r)


def _hvec(X):
    """Coordinates of Hermitian matrices (..., r, r) in that basis."""
    r = X.shape[-1]
    return (X.reshape(X.shape[:-2] + (r * r,))
            @ _hermitian_basis(r).conj().T).real


def _hmat(z, r):
    """The Hermitian r x r matrices with coordinates z (..., r^2)."""
    return (z @ _hermitian_basis(r)).reshape(z.shape[:-1] + (r, r))


def _sv_model(U, s, V, Pr, Pc, r, Z):
    """The r largest singular values of A = U diag(s) V^H (full SVD) move
    as the eigenvalues of diag(s_r) + sum_g d_g F_g, to first order in the
    free log-scales d (Pr, Pc: the groups' row and column indicators). W
    is the Hessian of tr(Z S), S the second-order term: A's own second
    derivative and the coupling to each other pair s_j and -s_j, a null
    vector of a rectangular A counting as s_j = 0."""
    n, ny, nu = Pr.shape[0], U.shape[0], V.shape[0]
    sv = np.zeros(max(ny, nu))
    sv[:s.size] = s
    sa = sv[:r, None]
    Pu = np.zeros((n, r, sv.size), complex)  # U_r^H P_g U, padded
    Qv = np.zeros((n, r, sv.size), complex)  # V_r^H Q_g V, padded
    Pu[..., :ny] = (Pr @ (U[:, :r, None].conj() * U[:, None]).reshape(ny, -1)
                    ).reshape(n, r, ny)
    Qv[..., :nu] = (Pc @ (V[:, :r, None].conj() * V[:, None]).reshape(nu, -1)
                    ).reshape(n, r, nu)
    R, C = Pu * sv - sa * Qv, Pu * sa - sv * Qv
    with np.errstate(divide="ignore"):
        wp = np.where((np.arange(sv.size) >= r) & (sa > sv), 1 / (sa - sv), 0)
    W = -((Pu * sv).reshape(n, -1) @ (Z @ Qv).reshape(n, -1).conj().T).real
    for c, w in ((C + R, wp), (C - R, 1.0 / (sa + sv))):
        W += 0.25 * ((w * c).reshape(n, -1)
                     @ (Z @ c).reshape(n, -1).conj().T).real
    W += W.T
    W[np.diag_indices(n)] += np.einsum(
        "ba,gab->g", Z, Pu[..., :r] * sa.T + sa * Qv[..., :r]).real
    return 0.5 * (sa + sa.T) * (Pu[..., :r] - Qv[..., :r]), W


def _spectraplex_qp(Q, s, r):
    """Coordinates z of the Z >= 0 with tr Z = 1 maximising s.z - z.Q.z / 2:
    the KKT solution on the face of all Z if it is optimal; else a log-det
    barrier path to a duality gap of 1e-13 of the largest |s|, finished on
    the face it ends near."""
    def face(P):  # the KKT solution on the face P Y P^H, and if optimal
        k = P.shape[1]
        B = _hvec(P @ _hermitian_basis(k).reshape(-1, k, k) @ P.conj().T).T
        e = _hvec(np.eye(k))[:, None]
        K = np.block([[B.T @ Q @ B, e], [e.T, np.zeros((1, 1))]])
        rhs = np.append(B.T @ s, 1.0)
        x = np.linalg.lstsq(K, rhs)[0]
        z, tol = B @ x[:-1], 1e-10 * np.abs(rhs).max()
        return z, (np.abs(K @ x - rhs).max() <= tol  # else unbounded
                   and np.linalg.eigvalsh(_hmat(x[:-1], k))[0] >= 0.0
                   and np.linalg.eigvalsh(_hmat(s - Q @ z, r))[-1]
                   <= x[-1] + tol)  # no ascent off the face

    # with tr Z = 1 a shift of s along I moves no maximiser: the
    # tolerances then scale with the spread of s, not its level
    scale, s = np.abs(s).max(), s - s[:r].max() * _hvec(np.eye(r))
    z, ok = face(np.eye(r))
    if ok:
        return z
    q, E = r * r, _hermitian_basis(r).reshape(-1, r, r)
    K = np.zeros((q + 1, q + 1))
    K[:q, q] = K[q, :q] = _hvec(np.eye(r))
    z, mu = K[:q, q] / r, np.abs(Q).max() + 1e-300
    while mu > 1e-13 * scale / r:
        Zi = np.linalg.inv(_hmat(z, r))
        K[:q, :q] = Q + mu * _hvec(Zi @ E @ Zi).T
        if not np.isfinite(K).all():  # LAPACK may not return on them
            break
        dz = np.linalg.solve(K, np.append(s - Q @ z + mu * _hvec(Zi), 0))[:q]
        if not np.isfinite(dz).all():
            break
        lam = np.linalg.eigvals(Zi @ _hmat(dz, r)).real.min()
        z = z + min(1.0, 0.9 / max(-lam, 1e-300)) * dz  # keeps Z > 0
        mu *= 0.1 if lam > -0.9 else 0.5
    lam, V = np.linalg.eigh(_hmat(z, r))
    zf, ok = face(V[:, lam > 1e-6 * lam[-1]])
    return zf if ok else z


def _descend(M, logd, row_group, col_group, stop):
    """Least bound met by a second-order descent on the log-scales from
    logd, the last one pinned. Each step takes the r <= 8 singular values
    within 1% of sigma and the d of min w + d.W.d / 2 subject to
    diag(s_r) + sum_g d_g F_g <= w I (_sv_model), through its dual Z
    (_spectraplex_qp): d = -W^-1 (tr Z F_g)_g, W the Hessian at the last
    step's Z, made positive definite; Newton's step for r = 1. A step moves
    a log-scale by at most 1, and is halved until sigma falls. If ten
    halvings fail, W = sigma I gives the least-norm subgradient instead,
    and if that fails too the descent stops. It stops on a certificate,
    every |tr(Z F_g)| <= POLISH_TOL * sigma and a model fall below 1e-5
    POLISH_TOL of sigma (the gradient is small all the way to an optimum
    at infinite scalings), or after 100 steps. Every trial counts, an
    overflowing one as an infinite bound, and it returns once below stop."""
    n = logd.size - 1
    Pr, Pc = ((g == np.arange(n)[:, None]) * 1.0
              for g in (row_group, col_group))
    best, Z = np.inf, np.zeros((1, 1))  # no last step yet
    Ur, Vr = np.zeros((M.shape[0], 1)), np.zeros((M.shape[1], 1))
    for _ in range(100):
        U, s, Vh = np.linalg.svd(_scaled(M, logd, row_group, col_group))
        V = Vh.conj().T
        best = min(best, s[0])
        if best < stop or s[0] == 0.0:
            break
        r = min(int(np.sum(s >= 0.99 * s[0])), 8)
        # the last step's Z in these singular vectors, if they hold half
        T = U[:, :r].conj().T @ Ur + V[:, :r].conj().T @ Vr
        Zr = T @ Z @ T.conj().T
        Zr = Zr if np.trace(Zr).real > 2.0 else np.diag(np.arange(r) == 0) + 0j
        F, W = _sv_model(U, s, V, Pr, Pc, r, Zr / np.trace(Zr).real)
        if not np.isfinite(W).all():  # LAPACK may not return on them
            break
        Fm = _hvec(F)
        W += max(1e-12 * s[0] - np.linalg.eigvalsh(W)[0], 0.0) * np.eye(n)
        for W in (W, s[0] * np.eye(n)):  # else the least-norm subgradient
            WF = np.linalg.solve(W, Fm)
            z = _spectraplex_qp(Fm.T @ WF, _hvec(np.diag(s[:r] + 0j)), r)
            d = -WF @ z
            w = np.linalg.eigvalsh(np.diag(s[:r]) + np.tensordot(d, F, 1))[-1]
            if (np.abs(Fm @ z).max() <= POLISH_TOL * s[0]
                    and s[0] - w <= 1e-5 * POLISH_TOL * s[0]):
                return best  # certified
            t = min(1.0, 1.0 / np.abs(d).max())
            for _ in range(10 if w < s[0] else 0):
                trial = logd + np.append(t * d, 0.0)
                A = _scaled(M, trial, row_group, col_group)
                st = (np.linalg.svd(A, compute_uv=False)[0]
                      if np.isfinite(A).all() else np.inf)
                best = min(best, st)
                if best < stop:
                    return best
                if st <= s[0] + 1e-4 * t * (w - s[0]):
                    break
                t *= 0.5
            else:
                continue  # no fall: the next W
            break
        else:
            break  # neither step falls
        logd, Z, Ur, Vr = trial, _hmat(z, r), U[:, :r], V[:, :r]
    return best


def _balance(G, row_group, col_group, ng, floor):
    """Log-scales (F, ng) at Osborne's fixed point, every frequency at once,
    and the Frobenius norm of D G D^-1 at them.

    With u = 2 log d and E_ab the energy of G in the rows of group a and
    the columns of group b, the energy of D G D^-1 is the convex function
    sum_ab E_ab exp(u_a - u_b). Its gradient is each group's row energy
    minus its column energy, so the fixed point is its minimiser. Each
    damped Newton step is one stacked solve with the Hessian, the Laplacian
    of the scaled energies, then an Armijo backtracking search on the
    energy. The last group is pinned, and so is a group with no
    off-diagonal row or column energy, whose scaling would run off to
    infinity. A frequency drops out once a step lowers its energy by less
    than BALANCE_TOL, relative, when no step length lowers it, or before a
    step once its Frobenius norm, the square root of its energy, is below
    the floor; MAX_BALANCE caps the steps. An accepted energy is finite,
    so every ratio d_a / d_b that meets a nonzero entry of G is finite too.
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
    for _ in range(MAX_BALANCE):
        active &= np.sqrt(energy) >= floor  # the energy only falls
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
            active[acc] = energy[acc] - et[ok] >= BALANCE_TOL * energy[acc]
            u[acc], S[acc], energy[acc] = ut[ok], St[ok], et[ok]
            t[todo[~ok]] *= 0.5
            todo = todo[~ok]
            if todo.size == 0:
                break
        active[k[todo]] = False  # no step length lowers the energy
    return 0.5 * u, np.sqrt(energy)


def ssv_upper_bound(G, structure, polish: bool = True,
                    floor: float | None = None) -> np.ndarray:
    """D-scaled upper bound of the structured singular value per frequency.

    G has shape (F, ny, nu) and must be finite; the structure lists the
    blocks in channel order. One positive scaling per scaling group, the
    last pinned to 1. The frequencies are balanced (_balance) in stacked
    chunks, each (k, ny, nu) temporary within lti.CHUNK_ENTRIES entries;
    none starts from another's result, so each balanced value depends
    neither on the rest of the grid nor on the chunks. With polish, they
    then descend (_descend) in decreasing balanced order:

    * floor None: the eight largest, then on while the next balanced value
      exceeds the largest polished one. The tests' every-frequency
      references and POLISHED_DIGESTS use this rule: polishing every
      frequency doubles their time, polishing the peak alone moves them;
    * floor given: until the next balanced value is at or below the floor
      or the running maximum, and each descent stops as soon as it falls
      below that maximum. Only the maximum over frequency (with the floor)
      is then tight, at the frequencies that set it; every other value lies
      between its polished and its balanced value, or is a Frobenius norm
      below the floor. Use it when only the peak matters.

    A floor also prunes, with or without polish: a frequency whose
    |D G D^-1|_F is below it, at D = I or before a balancing step, stops
    there and keeps that norm, with no sigma_max SVD. The energy only falls
    while balancing, so its balanced value would lie below the floor too.

    Any scaling gives a valid upper bound, so a polished frequency keeps
    the lesser of its two values, an unpolished one its balanced value, and
    an early stop stays conservative. A stopped descent ends below the
    running maximum, where the full descent would end too, so the maximum
    and its frequency are those of descending to the end. polish=False
    stays only for the benchmark's tracer, which times the balance with it.
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
    # every step is per frequency, so the chunks move no bit
    step = max(1, CHUNK_ENTRIES // (ny * nu))
    # a frequency whose |D G D^-1|_F is below the floor, at D = I or at a
    # balancing step, keeps that bound: it cannot set the peak
    low = 0.0 if floor is None else floor
    logd, mu = np.empty((G.shape[0], ng)), np.linalg.norm(G, axis=(1, 2))
    live = np.flatnonzero(mu >= low)
    for s in range(0, live.size, step):
        c = live[s:s + step]
        with np.errstate(over="ignore", invalid="ignore"):
            logd[c], mu[c] = _balance(G[c], row_group, col_group, ng, low)
        c = c[mu[c] >= low]
        # the ratio d_r / d_c at once: d_r alone may overflow where it is not
        L = logd[c]
        scale = np.exp(L[:, row_group, None] - L[:, None, col_group])
        mu[c] = np.linalg.svd(G[c] * scale, compute_uv=False)[:, 0]
    if polish and ng > 1:
        top = -np.inf if floor is None else floor
        for i, k in enumerate(np.argsort(mu)[::-1]):
            if mu[k] <= top and (floor is not None or i >= 8):
                break  # no frequency left can raise the maximum
            # with a floor, a frequency that falls below top cannot set the
            # maximum: its descent stops there
            mu[k] = min(mu[k], _descend(G[k], logd[k], row_group, col_group,
                                        -np.inf if floor is None else top))
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
        for name in ("M_values", "C_values"):
            if not real_entries(getattr(self, name)):
                raise ValueError(f"{name} must hold numbers")
            values = np.asarray(getattr(self, name), dtype=float)
            if values.ndim != 1 or values.size == 0:
                raise ValueError(f"{name} must be a nonempty 1-D list")
            if not np.all((values >= 0) & (values <= 30)):  # NaN fails too
                raise ValueError("tuning sets live in [0, 30]")
            if np.unique(values).size != values.size:
                raise ValueError(f"{name} repeats a value")
            object.__setattr__(self, name, np.sort(values))

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


def _peak_floors(G, structure):
    """Lower bounds on the peak over frequency of mu(G11), G's stability
    channels, and of mu(G), each lowered by FLOOR_SLACK for rounding.

    mu(G11) >= rho(G11), because delta I is an admissible perturbation of
    the square stability channels; rho is taken at the three frequencies
    with the largest Frobenius norm of G11. mu(G) >= sigma_max(G22), the
    disturbance-to-performance block, because a perturbation of the
    performance block alone is admissible.
    """
    G11, _ = rs_partition(G, structure)
    top = np.argsort(np.linalg.norm(G11, axis=(1, 2)))[-3:]
    rho = np.abs(np.linalg.eigvals(G11[top])).max()
    G22 = G[:, G11.shape[1]:, G11.shape[2]:]
    sigma = np.linalg.svd(G22, compute_uv=False)[:, 0].max()
    return (1.0 - FLOOR_SLACK) * rho, (1.0 - FLOOR_SLACK) * sigma


def margin_point(n_agents: int, M: float, C: float, freqs=None, blocks=None,
                 perf_weight=None, polish: bool = True) -> MarginResult:
    """Robust stability and performance margins of one tuning point.

    Stability: peak SSV of the perturbation channels, worst case over the
    rest and transport operating points. Performance: SSV with the full
    performance block appended, at the transport point (performance cannot
    exceed stability, so the reported rp is clamped by rs). Tunings with an
    unstable nominal loop (including the degenerate M = 0 / C = 0 edge of
    the tuning set) report margin 0.

    Only the peaks set the margins, so each SSV call gets a floor, a
    proven lower bound on the peak it feeds, in this order: transport
    stability with the largest spectral radius of G11 near its peak, rest
    stability with the transport peak, performance with the larger of the
    stability peak and the largest sigma_max of the performance block
    (see _peak_floors). A call balances a frequency only while its
    Frobenius norm |D G D^-1|_F reaches the floor, takes sigma_max only
    where it still does and polishes only where the peak could rise; every
    other frequency keeps its last Frobenius norm, below the floor. The
    margins and peak frequencies are those of bounding and polishing
    every frequency, bit for bit. The rest plant is linearized once: the
    transport pre-roll takes its RK4 step from it. n_agents must count a
    team (check_n_agents), M and C must be finite numbers, and the
    frequency grid freqs must be nonempty, finite and nonnegative, at every
    tuning. polish stays only because the benchmark passes it; margins and
    grid_sweep always polish.
    """
    # a degenerate tuning returns early, so the arguments are checked first
    check_n_agents(n_agents)
    for name, value in (("M", M), ("C", C)):
        real_array(name, value, ())
    freqs = np.asarray(default_frequency_grid() if freqs is None else freqs,
                       dtype=float)
    if not (freqs.ndim == 1 and freqs.size and np.isfinite(freqs).all()
            and (freqs >= 0.0).all()):
        raise ValueError("the frequency grid freqs must be a nonempty 1-D "
                         "list of finite frequencies >= 0")
    zero = MarginResult(M, C, 0.0, 0.0, np.nan, np.nan, False)
    if M <= 0.0 or C <= 0.0:
        return zero
    cfg = AnalysisConfig(n_agents=n_agents, tuning_M=M, tuning_C=C)
    if blocks is None:
        blocks = default_blocks(n_agents)
    if perf_weight is None:
        perf_weight = performance_weight()

    rest = build_closed_loop(cfg)
    rest_d, ok = margin_plant(rest)
    if not ok:
        return zero
    try:
        transport = linearize(cfg, "transport", rest=rest)
    except UnstableOperatingPoint:
        return zero
    tr_d, ok = margin_plant(transport)
    if not ok:
        return zero

    N_rest, structure = assemble_n_delta(rest_d, blocks, perf_weight)
    N_tr, _ = assemble_n_delta(tr_d, blocks, perf_weight)
    # only the rest point's Delta channels are read
    G11_rest = N_rest.subsystem(
        out_names=[f"y_{b.name}" for b in blocks],
        in_names=[f"u_{b.name}" for b in blocks]).freq_response(freqs)
    G_tr = N_tr.freq_response(freqs)
    G11_tr, rs_struct = rs_partition(G_tr, structure)

    floor_tr, floor_rp = _peak_floors(G_tr, structure)
    mu_tr = ssv_upper_bound(G11_tr, rs_struct, polish, floor=floor_tr)
    mu_rest = ssv_upper_bound(G11_rest, rs_struct, polish,
                              floor=mu_tr.max())
    mu_rs = np.maximum(mu_rest, mu_tr)
    k_rs = int(np.argmax(mu_rs))
    rs = 1.0 / mu_rs[k_rs] if mu_rs[k_rs] > 0 else np.inf

    mu_rp = ssv_upper_bound(G_tr, structure, polish,
                            floor=max(mu_rs.max(), floor_rp))
    mu_rp = np.maximum(mu_rp, mu_rs)
    k_rp = int(np.argmax(mu_rp))
    rp = 1.0 / mu_rp[k_rp] if mu_rp[k_rp] > 0 else np.inf

    return MarginResult(M, C, float(rs), float(rp), float(freqs[k_rs]),
                        float(freqs[k_rp]), True)


def margins(grid: TuningGrid, n_agents: int, freqs=None,
            n_jobs: int = 1) -> list[MarginResult]:
    """Margin map over the tuning grid with the default blocks and
    performance weight; points are independent work items."""
    pts = grid.points()
    fn = partial(margin_point, n_agents, freqs=freqs)
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
