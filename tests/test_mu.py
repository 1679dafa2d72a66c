import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from swarmlift.analysis import (
    MASS_UNCERTAINTY,
    AnalysisConfig,
    build_closed_loop,
    linearize,
    margin_plant,
)
from swarmlift import lti
from swarmlift import mu as mu_mod
from swarmlift.errors import (ChannelMismatch, NonFiniteResponse,
                              UnstableOperatingPoint)
from swarmlift.lti import LinearSystem, siso_tf
from swarmlift.mu import (
    TuningGrid,
    assemble_n_delta,
    default_blocks,
    default_frequency_grid,
    margin_point,
    _balance,
    _scaled,
    _scaling_groups,
    rs_partition,
    sample_admissible_perturbation,
    ssv_upper_bound,
)
from swarmlift.oracles import _close_delta, series_realization
from swarmlift.uncertainty import UncertaintyBlock, performance_weight

FREQS = default_frequency_grid(60)


def _assembled(n=2, M=8.0, C=6.0):
    cfg = AnalysisConfig(n_agents=n, tuning_M=M, tuning_C=C)
    plant, ok = margin_plant(build_closed_loop(cfg))
    assert ok
    return assemble_n_delta(plant, default_blocks(n), performance_weight())


def test_block_count_enumeration():
    for n in (2, 3, 5):
        blocks = default_blocks(n)
        assert len(blocks) == 2 + 2 * n + (n - 1)


def test_lft_closure_identity():
    # N(jw) = diag(W_k(jw)) P(jw) on the selected channels against the
    # response of N's state-space realization, with every weight in series
    rng = np.random.default_rng(3)
    w_test = np.exp(rng.uniform(np.log(1e-3), np.log(1e2), 20))
    for n, M, C, point in [(2, 8.0, 6.0, "rest"), (3, 4.0, 12.0, "transport")]:
        cfg = AnalysisConfig(n_agents=n, tuning_M=M, tuning_C=C)
        sys = (build_closed_loop(cfg) if point == "rest"
               else linearize(cfg, point))
        plant, ok = margin_plant(sys)
        assert ok
        N, _ = assemble_n_delta(plant, default_blocks(n), performance_weight())
        ref = series_realization(N).freq_response(w_test)
        G = N.freq_response(w_test)
        assert np.max(np.abs(G - ref)) <= 1e-12 * np.max(np.abs(ref)), point


def _stable(rng, n):
    A = rng.normal(size=(n, n))
    return A - (np.linalg.eigvals(A).real.max() + rng.uniform(0.1, 2.0)) \
        * np.eye(n)


def _random_weight(rng):
    k = int(rng.integers(1, 4))
    return LinearSystem(_stable(rng, k), rng.normal(size=(k, 1)),
                        rng.normal(size=(1, k)), rng.normal(size=(1, 1)))


@seed(7)
@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3),
                          st.sampled_from(["none", "shared", "list",
                                           "static"])),
                min_size=1, max_size=4),
       st.integers(1, 12), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_n_delta_response_equals_its_series_realization(channels, n, n_w,
                                                        rng_seed):
    # random stable plants; unweighted rows, one weight shared by several
    # rows, a list of one weight per entry and a static gain, which is
    # realized with one all-zero state
    rng = np.random.default_rng(rng_seed)
    shared = _random_weight(rng)
    static = siso_tf([rng.uniform(0.1, 2.0)], [1.0])
    assert static.n_states == 1 and not static.A.any()
    blocks = [UncertaintyBlock(f"b{i}", "repeated", k, k, {
        "none": None, "shared": shared, "static": static,
        "list": [_random_weight(rng) for _ in range(k)]}[kind])
        for i, (k, kind) in enumerate(channels)]
    ny = sum(k for k, _ in channels)
    plant = LinearSystem(
        _stable(rng, n), rng.normal(size=(n, ny + n_w)),
        rng.normal(size=(ny + 2, n)), rng.normal(size=(ny + 2, ny + n_w)),
        inputs=[(f"u_b{i}", k) for i, (k, _) in enumerate(channels)]
        + [("w", n_w)],
        outputs=[(f"y_b{i}", k) for i, (k, _) in enumerate(channels)]
        + [("z_lat_0", 2)])
    N, _ = assemble_n_delta(plant, blocks, shared)
    w = np.logspace(-2.0, 2.0, 15)
    ref = series_realization(N).freq_response(w)
    G = N.freq_response(w)
    assert G.shape == ref.shape == (w.size, ny + 2, ny + n_w)
    assert np.max(np.abs(G - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_n_delta_response_evaluates_each_weight_once(monkeypatch):
    # one response for the plant and one per distinct weight: mpc, the
    # lateral thrust weight (both lateral axes), the vertical one, est and
    # the performance weight
    N, _ = _assembled(3, 4.0, 12.0)
    solved = []

    def counted(sys, w):
        solved.append(sys)
        return response(sys, w)

    response = lti._response
    monkeypatch.setattr(lti, "_response", counted)
    N.freq_response(FREQS)
    assert len(solved) == 6


def test_assemble_rejects_mismatched_weights():
    plant, _ = margin_plant(build_closed_loop(AnalysisConfig(n_agents=2)))
    blocks = default_blocks(2)
    lag = blocks[2].weight  # a SISO weight
    short = UncertaintyBlock("att_0", "repeated", 3, 3, [lag, lag])
    with pytest.raises(ChannelMismatch, match="3 entries, got 2"):
        assemble_n_delta(plant, blocks[:4] + [short] + blocks[5:],
                         performance_weight())
    mimo = LinearSystem(-np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))
    wide = UncertaintyBlock("mpc_0", "repeated", 3, 3, mimo)
    with pytest.raises(ChannelMismatch, match="SISO"):
        assemble_n_delta(plant, blocks[:2] + [wide] + blocks[3:],
                         performance_weight())
    no_z = plant.subsystem(out_names=[name for name, _ in plant.outputs
                                      if not name.startswith("z_lat")])
    with pytest.raises(ChannelMismatch, match="z_lat"):
        assemble_n_delta(no_z, blocks, performance_weight())


def test_ssv_single_full_block_is_sigma_max():
    rng = np.random.default_rng(1)
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    mu = ssv_upper_bound(M[None], [UncertaintyBlock("all", "full", 4, 4)])
    assert_allclose(mu[0], np.linalg.svd(M, compute_uv=False)[0], rtol=1e-9)


def test_ssv_scaling_invariance(monkeypatch):
    G11, struct = rs_partition(*(lambda nd: (nd[0].freq_response([0.5, 3.0]),
                                             nd[1]))(_assembled()))
    # apply a block-commuting diagonal similarity
    r = c = 0
    ny = sum(b.dim_y for b in struct)
    nu = sum(b.dim_u for b in struct)
    row = np.ones(ny)
    col = np.ones(nu)
    rng = np.random.default_rng(7)
    for b in struct:
        d = np.exp(rng.uniform(-1.0, 1.0, b.dim_y))
        row[r:r + b.dim_y] = d
        col[c:c + b.dim_u] = d
        r += b.dim_y
        c += b.dim_u
    G_scaled = row[None, :, None] * G11 / col[None, None, :]
    for name, tight in (("BALANCE_TOL", 1e-15), ("MAX_BALANCE", 100),
                        ("POLISH_TOL", 1e-12)):
        monkeypatch.setattr(mu_mod, name, tight)
    mu0 = ssv_upper_bound(G11, struct)
    mu1 = ssv_upper_bound(G_scaled, struct)
    assert np.max(np.abs(mu1 - mu0) / mu0) < 1e-6


def test_ssv_dominates_spectral_radius():
    N, struct = _assembled()
    G = N.freq_response(FREQS)
    G11, rs_struct = rs_partition(G, struct)
    mu = ssv_upper_bound(G11, rs_struct)
    rho = np.array([np.max(np.abs(np.linalg.eigvals(G11[k])))
                    for k in range(len(FREQS))])
    assert np.all(mu >= rho - 1e-9)


def _model_at(M, logd, row_group, col_group, r, Z):
    """Singular values and the cluster model of D M D^-1 at logd."""
    n = logd.size - 1
    U, s, Vh = np.linalg.svd(_scaled(M, logd, row_group, col_group))
    Pr = (row_group == np.arange(n)[:, None]).astype(float)
    Pc = (col_group == np.arange(n)[:, None]).astype(float)
    return (s,) + mu_mod._sv_model(U, s, Vh.conj().T, Pr, Pc, r, Z)


def test_log_scale_gradient_matches_central_differences():
    # at a simple top singular value the cluster model is sigma's gradient
    # (F_g) and Hessian (W) in the free log-scales, the null vectors of a
    # rectangular D M D^-1 included, tall and wide
    for ny, nu in ((8, 7), (7, 8)):
        structure = [UncertaintyBlock("r2", "repeated", 2, 2),
                     UncertaintyBlock("f", "full", ny - 5, nu - 5),
                     UncertaintyBlock("r3", "repeated", 3, 3)]
        row_group, col_group, ng = _scaling_groups(structure)
        rng = np.random.default_rng(5)
        M = rng.normal(size=(ny, nu)) + 1j * rng.normal(size=(ny, nu))
        logd = np.append(rng.uniform(-0.5, 0.5, ng - 1), 0.0)
        s, F, W = _model_at(M, logd, row_group, col_group, 1, np.ones((1, 1)))
        assert s[1] < 0.9 * s[0]  # simple top singular value
        h, n = 1e-5, ng - 1
        fd_grad, fd_hess = np.empty(n), np.empty((n, n))
        for g in range(n):
            e = np.zeros(ng)
            e[g] = h
            plus, minus = (_model_at(M, logd + sign * e, row_group, col_group,
                                     1, np.ones((1, 1))) for sign in (1, -1))
            fd_grad[g] = (plus[0][0] - minus[0][0]) / (2.0 * h)
            fd_hess[g] = (plus[1][:, 0, 0] - minus[1][:, 0, 0]).real / (2 * h)
        assert_allclose(F[:, 0, 0].real, fd_grad, rtol=1e-6, atol=1e-9)
        assert_allclose(W, fd_hess, rtol=1e-5, atol=1e-8)


def test_cluster_matrices_move_a_repeated_top_singular_value():
    # M = U diag(3, 3, 1, ...) V^H with a repeated top singular value: the
    # two top singular values at logd + h e_g are the eigenvalues of
    # 3 I + h F_g, to second order in h
    structure = [UncertaintyBlock("r2", "repeated", 2, 2),
                 UncertaintyBlock("f", "full", 3, 2),
                 UncertaintyBlock("r3", "repeated", 3, 3)]
    row_group, col_group, ng = _scaling_groups(structure)
    rng = np.random.default_rng(8)
    Q1, Q2 = (np.linalg.qr(rng.normal(size=(k, k))
                           + 1j * rng.normal(size=(k, k)))[0] for k in (8, 7))
    M = Q1[:, :7] @ np.diag([3.0, 3.0, 1.0, 0.8, 0.5, 0.3, 0.1]) @ Q2.conj().T
    logd = np.zeros(ng)
    s, F, _ = _model_at(M, logd, row_group, col_group, 2, np.eye(2) / 2)
    assert_allclose(s[:2], 3.0, rtol=1e-13)
    for h in (1e-4, -1e-4):
        for g in range(ng - 1):
            e = np.zeros(ng)
            e[g] = h
            moved = np.linalg.svd(_scaled(M, logd + e, row_group, col_group),
                                  compute_uv=False)[:2]
            model = np.linalg.eigvalsh(np.diag(s[:2]) + h * F[g])[::-1]
            assert np.max(np.abs(moved - model)) < 1e-6, g


def _known_optimum(seed, sizes, full, top):
    """G = D0^-1 H D0 with H normal, its eigenvalues of modulus below 1
    but for those in top, and D0 a random block-commuting scaling; with
    full = (rows, cols), a full block whose last rows - cols rows of H are
    zero. rho(H) = sigma_max(H) bounds mu(G) below and the diagonal-D bound
    at D0 above, so it is the optimal diagonal-D bound."""
    structure = [UncertaintyBlock(f"r{i}", "repeated", k, k)
                 for i, k in enumerate(sizes)]
    if full:
        structure.append(UncertaintyBlock("f", "full", *full))
    row_group, col_group, ng = _scaling_groups(structure)
    rng = np.random.default_rng(seed)
    n = col_group.size
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    lam = 0.9 * rng.uniform(0.1, 1.0, n) * np.exp(2j * np.pi * rng.random(n))
    lam[:len(top)] = top
    H = np.zeros((row_group.size, n), complex)
    H[:n] = (Q * lam) @ Q.conj().T
    d0 = np.exp(rng.uniform(-1.5, 1.5, ng))
    return d0[col_group][None, :] * H / d0[row_group][:, None], structure


@pytest.mark.parametrize("seed,sizes,full,top", [
    (0, (1, 3, 2, 2), None, (2.0, 2.0j)),
    (1, (2, 2, 1), (3, 3), (1.5,)),
    (2, (1,) + (3,) * 9 + (2,), (6, 3), (1.2, -1.2)),
], ids=["kink", "full-block", "rectangular"])
def test_polish_meets_a_known_optimum(seed, sizes, full, top):
    # at a repeated top singular value (two eigenvalues of equal top
    # modulus), with a full block's one scaling, and on 36 x 33 channels
    # like the performance call's. A normal H is balanced, so the balanced
    # start is D0 already; the descent from D = I has the way to go.
    G, structure = _known_optimum(seed, sizes, full, top)
    row_group, col_group, ng = _scaling_groups(structure)
    rho = np.abs(top).max()
    start = np.linalg.svd(G, compute_uv=False)[0]
    assert start > 1.5 * rho
    for bound in (ssv_upper_bound(G[None], structure)[0],
                  mu_mod._descend(G, np.zeros(ng), row_group, col_group,
                                  -np.inf)):
        assert rho * (1.0 - 1e-12) <= bound <= rho * (1.0 + 1e-9)


def _transport_peak():
    """G11 of N = 3, (4, 12) at its transport peak frequency (80-point
    grid), its scaling groups, and its balanced log-scales."""
    cfg = AnalysisConfig(n_agents=3, tuning_M=4.0, tuning_C=12.0)
    plant, ok = margin_plant(linearize(cfg, "transport"))
    assert ok
    N, structure = assemble_n_delta(plant, default_blocks(3),
                                    performance_weight())
    G11, rs_struct = rs_partition(N.freq_response([3.501900461431713]),
                                  structure)
    row_group, col_group, ng = _scaling_groups(rs_struct)
    logd, _ = _balance(G11, row_group, col_group, ng, 0.0)
    return G11[0], row_group, col_group, logd[0]


def test_polish_does_not_depend_on_its_start():
    # the certified descent ends at the same bound from the balanced start,
    # from D = I and from a random scaling, where the BFGS polish stopped
    # up to 1.4e-8 apart
    M, row_group, col_group, balanced = _transport_peak()
    rng = np.random.default_rng(4)
    starts = [balanced, np.zeros_like(balanced),
              np.append(rng.normal(size=balanced.size - 1), 0.0)]
    bounds = [mu_mod._descend(M, logd, row_group, col_group, -np.inf)
              for logd in starts]
    assert max(bounds) <= min(bounds) * (1.0 + 1e-10)


def test_margin_does_not_move_with_a_preroll_step(monkeypatch):
    # a 5-s pre-roll in 1,001 RK4 steps instead of 1,000 moves the state by
    # 3e-14, relative; the BFGS polish moved rs by 1.4e-8 with it
    from swarmlift import analysis

    cfg = AnalysisConfig(n_agents=3, tuning_M=4.0, tuning_C=12.0)
    rho = np.max(np.abs(np.linalg.eigvals(linearize(cfg, "rest").A)))
    rs = []
    for steps in (1000, 1001):
        monkeypatch.setattr(analysis, "PREROLL_STEP_RHO",
                            analysis.TRANSPORT_PREROLL_T * rho / (steps - 0.5))
        rs.append(margin_point(3, 4.0, 12.0,
                               freqs=default_frequency_grid(80)).rs_margin)
    assert abs(rs[1] - rs[0]) <= 1e-10 * rs[0]


def test_descent_survives_scalings_that_overflow(monkeypatch):
    # on a reducible pattern the descent drives log-scales toward infinity;
    # a scaling that overflows leaves non-finite entries, which must count
    # as an infinite bound, because LAPACK's SVD may not return on them
    pattern = np.array([[1, 0, 1, 0], [0, 0, 0, 1], [0, 0, 1, 1],
                        [0, 0, 1, 0]])
    rng = np.random.default_rng(1)
    M = pattern * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    struct = [UncertaintyBlock(f"b{i}", "repeated", 1, 1) for i in range(4)]
    row_group, col_group, _ = _scaling_groups(struct)
    assert not np.isfinite(_scaled(M, np.array([800.0, 0.0, 0.0, 0.0]),
                                   row_group, col_group)).all()
    monkeypatch.setattr(mu_mod, "POLISH_TOL", 1e-12)
    mu = ssv_upper_bound(M[None], struct)[0]
    balanced = ssv_upper_bound(M[None], struct, polish=False)[0]
    rho = np.max(np.abs(np.linalg.eigvals(M)))
    assert rho * (1.0 - 1e-9) <= mu <= balanced


def test_sparse_wide_spread_bounds_are_quiet_and_ordered():
    # sparse patterns with entries spread over e^-8..e^8 often have no
    # finite optimal scaling, so polish runs trial scalings into overflow;
    # those trials count as an infinite bound and must not warn
    rng = np.random.default_rng(20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(300):
            n = int(rng.integers(3, 7))
            sizes = []
            while sum(sizes) < n:
                sizes.append(int(rng.integers(1, min(n - sum(sizes), 3) + 1)))
            structure = [UncertaintyBlock(f"b{i}", str(kind), k, k)
                         for i, (kind, k) in enumerate(zip(
                             rng.choice(["repeated", "full"], len(sizes)),
                             sizes))]
            G = ((rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
                 * np.exp(rng.uniform(-8.0, 8.0, (n, n)))
                 * (rng.random((n, n)) >= 0.7))
            mu = ssv_upper_bound(G[None], structure)[0]
            balanced = ssv_upper_bound(G[None], structure, polish=False)[0]
            rho = np.max(np.abs(np.linalg.eigvals(G)))
            assert rho * (1.0 - 1e-9) <= mu <= balanced


def test_balanced_bound_of_reducible_pattern_is_finite():
    # the pattern above has no finite balancing; the energy search must
    # still stop at finite scalings
    pattern = np.array([[1, 0, 1, 0], [0, 0, 0, 1], [0, 0, 1, 1],
                        [0, 0, 1, 0]])
    rng = np.random.default_rng(1)
    M = pattern * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    struct = [UncertaintyBlock(f"b{i}", "repeated", 1, 1) for i in range(4)]
    balanced = ssv_upper_bound(M[None], struct, polish=False)[0]
    rho = np.max(np.abs(np.linalg.eigvals(M)))
    assert np.isfinite(balanced)
    assert rho * (1.0 - 1e-9) <= balanced <= np.linalg.norm(M)


def test_balance_does_not_depend_on_frequency_order():
    # no frequency starts from another's scaling, so permuting the grid
    # permutes the balanced bound bit for bit
    N, struct = _assembled()
    G = N.freq_response(FREQS)
    perm = np.random.default_rng(2).permutation(len(FREQS))
    for G_k, s in (rs_partition(G, struct), (G, struct)):
        mu = ssv_upper_bound(G_k, s, polish=False)
        np.testing.assert_array_equal(
            ssv_upper_bound(G_k[perm], s, polish=False), mu[perm])


def test_chunked_bound_equals_one_chunk_bit_for_bit(monkeypatch):
    # each frequency's balance, scaling and SVD are its own, so a small
    # element budget that cuts the grid into chunks moves no bit
    N, struct = _assembled(3, 4.0, 12.0)
    G = N.freq_response(FREQS)
    calls = [(X, s, polish) for X, s in (rs_partition(G, struct), (G, struct))
             for polish in (False, True)]
    whole = [ssv_upper_bound(X, s, polish=polish) for X, s, polish in calls]
    for per_chunk in (7, 1):  # 60 = 8 * 7 + 4 frequencies, and one each
        for (X, s, polish), want in zip(calls, whole):
            monkeypatch.setattr(mu_mod, "CHUNK_ENTRIES",
                                per_chunk * X.shape[1] * X.shape[2])
            got = ssv_upper_bound(X, s, polish=polish)
            assert got.tobytes() == want.tobytes(), (per_chunk, polish)


def test_balanced_bound_peak_memory_stays_within_chunks():
    # the stability channels of N = 5 at 200 frequencies: G is 7.4 MB;
    # balancing all of them in one stack peaks at 41 MB
    structure = default_blocks(5)
    ny = sum(b.dim_y for b in structure)
    rng = np.random.default_rng(0)
    G = rng.normal(size=(200, ny, ny)) + 1j * rng.normal(size=(200, ny, ny))
    tracemalloc.start()
    try:
        ssv_upper_bound(G, structure, polish=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_balance_equalises_row_and_column_energy():
    structure = [UncertaintyBlock("r2", "repeated", 2, 2),
                 UncertaintyBlock("f", "full", 3, 2),
                 UncertaintyBlock("r3", "repeated", 3, 3)]
    row_group, col_group, ng = _scaling_groups(structure)
    rng = np.random.default_rng(4)
    # no zero entry, so every group reaches every other: irreducible
    G = rng.normal(size=(5, 8, 7)) + 1j * rng.normal(size=(5, 8, 7))
    logd, fro = _balance(G, row_group, col_group, ng, 0.0)
    for k in range(len(G)):
        E = np.abs(_scaled(G[k], logd[k], row_group, col_group)) ** 2
        assert_allclose(np.bincount(row_group, E.sum(axis=1), ng),
                        np.bincount(col_group, E.sum(axis=0), ng), rtol=1e-8)
        # the norm returned with the scales is that of the scaled matrix
        assert_allclose(fro[k], np.sqrt(E.sum()), rtol=1e-12)


def test_balance_of_decoupled_parts_matches_each_part():
    # groups 0 and 1 see neither group 2 nor the pinned group 3, so their
    # common shift is free: the solve must stay regular and the bound must
    # be that of the worse part
    rng = np.random.default_rng(6)
    A, B = (rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2)))
    A[0, 1] *= 1e-3
    G = np.zeros((4, 4), dtype=complex)
    G[:2, :2], G[2:, 2:] = A, B
    one = [UncertaintyBlock(f"b{i}", "repeated", 1, 1) for i in range(4)]
    mu = ssv_upper_bound(G[None], one, polish=False)[0]
    parts = [ssv_upper_bound(X[None], one[:2], polish=False)[0]
             for X in (A, B)]
    assert_allclose(mu, max(parts), rtol=1e-8)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["repeated", "full"]),
                          st.integers(1, 3)), min_size=1, max_size=4),
       st.integers(0, 2**32 - 1), st.floats(0.0, 2.0), st.floats(0.0, 0.5))
def test_bounds_lie_between_spectral_radius_and_frobenius_norm(
        blocks, seed, spread, sparsity):
    # square blocks: D G D^-1 is then a similarity, which keeps rho(G)
    structure = [UncertaintyBlock(f"b{i}", kind, n, n)
                 for i, (kind, n) in enumerate(blocks)]
    n = sum(b.dim_y for b in structure)
    rng = np.random.default_rng(seed)
    G = ((rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n)))
         * np.exp(rng.uniform(-spread, spread, (3, n, n)))
         * (rng.random((3, n, n)) >= sparsity))
    polished = ssv_upper_bound(G, structure)
    balanced = ssv_upper_bound(G, structure, polish=False)
    rho = np.max(np.abs(np.linalg.eigvals(G)), axis=1)
    assert np.all(rho * (1.0 - 1e-9) <= polished)
    assert np.all(polished <= balanced)
    assert np.all(balanced <= np.linalg.norm(G, axis=(1, 2)) * (1.0 + 1e-12))


def test_polished_bound_between_spectral_radius_and_balanced():
    N, struct = _assembled()
    G11, rs_struct = rs_partition(N.freq_response(FREQS), struct)
    polished = ssv_upper_bound(G11, rs_struct)
    balanced = ssv_upper_bound(G11, rs_struct, polish=False)
    rho = np.array([np.max(np.abs(np.linalg.eigvals(G11[k])))
                    for k in range(len(FREQS))])
    assert np.all(polished <= balanced)
    assert np.all(polished >= rho * (1.0 - 1e-9))
    assert np.any(polished < balanced)


def test_margins_never_looser_than_coordinate_descent():
    # rs and rp of the golden-section coordinate-descent polish that the
    # gradient descent replaced, at the documented robust tuning point
    r = margin_point(2, 8.0, 6.0, freqs=default_frequency_grid(60))
    assert r.rs_margin >= 1.5223913581793587 * (1.0 - 1e-9)
    assert r.rp_margin >= 0.31928612261600114 * (1.0 - 1e-9)


def test_ssv_structure_mismatch_raises():
    with pytest.raises(ChannelMismatch):
        ssv_upper_bound(np.zeros((1, 3, 3)),
                        [UncertaintyBlock("a", "repeated", 2, 2)])


def test_single_mass_perturbation_first_order():
    # closing only the mass channel with small real delta matches the
    # rebuilt plant to first order (oracle for the channel wiring)
    import dataclasses

    from swarmlift.analysis import linearize, rest_state, zero_input

    cfg = AnalysisConfig(n_agents=2)
    nom = linearize(cfg, "rest")
    x0 = rest_state(cfg)
    for delta in (0.04, -0.04):
        # u_mass = delta y_mass
        m = nom.subsystem(out_names=["y_mass"], in_names=["u_mass"])
        K = delta * np.linalg.inv(np.eye(3) - delta * m.D)
        A_lft = m.A + m.B @ K @ m.C
        cfg_p = AnalysisConfig(n_agents=2)
        m_new = cfg.com.m_sys + delta * MASS_UNCERTAINTY * cfg.payload.m_p
        # the frozen config's composite body, with only the mass perturbed
        object.__setattr__(cfg_p, "com",
                           dataclasses.replace(cfg_p.com, m_sys=m_new))
        A_reb = linearize(cfg_p, x_full=x0, u0=zero_input(cfg_p)).A
        assert np.abs(A_lft - A_reb).max() < 20.0 * delta**2


def test_margins_structure_and_determinism():
    r1 = margin_point(2, 8.0, 6.0, freqs=FREQS)
    r2 = margin_point(2, 8.0, 6.0, freqs=FREQS)
    assert r1.rs_margin == r2.rs_margin and r1.rp_margin == r2.rp_margin
    assert r1.nominal_stable
    assert r1.rp_margin <= r1.rs_margin + 1e-12
    assert r1.rs_margin > 1.0  # the documented robust tuning point


def test_margin_zero_for_degenerate_and_unstable_tunings():
    r = margin_point(2, 0.0, 6.0, freqs=FREQS)
    assert r.rs_margin == 0.0 and not r.nominal_stable
    r = margin_point(2, 0.05, 0.01, freqs=FREQS)
    assert r.rs_margin == 0.0


def test_margin_zero_when_the_transport_point_fails(monkeypatch):
    def diverging(cfg, op, rest=None):
        raise UnstableOperatingPoint("pre-roll left the bound")

    monkeypatch.setattr(mu_mod, "linearize", diverging)
    r = margin_point(2, 8.0, 6.0, freqs=FREQS)
    assert r.nominal_stable is False and r.rs_margin == r.rp_margin == 0.0

    # a transport plant that is not nominally stable, after a stable rest plant
    transport = object()
    monkeypatch.setattr(mu_mod, "linearize",
                        lambda cfg, op, rest=None: transport)
    monkeypatch.setattr(mu_mod, "margin_plant", lambda plant: (
        (None, False) if plant is transport else margin_plant(plant)))
    r = margin_point(2, 8.0, 6.0, freqs=FREQS)
    assert r.nominal_stable is False and r.rs_margin == r.rp_margin == 0.0


def test_tuning_grid_validation():
    g = TuningGrid(M_values=[2.0, 8.0], C_values=[6.0])
    assert len(g.points()) == 2
    with pytest.raises(ValueError):
        TuningGrid(M_values=[-1.0], C_values=[6.0])
    with pytest.raises(ValueError):
        TuningGrid(M_values=[2.0], C_values=[40.0])
    # a repeated value would bound the same point twice
    with pytest.raises(ValueError, match="C_values repeats"):
        TuningGrid(M_values=[2.0], C_values=[6.0, 8.0, 6.0])


def test_sampled_perturbations_respect_structure():
    _, struct = _assembled()
    rng = np.random.default_rng(0)
    D = sample_admissible_perturbation(rng, struct, mass_endpoint=1.0)
    rs_blocks = [b for b in struct if b.name != "perf"]
    n_y = sum(b.dim_y for b in rs_blocks)
    n_u = sum(b.dim_u for b in rs_blocks)
    assert D.shape == (n_u, n_y)
    # mass block pinned at the +1 endpoint
    assert_allclose(D[:3, :3], np.eye(3))
    # block norms within 1
    assert np.linalg.svd(D, compute_uv=False)[0] <= 1.0 + 1e-9


def test_random_delta_hurwitz_at_robust_point():
    from swarmlift.oracles import random_delta_hurwitz_check

    rs, worst = random_delta_hurwitz_check(2, 8.0, 6.0, n_samples=25,
                                           freqs=FREQS)
    assert rs > 1.0
    assert worst < 0.0


def realified_delta_closure(N_sys, D, n_y, n_u):
    """The state matrix random_delta_hurwitz_check closed Delta on before it
    took the complex LFT, kept as the reference: the system doubled to its
    real and imaginary parts, with D acting as [[Re, -Im], [Im, Re]]."""
    A = N_sys.A
    Bd = N_sys.B[:, :n_u]
    Cd = N_sys.C[:n_y, :]
    Dd = N_sys.D[:n_y, :n_u]
    Ar = np.block([[A, np.zeros_like(A)], [np.zeros_like(A), A]])
    Br = np.block([[Bd, np.zeros_like(Bd)], [np.zeros_like(Bd), Bd]])
    Cr = np.block([[Cd, np.zeros_like(Cd)], [np.zeros_like(Cd), Cd]])
    Dr = np.block([[Dd, np.zeros_like(Dd)], [np.zeros_like(Dd), Dd]])
    DR = np.block([[D.real, -D.imag], [D.imag, D.real]])
    closure = np.linalg.solve(np.eye(2 * n_y) - Dr @ DR, Cr)
    return Ar + Br @ DR @ closure


@pytest.mark.parametrize("seed", range(8))
def test_complex_delta_closure_has_the_realified_spectrum(seed):
    # a stable plant with a mass-like repeated block, a full block and an
    # unclosed performance channel after them
    rng = np.random.default_rng(seed)
    structure = [UncertaintyBlock("mass", "repeated", 2, 2),
                 UncertaintyBlock("est", "full", 3, 2),
                 UncertaintyBlock("perf", "full", 1, 1)]
    n = 7
    A = rng.normal(size=(n, n))
    A -= (np.linalg.eigvals(A).real.max() + 0.5) * np.eye(n)
    N_sys = LinearSystem(A, rng.normal(size=(n, 5)), rng.normal(size=(6, n)),
                         0.3 * rng.normal(size=(6, 5)))
    endpoint = (None, 1.0, -1.0)[seed % 3]
    D = sample_admissible_perturbation(rng, structure, mass_endpoint=endpoint)
    ev = np.linalg.eigvals(_close_delta(N_sys, D))
    ref = np.linalg.eigvals(realified_delta_closure(N_sys, D, 5, 4))
    assert_allclose(np.sort(np.concatenate([ev, ev.conj()])), np.sort(ref),
                    rtol=1e-9)


def test_random_delta_hurwitz_worst_real_part():
    # the slowest Delta-closed mode: no performance weight state (a pole at
    # -0.01 that no Delta moves) is in the spectrum
    from swarmlift.oracles import random_delta_hurwitz_check

    _, worst = random_delta_hurwitz_check(2, 8.0, 6.0, n_samples=25,
                                          freqs=FREQS)
    assert abs(worst - -0.39818594642309635) < 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_ssv_rejects_non_finite_response(bad):
    # refused before any SVD, which may not return on such entries
    G = np.ones((2, 3, 3), dtype=complex)
    G[1, 2, 0] = bad
    with pytest.raises(NonFiniteResponse):
        ssv_upper_bound(G, [UncertaintyBlock("a", "repeated", 3, 3)])


def test_floor_polishes_only_what_can_raise_the_peak():
    N, struct = _assembled()
    G11, rs_struct = rs_partition(N.freq_response(FREQS), struct)
    full = ssv_upper_bound(G11, rs_struct)
    balanced = ssv_upper_bound(G11, rs_struct, polish=False)
    peak = ssv_upper_bound(G11, rs_struct, floor=0.0)
    assert peak.max() == full.max()
    # a descent stopped once below the running maximum lies between its
    # polished and balanced values, below the peak it cannot set
    assert np.all((full <= peak) & (peak <= balanced))
    between = (peak != balanced) & (peak != full)
    assert np.all(peak[between] < peak.max())
    assert np.sum(peak < balanced) < np.sum(full < balanced)
    # a floor above every balanced value leaves nothing to polish; a
    # frequency whose Frobenius norm drops below the floor while it is
    # balanced keeps that norm, which is at least its balanced value
    above = ssv_upper_bound(G11, rs_struct, floor=balanced.max())
    assert np.all(above >= balanced * (1.0 - 1e-12))
    assert above.max() == balanced.max()
    assert np.argmax(above) == np.argmax(balanced)
    assert np.all(above[above != balanced] < balanced.max())
    assert np.any(above != balanced)


def _peak_band(n_points=21):
    """The 80-point grid plus n_points - 2 frequencies between the grid
    neighbours of the rs peak at N = 3, (M, C) = (4, 12), and the mask of
    the grid frequencies."""
    base = default_frequency_grid(80)
    k = int(np.argmin(np.abs(base - 3.501900461431713)))
    band = np.logspace(np.log10(base[k - 1]), np.log10(base[k + 1]),
                       n_points)[1:-1]
    freqs = np.concatenate([base, band])
    order = np.argsort(freqs)
    return freqs[order], (order < base.size)


def test_dense_band_peak_is_polished():
    # a dense band puts many balanced values above the polished peak; the
    # polish must reach past the eighth until none can raise the maximum
    freqs, on_grid = _peak_band()
    cfg = AnalysisConfig(n_agents=3, tuning_M=4.0, tuning_C=12.0)
    plant, ok = margin_plant(linearize(cfg, "transport"))
    assert ok
    N, struct = assemble_n_delta(plant, default_blocks(3),
                                 performance_weight())
    G11, rs_struct = rs_partition(N.freq_response(freqs), struct)
    mu = ssv_upper_bound(G11, rs_struct)
    balanced = ssv_upper_bound(G11, rs_struct, polish=False)
    k = int(np.argmax(mu))
    assert mu[k] < balanced[k]
    grid_peak = ssv_upper_bound(G11[on_grid], rs_struct).max()
    assert grid_peak <= mu.max() <= 1.005 * grid_peak


def test_dense_band_keeps_margin():
    # the band adds samples near the peak, which may lower rs only by the
    # grid's sampling error (about 0.1%), not by the balanced bound's slack
    freqs, _ = _peak_band()
    r = margin_point(3, 4.0, 12.0, freqs=freqs)
    assert 0.995 * 1.0290650760129212 <= r.rs_margin <= 1.0290650760129212


@pytest.fixture(scope="module")
def linearize_once():
    """linearize, run once per team size, tuning and operating point."""
    plants = {}

    def once(cfg, op="rest", rest=None):
        key = (cfg.n_agents, cfg.tuning_M, cfg.tuning_C, op)
        if key not in plants:
            plants[key] = linearize(cfg, op, rest=rest)
        return plants[key]

    return once


def _margins_bounding_every_frequency(linearize_once, n, M, C, freqs,
                                      polish):
    """rs, rp and their peak frequencies from three SSV calls over every
    frequency of the whole N-Delta responses, with floors 0, the transport
    peak and the stability peak."""
    cfg = AnalysisConfig(n_agents=n, tuning_M=M, tuning_C=C)
    blocks, weight = default_blocks(n), performance_weight()
    N_rest, struct = assemble_n_delta(
        margin_plant(linearize_once(cfg, "rest"))[0], blocks, weight)
    N_tr, _ = assemble_n_delta(
        margin_plant(linearize_once(cfg, "transport"))[0], blocks, weight)
    G11_rest, rs_struct = rs_partition(N_rest.freq_response(freqs), struct)
    G_tr = N_tr.freq_response(freqs)
    G11_tr, _ = rs_partition(G_tr, struct)
    mu_tr = ssv_upper_bound(G11_tr, rs_struct, polish=polish, floor=0.0)
    mu_rs = np.maximum(ssv_upper_bound(G11_rest, rs_struct, polish=polish,
                                       floor=mu_tr.max()), mu_tr)
    mu_rp = np.maximum(ssv_upper_bound(G_tr, struct, polish=polish,
                                       floor=mu_rs.max()), mu_rs)
    k_rs, k_rp = int(np.argmax(mu_rs)), int(np.argmax(mu_rp))
    return 1.0 / mu_rs[k_rs], 1.0 / mu_rp[k_rp], freqs[k_rs], freqs[k_rp]


@pytest.mark.parametrize("polish", [True, False])
@pytest.mark.parametrize("n, M, C", [(2, 8.0, 6.0), (3, 4.0, 12.0),
                                     (4, 8.0, 6.0), (5, 8.0, 6.0)])
def test_margin_point_equals_bounding_every_frequency(
        monkeypatch, linearize_once, n, M, C, polish):
    # the floors and the frequencies they drop leave every bit of the
    # margins and peak frequencies; the plants are shared, not re-made
    monkeypatch.setattr(mu_mod, "build_closed_loop", linearize_once)
    monkeypatch.setattr(mu_mod, "linearize", linearize_once)
    freqs = default_frequency_grid(40)
    r = margin_point(n, M, C, freqs=freqs, polish=polish)
    assert ((r.rs_margin, r.rp_margin, r.peak_freq_rs, r.peak_freq_rp)
            == _margins_bounding_every_frequency(linearize_once, n, M, C,
                                                 freqs, polish))


def _random_response(seed, F, decades):
    """A seeded random response of F frequencies with the default
    structure of 2 or 3 agents, its Frobenius norms spread over the given
    decades."""
    _, struct = _assembled(2 + seed % 2)
    ny, nu = sum(b.dim_y for b in struct), sum(b.dim_u for b in struct)
    rng = np.random.default_rng(seed)
    G = ((rng.normal(size=(F, ny, nu)) + 1j * rng.normal(size=(F, ny, nu)))
         * rng.permutation(np.logspace(-decades, 0.0, F))[:, None, None])
    return G, struct


@pytest.mark.parametrize("seed", range(2))
def test_floors_are_lower_bounds_on_the_peak(seed):
    # Frobenius norms spread over two decades, so that the floors drop
    # some frequencies
    F = 4
    G, struct = _random_response(seed, F, 2.0)
    G11, rs_struct = rs_partition(G, struct)
    floor_rs, floor_rp = mu_mod._peak_floors(G, struct)
    rho = np.max(np.abs(np.linalg.eigvals(G11)), axis=1)
    sigma22 = np.linalg.svd(G[:, G11.shape[1]:, G11.shape[2]:],
                            compute_uv=False)[:, 0]
    for X, s, floor, lower in ((G11, rs_struct, floor_rs, rho),
                               (G, struct, floor_rp, np.maximum(rho, sigma22))):
        # polish every frequency: a single one is always polished
        everything = max(ssv_upper_bound(X[k], s)[0] for k in range(F))
        assert floor <= everything
        bound = ssv_upper_bound(X, s, floor=floor)
        assert np.any(np.linalg.norm(X, axis=(1, 2)) < floor)
        assert np.all(bound >= lower * (1.0 - 1e-9))
        assert bound.max() == everything


@seed(11)
@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["repeated", "full"]),
                          st.integers(1, 3), st.integers(1, 3)),
                min_size=1, max_size=4),
       st.integers(2, 12), st.floats(0.0, 3.0), st.floats(0.0, 1.0),
       st.floats(0.5, 1.0), st.integers(0, 2**32 - 1))
def test_floored_bound_keeps_the_peak_and_its_frequency(
        blocks, F, decades, noise, fraction, rng_seed):
    # a floor up to the peak, within FLOOR_SLACK, drops frequencies at D = I
    # and while balancing; the peak and its frequency stay those of
    # bounding every frequency. Near rank one, with little noise, the
    # Frobenius norm nears sigma_max, so a floor near the peak is tight.
    structure = [UncertaintyBlock(f"b{i}", kind, ny,
                                  ny if kind == "repeated" else nu)
                 for i, (kind, ny, nu) in enumerate(blocks)]
    ny, nu = (sum(b.dim_y for b in structure),
              sum(b.dim_u for b in structure))
    rng = np.random.default_rng(rng_seed)
    x, y, Z = (rng.normal(size=(F, n)) + 1j * rng.normal(size=(F, n))
               for n in (ny, nu, ny * nu))
    G = ((x[:, :, None] * y[:, None, :] + noise * Z.reshape(F, ny, nu))
         * np.logspace(-decades, 0.0, F)[rng.permutation(F), None, None])
    every = ssv_upper_bound(G, structure, floor=0.0)
    floor = fraction * (1.0 - mu_mod.FLOOR_SLACK) * every.max()
    floored = ssv_upper_bound(G, structure, floor=floor)
    assert floored.max() == every.max()
    assert np.argmax(floored) == np.argmax(every)


def _no_polish_exit(monkeypatch):
    """Run every descent to its end, whatever its stop threshold."""
    descend = mu_mod._descend
    monkeypatch.setattr(mu_mod, "_descend",
                        lambda *args: descend(*args[:-1], -np.inf))


@pytest.mark.parametrize("seed", range(4))
def test_polish_exit_keeps_the_peak_and_its_frequency(monkeypatch, seed):
    # Frobenius norms within 12% of each other, so that several balanced
    # values exceed the running maximum and some descents stop early
    G, struct = _random_response(seed, 8, 0.05)
    G11, rs_struct = rs_partition(G, struct)
    floors = mu_mod._peak_floors(G, struct)
    calls = ((G11, rs_struct, floors[0]), (G, struct, floors[1]))
    stopped = [ssv_upper_bound(X, s, floor=floor) for X, s, floor in calls]
    _no_polish_exit(monkeypatch)
    full = [ssv_upper_bound(X, s, floor=floor) for X, s, floor in calls]
    for a, b in zip(stopped, full):
        assert a.max() == b.max() and np.argmax(a) == np.argmax(b)
        assert np.all(b <= a)
        assert np.all(a[a != b] < a.max())
    assert any(np.any(a != b) for a, b in zip(stopped, full))


def test_margin_point_work_counts(monkeypatch):
    # counts, not timings: one chart_rhs_out call per linearized plant, and
    # fewer SVDs inside ssv_upper_bound than with the polish exit disabled
    from swarmlift import analysis

    counts = Counter()
    chart, svd, ssv = (analysis.chart_rhs_out, np.linalg.svd,
                       mu_mod.ssv_upper_bound)

    def counted_chart(*args):
        counts["chart_rhs_out"] += 1
        return chart(*args)

    def counted_svd(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    def counted_ssv(*args, **kwargs):
        before = counts["svd"]
        out = ssv(*args, **kwargs)
        counts["svd in ssv"] += counts["svd"] - before
        return out

    monkeypatch.setattr(analysis, "chart_rhs_out", counted_chart)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(mu_mod, "ssv_upper_bound", counted_ssv)
    freqs = default_frequency_grid(80)
    stopped = margin_point(3, 4.0, 12.0, freqs=freqs)
    n_stopped = counts.copy()
    counts.clear()
    _no_polish_exit(monkeypatch)
    full = margin_point(3, 4.0, 12.0, freqs=freqs)
    # the rest plant, and the transport plant, whose pre-roll takes its
    # step from that rest plant
    assert n_stopped["chart_rhs_out"] == counts["chart_rhs_out"] == 2
    assert n_stopped["svd in ssv"] < counts["svd in ssv"]
    assert stopped == full


# (n_agents, M, C, frequencies): the most SVDs inside ssv_upper_bound per
# margin point (the BFGS polish took 432, 166, 416 and 505), and, at the
# large teams, the BFGS polish's (rs, rp), which may only grow
SVD_COUNTS = {(3, 4.0, 12.0, 80): 150, (2, 8.0, 6.0, 200): 166,
              (5, 8.0, 6.0, 80): 416, (8, 8.0, 6.0, 80): 505}
BFGS_MARGINS = {(5, 8.0, 6.0, 80): (0.9940435379407044, 0.4225467070385284),
                (8, 8.0, 6.0, 80): (0.9931529561007224, 0.7010234145557355)}


@pytest.mark.parametrize("point", sorted(SVD_COUNTS),
                         ids=lambda p: "N{}-M{:g}-C{:g}-f{}".format(*p))
def test_margin_point_svd_counts(monkeypatch, point):
    # counts, not timings: SVDs inside ssv_upper_bound, the stacked
    # sigma_max ones and every descent's full and trial ones
    counts = Counter()
    svd, ssv = np.linalg.svd, mu_mod.ssv_upper_bound

    def counted_svd(*args, **kwargs):
        counts["svd"] += counts["in ssv"]
        return svd(*args, **kwargs)

    def counted_ssv(*args, **kwargs):
        counts["in ssv"] = 1
        try:
            return ssv(*args, **kwargs)
        finally:
            counts["in ssv"] = 0

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(mu_mod, "ssv_upper_bound", counted_ssv)
    n_agents, M, C, n_freqs = point
    r = margin_point(n_agents, M, C, freqs=default_frequency_grid(n_freqs))
    assert counts["svd"] <= SVD_COUNTS[point]
    if point in BFGS_MARGINS:
        rs, rp = BFGS_MARGINS[point]
        assert r.rs_margin >= rs and r.rp_margin >= rp


def test_floor_leaves_the_sigma_svd_to_the_frobenius_survivors(monkeypatch):
    # N = 2, (8, 6), 200 frequencies: of the frequencies whose Frobenius
    # norm reaches the floor at D = I, only those still above it at every
    # balancing step take the next Newton step, and only those left above
    # it get the stacked sigma_max SVD
    calls = []  # balanced, Newton-step and sigma_max SVD rows per SSV call
    solve, svd, ssv = (np.linalg.solve, np.linalg.svd,
                       mu_mod.ssv_upper_bound)

    def counted(fn, i):
        def call(a, *args, **kwargs):
            if np.ndim(a) == 3 and calls and calls[-1][3]:  # stacked, in ssv
                calls[-1][i] += a.shape[0]
            return fn(a, *args, **kwargs)
        return call

    def counted_ssv(G, *args, **kwargs):
        calls.append([0, 0, 0, True])
        out = ssv(G, *args, **kwargs)
        calls[-1][3] = False
        return out

    monkeypatch.setattr(mu_mod, "_balance", counted(mu_mod._balance, 0))
    monkeypatch.setattr(np.linalg, "solve", counted(solve, 1))
    monkeypatch.setattr(np.linalg, "svd", counted(svd, 2))
    monkeypatch.setattr(mu_mod, "ssv_upper_bound", counted_ssv)
    margin_point(2, 8.0, 6.0, freqs=default_frequency_grid(200))
    # transport stability, rest stability, transport performance; balanced
    # to convergence, they took 1309, 1154 and 742 Newton-step rows and 74,
    # 61 and 81 SVD rows
    assert [c[:3] for c in calls] == [[74, 703, 30], [61, 561, 23],
                                      [81, 266, 13]]


@pytest.mark.parametrize("freqs", [[], [np.nan, 1.0], [1.0, np.inf],
                                   [-1.0, 1.0], [[1.0, 2.0]]],
                         ids=["empty", "nan", "inf", "negative", "2-D"])
def test_margin_point_rejects_a_bad_frequency_grid(freqs):
    # an empty grid once failed in a zero-size reduction, and a negative
    # frequency was reported as the peak frequency
    with pytest.raises(ValueError, match="frequency grid"):
        margin_point(2, 8.0, 6.0, freqs=freqs)
