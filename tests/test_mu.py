import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from swarmlift.analysis import (
    AnalysisConfig,
    build_closed_loop,
    linearize,
    margin_plant,
)
from swarmlift.errors import ChannelMismatch, NonFiniteResponse
from swarmlift.mu import (
    TuningGrid,
    assemble_n_delta,
    default_blocks,
    default_frequency_grid,
    margin_point,
    margins,
    _balance,
    _scaled,
    _scaling_groups,
    rs_partition,
    sample_admissible_perturbation,
    scaled_sv_gradient,
    ssv_upper_bound,
)
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
    # with Delta = 0 the N interconnection reproduces the weighted nominal
    # closed loop exactly
    cfg = AnalysisConfig(n_agents=2)
    plant, _ = margin_plant(build_closed_loop(cfg))
    N, structure = assemble_n_delta(plant, default_blocks(2),
                                    performance_weight())
    from swarmlift.lti import output_weight

    weighted = plant
    for b in default_blocks(2):
        if b.weight is not None:
            weighted = output_weight(weighted, f"y_{b.name}", b.weight)
    pw = performance_weight()
    for name, _ in weighted.outputs:
        if name.startswith("z_lat"):
            weighted = output_weight(weighted, name, pw)
    rng = np.random.default_rng(3)
    w_test = np.exp(rng.uniform(np.log(1e-3), np.log(1e2), 20))
    z_names = [f"z_lat_{i}" for i in range(2)]
    G_N = N.subsystem(out_names=z_names, in_names=["w"]).freq_response(w_test)
    G_ref = weighted.subsystem(out_names=z_names,
                               in_names=["w"]).freq_response(w_test)
    assert np.max(np.abs(G_N - G_ref)) < 1e-9


def test_ssv_single_full_block_is_sigma_max():
    rng = np.random.default_rng(1)
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    mu = ssv_upper_bound(M[None], [UncertaintyBlock("all", "full", 4, 4)])
    assert_allclose(mu[0], np.linalg.svd(M, compute_uv=False)[0], rtol=1e-9)


def test_ssv_scaling_invariance():
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
    tight = dict(balance_tol=1e-15, max_balance=100, polish_tol=1e-12)
    mu0 = ssv_upper_bound(G11, struct, **tight)
    mu1 = ssv_upper_bound(G_scaled, struct, **tight)
    assert np.max(np.abs(mu1 - mu0) / mu0) < 1e-6


def test_ssv_dominates_spectral_radius():
    N, struct = _assembled()
    G = N.freq_response(FREQS)
    G11, rs_struct = rs_partition(G, struct)
    mu = ssv_upper_bound(G11, rs_struct)
    rho = np.array([np.max(np.abs(np.linalg.eigvals(G11[k])))
                    for k in range(len(FREQS))])
    assert np.all(mu >= rho - 1e-9)


def test_log_scale_gradient_matches_central_differences():
    structure = [UncertaintyBlock("r2", "repeated", 2, 2),
                 UncertaintyBlock("f", "full", 3, 2),
                 UncertaintyBlock("r3", "repeated", 3, 3)]
    row_group, col_group, ng = _scaling_groups(structure)
    rng = np.random.default_rng(5)
    M = rng.normal(size=(8, 7)) + 1j * rng.normal(size=(8, 7))
    logd = rng.uniform(-0.5, 0.5, ng)
    sv = np.linalg.svd((np.exp(logd)[row_group][:, None] * M)
                       / np.exp(logd)[col_group][None, :], compute_uv=False)
    assert sv[1] < 0.9 * sv[0]  # simple top singular value
    sigma, grad = scaled_sv_gradient(M, logd, row_group, col_group)
    assert_allclose(sigma, sv[0], rtol=1e-12)
    h = 1e-5
    fd = np.empty(ng)
    for g in range(ng):
        e = np.zeros(ng)
        e[g] = h
        fd[g] = (scaled_sv_gradient(M, logd + e, row_group, col_group)[0]
                 - scaled_sv_gradient(M, logd - e, row_group, col_group)[0]) \
            / (2.0 * h)
    assert_allclose(grad, fd, rtol=1e-6)


def test_descent_survives_scalings_that_overflow():
    # on a reducible pattern BFGS drives log-scales toward infinity; the
    # trial points that overflow must count as an infinite bound, because
    # LAPACK's SVD may not return on non-finite entries
    pattern = np.array([[1, 0, 1, 0], [0, 0, 0, 1], [0, 0, 1, 1],
                        [0, 0, 1, 0]])
    rng = np.random.default_rng(1)
    M = pattern * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    struct = [UncertaintyBlock(f"b{i}", "repeated", 1, 1) for i in range(4)]
    row_group, col_group, _ = _scaling_groups(struct)
    sigma, grad = scaled_sv_gradient(M, np.array([800.0, 0.0, 0.0, 0.0]),
                                     row_group, col_group)
    mu = ssv_upper_bound(M[None], struct, polish_tol=1e-12)[0]
    assert sigma == np.inf and not grad.any()
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


def test_balance_equalises_row_and_column_energy():
    structure = [UncertaintyBlock("r2", "repeated", 2, 2),
                 UncertaintyBlock("f", "full", 3, 2),
                 UncertaintyBlock("r3", "repeated", 3, 3)]
    row_group, col_group, ng = _scaling_groups(structure)
    rng = np.random.default_rng(4)
    # no zero entry, so every group reaches every other: irreducible
    G = rng.normal(size=(5, 8, 7)) + 1j * rng.normal(size=(5, 8, 7))
    logd = _balance(G, row_group, col_group, ng, 1e-9, 200)
    for k in range(len(G)):
        E = np.abs(_scaled(G[k], logd[k], row_group, col_group)) ** 2
        assert_allclose(np.bincount(row_group, E.sum(axis=1), ng),
                        np.bincount(col_group, E.sum(axis=0), ng), rtol=1e-8)


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
        isl = nom.input_slice("u_mass")
        osl = nom.output_slice("y_mass")
        F = np.zeros((nom.n_inputs, nom.n_outputs))
        F[isl, osl] = delta * np.eye(3)
        G = np.linalg.inv(np.eye(nom.n_outputs) - nom.D @ F)
        A_lft = nom.A + nom.B @ F @ G @ nom.C
        cfg_p = AnalysisConfig(n_agents=2)
        m_new = cfg.com.m_sys + delta * cfg.mass_uncertainty * cfg.payload.m_p
        cfg_p.com = dataclasses.replace(cfg_p.com, m_sys=m_new)
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


def test_tuning_grid_validation():
    g = TuningGrid(M_values=[2.0, 8.0], C_values=[6.0])
    assert len(g.points()) == 2
    with pytest.raises(ValueError):
        TuningGrid(M_values=[-1.0], C_values=[6.0])
    with pytest.raises(ValueError):
        TuningGrid(M_values=[2.0], C_values=[40.0])


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


def test_parallel_margins_use_custom_blocks_and_weight():
    grid = TuningGrid(M_values=np.array([0.0, 8.0]),
                      C_values=np.array([6.0]))
    kw = dict(freqs=default_frequency_grid(12),
              blocks=default_blocks(2)[:-1],  # no estimator block
              perf_weight=performance_weight(gain_dc=0.2))
    serial = margins(grid, 2, n_jobs=1, **kw)
    parallel = margins(grid, 2, n_jobs=2, **kw)
    # field by field: the degenerate point's peak frequencies are NaN
    np.testing.assert_array_equal([astuple(r) for r in parallel],
                                  [astuple(r) for r in serial])
    assert serial[1].rs_margin > 0.0


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
    assert np.all((peak == balanced) | (peak == full))
    assert np.sum(peak < balanced) < np.sum(full < balanced)
    # a floor above every balanced value leaves nothing to polish
    above = ssv_upper_bound(G11, rs_struct, floor=balanced.max())
    np.testing.assert_array_equal(above, balanced)


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
