import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from swarmlift import attitude as att
from swarmlift.attitude import (
    DEFAULT_MRP,
    IDENTITY_QUAT,
    MrpConfig,
    euler_to_rotmat,
    integration_matrix,
    mrp_to_quat,
    quat_from_axis_angle,
    quat_integrate,
    quat_inverse,
    quat_multiply,
    quat_rate,
    quat_to_mrp,
    quat_to_rotmat,
    random_quat,
    rotmat_to_euler,
    skew,
)
from swarmlift.errors import SingularMrp


def test_multiply_identity():
    q = quat_from_axis_angle([1, 2, -0.5], 0.7)
    assert_allclose(quat_multiply(IDENTITY_QUAT, q), q, atol=1e-15)
    assert_allclose(quat_multiply(q, IDENTITY_QUAT), q, atol=1e-15)


def test_multiply_inverse():
    q = quat_from_axis_angle([0.3, -1.0, 2.0], 1.9)
    assert_allclose(quat_multiply(q, quat_inverse(q)), IDENTITY_QUAT, atol=1e-15)


def test_multiply_90z_twice_is_180z():
    q90 = quat_from_axis_angle([0, 0, 1], np.pi / 2)
    q180 = quat_multiply(q90, q90)
    # oracle: product of the corresponding rotation matrices
    R_oracle = quat_to_rotmat(q90) @ quat_to_rotmat(q90)
    assert_allclose(quat_to_rotmat(q180), R_oracle, atol=1e-12)
    assert_allclose(quat_to_rotmat(q180), np.diag([-1.0, -1.0, 1.0]), atol=1e-12)


def test_multiply_matches_rotmat_product():
    # pins the Hamilton convention: R(a (x) b) = R(a) R(b)
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b = random_quat(rng), random_quat(rng)
        assert_allclose(
            quat_to_rotmat(quat_multiply(a, b)),
            quat_to_rotmat(a) @ quat_to_rotmat(b),
            atol=1e-9,
        )


def test_rotmat_identity_and_180x():
    assert_allclose(quat_to_rotmat(IDENTITY_QUAT), np.eye(3), atol=1e-15)
    qx = quat_from_axis_angle([1, 0, 0], np.pi)
    assert_allclose(quat_to_rotmat(qx), np.diag([1.0, -1.0, -1.0]), atol=1e-12)


def test_rotmat_orthonormal():
    rng = np.random.default_rng(11)
    for _ in range(100):
        R = quat_to_rotmat(random_quat(rng))
        assert_allclose(R.T @ R, np.eye(3), atol=1e-9)
        assert abs(np.linalg.det(R) - 1.0) < 1e-9


def test_euler_identity_and_90yaw():
    assert_allclose(euler_to_rotmat([0, 0, 0]), np.eye(3), atol=1e-15)
    # hand evaluation: 90 deg about z maps ex -> ey
    R = euler_to_rotmat([0, 0, np.pi / 2])
    assert_allclose(R @ np.array([1, 0, 0]), [0, 1, 0], atol=1e-12)
    assert_allclose(R, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-12)


def test_euler_small_angle_series():
    rng = np.random.default_rng(3)
    for _ in range(20):
        eta = rng.normal(scale=1e-4, size=3)
        R = euler_to_rotmat(eta)
        err = np.linalg.norm(R - (np.eye(3) + skew(eta)))
        assert err < 10.0 * np.dot(eta, eta)


def test_euler_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        eta = rng.uniform([-1.2, -1.2, -np.pi], [1.2, 1.2, np.pi])
        assert_allclose(rotmat_to_euler(euler_to_rotmat(eta)), eta, atol=1e-12)


def test_mrp_trivial_and_180x():
    cfg = MrpConfig(a=1.0)
    assert cfg.f == 4.0
    assert_allclose(quat_to_mrp(IDENTITY_QUAT, cfg), np.zeros(3), atol=1e-15)
    # direct evaluation: q = 180 deg about x has qv=(1,0,0), qs=0 -> p = (4,0,0)
    qx = quat_from_axis_angle([1, 0, 0], np.pi)
    assert_allclose(quat_to_mrp(qx, cfg), [4.0, 0.0, 0.0], atol=1e-12)


def test_mrp_90z_value():
    # direct evaluation: p_z = 4 sin(45deg) / (1 + cos(45deg))
    q = quat_from_axis_angle([0, 0, 1], np.pi / 2)
    expect = 4.0 * np.sin(np.pi / 4) / (1.0 + np.cos(np.pi / 4))
    assert_allclose(quat_to_mrp(q), [0.0, 0.0, expect], atol=1e-12)
    assert abs(expect - 1.6568542494923806) < 1e-12


def test_mrp_singularity_raises():
    cfg = MrpConfig(a=0.0)
    qx = quat_from_axis_angle([1, 0, 0], np.pi)  # qs = 0, a = 0
    with pytest.raises(SingularMrp):
        quat_to_mrp(qx, cfg)


def test_mrp_inverse_of_forward():
    assert_allclose(mrp_to_quat(np.zeros(3)), IDENTITY_QUAT, atol=1e-15)
    q = mrp_to_quat(np.array([4.0, 0.0, 0.0]))
    qx = quat_from_axis_angle([1, 0, 0], np.pi)
    assert_allclose(q, qx, atol=1e-12)


def test_mrp_roundtrip_10k():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10_000):
        q = random_quat(rng, max_angle=np.pi - 1e-3)
        q2 = mrp_to_quat(quat_to_mrp(q))
        worst = max(worst, float(np.max(np.abs(q2 - q))))
    assert worst < 1e-12


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_mrp_roundtrip_any_a(a, seed):
    cfg = MrpConfig(a=a)
    rng = np.random.default_rng(seed)
    q = random_quat(rng, max_angle=np.pi - 0.1)
    assert_allclose(mrp_to_quat(quat_to_mrp(q, cfg), cfg), q, atol=1e-12)


def test_integrate_zero_rate():
    q = quat_from_axis_angle([1, 1, 0], 0.4)
    assert_allclose(quat_integrate(q, np.zeros(3), 0.01), q, atol=1e-15)


def test_integrate_half_turn():
    q = quat_integrate(IDENTITY_QUAT, [0.0, 0.0, np.pi], 1.0)
    assert_allclose(q, quat_from_axis_angle([0, 0, 1], np.pi), atol=1e-12)


def _quat_ode_rk4(q, omega, Ts, nsteps=200):
    """Independent oracle: RK4 on qdot = 1/2 q (x) (omega, 0), unnormalized."""
    omega = np.asarray(omega, dtype=float)

    def f(qq):
        v, s = qq[:3], qq[3]
        dv = 0.5 * (s * omega + np.cross(v, omega))
        ds = -0.5 * np.dot(v, omega)
        return np.concatenate([dv, [ds]])

    h = Ts / nsteps
    for _ in range(nsteps):
        k1 = f(q)
        k2 = f(q + 0.5 * h * k1)
        k3 = f(q + 0.5 * h * k2)
        k4 = f(q + h * k3)
        q = q + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return q / np.linalg.norm(q)


def test_integrate_matches_ode_oracle():
    rng = np.random.default_rng(9)
    for _ in range(20):
        q = random_quat(rng)
        omega = rng.normal(scale=0.5, size=3)
        Ts = 0.05
        q_exact = quat_integrate(q, omega, Ts)
        q_ode = _quat_ode_rk4(q, omega, Ts)
        assert np.max(np.abs(q_exact - q_ode)) < 1e-8


def test_integrate_body_rate_convention():
    # Rdot = R skew(omega): compare against matrix ODE integration
    rng = np.random.default_rng(13)
    q = random_quat(rng)
    omega = np.array([0.3, -0.2, 0.5])
    Ts = 0.2
    R = quat_to_rotmat(q)
    n = 2000
    h = Ts / n
    for _ in range(n):
        k1 = R @ skew(omega)
        k2 = (R + 0.5 * h * k1) @ skew(omega)
        k3 = (R + 0.5 * h * k2) @ skew(omega)
        k4 = (R + h * k3) @ skew(omega)
        R = R + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert_allclose(quat_to_rotmat(quat_integrate(q, omega, Ts)), R, atol=1e-8)


def test_quat_rate_is_rate_of_exact_integration():
    # the kinematics the simulator and the analysis integrate match the
    # closed-form propagator: backward over h is forward under -omega
    rng = np.random.default_rng(17)
    h = 1e-5
    for _ in range(20):
        q = random_quat(rng)
        omega = rng.normal(size=3)
        fd = (quat_integrate(q, omega, h) - quat_integrate(q, -omega, h)) / (2 * h)
        assert_allclose(quat_rate(q, omega), fd, atol=1e-8)


def test_integration_matrix_orthogonal():
    rng = np.random.default_rng(21)
    for _ in range(20):
        Om = integration_matrix(rng.normal(size=3), 0.01)
        assert_allclose(Om @ Om.T, np.eye(4), atol=1e-12)


def test_integrate_norm_drift():
    q = quat_from_axis_angle([0.2, 0.9, -0.1], 0.3)
    for _ in range(1000):
        q = quat_integrate(q, [0.1, -0.4, 0.2], 0.01)
        assert abs(np.linalg.norm(q) - 1.0) <= 1e-12


def test_euler_rate_map_roundtrip():
    rng = np.random.default_rng(17)
    for _ in range(20):
        eta = rng.uniform(-0.8, 0.8, size=3)
        eta_dot = rng.normal(size=3)
        omega = att.body_rate_from_euler_rate(eta, eta_dot)
        back = att.euler_rate_matrix(eta) @ omega
        assert_allclose(back, eta_dot, atol=1e-12)


def test_cross3_matches_np_cross_bitwise():
    rng = np.random.default_rng(5)

    def vecs(shape):
        return rng.normal(size=shape) * 10.0 ** rng.integers(-6, 4, size=shape)

    a, b = vecs((40, 3)), vecs((40, 3))
    ac, bc = a + 1j * vecs((40, 3)), b + 1j * vecs((40, 3))
    pairs = [(a, b), (ac, bc), (a, bc), (a, b[0]), (a[0], b), (ac, bc[7]),
             (a[0], b[0]), (a[:, None, :], b[None, :5, :])]
    for x, y in pairs:
        got, ref = att.cross3(x, y), np.cross(x, y)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def test_euler_body_z_is_third_rotmat_column():
    rng = np.random.default_rng(6)
    eta = rng.uniform(-np.pi, np.pi, size=(200, 3))
    col = np.ascontiguousarray(euler_to_rotmat(eta)[..., :, 2])
    assert att.euler_body_z(eta).tobytes() == col.tobytes()
