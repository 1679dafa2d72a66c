import pytest

from swarmlift import mav, oracles
from swarmlift.cli import main
from swarmlift.oracles import oracle_suite


def _negate_gravity(monkeypatch):
    # translational_dynamics reads mav.G_EZ at call time
    monkeypatch.setattr(mav, "G_EZ", -mav.G_EZ)


def _negate_gyroscopic_torque(monkeypatch):
    # rotational_dynamics reads mav.cross3 at call time
    cross3 = mav.cross3
    monkeypatch.setattr(mav, "cross3", lambda a, b: -cross3(a, b))


def _negate_drag(monkeypatch):
    # the drag term has no global to patch: the suite's kernel is wrapped
    kernel = oracles.translational_dynamics
    monkeypatch.setattr(
        oracles, "translational_dynamics",
        lambda R, v, F, drag, F_ext, params: kernel(R, v, F, -drag, F_ext,
                                                    params))


# a sign error injected into a kernel, and the one check it must trip
MUTATIONS = {
    "gravity_sign": (_negate_gravity, "free-fall acceleration equals -g"),
    "coriolis_sign": (_negate_gyroscopic_torque, "gyroscopic torque sign"),
    "drag_sign": (_negate_drag, "rotor drag opposes velocity"),
}


def test_clean_suite_passes():
    report = oracle_suite()
    assert report.all_passed, report.summary()
    names = [r.name for r in report.results]
    assert {check for _, check in MUTATIONS.values()} <= set(names)


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_mutation_fails_exactly_its_check(monkeypatch, mutation):
    inject, check = MUTATIONS[mutation]
    inject(monkeypatch)
    report = oracle_suite()
    failed = [r.name for r in report.results if not r.passed]
    assert failed == [check]


def test_cli_oracles_exit_codes(monkeypatch, capsys):
    assert main(["oracles"]) == 0
    assert capsys.readouterr().out.rstrip().endswith("ALL PASS")
    for inject, check in MUTATIONS.values():
        with monkeypatch.context() as patch:
            inject(patch)
            assert main(["oracles"]) == 3
        out = capsys.readouterr().out
        assert f"[FAIL] {check}:" in out
        assert out.rstrip().endswith("FAILURES PRESENT")
