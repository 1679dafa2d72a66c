import pytest

from swarmlift.cli import main
from swarmlift.oracles import MUTATIONS, oracle_suite

# the check each injected defect must trip, and no other
MUTATION_CHECK = {
    "gravity_sign": "free-fall acceleration equals -g",
    "coriolis_sign": "gyroscopic torque sign",
    "drag_sign": "rotor drag opposes velocity",
}


def test_clean_suite_passes():
    report = oracle_suite()
    assert report.all_passed, report.summary()
    names = [r.name for r in report.results]
    assert set(MUTATION_CHECK.values()) <= set(names)


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_mutation_fails_exactly_its_check(mutation):
    report = oracle_suite(mutate=mutation)
    failed = [r.name for r in report.results if not r.passed]
    assert failed == [MUTATION_CHECK[mutation]]


def test_unknown_mutation_rejected():
    with pytest.raises(ValueError):
        oracle_suite(mutate="mass_sign")


def test_cli_oracles_exit_codes(capsys):
    assert main(["oracles"]) == 0
    assert capsys.readouterr().out.rstrip().endswith("ALL PASS")
    for mutation in MUTATIONS:
        assert main(["oracles", "--mutate", mutation]) == 3
        out = capsys.readouterr().out
        assert f"[FAIL] {MUTATION_CHECK[mutation]}:" in out
        assert out.rstrip().endswith("FAILURES PRESENT")
    # an unknown mutation is a rejected input: one error line, exit 4
    assert main(["oracles", "--mutate", "mass_sign"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "swarmlift: error: --mutate 'mass_sign' is not one of "
        + ", ".join(MUTATIONS)]
