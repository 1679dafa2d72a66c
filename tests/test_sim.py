import hashlib
import io
import json
import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from swarmlift.errors import ScenarioError
from swarmlift.mav import GRAVITY
from swarmlift import ekf as ekf_mod
from swarmlift import simulate
from swarmlift import ukf as ukf_mod
from swarmlift.cli import main
from swarmlift.scenario import Scenario, scenario_from_dict
from swarmlift.simulate import RunLog, replay_log, run_scenario

BEAM = {
    "n_agents": 2, "duration": 5.0,
    "payload": {"mass": 1.8, "side": 1.5, "inertia": [0.01, 0.3375, 0.3375]},
    "tuning": {"M": 8.0, "C": 6.0},
    "estimator": "nominal",
    "rates": {"Ts_dyn": 0.005},
}


def beam(**over):
    cfg = dict(BEAM)
    cfg.update(over)
    return scenario_from_dict(cfg)


def test_scenario_validation():
    with pytest.raises(ScenarioError):
        scenario_from_dict({"n_agents": 2})  # duration missing
    with pytest.raises(ScenarioError):
        scenario_from_dict({"n_agents": 2, "duration": 1.0,
                            "rates": {"Ts_dyn": 0.004}})  # 100 Hz mismatch
    with pytest.raises(ScenarioError):
        scenario_from_dict({"n_agents": 2, "duration": 1.0,
                            "estimator": "magic"})


# one misspelled key per section of the schema
UNKNOWN_KEYS = {
    "top": {"nosie": {"p": 0.01}},
    "noise": {"noise": {"pos": 0.01}},
    "rates": {"rates": {"Ts": 0.001}},
    "tuning": {"tuning": {"m": 8.0}},
    "mission": {"mission": {"land": 3.0}},
    "payload": {"payload": {"mas": 1.2}},
    "mav": {"mav": {"allocation": {"k_f": 1e-5}}},
}


@pytest.mark.parametrize("section", sorted(UNKNOWN_KEYS))
def test_unknown_key_fails_at_load(section):
    with pytest.raises(ScenarioError, match="unknown key"):
        beam(**UNKNOWN_KEYS[section])


def test_unknown_event_action_fails_at_load():
    with pytest.raises(ScenarioError, match="unknown event action"):
        beam(events=[{"t": 1.0, "action": "master_jump"}])


@pytest.mark.parametrize("action,arg", [("master_step", "dp"),
                                        ("master_velocity", "v")])
def test_event_vector_needs_length_three(action, arg):
    with pytest.raises(ScenarioError, match="length 3"):
        beam(events=[{"t": 1.0, "action": action, arg: [0.5, 0.2]}])


def test_negative_noise_fails_at_load():
    with pytest.raises(ScenarioError, match="non-negative"):
        beam(noise={"p": 0.01, "att": -0.001})


OUT_OF_RANGE = {
    "seed": {"seed": -1},
    "divergence_bound": {"divergence_bound": 0.0},
    "mission.dh": {"mission": {"dh": -0.25}},
}


@pytest.mark.parametrize("field", sorted(OUT_OF_RANGE))
def test_out_of_range_value_fails_at_load(field):
    with pytest.raises(ScenarioError, match=field):
        beam(**OUT_OF_RANGE[field])


# values that once raised ZeroDivisionError or a bare ValueError at load,
# or loaded and failed later or loaded as something else ("false" as True)
BAD_NUMBERS = {
    "rates.controller": {"rates": {"controller": 0}},
    "rates.estimator": {"rates": {"estimator": 0}},
    "tuning.M": {"tuning": {"M": -1.0}},
    "tuning.M nan": {"tuning": {"M": float("nan")}},
    "payload.mass": {"payload": {"mass": 0.0}},
    "payload.mass negative": {"payload": {"mass": -1.8}},
    "mission.tol": {"mission": {"tol": -0.05}},
    "payload inertia": {"payload": {"inertia": [0.01, -0.3, 0.3]}},
    "mav": {"mav": {"m": -3.5}},
    "admittance": {"admittance": {"F_lo": -0.3}},
    "mission.land_at": {"mission": {"land_at": "soon"}},
    "mission.land_at negative": {"mission": {"land_at": -1.0}},
    "start_engaged": {"start_engaged": "false"},
    "mission.auto": {"mission": {"auto": "false"}},
}


@pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
def test_bad_number_fails_at_load(case):
    with pytest.raises(ScenarioError, match=case.split()[0]):
        beam(**BAD_NUMBERS[case])


# agent values that loaded and then divided by zero in run_scenario (a zero
# motor lag) or ran with a negative lag or thrust limit
BAD_MAV = {
    "tau_motor zero": ({"tau_motor": 0.0}, "time constants"),
    "tau_motor negative": ({"tau_motor": -0.05}, "time constants"),
    "F_prop_max zero": ({"F_prop_max": 0.0}, "F_prop_max"),
    "F_prop_max negative": ({"F_prop_max": -1.0}, "F_prop_max"),
}


@pytest.mark.parametrize("case", sorted(BAD_MAV))
def test_bad_mav_value_fails_at_load(case):
    mav, match = BAD_MAV[case]
    with pytest.raises(ScenarioError, match=f"mav: {match}"):
        beam(mav=mav)


# documents that loaded, or failed later or with another error than
# ScenarioError: counts and seeds that are not integers, numbers given as
# bools or strings, non-finite values, an integer too large for a float, a
# payload side of no length and an attachment list that does not match the
# team
REJECTED_AT_LOAD = {
    "n_agents true": ({"n_agents": True}, "n_agents"),
    "n_agents fractional": ({"n_agents": 2.7}, "n_agents"),
    "n_agents string": ({"n_agents": "3"}, "n_agents"),
    "seed true": ({"seed": True}, "seed"),
    "seed fractional": ({"seed": 1.9}, "seed"),
    "duration true": ({"duration": True}, "duration"),
    "Ts_dyn string": ({"rates": {"Ts_dyn": "0.001"}}, "rates.Ts_dyn"),
    "altitude negative": ({"transport_altitude": -5}, "transport_altitude"),
    "altitude nan": ({"transport_altitude": float("nan")},
                     "transport_altitude"),
    "altitude string": ({"transport_altitude": "abc"}, "transport_altitude"),
    "noise inf": ({"noise": {"p": float("inf")}}, "noise.p"),
    "noise true": ({"noise": {"p": True}}, "noise.p"),
    "event time nan": ({"events": [
        {"t": 0.2, "action": "master_step", "dp": [0.1, 0.0, 0.0]},
        {"t": float("nan"), "action": "compute_offset"},
        {"t": 0.1, "action": "master_step", "dp": [0.1, 0.0, 0.0]}]},
        "compute_offset t"),
    "event action list": ({"events": [{"t": 0.1, "action": ["master_step"]}]},
                          "unknown event action"),
    "event vector inf": ({"events": [
        {"t": 0.1, "action": "master_step", "dp": [0.1, float("inf"), 0]}]},
        "length 3"),
    "side negative": ({"payload": {"side": -1}}, "payload.side"),
    "side zero": ({"payload": {"side": 0}}, "payload.side"),
    "height true": ({"payload": {"height": True}}, "payload.height"),
    "duration beyond float": ({"duration": 10**400}, "duration"),
    "attachments short": ({"n_agents": 3, "payload": {
        "attachments": [[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]]}},
        "payload.attachments"),
    # numpy casts a bool listed among numbers to 1.0 or 0.0
    "attachments with a bool": ({"payload": {
        "attachments": [[0.5, 0.0, 0.0], [-0.5, 0.0, True]]}},
        "payload: attachments"),
    "event vector with a bool": ({"events": [
        {"t": 0.1, "action": "master_step", "dp": [True, 0.0, 0.0]}]},
        "length 3"),
}


@pytest.mark.parametrize("case", sorted(REJECTED_AT_LOAD))
def test_malformed_value_fails_at_load(case):
    over, match = REJECTED_AT_LOAD[case]
    with pytest.raises(ScenarioError, match=match):
        beam(**over)


# parameter-object values that loaded and failed in run_scenario (an
# IndexError or a broadcast error), raised a bare ValueError or TypeError,
# or ran with a NaN or infinite parameter
BAD_PARAMS = {
    "mav m nan": ({"mav": {"m": float("nan")}}, "mav: m "),
    "mav m string": ({"mav": {"m": "3"}}, "mav: m "),
    "mav k_drag nan": ({"mav": {"k_drag": float("nan")}}, "mav: k_drag"),
    "mav m_bar negative": ({"mav": {"m_bar": -1.0}}, "mav: m_bar"),
    "mav m_bar zero": ({"mav": {"m_bar": 0.0}}, "mav: m_bar"),
    "mav J short": ({"mav": {"J": [0.08, 0.08]}}, "mav: J "),
    "mav K_P short": ({"mav": {"K_P": [17.0, 17.0]}}, "mav: K_P"),
    "mav K_D long": ({"mav": {"K_D": [15.0, 15.0, 10.0, 1.0]}}, "mav: K_D"),
    "mav K_drag short": ({"mav": {"K_drag": [0.25, 0.25]}}, "mav: K_drag"),
    "admittance M nan": ({"admittance": {"M": [float("nan"), 8.0, 8.0]}},
                         "admittance: M "),
    "admittance C nan": ({"admittance": {"C": [6.0, float("nan"), 120.0]}},
                         "admittance: C "),
    "admittance M short": ({"admittance": {"M": [8.0, 8.0]}},
                           "admittance: M "),
    "admittance F_hi inf": ({"admittance": {"F_hi": float("inf")}},
                            "admittance: F_hi"),
    "payload inertia short": ({"payload": {"inertia": [0.01, 0.3]}},
                              "payload: J_p"),
    "payload drag_F short": ({"payload": {"drag_F": [0.2, 0.1]}},
                             "payload: drag_F"),
    "payload drag_M long": ({"payload": {"drag_M": [0.0, 0.0, 0.0, 0.0]}},
                            "payload: drag_M"),
    # a bool among numbers, which numpy casts to 1.0 or 0.0
    "mav J with a bool": ({"mav": {"J": [True, 0.08, 0.14]}}, "mav: J "),
    "admittance K with a bool": ({"admittance": {"K": [True, 0.0, 400.0]}},
                                 "admittance: K "),
    "payload inertia with a bool": (
        {"payload": {"inertia": [0.01, True, 0.3375]}}, "payload: J_p"),
    "payload drag_F with a bool": ({"payload": {"drag_F": [0.2, False, 0.3]}},
                                   "payload: drag_F"),
}


@pytest.mark.parametrize("case", sorted(BAD_PARAMS))
def test_bad_parameter_object_value_fails_at_load(case):
    over, match = BAD_PARAMS[case]
    with pytest.raises(ScenarioError, match=match):
        beam(**over)


# admittance.M and .C whose lateral entries contradict the tuning that sets
# them, given or default (8, 6); INTEGER_DOCUMENT gives agreeing ones
CONTRADICTORY_ADMITTANCE = {
    "M against the default": {"admittance": {"M": [4.0, 4.0, 8.0]}},
    "C against a given tuning": {"tuning": {"C": 12.0},
                                 "admittance": {"C": [6.0, 6.0, 120.0]}},
    "one lateral entry": {"tuning": {"M": 4.0},
                          "admittance": {"M": [4.0, 8.0, 8.0]}},
}


@pytest.mark.parametrize("case", sorted(CONTRADICTORY_ADMITTANCE))
def test_contradictory_admittance_fails_at_load(case):
    over = CONTRADICTORY_ADMITTANCE[case]
    key = "M" if "M" in over["admittance"] else "C"
    with pytest.raises(ScenarioError, match=rf"admittance\.{key} .* tuning"):
        beam(**over)


def test_parameter_objects_change_only_through_replace():
    sc = beam()
    for obj, name in ((sc, "seed"), (sc.mav, "m"), (sc.payload, "m_p"),
                      (sc.adm, "F_hi"), (sc.mav, "weight")):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))
    with pytest.raises(ScenarioError, match="estimator rate"):
        replace(sc, est_rate=33.0)
    # the copy runs __post_init__: the tuning sets the lateral admittance
    retuned = replace(sc, tuning_M=4.0, tuning_C=12.0)
    assert retuned.adm.M.tolist() == [4.0, 4.0, sc.adm.M[2]]
    assert retuned.adm.C.tolist() == [12.0, 12.0, sc.adm.C[2]]
    assert replace(sc).config_hash() == sc.config_hash()


@pytest.mark.parametrize("change", ["m_bar", "n_agents"])
def test_derived_payload_follows_replace(change):
    # a payload that no document gave is derived again, as loading the
    # changed document derives it; a derived payload once stayed 1.5 kg
    doc = {"n_agents": 3, "duration": 1.0}
    sc = scenario_from_dict(doc)
    if change == "m_bar":
        changed = replace(sc, mav=replace(sc.mav, m_bar=2.0))
        doc["mav"] = {"m_bar": 2.0}
    else:
        changed = replace(sc, n_agents=4)
        doc["n_agents"] = 4
    loaded = scenario_from_dict(doc)
    assert changed.payload.m_p == loaded.payload.m_p
    assert changed.config_hash() == loaded.config_hash()
    assert replace(changed).config_hash() == loaded.config_hash()


def test_given_payload_is_kept_under_replace():
    sc = scenario_from_dict({"n_agents": 3, "duration": 1.0,
                             "payload": {"mass": 2.0}})
    changed = replace(sc, mav=replace(sc.mav, m_bar=2.0))
    assert changed.payload is sc.payload
    with pytest.raises(ScenarioError, match="3 rows for 4 agents"):
        replace(sc, n_agents=4)


def test_parameter_objects_cannot_change_in_place():
    # both writes once went through silently, skipping the checks
    sc = beam(events=[{"t": 0.5, "action": "master_step",
                       "dp": [0.1, 0.0, 0.0]}])
    with pytest.raises(ValueError, match="read-only"):
        sc.mav.J[:] = -1.0
    with pytest.raises(AttributeError):
        sc.events.append({"t": -5, "action": "bogus"})
    arrays = [sc.mav.J, sc.mav.K_drag, sc.mav.K_P, sc.mav.K_D, sc.mav.weight,
              sc.mav.tau_thrust, sc.mav.thrust_lo, sc.mav.thrust_hi,
              sc.mav.allocation.matrix, sc.mav.allocation.pinv,
              sc.payload.J_p, sc.payload.attachments, sc.payload.drag_F,
              sc.payload.drag_M, sc.adm.M, sc.adm.C, sc.adm.K]
    assert not any(a.flags.writeable for a in arrays)
    assert sc.mav.J.tolist() == [0.08, 0.08, 0.14]
    assert len(sc.events) == 1
    # the object holds a copy: the caller's array stays writable
    J = np.array([0.1, 0.1, 0.2])
    assert replace(sc.mav, J=J).J is not J
    J[:] = 1.0


def test_noise_and_events_cannot_change_in_place():
    # each write once went through silently: the hash moved and the run
    # diverged at tick 0 on a document that passed every load-time check
    sc = scenario_from_dict({
        "n_agents": 2, "duration": 0.1, "noise": {"p": 0.01},
        "events": [{"t": 0.05, "action": "master_step",
                    "dp": [0.1, 0, 0]}]})
    with pytest.raises(TypeError):
        sc.noise["p"] = -1.0
    with pytest.raises(TypeError):
        sc.events[0]["t"] = -5.0
    with pytest.raises(TypeError):
        sc.events[0]["dp"][0] = float("nan")
    assert sc.noise == {"p": 0.01} and sc.events[0]["dp"] == (0.1, 0, 0)
    assert sc.config_hash() == "7861163d63ec840a"
    assert replace(sc).config_hash() == sc.config_hash()
    assert not run_scenario(sc).diverged


def assert_cli_error(capsys, argv, match):
    """main(argv) rejects its input: exit status 4, and the last stderr
    line, the only error line, is `swarmlift: error: <message>` with the
    message matching."""
    assert main(argv) == 4
    lines = capsys.readouterr().err.splitlines()
    errors = [ln for ln in lines if ln.startswith("swarmlift: error: ")]
    assert errors == lines[-1:]
    assert re.search(match, errors[0]), errors[0]


def test_duration_of_a_part_tick_is_rejected(tmp_path, capsys):
    # round() would run 2, 2 and 4 ticks, halves rounding to even; 1e307 s
    # is 1e309 ticks, which overflows to inf
    cfg = tmp_path / "beam.json"
    cfg.write_text(json.dumps(BEAM))
    for duration in (0.015, 0.025, 0.035, 0.006, 1.0 + 1e-6, 1e307):
        with pytest.raises(ScenarioError, match="whole number of ticks"):
            scenario_from_dict({"n_agents": 2, "duration": duration})
        assert_cli_error(capsys, ["simulate", str(cfg), "--out-dir",
                                  str(tmp_path), "--duration", str(duration)],
                         "duration.*whole number of ticks")
    assert not (tmp_path / "beam_run.csv").exists()
    # a whole count loads within the rate checks' 1e-9 of a tick
    for duration, ticks in ((0.3, 30), (0.07, 7), (1.0 + 1e-12, 100)):
        sc = scenario_from_dict({"n_agents": 2, "duration": duration})
        assert round(sc.duration * sc.ctrl_rate) == ticks
    assert scenario_from_dict({"n_agents": 2, "duration": 0.1, "rates": {
        "controller": 50.0, "estimator": 50.0}}).ctrl_rate == 50.0
    with pytest.raises(ScenarioError, match="whole number of ticks"):
        scenario_from_dict({"n_agents": 2, "duration": 0.01, "rates": {
            "controller": 50.0, "estimator": 50.0}})


def test_overridden_field_is_checked_like_load(tmp_path, capsys):
    import dataclasses

    with pytest.raises(ScenarioError, match="rates.controller"):
        dataclasses.replace(beam(), ctrl_rate=0.0)
    with pytest.raises(ScenarioError, match="mission.land_at"):
        dataclasses.replace(beam(), mission_land_at="soon")
    cfg = tmp_path / "beam.json"
    cfg.write_text(json.dumps(BEAM))
    assert_cli_error(capsys, ["simulate", str(cfg), "--out-dir",
                              str(tmp_path), "--duration", "nan"], "duration")


def test_cli_negative_seed_fails_like_load(tmp_path, capsys):
    cfg = tmp_path / "beam.json"
    cfg.write_text(json.dumps(BEAM))
    assert_cli_error(capsys, ["simulate", str(cfg), "--out-dir",
                              str(tmp_path), "--seed", "-1"], "seed")


def test_cli_simulate_rejects_an_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps(dict(BEAM, durations=1.0)))
    assert_cli_error(capsys, ["simulate", str(cfg), "--out-dir",
                              str(tmp_path)], r"unknown key.*durations")
    assert not (tmp_path / "typo_run.csv").exists()


def test_duration_of_no_controller_tick_is_rejected(tmp_path, capsys):
    # it once loaded and wrote a header-only log, which replay then failed
    for doc in ({"n_agents": 2, "duration": 0.004},
                {"n_agents": 2, "duration": 0.04, "rates": {
                    "Ts_dyn": 0.01, "controller": 10.0, "estimator": 10.0}}):
        with pytest.raises(ScenarioError, match="duration"):
            scenario_from_dict(doc)
    # 0.005 s is half a tick, which rounds to none, as run_scenario counts
    with pytest.raises(ScenarioError, match="duration"):
        scenario_from_dict({"n_agents": 2, "duration": 0.005})
    log = run_scenario(scenario_from_dict({"n_agents": 2, "duration": 0.01}))
    assert log.data.shape[0] == 1
    cfg = tmp_path / "beam.json"
    cfg.write_text(json.dumps(BEAM))
    assert_cli_error(capsys, ["simulate", str(cfg), "--out-dir",
                              str(tmp_path), "--duration", "0.004"],
                     "duration")
    assert not (tmp_path / "beam_run.csv").exists()


def test_config_hash_identifies_resolved_scenario():
    base = Scenario(n_agents=2, duration=1.0)
    assert base.config_hash() == Scenario(n_agents=2, duration=1.0).config_hash()
    # the same run, loaded or built in code, hashes alike
    assert base.config_hash() == scenario_from_dict(
        {"n_agents": 2, "duration": 1.0}).config_hash()
    hashes = {base.config_hash(),
              Scenario(n_agents=2, duration=1.0, seed=1).config_hash(),
              Scenario(n_agents=2, duration=2.0).config_hash(),
              beam(duration=1.0).config_hash()}
    assert len(hashes) == 4


def test_cli_simulate_seed_changes_config_hash(tmp_path, monkeypatch):
    logs = []

    def recording_run(sc):
        logs.append(run_scenario(sc))
        return logs[-1]

    monkeypatch.setattr(simulate, "run_scenario", recording_run)
    cfg = tmp_path / "beam.json"
    cfg.write_text(json.dumps(BEAM))
    args = ["simulate", str(cfg), "--out-dir", str(tmp_path), "--duration",
            "0.05"]
    for extra in ([], ["--seed", "0"], ["--seed", "5"]):
        assert main(args + extra) == 0
    hashes = [log.meta["config_hash"] for log in logs]
    assert hashes[0] == hashes[1] != hashes[2]


def test_hover_is_exact_equilibrium():
    log = run_scenario(beam(duration=10.0))
    pl = log.cols(["pl_px", "pl_py", "pl_pz"])
    assert np.max(np.abs(pl - pl[0])) < 1e-6
    assert not log.diverged


def test_determinism_bit_identical():
    a = run_scenario(beam(events=[{"t": 1.0, "action": "master_step",
                                   "dp": [0.5, 0.2, 0.0]}]))
    b = run_scenario(beam(events=[{"t": 1.0, "action": "master_step",
                                   "dp": [0.5, 0.2, 0.0]}]))
    assert a.data.tobytes() == b.data.tobytes()


def test_determinism_with_noise_seeded():
    kw = dict(noise={"p": 1e-3, "att": 1e-3}, estimator="ekf", seed=7,
              events=[{"t": 1.0, "action": "master_step", "dp": [0.3, 0, 0]}])
    a = run_scenario(beam(**kw))
    b = run_scenario(beam(**kw))
    assert a.data.tobytes() == b.data.tobytes()
    kw["seed"] = 8
    c = run_scenario(beam(**kw))
    assert a.data.tobytes() != c.data.tobytes()


def test_payload_log_invariant_under_agent_inertia_scaling():
    ev = [{"t": 1.0, "action": "master_step", "dp": [0.5, 0.2, 0.0]}]
    a = run_scenario(beam(events=ev))
    b = run_scenario(beam(events=ev, mav={"J": [0.8, 0.8, 1.4]}))
    assert a.payload_bytes() == b.payload_bytes()


def test_integrator_order_on_smooth_scenario():
    def final(ts):
        sc = beam(duration=4.0,
                  admittance={"F_lo": 0.001, "T_lo": 100.0},
                  rates={"Ts_dyn": ts},
                  events=[{"t": 0.5, "action": "master_velocity",
                           "v": [0.4, 0.2, 0.0]}])
        return run_scenario(sc).cols(["pl_px", "pl_py", "pl_pz"])[-1]

    e_coarse = np.linalg.norm(final(0.005) - final(0.0025))
    e_fine = np.linalg.norm(final(0.0025) - final(0.00125))
    assert e_coarse / e_fine > 8.0  # at least 3rd order


def test_rate_separation_zero_order_hold():
    # controller outputs are held between ticks: commanded thrust magnitude
    # changes only at controller instants even with a fine dynamics step
    sc = beam(duration=1.0, rates={"Ts_dyn": 0.001},
              events=[{"t": 0.2, "action": "master_step", "dp": [0.5, 0, 0]}])
    log = run_scenario(sc)
    t = log.t
    dt = np.diff(t)
    assert_allclose(dt, dt[0], rtol=1e-9)  # fixed-step, monotone log


def test_divergence_flagged_not_raised():
    sc = beam(duration=20.0, tuning={"M": 0.05, "C": 0.01},
              divergence_bound=5.0,
              events=[{"t": 1.0, "action": "master_step", "dp": [1.0, 0, 0]}])
    log = run_scenario(sc)
    assert log.diverged
    assert log.diverged_step is not None
    assert log.data.shape[0] == log.diverged_step + 1


@pytest.mark.parametrize("thrust_model", ["attitude", "lag"])
def test_nan_velocity_is_flagged_at_its_own_tick(monkeypatch, thrust_model):
    sc = beam(duration=0.1, thrust_model=thrust_model)
    integrate_tick, ticks = simulate.integrate_tick, []

    def nan_after_tick_4(*args):
        x, xa = integrate_tick(*args)
        ticks.append(args[-1])
        if len(ticks) == 5:  # the end of tick 4
            x[3] = np.nan  # the payload's vx
        return x, xa

    monkeypatch.setattr(simulate, "integrate_tick", nan_after_tick_4)
    log = run_scenario(sc)
    assert log.diverged and log.diverged_step == 4
    assert log.data.shape[0] == 5 and np.all(np.isfinite(log.data))


def test_attitude_thrust_is_one_batched_call_per_tick(monkeypatch):
    # the tick's own thrust and one call for all 4 x steps_per_ctrl RK4
    # stages, not one call per stage
    sc = beam(duration=0.2, rates={"Ts_dyn": 1e-3})
    euler_body_z, rows = simulate.euler_body_z, []

    def counted(eta):
        rows.append(np.shape(eta)[:-2])
        return euler_body_z(eta)

    monkeypatch.setattr(simulate, "euler_body_z", counted)
    log = run_scenario(sc)
    assert not log.diverged and len(log.t) == 20
    assert len(rows) <= 2 * len(log.t)
    assert rows.count((4 * sc.steps_per_ctrl,)) == len(log.t)


def test_csv_round_trip():
    log = run_scenario(beam(duration=1.0))
    buf = io.StringIO()
    log.to_csv(buf)
    buf.seek(0)
    loaded = RunLog.from_csv(buf)
    assert loaded.columns == log.columns
    assert np.array_equal(loaded.data, log.data)
    assert loaded.diverged == log.diverged


def test_replay_reestimates_force():
    sc = beam(duration=8.0, estimator="ekf",
              events=[{"t": 1.0, "action": "master_step", "dp": [0.6, 0, 0]}])
    log = run_scenario(sc)
    out = replay_log(log, sc, agent=1)
    # replayed estimate reproduces the in-loop estimate after its own
    # initialization transient
    t = out[:, 0]
    inloop = log.cols(["a1_Fhatx", "a1_Fhaty", "a1_Fhatz"])
    sel = t > 4.0
    assert np.max(np.abs(out[sel, 1:] - inloop[sel])) < 0.2


def test_mission_auto_full_profile():
    sc = beam(duration=60.0, start_engaged=False,
              mission={"auto": True, "dh": 0.25, "tol": 0.05, "land_at": 30.0})
    log = run_scenario(sc)
    phases = log.col("mission_phase")
    # grounded(0) -> ascending(1) -> transporting(2) -> descending(3) -> landed(4)
    seen = [p for k, p in enumerate(phases) if k == 0 or p != phases[k - 1]]
    assert seen == [1.0, 2.0, 3.0, 4.0] or seen == [0.0, 1.0, 2.0, 3.0, 4.0]
    # transport altitude reached before engagement
    i_tr = np.argmax(phases == 2.0)
    assert abs(log.col("a0_pz")[i_tr] - (1.2 - sc.payload.m_p * GRAVITY
                                         / (2 * sc.mav.K_P[2]))) < 0.1
    # slaves engaged exactly during transporting
    fsm = log.col("a1_fsm")
    assert np.all(fsm[phases == 0.0] == 0)
    assert np.all(fsm[phases == 2.0] >= 1)
    # the handover keeps the beam level: once the offset is calibrated, the
    # slave holds the master's altitude
    t = log.t
    calibrated = (phases == 2.0) & (t >= t[i_tr] + sc.adm.T_avg)
    assert calibrated.any()
    tilt = np.abs(log.col("a1_pz") - log.col("a0_pz"))[calibrated]
    assert np.max(tilt) < 0.01
    assert not log.diverged



def _max_ref_step(log, agent, t_from, axes="xyz"):
    """Largest change of an agent's logged reference between two ticks."""
    ref = log.cols([f"a{agent}_Lref{ax}" for ax in axes])[log.t > t_from]
    return np.max(np.abs(np.diff(ref, axis=0)))


def test_disengaged_slave_holds_handed_back_reference():
    sc = beam(duration=8.0, events=[
        {"t": 0.5, "action": "master_step", "dp": [1.0, 0.0, 0.0]},
        {"t": 6.0, "action": "disengage_slaves"}])
    log = run_scenario(sc)
    assert log.col("a1_fsm")[-1] == 0
    # the payload moved about 1 m; the slave keeps the reference the FSM
    # handed back instead of snapping to its takeoff position
    assert _max_ref_step(log, 1, 5.0) < 0.01
    assert log.col("a1_px")[-1] > 0.2


def test_engage_event_latches_held_reference():
    sc = beam(duration=8.0, start_engaged=False, events=[
        {"t": 2.0, "action": "engage_slaves"},
        {"t": 2.0, "action": "compute_offset"}])
    log = run_scenario(sc)
    assert log.col("a1_fsm")[-1] >= 1
    # latched at the held reference and calibrated, the slave holds the
    # master's altitude rather than its own sagged pose
    assert abs(log.col("a1_pz")[-1] - log.col("a0_pz")[-1]) < 0.01


# events the FSM refuses: an offset for disengaged slaves, and an offset
# removed after the slaves disengaged
REFUSED_EVENTS = {
    "compute_offset": (False, [{"t": 0.1, "action": "compute_offset"}]),
    "remove_offset": (True, [{"t": 0.1, "action": "disengage_slaves"},
                             {"t": 0.2, "action": "remove_offset"}]),
}


@pytest.mark.parametrize("case", sorted(REFUSED_EVENTS))
def test_refused_event_fails_the_scenario(case, tmp_path, capsys):
    start_engaged, events = REFUSED_EVENTS[case]
    doc = {"n_agents": 2, "duration": 0.3, "start_engaged": start_engaged,
           "events": events}
    message = f"{case} at t={events[-1]['t']}: not engaged"
    with pytest.raises(ScenarioError, match=message):
        run_scenario(scenario_from_dict(doc))
    cfg = tmp_path / "refused.json"
    cfg.write_text(json.dumps(doc))
    assert_cli_error(capsys, ["simulate", str(cfg), "--out-dir",
                              str(tmp_path)], message)


def test_mission_descent_keeps_transported_position():
    sc = beam(duration=16.0, start_engaged=False, transport_altitude=0.5,
              mission={"auto": True, "dh": 0.25, "tol": 0.05,
                       "land_at": 8.0},
              events=[{"t": 5.0, "action": "master_step",
                       "dp": [0.5, 0.0, 0.0]}])
    log = run_scenario(sc)
    phases = log.col("mission_phase")
    assert phases[-1] == 4.0 and not log.diverged
    # no horizontal snap back to the takeoff position on descent, for the
    # master or the slave, while set_altitude still lowers both to ground
    for agent in (0, 1):
        assert _max_ref_step(log, agent, 6.0, axes="xy") < 0.01
        assert log.col(f"a{agent}_Lrefz")[-1] == 0.0
    assert log.col("a0_px")[-1] > 1.2


# Short seeded noisy runs on a tilted, dragged 3-agent payload: a master
# velocity ramp and step drive the slaves' admittance while every thrust
# model and estimator runs. The digests pin the integrator's arithmetic.
# (thrust_model, estimator, n_agents); the 5-agent case pins a stacked
# filter of more than two slaves
GOLDEN_CASES = [("attitude", "ekf", 3), ("attitude", "ukf", 3),
                ("attitude", "nominal", 3), ("lag", "ekf", 3),
                ("lag", "ukf", 3), ("lag", "ukf", 5)]
GOLDEN_IDS = [f"{m}-{e}" + ("" if n == 3 else f"-n{n}")
              for m, e, n in GOLDEN_CASES]


def golden_scenario(thrust_model, estimator, n_agents=3):
    return scenario_from_dict({
        "n_agents": n_agents, "duration": 0.3, "seed": 11,
        "estimator": estimator, "thrust_model": thrust_model,
        "payload": {"mass": 1.2, "height": 0.1, "drag_F": [0.2, 0.1, 0.3],
                    "drag_M": [0.02, 0.03, 0.01]},
        "noise": {"p": 0.01, "v": 0.02, "att": 0.005, "rate": 0.01},
        "admittance": {"F_hi": 0.2, "F_lo": 0.1, "T_hi": 0.02},
        "events": [
            {"t": 0.05, "action": "master_velocity", "v": [0.4, -0.3, 0.1]},
            {"t": 0.1, "action": "master_step", "dp": [0.2, 0.1, -0.05]}],
    })


# sha256 of (payload_bytes(), the whole log) per case
GOLDEN_DIGESTS = {
    ("attitude", "ekf"): (
        "9f3cbb21d043d65f441a3fdbed8bd8dcb07dea9d0db2fb7aff79206a6de071d8",
        "18365df70f84bf62856333fd1821fac86cfbab0e549dc19859ea953de39da78a"),
    ("attitude", "ukf"): (
        "158c4b00486bc7f8ef0c58b1c7744ccb42d9d6cd101fb53b471b5ff3a3b8946f",
        "974baa3cbaa9f8c3e3afe8e43277aec9f84902861663f394fd840ce682326828"),
    ("attitude", "nominal"): (
        "682a4e9ea2491b87bb86694bd996a2a5db167c435a958716483778e37ed836b4",
        "a3e6ec9b8d94bbbb1f0aee42294da557978dc8d67c85a44b99335cef0dbf9724"),
    ("lag", "ekf"): (
        "a1092874a7459eca2b061f0af3434ce99cd0c62b5ee287e45f79bd522f15797a",
        "abc558bb7d1c64f9c7b4ad18922fafcf59c0c027e281a9e5c60ad5accdd3ffc1"),
    ("lag", "ukf"): (
        "241593d75399039b770c7dd07d8aec49f89208e3ba098b02f4fed0eab997766a",
        "bb88c93ff2b287d67fb6197308267f34a83d7b092f68168203ff9b6d625455ec"),
    ("lag", "ukf", 5): (
        "ad982690c4a3e0ac48b06937fce26f73903fa7836c6518e88298c0255873f41e",
        "b26b1b7f624600fdf628f91c2b022704bdf5f2d57eb01010e44fad804b1d5c03"),
}


@pytest.mark.parametrize("thrust_model,estimator,n_agents", GOLDEN_CASES,
                         ids=GOLDEN_IDS)
def test_golden_log_digest(thrust_model, estimator, n_agents):
    log = run_scenario(golden_scenario(thrust_model, estimator, n_agents))
    assert not log.diverged
    assert np.any(log.col("a1_fsm") == 4)  # the slaves generate
    digests = (hashlib.sha256(log.payload_bytes()).hexdigest(),
               hashlib.sha256(log.data.tobytes()).hexdigest())
    key = (thrust_model, estimator) + (() if n_agents == 3 else (n_agents,))
    assert digests == GOLDEN_DIGESTS[key]


# Whole-log digests of the paths the golden cases skip: slaves that start
# disengaged and go through the engage, calibrate, offset and disengage
# events, and the mission coordinator from takeoff to landing.
def event_scenario():
    return scenario_from_dict({
        "n_agents": 3, "duration": 1.0, "seed": 11, "start_engaged": False,
        "payload": {"mass": 1.2, "height": 0.1, "drag_F": [0.2, 0.1, 0.3],
                    "drag_M": [0.02, 0.03, 0.01]},
        "noise": {"p": 0.01, "v": 0.02, "att": 0.005, "rate": 0.01},
        "admittance": {"T_avg": 0.2, "F_hi": 0.2, "F_lo": 0.1, "T_hi": 0.02},
        "events": [
            {"t": 0.1, "action": "engage_slaves"},
            {"t": 0.15, "action": "compute_offset"},
            {"t": 0.4, "action": "master_velocity", "v": [0.4, -0.3, 0.1]},
            {"t": 0.7, "action": "remove_offset"},
            {"t": 0.8, "action": "disengage_slaves"}],
    })


def mission_scenario():
    return scenario_from_dict({
        "n_agents": 3, "duration": 4.0, "start_engaged": False,
        "transport_altitude": 0.3,
        "mission": {"auto": True, "dh": 0.3, "tol": 0.1, "land_at": 2.5},
    })


def one_agent_scenario():
    # a team of no slaves: the slave events and the coordinator's engage
    # and disengage commands reach zero FSM rows
    return scenario_from_dict({
        "n_agents": 1, "duration": 3.0, "seed": 11, "start_engaged": False,
        "transport_altitude": 0.3,
        "noise": {"p": 0.01, "v": 0.02, "att": 0.005, "rate": 0.01},
        "mission": {"auto": True, "dh": 0.3, "tol": 0.1, "land_at": 2.0},
        "events": [
            {"t": 0.1, "action": "engage_slaves"},
            {"t": 0.15, "action": "compute_offset"},
            {"t": 0.4, "action": "master_velocity", "v": [0.4, -0.3, 0.1]},
            {"t": 0.7, "action": "remove_offset"},
            {"t": 0.8, "action": "disengage_slaves"}],
    })


# scenario, the column whose codes the run must log, the codes, the sha256
# of the whole log
PATH_CASES = {
    "events": (
        event_scenario, "fsm", [0.0, 2.0, 3.0, 4.0],
        "9d10a15175c67b525b4af0867fe01e9a7cded878df4b869a2c57147cdb07db4b"),
    "mission": (
        mission_scenario, "mission_phase", [1.0, 2.0, 3.0, 4.0],
        "d78d7156d4329002465ead27035db7c73380b634a48b55bb9027edfd76cf423b"),
    "one_agent": (
        one_agent_scenario, "mission_phase", [1.0, 2.0, 3.0, 4.0],
        "1e256a8d796c85e49544f65027af48399915c8215d38b4c118b1083ac8dba194"),
}


@pytest.mark.parametrize("case", sorted(PATH_CASES))
def test_whole_log_digest(case):
    make, column, codes, digest = PATH_CASES[case]
    log = run_scenario(make())
    assert not log.diverged
    seen = log.cols([c for c in log.columns if c.endswith(column)])
    assert sorted(set(seen.ravel().tolist()) - {-1.0}) == codes
    assert hashlib.sha256(log.data.tobytes()).hexdigest() == digest


# a document with an integer wherever a float is allowed
INTEGER_DOCUMENT = {
    "n_agents": 3, "duration": 2, "seed": 3,
    "payload": {"mass": 2, "side": 1, "height": 0, "inertia": [1, 1, 2],
                "drag_F": [0, 0, 1], "drag_M": [0, 1, 0]},
    "tuning": {"M": 4, "C": 12},
    "admittance": {"M": [4, 4, 8], "C": [12, 12, 120], "K": [0, 0, 400],
                   "F_hi": 2, "F_lo": 1, "T_hi": 1, "T_lo": 1, "T_avg": 2},
    "mav": {"m": 4, "J": [1, 1, 1], "k_drag": 0, "K_drag": [0, 0, 0],
            "F_prop_max": 90, "phi_cmd_max": 1, "theta_cmd_max": 1,
            "tau_att": 1, "tau_est": 1, "tau_motor": 1, "m_bar": 1,
            "K_P": [17, 17, 30], "K_D": [15, 15, 10]},
    "rates": {"Ts_dyn": 1, "controller": 1, "estimator": 1},
    "noise": {"p": 0, "v": 1, "att": 0, "rate": 0},
    "divergence_bound": 50, "transport_altitude": 2,
    "mission": {"dh": 1, "tol": 1, "land_at": 3},
    "events": [{"t": 1, "action": "master_step", "dp": [1, 0, 0]}],
}


def _bench_sim_scenario(name, seed, monkeypatch):
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    import workloads

    return scenario_from_dict(
        workloads.sim_config(workloads.WORKLOADS[name], seed))


# config_hash of valid documents, so that a change to the loader that
# resolves one of them differently is seen
CONFIG_HASHES = {
    "sim_ekf_n4 seed 0": "56fbb7a8f5857058",
    "sim_ekf_n4 seed 7": "f9d80acf55a13fd6",
    "sim_ukf_n8_lag seed 0": "05a79bacef5d510e",
    "sim_ukf_n8_lag seed 7": "51a6964e83d76da0",
    "BEAM": "7c6e06933918879d",
    "golden attitude-ekf": "1f72e167c15ed274",
    "golden attitude-ukf": "641463a2c0298a64",
    "golden attitude-nominal": "4c0d2a8ffc826efe",
    "golden lag-ekf": "dab11d8963abb1f9",
    "golden lag-ukf": "11c33968dd312706",
    "golden lag-ukf-n5": "bdce0b06e16bf8b5",
    "events": "ffcf56ccc27d071f",
    "mission": "81afaaaed1e32ccf",
    "integers": "968358321122d802",
}


@pytest.mark.parametrize("case", sorted(CONFIG_HASHES))
def test_config_hash_of_valid_document(case, monkeypatch):
    kind, _, rest = case.partition(" ")
    if kind.startswith("sim_"):
        sc = _bench_sim_scenario(kind, int(rest.split()[-1]), monkeypatch)
    elif kind == "golden":
        sc = golden_scenario(*GOLDEN_CASES[GOLDEN_IDS.index(rest)])
    else:
        sc = {"BEAM": beam, "events": event_scenario,
              "mission": mission_scenario,
              "integers": lambda: scenario_from_dict(INTEGER_DOCUMENT)}[kind]()
    assert sc.config_hash() == CONFIG_HASHES[case]


def test_one_stacked_ukf_call_per_estimator_tick(monkeypatch):
    calls = {"predict": [], "update": []}

    def counting(name, fn):
        def wrapped(s, *args, **kw):
            calls[name].append(s.xi.shape)
            return fn(s, *args, **kw)
        return wrapped

    monkeypatch.setattr(ukf_mod, "ukf_predict",
                        counting("predict", ukf_mod.ukf_predict))
    monkeypatch.setattr(ukf_mod, "ukf_update",
                        counting("update", ukf_mod.ukf_update))
    # 10 controller ticks, 5 estimator
    sc = replace(golden_scenario("lag", "ukf", 5), duration=0.1, est_rate=50.0)
    run_scenario(sc)
    assert calls["predict"] == calls["update"] == [(4, ukf_mod.NXI)] * 5


def test_one_stacked_ekf_call_per_estimator_tick(monkeypatch):
    calls = {"predict": [], "update": []}

    def counting(name, fn):
        def wrapped(s, *args, **kw):
            calls[name].append(s.x.shape)
            return fn(s, *args, **kw)
        return wrapped

    monkeypatch.setattr(ekf_mod, "ekf_predict",
                        counting("predict", ekf_mod.ekf_predict))
    monkeypatch.setattr(ekf_mod, "ekf_update",
                        counting("update", ekf_mod.ekf_update))
    # 10 controller ticks, 5 estimator
    sc = replace(golden_scenario("attitude", "ekf", 5), duration=0.1,
                 est_rate=50.0)
    run_scenario(sc)
    assert calls["predict"] == calls["update"] == [(4, ekf_mod.NX)] * 5


@pytest.mark.parametrize("n_agents", [2, 4, 8])
def test_one_stacked_admittance_call_per_tick(monkeypatch, n_agents):
    calls = {"fsm_step": [], "admittance_step": []}

    def counting(name):
        fn = getattr(simulate, name)

        def wrapped(st, *args, **kw):
            calls[name].append((kw.get("command", "none"), st.Lambda_d.shape))
            return fn(st, *args, **kw)
        return wrapped

    for name in calls:
        monkeypatch.setattr(simulate, name, counting(name))
    # 10 controller ticks of engaged slaves
    sc = replace(golden_scenario("attitude", "ekf", n_agents), duration=0.1)
    run_scenario(sc)
    rows = (n_agents - 1, 3)
    # the engage before the first tick, then one call per tick
    assert calls["fsm_step"] == [("engage", rows)] + [("none", rows)] * 10
    assert calls["admittance_step"] == [("none", rows)] * 10


def test_one_team_control_call_per_tick(monkeypatch):
    shapes = {"pd_position_control": [], "attitude_command": [],
              "rotor_speeds_from_wrench": []}

    def counting(name):
        fn = getattr(simulate, name)

        def wrapped(first, *args, **kw):
            shapes[name].append(np.shape(first))
            return fn(first, *args, **kw)
        return wrapped

    for name in shapes:
        monkeypatch.setattr(simulate, name, counting(name))
    # 10 controller ticks
    sc = replace(golden_scenario("attitude", "ekf", 5), duration=0.1)
    run_scenario(sc)
    assert shapes["pd_position_control"] == [(5, 3)] * 10
    assert shapes["attitude_command"] == [(5, 3)] * 10
    # the team's hover speeds before the first tick, then one call per tick
    assert shapes["rotor_speeds_from_wrench"] == [(5, 3)] * 11


def test_cli_simulate_exits_2_on_divergence(tmp_path):
    cfg = tmp_path / "tight.json"
    cfg.write_text(json.dumps(dict(BEAM, divergence_bound=0.5)))
    assert main(["simulate", str(cfg), "--out-dir", str(tmp_path),
                 "--duration", "0.05"]) == 2
    log = RunLog.from_csv(tmp_path / "tight_run.csv")
    assert log.diverged and log.diverged_step == 0
    assert log.data.shape[0] == 1


def test_cli_replay_of_a_one_row_log_exits_4(tmp_path, capsys):
    cfg = tmp_path / "one.json"
    cfg.write_text(json.dumps({"n_agents": 2, "duration": 0.01}))
    assert main(["simulate", str(cfg), "--out-dir", str(tmp_path)]) == 0
    assert RunLog.from_csv(tmp_path / "one_run.csv").data.shape[0] == 1
    capsys.readouterr()
    assert_cli_error(capsys, ["replay", str(tmp_path / "one_run.csv"),
                              "--out-dir", str(tmp_path / "replay")],
                     "at least two rows")
    assert not (tmp_path / "replay").exists()


def test_cli_replay_without_config_of_a_log_at_another_rate(tmp_path,
                                                             capsys):
    # the log ends at 0.475 s, 47.5 ticks of the default 100 Hz
    cfg = tmp_path / "slow.json"
    cfg.write_text(json.dumps({"n_agents": 2, "duration": 0.5, "rates": {
        "controller": 40.0, "estimator": 40.0}}))
    assert main(["simulate", str(cfg), "--out-dir", str(tmp_path)]) == 0
    assert main(["replay", str(tmp_path / "slow_run.csv"), "--out-dir",
                 str(tmp_path / "replay")]) == 0
    assert (tmp_path / "replay" / "replay_estimates.csv").exists()


@pytest.mark.parametrize("t1", [0.0, -0.01, float("nan")],
                         ids=["repeated", "backwards", "nan"])
def test_cli_replay_of_a_log_without_a_positive_step_exits_4(
        tmp_path, capsys, t1):
    # the second row's time, after a first row at t = 0, sets the step
    cfg = tmp_path / "short.json"
    cfg.write_text(json.dumps({"n_agents": 2, "duration": 0.05}))
    assert main(["simulate", str(cfg), "--out-dir", str(tmp_path)]) == 0
    log = RunLog.from_csv(tmp_path / "short_run.csv")
    assert log.t[0] == 0.0
    log.data[1, 0] = t1
    log.to_csv(tmp_path / "edited.csv")
    for estimator in ("ekf", "ukf"):
        capsys.readouterr()
        assert_cli_error(capsys, ["replay", str(tmp_path / "edited.csv"),
                                  "--estimator", estimator, "--config",
                                  str(cfg), "--out-dir",
                                  str(tmp_path / "replay")],
                         "positive finite time step")
    assert not (tmp_path / "replay").exists()


@pytest.mark.parametrize("row, tk", [(3, -7.0), (4, float("nan")),
                                     (2, float("inf")), (5, 0.0501)],
                         ids=["backwards", "nan", "inf", "uneven"])
def test_cli_replay_of_a_log_with_a_bad_later_time_exits_4(
        tmp_path, capsys, row, tk):
    # the first two rows set a good step; a later row's time breaks it
    cfg = tmp_path / "short.json"
    cfg.write_text(json.dumps({"n_agents": 2, "duration": 0.1}))
    assert main(["simulate", str(cfg), "--out-dir", str(tmp_path)]) == 0
    log = RunLog.from_csv(tmp_path / "short_run.csv")
    log.data[row, 0] = tk
    log.to_csv(tmp_path / "edited.csv")
    for estimator in ("ekf", "ukf"):
        capsys.readouterr()
        assert_cli_error(capsys, ["replay", str(tmp_path / "edited.csv"),
                                  "--estimator", estimator, "--config",
                                  str(cfg), "--out-dir",
                                  str(tmp_path / "replay")],
                         f"evenly stepped times: row {row} ")
    assert not (tmp_path / "replay").exists()


def _edit(rows, fn):
    # fn on the log's text lines in the slice rows: line 0 is the header,
    # line 1 the column names, then one line per row
    def apply(lines):
        lines[rows] = [fn(line) for line in lines[rows]]
    return apply


def _drop_column(name):
    def apply(lines):
        k = lines[1].split(",").index(name)
        _edit(slice(1, None), lambda line: ",".join(
            cell for i, cell in enumerate(line.split(",")) if i != k))(lines)
    return apply


def _drop_rows(lines):
    del lines[2:]  # the header and the column names only


MALFORMED_LOGS = {
    "token": (_edit(slice(1), lambda h: h.replace("diverged=0", "diverged")),
              "log header token 'diverged' is not key=value"),
    "flag": (_edit(slice(1), lambda h: h.replace("diverged=0", "diverged=x")),
             "malformed log: invalid literal for int"),
    "cell": (_edit(slice(3, 4), lambda row: re.sub(",[^,]*", ",abc", row, 1)),
             "malformed log: could not convert string 'abc'"),
    "ragged": (_edit(slice(4, 5), lambda line: line.rsplit(",", 1)[0]),
               "malformed log: the number of columns changed"),
    "wider": (_edit(slice(1, 2), lambda line: line.rsplit(",", 1)[0]),
              "malformed log: its rows have 81 values, its header 80 names"),
    "column": (_drop_column("a1_px"), "replay needs the log column 'a1_px'"),
    "empty": (_drop_rows, "malformed log: no data rows"),
    # to_csv writes no comment line, so '#' is a bad cell, not a comment
    "comment": (_edit(slice(2, None), lambda row: "# note"),
                "malformed log: could not convert string '# note'"),
}


@pytest.mark.parametrize("case", MALFORMED_LOGS)
def test_cli_replay_of_a_malformed_log_exits_4(tmp_path, capsys, case):
    # one error line, no traceback, whether from_csv or replay_log refuses
    edit, match = MALFORMED_LOGS[case]
    cfg = tmp_path / "short.json"
    cfg.write_text(json.dumps({"n_agents": 2, "duration": 0.05}))
    assert main(["simulate", str(cfg), "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "short_run.csv").read_text().splitlines()
    edit(lines)
    log = tmp_path / "edited.csv"
    log.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["replay", str(log), "--config", str(cfg), "--out-dir",
                 str(tmp_path / "replay")]) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("swarmlift: error: ")
    assert match in lines[0], lines[0]
    assert "usecols" not in lines[0]  # numpy's advice, not the log's fault
    assert not (tmp_path / "replay").exists()


def test_replay_accepts_the_simulators_rounded_times():
    # t += dt_ctrl drifts from k * dt_ctrl by rounding only
    sc = beam(duration=1.0, estimator="ekf")
    log = run_scenario(sc)
    assert np.any(np.diff(log.t) != log.t[1] - log.t[0])
    assert replay_log(log, sc).shape == (log.t.size, 4)


def test_log_header_carries_the_config_hash():
    sc = beam(duration=0.05)
    log = run_scenario(sc)
    buf = io.StringIO()
    log.to_csv(buf)
    assert buf.getvalue().splitlines()[0].endswith(
        f" config_hash={sc.config_hash()}")
    buf.seek(0)
    assert RunLog.from_csv(buf).meta == {"config_hash": sc.config_hash()}
    # a header without it still loads, with no hash
    old = io.StringIO(re.sub(r" config_hash=\w+", "", buf.getvalue()))
    loaded = RunLog.from_csv(old)
    assert loaded.meta == {}
    assert np.array_equal(loaded.data, log.data)


def test_cli_replay_without_config_warns_of_default_agent(tmp_path, capsys):
    cfg = tmp_path / "heavy.json"
    cfg.write_text(json.dumps({"n_agents": 2, "duration": 0.05,
                               "mav": {"m": 3.6}}))
    assert main(["simulate", str(cfg), "--out-dir", str(tmp_path)]) == 0
    run_hash = RunLog.from_csv(tmp_path / "heavy_run.csv").meta["config_hash"]
    capsys.readouterr()
    log_path = str(tmp_path / "heavy_run.csv")
    out = ["--out-dir", str(tmp_path / "replay")]
    assert main(["replay", log_path] + out) == 0
    warnings = capsys.readouterr().err.splitlines()
    assert len(warnings) == 1
    assert "no agent parameters" in warnings[0]
    assert "default MavParams" in warnings[0] and run_hash in warnings[0]
    # with the scenario that wrote the log, nothing is assumed
    assert main(["replay", log_path, "--config", str(cfg)] + out) == 0
    assert capsys.readouterr().err == ""


def test_cli_replay_with_another_scenarios_config_warns(tmp_path, capsys):
    heavy, light = tmp_path / "heavy.json", tmp_path / "light.json"
    heavy.write_text(json.dumps({"n_agents": 2, "duration": 0.05,
                                 "mav": {"m": 3.6}}))
    light.write_text(json.dumps({"n_agents": 2, "duration": 0.05}))
    assert main(["simulate", str(heavy), "--out-dir", str(tmp_path)]) == 0
    log_path = str(tmp_path / "heavy_run.csv")
    run_hash = RunLog.from_csv(log_path).meta["config_hash"]
    other_hash = scenario_from_dict(
        json.loads(light.read_text())).config_hash()
    assert run_hash != other_hash
    capsys.readouterr()
    out = ["--out-dir", str(tmp_path / "replay")]
    # the run goes on, with one warning that names both hashes
    assert main(["replay", log_path, "--config", str(light)] + out) == 0
    warnings = capsys.readouterr().err.splitlines()
    assert len(warnings) == 1 and warnings[0].startswith("swarmlift: warning")
    assert run_hash in warnings[0] and other_hash in warnings[0]
    assert (tmp_path / "replay" / "replay_estimates.csv").is_file()
    # the scenario that wrote the log: no warning
    assert main(["replay", log_path, "--config", str(heavy)] + out) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["simulate", "replay"])
def test_cli_missing_file_exits_4(tmp_path, capsys, command):
    missing = tmp_path / "nonexist.json"
    assert_cli_error(capsys, [command, str(missing), "--out-dir",
                              str(tmp_path / "out")],
                     re.escape(f"{missing}: No such file or directory"))
    assert not (tmp_path / "out").exists()


def test_cli_replay_ukf_writes_finite_estimates(tmp_path):
    cfg = tmp_path / "short.json"
    cfg.write_text(json.dumps(dict(BEAM, estimator="ukf", duration=0.2)))
    assert main(["simulate", str(cfg), "--out-dir", str(tmp_path)]) == 0
    out = tmp_path / "replay"
    assert main(["replay", str(tmp_path / "short_run.csv"), "--estimator",
                 "ukf", "--out-dir", str(out)]) == 0
    lines = (out / "replay_estimates.csv").read_text().splitlines()
    assert lines[0] == "t,Fhat_x,Fhat_y,Fhat_z"
    est = np.array([[float(x) for x in line.split(",")]
                    for line in lines[1:]])
    assert est.shape == (20, 4) and np.all(np.isfinite(est))
