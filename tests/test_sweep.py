import json
from pathlib import Path

import numpy as np
import pytest

from swarmlift.cli import main
from swarmlift.errors import ScenarioError
from swarmlift.mu import MarginResult
from swarmlift.sweep import read_margin_csv, write_margin_csv
from test_sim import assert_cli_error


def test_margin_csv_round_trip(tmp_path):
    # grid points arrive as numpy scalars; the CSV must still be numbers
    results = [
        MarginResult(np.float64(0.0), np.float64(6.0), 0.0, 0.0, np.nan,
                     np.nan, False),
        MarginResult(np.float64(8.0), np.float64(6.0), 1.5263651609755482,
                     0.3059278104221049, np.float64(4.328761281083057),
                     4.328761281083057, True),
    ]
    path = str(tmp_path / "margins.csv")
    write_margin_csv(results, path)
    table = read_margin_csv(path)
    expected = np.array([[r.M, r.C, r.rs_margin, r.rp_margin, r.peak_freq_rs,
                          r.peak_freq_rp] for r in results])
    np.testing.assert_array_equal(table, expected)


def test_cli_sweep_serial_equals_parallel(tmp_path):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps({"n_agents": 2, "grid_M": [0.0, 8.0],
                               "grid_C": [6.0], "n_freqs": 20}))
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["sweep", str(cfg), "--out-dir", str(out), "--jobs",
                     jobs]) == 0
        outputs.append([(out / name).read_bytes() for name in
                        ("margins_n2.csv", "margins_n2_manifest.json")])
    assert outputs[0] == outputs[1]
    table = read_margin_csv(str(tmp_path / "jobs1" / "margins_n2.csv"))
    assert table.shape == (2, 6)
    assert table[0, 2] == 0.0 and table[1, 2] > 1.0  # M = 0 is degenerate


@pytest.mark.parametrize("cfg,match", [
    ({"n_agents": 2, "n_freq": 10}, "unknown key"),  # misspelled n_freqs
    ({"n_agents": 1, "n_freqs": 10}, "n_agents"),
    ({"n_agents": 2, "n_freqs": 5, "polish": "false"}, "polish"),
    ({"n_agents": 2, "n_freqs": 5, "polish": 0}, "polish"),
    ({"n_agents": 2, "n_freqs": 0}, "n_freqs"),
    ({"n_agents": 2, "n_freqs": 2.5}, "n_freqs"),
    ({"n_agents": 2.5, "n_freqs": 5}, "n_agents"),
    ({"n_agents": 2, "n_freqs": True}, "n_freqs"),
], ids=["misspelled-key", "one-agent", "polish-string", "polish-number",
        "zero-freqs", "fractional-freqs", "fractional-agents",
        "boolean-freqs"])
def test_cli_sweep_rejects_bad_config(tmp_path, monkeypatch, capsys, cfg,
                                      match):
    import swarmlift.sweep

    def no_margins(*args, **kw):
        raise AssertionError("margins computed for a bad config")

    monkeypatch.setattr(swarmlift.sweep, "margins", no_margins)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(cfg, grid_M=[8.0], grid_C=[6.0])))
    assert_cli_error(capsys, ["sweep", str(path), "--out-dir",
                              str(tmp_path / "out")], match)
    assert not (tmp_path / "out").exists()


# a worker count below one once created the output directory and then
# failed with a ValueError traceback from ProcessPoolExecutor
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_cli_sweep_rejects_a_worker_count_below_one(tmp_path, monkeypatch,
                                                    capsys, jobs):
    import swarmlift.sweep

    def no_margins(*args, **kw):
        raise AssertionError("margins computed for a bad worker count")

    monkeypatch.setattr(swarmlift.sweep, "margins", no_margins)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"n_agents": 2, "n_freqs": 5,
                                "grid_M": [8.0], "grid_C": [6.0]}))
    assert_cli_error(capsys, ["sweep", str(path), "--out-dir",
                              str(tmp_path / "out"), "--jobs", jobs],
                     "n_jobs")
    assert not (tmp_path / "out").exists()


# a grid that is a number or holds a NaN, and a file that is not JSON:
# each once failed with AxisError, LinAlgError in margin_point or
# JSONDecodeError; a repeated value once wrote the same row twice
@pytest.mark.parametrize("text,match", [
    ('{"n_agents": 2, "grid_M": 8.0, "grid_C": [6.0]}', "M_values"),
    ('{"n_agents": 2, "grid_M": [NaN], "grid_C": [6.0]}', "tuning sets"),
    ('{"n_agents": 2, "grid_M": [8.0], "grid_C": [6.0', "invalid JSON"),
    ('{"n_agents": 2, "grid_M": [8.0, 8], "grid_C": [6.0]}', "repeats"),
], ids=["scalar-grid", "nan-grid", "malformed-json", "repeated-grid"])
def test_cli_sweep_rejects_bad_grid_or_json(tmp_path, monkeypatch, capsys,
                                            text, match):
    import swarmlift.sweep

    def no_margins(*args, **kw):
        raise AssertionError("margins computed for a bad config")

    monkeypatch.setattr(swarmlift.sweep, "margins", no_margins)
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert_cli_error(capsys, ["sweep", str(path), "--out-dir",
                              str(tmp_path / "out")], match)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kw,match", [
    ({"n_freqs": 0}, "n_freqs"),
    ({"n_freqs": 2.5}, "n_freqs"),
    ({"n_agents": 1}, "n_agents"),
    ({"n_agents": True}, "n_agents"),
    ({"polish": "false"}, "polish"),
    ({"n_jobs": 0}, "n_jobs"),
    ({"n_jobs": 1.5}, "n_jobs"),
], ids=["zero-freqs", "fractional-freqs", "one-agent", "boolean-agents",
        "polish-string", "zero-jobs", "fractional-jobs"])
def test_grid_sweep_rejects_bad_arguments(tmp_path, monkeypatch, kw, match):
    import swarmlift.sweep
    from swarmlift.mu import TuningGrid

    def no_margins(*args, **kw):
        raise AssertionError("margins computed for bad arguments")

    monkeypatch.setattr(swarmlift.sweep, "margins", no_margins)
    args = dict({"n_agents": 2, "n_freqs": 5}, **kw)
    with pytest.raises(ScenarioError, match=match):
        swarmlift.sweep.grid_sweep(
            args.pop("n_agents"), TuningGrid([8.0], [6.0]),
            str(tmp_path / "out"), **args)
    assert not (tmp_path / "out").exists()


def _manifest(out_dir, **kw):
    from swarmlift.mu import TuningGrid
    from swarmlift.sweep import grid_sweep

    # M = 0 is the degenerate edge: each point returns at once
    grid = TuningGrid(M_values=np.array([0.0]), C_values=np.array([6.0]))
    csv = grid_sweep(2, grid, str(out_dir), n_freqs=20, **kw)
    return Path(csv[:-len(".csv")] + "_manifest.json").read_bytes()


def test_config_hash_covers_polish(tmp_path):
    default = _manifest(tmp_path / "a")
    assert _manifest(tmp_path / "b") == default
    hashes = {json.loads(m)["config_hash"] for m in (
        default, _manifest(tmp_path / "c", polish=False))}
    assert len(hashes) == 2
