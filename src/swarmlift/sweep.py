"""Margin-map sweep: CSV emission and the run manifest."""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from .mu import MarginResult, TuningGrid, default_frequency_grid, margins
from .scenario import boolean, integer

CSV_HEADER = "M,C,rs_margin,rp_margin,peak_freq_rs,peak_freq_rp"


def write_margin_csv(results: list[MarginResult], path: str) -> None:
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in results:
            fields = (r.M, r.C, r.rs_margin, r.rp_margin, r.peak_freq_rs,
                      r.peak_freq_rp)
            # float() first: a numpy scalar's repr is not a CSV number
            fh.write(",".join(repr(float(v)) for v in fields) + "\n")


def read_margin_csv(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def grid_sweep(n_agents: int, grid: TuningGrid, out_dir: str,
               n_freqs: int = 80, n_jobs: int = 1, polish: bool = True) -> str:
    """Run the margin map and emit CSV plus a manifest; returns the CSV
    path. Identical configuration produces byte-identical output. The
    manifest's config_hash covers n_agents, the M and C grids, n_freqs and
    polish, which are every argument that changes the CSV (out_dir and
    n_jobs do not). The agent, payload and weights are always the
    package defaults, so they are not hashed.
    Bad counts or polish raise ScenarioError before anything is written."""
    n_agents = integer("n_agents", n_agents, 2)
    n_freqs = integer("n_freqs", n_freqs, 1)
    n_jobs = integer("n_jobs", n_jobs, 1)
    boolean("polish", polish)
    os.makedirs(out_dir, exist_ok=True)
    freqs = default_frequency_grid(n_freqs)
    results = margins(grid, n_agents, freqs=freqs, polish=polish,
                      n_jobs=n_jobs)
    name = f"margins_n{n_agents}"
    csv_path = os.path.join(out_dir, f"{name}.csv")
    write_margin_csv(results, csv_path)
    manifest = {
        "n_agents": n_agents,
        "grid_M": [float(v) for v in grid.M_values],
        "grid_C": [float(v) for v in grid.C_values],
        "n_freqs": n_freqs,
        "freq_range": [float(freqs[0]), float(freqs[-1])],
        "polish": polish,
        "config_hash": hashlib.sha256(
            json.dumps({
                "n_agents": n_agents,
                "M": [float(v) for v in grid.M_values],
                "C": [float(v) for v in grid.C_values],
                "n_freqs": n_freqs,
                "polish": polish,
            }, sort_keys=True).encode()).hexdigest()[:16],
    }
    with open(os.path.join(out_dir, f"{name}_manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return csv_path
