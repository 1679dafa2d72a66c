"""Command-line interface.

Subcommands: simulate a scenario config, sweep a tuning grid into margin
maps, run the oracle suite, replay a recorded log through an estimator.
Exit codes: 0 success, 2 divergence detected, 3 oracle failure, 4 a
rejected scenario, sweep document or log, or a file that cannot be read or
written (one line on stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .errors import ScenarioError


def _cmd_simulate(args) -> int:
    from .scenario import load_scenario
    from .simulate import run_scenario

    # replace() re-runs the load-time checks on the overridden fields
    overrides = {k: v for k, v in (("duration", args.duration),
                                   ("seed", args.seed)) if v is not None}
    sc = dataclasses.replace(load_scenario(args.config), **overrides)
    log = run_scenario(sc)
    os.makedirs(args.out_dir, exist_ok=True)
    base = os.path.splitext(os.path.basename(args.config))[0]
    out = os.path.join(args.out_dir, f"{base}_run.csv")
    log.to_csv(out)
    print(f"wrote {out} ({log.data.shape[0]} rows)")
    if log.diverged:
        print(f"DIVERGED at step {log.diverged_step} "
              f"(t={log.t[-1]:.3f} s)")
        return 2
    return 0


SWEEP_KEYS = ("n_agents", "grid_M", "grid_C", "n_freqs", "polish")


def _cmd_sweep(args) -> int:
    from .mu import TuningGrid
    from .scenario import check_keys, checked_call, read_document
    from .sweep import grid_sweep

    cfg = read_document(args.config)
    check_keys("sweep config", cfg, SWEEP_KEYS)
    # only the keys present, so the defaults stay those of TuningGrid and
    # grid_sweep
    grid = checked_call("sweep config", TuningGrid, **{
        field: cfg[key] for key, field in (("grid_M", "M_values"),
                                           ("grid_C", "C_values"))
        if key in cfg})
    path = grid_sweep(cfg.get("n_agents", 2), grid, args.out_dir,
                      n_jobs=args.jobs, **{key: cfg[key] for key in (
                          "n_freqs", "polish") if key in cfg})
    print(f"wrote {path}")
    return 0


def _cmd_oracles(args) -> int:
    from .oracles import MUTATIONS, oracle_suite

    if args.mutate not in (None, *MUTATIONS):
        print(f"swarmlift: error: --mutate {args.mutate!r} is not one of "
              f"{', '.join(MUTATIONS)}", file=sys.stderr)
        return 4
    report = oracle_suite(mutate=args.mutate)
    print(report.summary())
    return 0 if report.all_passed else 3


def _cmd_replay(args) -> int:
    from .scenario import load_scenario, scenario_from_dict
    from .simulate import RunLog, replay_log

    log = RunLog.from_csv(args.log)
    if args.config:
        sc = load_scenario(args.config)
        logged = log.meta.get("config_hash", sc.config_hash())
        if logged != sc.config_hash():  # a CLI override also changes it
            print(f"swarmlift: warning: the log has config_hash {logged}, "
                  f"the --config scenario {sc.config_hash()}", file=sys.stderr)
    else:
        print("swarmlift: warning: the log carries no agent parameters, so "
              "the default MavParams is assumed; pass --config with the "
              "scenario that wrote it (config_hash "
              f"{log.meta.get('config_hash', 'unknown')})", file=sys.stderr)
        n_agents = sum(1 for c in log.columns if c.endswith("_fsm"))
        # replay_log reads no duration or rate off the scenario, and a log's
        # last time need not be a whole number of ticks at the default rate
        sc = scenario_from_dict({"n_agents": n_agents, "duration": 1.0})
    # replace() runs the estimator override through the load-time checks
    sc = dataclasses.replace(sc, estimator=args.estimator)
    out = replay_log(log, sc, agent=args.agent)
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "replay_estimates.csv")
    with open(path, "w") as fh:
        fh.write("t,Fhat_x,Fhat_y,Fhat_z\n")
        for row in out:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="swarmlift",
        description="Collaborative multirotor payload transport: simulation "
                    "and robust admittance tuning")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario config")
    sim.add_argument("config")
    sim.add_argument("--out-dir", default=".")
    sim.add_argument("--duration", type=float, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.set_defaults(fn=_cmd_simulate)

    sw = sub.add_parser("sweep", help="margin map over a tuning grid")
    sw.add_argument("config")
    sw.add_argument("--out-dir", default=".")
    sw.add_argument("--jobs", type=int, default=1)
    sw.set_defaults(fn=_cmd_sweep)

    orc = sub.add_parser("oracles", help="run the independent oracle suite")
    orc.add_argument("--mutate", default=None,
                     help="deliberately inject a dynamics defect "
                          "(gravity_sign | coriolis_sign | drag_sign)")
    orc.set_defaults(fn=_cmd_oracles)

    rp = sub.add_parser("replay", help="re-run an estimator over a log")
    rp.add_argument("log")
    rp.add_argument("--estimator", default="ekf", choices=["ekf", "ukf"])
    rp.add_argument("--agent", type=int, default=1)
    rp.add_argument("--config", default=None)
    rp.add_argument("--out-dir", default=".")
    rp.set_defaults(fn=_cmd_replay)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ScenarioError, OSError) as exc:
        if isinstance(exc, OSError) and exc.filename is not None:
            exc = f"{exc.filename}: {exc.strerror}"
        print(f"swarmlift: error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
