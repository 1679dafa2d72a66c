"""Output checks. Each returns the reasons an output is wrong; an operation
with any reason counts as failed."""

from __future__ import annotations

import hashlib
import sys

import numpy as np

# A margin may move only up (a tighter bound); this is the rounding slack.
MARGIN_RTOL = 1e-9

GENERATING = 4  # FSM code of the admittance GENERATING mode in RunLog


def payload_digest(log) -> str:
    return hashlib.sha256(log.payload_bytes()).hexdigest()


def sim_failures(log, expected_digest=None, first_digest=None) -> list[str]:
    """A run must not diverge, the admittance law must generate, and the
    payload trajectory must match the pinned digest (when the seed has one)
    and the first run of the same inputs."""
    reasons = []
    if log.diverged:
        reasons.append(f"diverged at step {log.diverged_step}")
    fsm = log.cols([c for c in log.columns if c.endswith("_fsm")])
    if not np.any(fsm[:, 1:] == GENERATING):
        reasons.append("no slave's admittance entered GENERATING")
    digest = payload_digest(log)
    if expected_digest is not None and digest != expected_digest:
        reasons.append(f"payload digest {digest[:16]} != pinned "
                       f"{expected_digest[:16]}")
    if first_digest is not None and digest != first_digest:
        reasons.append(f"payload digest {digest[:16]} != first run "
                       f"{first_digest[:16]}")
    return reasons


def point_key(n_agents: int, M: float, C: float, n_freqs: int) -> str:
    return f"n{n_agents}_M{M:g}_C{C:g}_f{n_freqs}"


def margin_failures(rs: float, rp: float, pinned: dict,
                    rs_limit: float | None) -> list[str]:
    """The bound may never get looser than pinned (rs, rp may not drop) and
    never invalid (rs may not exceed 1 / max spectral radius of G11);
    performance never exceeds stability."""
    reasons = []
    if not (np.isfinite(rs) and np.isfinite(rp)):
        return [f"non-finite margins rs={rs!r} rp={rp!r}"]
    if rs < pinned["rs"] * (1.0 - MARGIN_RTOL):
        reasons.append(f"rs {rs!r} looser than pinned {pinned['rs']!r}")
    if rp < pinned["rp"] * (1.0 - MARGIN_RTOL):
        reasons.append(f"rp {rp!r} looser than pinned {pinned['rp']!r}")
    if rp > rs:
        reasons.append(f"rp {rp!r} exceeds rs {rs!r}")
    if rs_limit is not None and rs > rs_limit:
        reasons.append(f"rs {rs!r} above 1/rho {rs_limit!r}: invalid bound")
    return reasons


def margin_csv_values(data: bytes) -> list[tuple[float, float]]:
    """(rs, rp) per row of a grid_sweep CSV. The M and C columns are not
    read: at the commit that added this benchmark they are written as
    ``np.float64(...)`` reprs, which no CSV reader parses."""
    header, *rows = data.decode().strip().splitlines()
    names = header.split(",")
    i_rs, i_rp = names.index("rs_margin"), names.index("rp_margin")
    return [(float(r.split(",")[i_rs]), float(r.split(",")[i_rp]))
            for r in rows]


def report(workload: str, reasons: list[str]) -> int:
    for r in reasons:
        print(f"{workload}: check failed: {r}", file=sys.stderr)
    return len(reasons)
