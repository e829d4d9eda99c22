"""Inputs of the three benchmark workloads.

Shared by ``run.py``, which checks outputs against these
values, and the child (``runner.py``), which feeds them to heatlocal.
Importing this module does not import heatlocal.
"""

from __future__ import annotations

import os

WORKLOADS = ("suite", "localtime-heat", "increments")

GRID = 8192
SCHEDULE = (0.08, 0.04, 0.02, 0.01, 0.005)
LEVEL = 0.0

# suite: `heatlocal verify --reps SUITE_REPS --jobs <nproc>`; its heat runs
# use the CLI's default interval and the suite's fixed long interval
SUITE_REPS = 4000
SUITE_SHORT = (0.0, 2.0)
SUITE_LONG = (0.0, 5.0)

# localtime-heat: one serial `heatlocal localtime` call per round
LOCALTIME_INTERVAL = (0.0, 5.0)
LOCALTIME_REPS = 1024

# increments: the covariance block's two simulators at its six points
INC_POINTS = (0.6, 0.9, 1.2, 1.5, 1.8, 2.0)
INC_INTERVAL = (0.0, 2.0)
CHOLESKY_REPS = 131_072
SHEET_REPS = 2048  # two chunks, so both workers of a 2-core pool run
SHEET_TIME_CUTOFF = 1e-4  # the sheet operator's default time cutoff

# the step-function breakpoints of the suite's quadratic-form family
QF_POINTS = (0.3, 0.8, 1.1, 1.7, 2.0)

CLAIM_IDS = (
    "integrator-upper-bound-sweep",
    "coercivity-lower-bound-sweep",
    "convolution-upper-bound-sweep",
    "spectral-dual-route",
    "form-eigenvalue-floor",
    "form-eigenvalue-monotone",
    "quadratic-form-mc",
    "gram-projection-sweep",
    "invertible-gram-sweep",
    "gram-indicator-discretization",
    "basis-extension-ratio",
    "simplex-partition-additivity",
    "bridge-moment-simplex-k1",
    "bridge-moment-simplex-k2",
    "bridge-moment-simplex-k3",
    "conditional-moment-identity",
    "levy-density-normalization",
    "covariance-closed-form",
    "simulator-agreement",
    "sheet-variance-bias",
    "local-time-mean-bridge",
    "bridge-mean-value",
    "local-time-mean-heat-short",
    "local-time-mean-heat-long",
    "bridge-second-moment",
    "bridge-second-moment-value",
    "second-moment-monotone",
    "motion-endpoint-moments",
    "levy-conditional-mean",
    "levy-conditional-value",
    "cauchy-monotone-bridge",
    "cauchy-monotone-heat-short",
    "cauchy-monotone-heat-long",
)


def suite_family_replicates(reps: int) -> dict[str, int]:
    """Replicates of each Monte Carlo family `verify --reps reps` runs."""
    return {
        "qf-mc": min(100_000, 2 * reps),
        "sim-path": 4 * reps,
        "sim-sheet": max(2, reps // 5),
        "mc-bridge": reps,
        "mc-heat-short": reps,
        "mc-heat-long": reps,
        "mc-motion": reps,
    }


def nproc() -> int:
    return len(os.sched_getaffinity(0))
