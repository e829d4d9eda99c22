"""Machine-checkable claim reports, aggregate tables, and their codecs.

A :class:`SuiteReport` records one verified claim: what was observed, what
was expected, the tolerance in force, and the Monte Carlo standard error
when one exists.  A report only fails when the observation is genuinely out
of tolerance (or a strict structural condition, such as monotonicity of
Cauchy gaps, is violated); tolerances are never widened to force a pass.

An :class:`AggregateTable` is the emission format of the simulate and
localtime commands: named float columns, with empty cells allowed.

Both round-trip through CSV and through one JSON envelope
``{"config", <body>, "provenance", "version"}``.  Floats are serialised
with 17 significant digits so that parsing an emitted file reproduces the
in-memory object exactly.  The provenance names what, beyond the config,
determines the numbers: the random stream scheme, the reduction chunk and
the numpy, scipy and python versions.
"""

from __future__ import annotations

import csv
import io
import json
import platform
from dataclasses import dataclass, fields

import numpy as np
import scipy

from .mc import CHUNK
from .sampling import STREAM

PASS = "pass"
FAIL = "fail"
INSUFFICIENT = "insufficient-power"

_FLOAT_FMT = "%.17g"

# a Monte Carlo claim passes within this many standard errors, and a
# z-score claim is bounded by it
SE_RULE = 4.0


def _as_tuple(x) -> tuple[float, ...]:
    if isinstance(x, (int, float)):
        return (float(x),)
    return tuple(float(v) for v in x)


@dataclass
class SuiteReport:
    claim_id: str
    status: str
    observed: tuple[float, ...]
    expected: tuple[float, ...]
    tolerance: float
    standard_error: float | None = None
    runtime_ms: float = 0.0

    def __post_init__(self):
        self.observed = _as_tuple(self.observed)
        self.expected = _as_tuple(self.expected)
        if self.status not in (PASS, FAIL, INSUFFICIENT):
            raise ValueError(f"bad status {self.status!r}")
        if len(self.observed) != len(self.expected):
            raise ValueError("observed and expected must have equal length")


def two_sided_report(
    claim_id: str,
    observed,
    expected,
    tolerance: float,
    standard_error: float | None = None,
    insufficient: bool = False,
) -> SuiteReport:
    """Report passing when max|observed - expected| <= effective tolerance.

    For Monte Carlo claims the effective tolerance is
    max(tolerance, SE_RULE * standard_error).
    """
    obs, exp = _as_tuple(observed), _as_tuple(expected)
    eff = tolerance
    if standard_error is not None:
        eff = max(eff, SE_RULE * standard_error)
    dev = max(abs(o - e) for o, e in zip(obs, exp)) if obs else 0.0
    if insufficient:
        status = INSUFFICIENT
    elif dev <= eff:
        status = PASS
    else:
        status = FAIL
    return SuiteReport(claim_id, status, obs, exp, tolerance, standard_error)


def bound_report(
    claim_id: str,
    slack,
    tolerance: float,
    insufficient: bool = False,
) -> SuiteReport:
    """Report for one-sided claims: passes when every slack >= -tolerance.

    ``slack`` holds margins that should be nonnegative (bound satisfied);
    expected is identically zero, so a fail implies the recorded slack is
    genuinely below -tolerance.  A bound carries no standard error.  With
    no slack at all it checks nothing, so it reports insufficient power.
    """
    s = _as_tuple(slack)
    if insufficient or not s:
        status = INSUFFICIENT
    else:
        status = PASS if all(v >= -tolerance for v in s) else FAIL
    zeros = tuple(0.0 for _ in s)
    return SuiteReport(claim_id, status, s, zeros, tolerance)


def _fmt(x: float) -> str:
    return _FLOAT_FMT % x


def _fmt_opt(x: float | None) -> str | None:
    return None if x is None else _fmt(x)


def _parse_opt(s) -> float | None:
    return None if s is None or s == "" else float(s)


def _write_csv(header, rows) -> str:
    buf = io.StringIO()
    # the writer emits a None cell as an empty one
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _read_csv(text: str) -> tuple[list[str], list[list[str]]]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return header, [row for row in reader if row]


def provenance() -> dict:
    """What fixes the numbers besides the config; never the worker count."""
    return {
        "stream": STREAM,
        "chunk": CHUNK,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def _to_envelope(key: str, body, config: dict | None, version: str) -> str:
    payload = {"config": config or {}, key: body, "provenance": provenance(), "version": version}
    return json.dumps(payload, indent=2) + "\n"


def _from_envelope(text: str, key: str) -> tuple[object, dict, str]:
    payload = json.loads(text)
    return payload[key], payload.get("config", {}), payload.get("version", "")


# ---------------------------------------------------------------------------
# claim reports


def report_to_dict(r: SuiteReport) -> dict:
    """A report's fields encoded as strings, in field order: the JSON object,
    and the CSV row once each list is joined by "|"."""
    return {
        "claim_id": r.claim_id,
        "status": r.status,
        "observed": [_fmt(x) for x in r.observed],
        "expected": [_fmt(x) for x in r.expected],
        "tolerance": _fmt(r.tolerance),
        "standard_error": _fmt_opt(r.standard_error),
        "runtime_ms": _fmt(r.runtime_ms),
    }


def report_from_dict(d: dict) -> SuiteReport:
    return SuiteReport(
        claim_id=d["claim_id"],
        status=d["status"],
        observed=tuple(float(x) for x in d["observed"]),
        expected=tuple(float(x) for x in d["expected"]),
        tolerance=float(d["tolerance"]),
        standard_error=_parse_opt(d["standard_error"]),
        runtime_ms=float(d["runtime_ms"]),
    )


CSV_FIELDS = tuple(f.name for f in fields(SuiteReport))

# the fields whose encoding is a list, one CSV cell joined by "|"
_LIST_FIELDS = ("observed", "expected")


def reports_to_csv(reports: list[SuiteReport]) -> str:
    rows = (report_to_dict(r).values() for r in reports)
    return _write_csv(
        CSV_FIELDS, (["|".join(v) if isinstance(v, list) else v for v in row] for row in rows)
    )


def reports_from_csv(text: str) -> list[SuiteReport]:
    header, rows = _read_csv(text)
    if tuple(header) != CSV_FIELDS:
        raise ValueError(f"unexpected CSV header {header}")
    return [
        report_from_dict(
            {
                name: (cell.split("|") if cell else []) if name in _LIST_FIELDS else cell
                for name, cell in zip(CSV_FIELDS, row, strict=True)
            }
        )
        for row in rows
    ]


def reports_to_json(
    reports: list[SuiteReport], config: dict | None = None, version: str = ""
) -> str:
    return _to_envelope("reports", [report_to_dict(r) for r in reports], config, version)


def reports_from_json(text: str) -> tuple[list[SuiteReport], dict, str]:
    body, config, version = _from_envelope(text, "reports")
    return [report_from_dict(d) for d in body], config, version


# ---------------------------------------------------------------------------
# aggregate tables


@dataclass(frozen=True)
class AggregateTable:
    """Named float columns; None cells allowed.  Round-trips via CSV/JSON."""

    columns: tuple[str, ...]
    rows: tuple[tuple[float | None, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(str(c) for c in self.columns))
        rows = tuple(
            tuple(None if v is None else float(v) for v in row) for row in self.rows
        )
        object.__setattr__(self, "rows", rows)
        for row in rows:
            if len(row) != len(self.columns):
                raise ValueError("row width does not match the column count")


def table_to_csv(table: AggregateTable) -> str:
    return _write_csv(table.columns, ([_fmt_opt(v) for v in row] for row in table.rows))


def table_from_csv(text: str) -> AggregateTable:
    header, rows = _read_csv(text)
    return AggregateTable(
        columns=tuple(header),
        rows=tuple(tuple(_parse_opt(cell) for cell in row) for row in rows),
    )


def table_to_json(table: AggregateTable, config: dict | None = None, version: str = "") -> str:
    body = {
        "columns": list(table.columns),
        "rows": [[_fmt_opt(v) for v in row] for row in table.rows],
    }
    return _to_envelope("aggregate", body, config, version)


def table_from_json(text: str) -> tuple[AggregateTable, dict, str]:
    body, config, version = _from_envelope(text, "aggregate")
    table = AggregateTable(
        columns=tuple(body["columns"]),
        rows=tuple(tuple(_parse_opt(v) for v in row) for row in body["rows"]),
    )
    return table, config, version
