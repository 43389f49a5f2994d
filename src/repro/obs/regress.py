"""Cross-run metric regression machinery.

This is the library behind ``spllift obs diff A B``: the CI gate that
fails the build when committed baseline counters drift
(``micro/bdd_kernel``, ``engine/datalog`` at threshold 0), and the
operator's view of the same question between two runs' ``--metrics``
snapshots (summary-reuse-ratio drop, ``datalog.*`` drift, store
hit-ratio regressions).

Counters and gauges present in both snapshots are compared by relative
drift ``(current - baseline) / baseline``; histograms by their sample
``count``.  A comparison fails when drift exceeds the threshold in
either direction — a large unexplained *drop* usually means work was
silently skipped.  Thresholds are relative fractions (``0.1`` = ±10%);
per-name overrides are fnmatch patterns and the most specific match
wins (longest pattern, ties broken in favor of later flags).  A key
present in one snapshot only is reported ``MISSING`` and fails the
comparison unless missing keys are allowed.  ``spllift obs diff`` exits
0 within thresholds, 1 on drift or a missing key, 2 on malformed input.
"""

from __future__ import annotations

import fnmatch
import json
from typing import Dict, List, Optional, Tuple

from repro.utils.files import read_utf8

__all__ = [
    "load_snapshot",
    "parse_threshold_overrides",
    "threshold_for",
    "compare",
]

#: Sections of a snapshot's ``metrics`` object and the scalar compared.
_SECTIONS = ("counters", "gauges", "histograms")


def load_snapshot(path: str) -> Dict[str, float]:
    """Flatten a ``--metrics`` file into ``name -> scalar``.

    Counter/gauge values map directly; histograms contribute their
    sample ``count`` under ``<name>.count``.
    """
    try:
        document = json.loads(read_utf8(path))
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: not valid JSON: {error}") from None
    if not isinstance(document, dict):
        raise ValueError(f"{path}: no metrics object found")
    metrics = document.get("metrics", document)
    if not isinstance(metrics, dict):
        raise ValueError(f"{path}: no metrics object found")
    flat: Dict[str, float] = {}
    for section in _SECTIONS:
        entries = metrics.get(section, {})
        if not isinstance(entries, dict):
            raise ValueError(f"{path}: metrics.{section} is not an object")
        for name, value in entries.items():
            if section == "histograms":
                if isinstance(value, dict) and isinstance(
                    value.get("count"), (int, float)
                ):
                    flat[f"{name}.count"] = float(value["count"])
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                flat[name] = float(value)
    return flat


def parse_threshold_overrides(specs: List[str]) -> List[Tuple[str, float]]:
    """Parse repeated ``PATTERN=FRACTION`` flags (validated)."""
    overrides: List[Tuple[str, float]] = []
    for spec in specs:
        pattern, sep, raw = spec.rpartition("=")
        if not sep or not pattern:
            raise ValueError(f"bad --threshold-for {spec!r}: expected NAME=FRACTION")
        try:
            fraction = float(raw)
        except ValueError:
            raise ValueError(f"bad --threshold-for {spec!r}: {raw!r} is not a number")
        if fraction < 0:
            raise ValueError(f"bad --threshold-for {spec!r}: threshold must be >= 0")
        overrides.append((pattern, fraction))
    return overrides


def threshold_for(
    name: str, default: float, overrides: List[Tuple[str, float]]
) -> float:
    """Most specific matching override (longest pattern, later flags win)."""
    best: Optional[Tuple[int, int]] = None
    chosen = default
    for position, (pattern, fraction) in enumerate(overrides):
        if fnmatch.fnmatchcase(name, pattern):
            rank = (len(pattern), position)
            if best is None or rank >= best:
                best = rank
                chosen = fraction
    return chosen


def compare(
    baseline: Dict[str, float],
    current: Dict[str, float],
    default_threshold: float,
    overrides: List[Tuple[str, float]],
    only: List[str],
    ignore: List[str],
    allow_missing: bool,
) -> Tuple[List[str], List[str]]:
    """Returns ``(violations, report_lines)``."""

    def selected(name: str) -> bool:
        if only and not any(fnmatch.fnmatchcase(name, p) for p in only):
            return False
        return not any(fnmatch.fnmatchcase(name, p) for p in ignore)

    violations: List[str] = []
    report: List[str] = []
    names = sorted(set(baseline) | set(current))
    for name in names:
        if not selected(name):
            continue
        in_base, in_cur = name in baseline, name in current
        if not (in_base and in_cur):
            side = "baseline" if not in_base else "current"
            line = f"{name}: missing from {side}"
            report.append(line + ("" if allow_missing else "  MISSING"))
            if not allow_missing:
                violations.append(line)
            continue
        base, cur = baseline[name], current[name]
        limit = threshold_for(name, default_threshold, overrides)
        if base == cur:
            drift = 0.0
        elif base == 0.0:
            drift = float("inf")
        else:
            drift = (cur - base) / abs(base)
        ok = abs(drift) <= limit
        drift_text = f"{drift:+.1%}" if drift not in (float("inf"),) else "+inf"
        line = (
            f"{name}: {base:g} -> {cur:g} ({drift_text}, limit ±{limit:.1%})"
        )
        report.append(line + ("" if ok else "  DRIFT"))
        if not ok:
            violations.append(line)
    return violations, report
