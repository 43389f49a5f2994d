"""Duration and count formatting in the paper's Table 2/3 style.

The paper prints "4s", "2m06s", "9h03m39s" for measured values and coarse
"days" / "years" prognoses for estimates beyond the cutoff.  Nothing here
measures time: the experiment runners time their own cells, and the
repository benchmark (``perfbench/run.py``) times whole commands.
"""

from __future__ import annotations

__all__ = [
    "format_duration",
    "format_estimate",
    "format_count",
]

_MINUTE = 60.0
_HOUR = 3600.0
_DAY = 86400.0
_YEAR = 365.0 * _DAY


def format_duration(seconds: float) -> str:
    """Render a measured duration the way the paper's tables do."""
    if seconds < 0:
        raise ValueError(f"negative duration: {seconds}")
    if seconds < _MINUTE:
        if seconds < 10:
            return f"{seconds:.2f}s"
        return f"{seconds:.0f}s"
    if seconds < _HOUR:
        minutes, rest = divmod(seconds, _MINUTE)
        return f"{int(minutes)}m{rest:02.0f}s"
    if seconds < _DAY:
        hours, rest = divmod(seconds, _HOUR)
        minutes = rest / _MINUTE
        return f"{int(hours)}h{minutes:02.0f}m"
    return format_estimate(seconds)


def format_estimate(seconds: float) -> str:
    """Coarse prognosis for values beyond the cutoff ("days", "years")."""
    if seconds < _DAY:
        return f"≈{format_duration(seconds)}"
    if seconds < 2 * _YEAR:
        days = seconds / _DAY
        return f"≈{days:.0f} days"
    years = seconds / _YEAR
    return f"≈{years:.0f} years"


def format_count(value: int) -> str:
    """Large counts with thousands separators; huge ones in scientific
    notation like the paper's "55 · 10^10"."""
    if value < 10_000_000:
        return f"{value:,}"
    exponent = len(str(value)) - 2
    mantissa = value / (10 ** exponent)
    return f"{mantissa:.0f}·10^{exponent}"
