"""The perf-regression sentinel over the ``BENCH_*.json`` trajectories.

:func:`repro.obs.export.write_metrics` merges by key, so a committed
``BENCH_*.json`` re-run in CI *appends* the fresh measurement to every
series it already holds.  That makes regression detection a pure file
walk with no extra state: within one series, the **last** value is the
current run and the **best of the earlier** values is the committed
baseline (best-vs-best, matching how the acceptance gates compare).

Each series is compared in its own direction, read from its ``better``
field: ``"lower"`` (the default — timings, overheads, error rates)
takes the minimum as the baseline and flags a current value above
baseline x (1 + threshold); ``"higher"`` (speedups, hit rates) takes
the maximum and flags a current value below baseline / (1 + threshold).

Usage::

    python benchmarks/regress.py [--threshold 0.2] [--strict] [FILES...]

With no ``FILES`` every ``BENCH_*.json`` next to the repository root is
checked.  The default is a *soft* gate — regressions are reported (and
annotated for GitHub Actions) but the exit code stays 0 so machine
noise cannot block merges while the trajectories season; ``--strict``
turns flags into a non-zero exit.

Series with fewer than two values (first run of a new benchmark) are
skipped, not flagged.  The ``unit`` field is not consulted.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Fractional regression tolerated before a series is flagged.
DEFAULT_THRESHOLD = 0.20


def check_series(
    name: str,
    values: List[float],
    threshold: float = DEFAULT_THRESHOLD,
    better: str = "lower",
) -> Optional[Tuple[float, float, float]]:
    """``(baseline, current, ratio)`` when flagged, else ``None``.

    ``values`` is a chronological trajectory; the decision needs at
    least one committed point before the current one.  ``ratio`` is how
    many times worse the current value is than the baseline, in the
    series' ``better`` direction.
    """
    if len(values) < 2:
        return None
    current = values[-1]
    if better == "higher":
        baseline = max(values[:-1])
        if baseline <= 0:
            return None
        ratio = baseline / current if current > 0 else float("inf")
    else:
        baseline = min(values[:-1])
        if baseline <= 0:
            return None
        ratio = current / baseline
    if ratio > 1.0 + threshold:
        return baseline, current, ratio
    return None


def check_document(
    document: Dict[str, Any], threshold: float = DEFAULT_THRESHOLD
) -> List[Dict[str, Any]]:
    """Every flagged series of one metrics-JSON document."""
    flagged = []
    for name, series in sorted(document.get("series", {}).items()):
        values = series.get("values", [])
        better = series.get("better", "lower")
        verdict = check_series(name, values, threshold, better)
        if verdict is None:
            continue
        baseline, current, ratio = verdict
        flagged.append(
            {
                "series": name,
                "baseline": baseline,
                "current": current,
                "ratio": ratio,
                "runs": len(values),
                "better": better,
            }
        )
    return flagged


def default_files() -> List[str]:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return sorted(glob.glob(os.path.join(root, "BENCH_*.json")))


def main(argv: Optional[Iterable[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "files",
        nargs="*",
        help="metrics-JSON files (default: repo-root BENCH_*.json)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="fractional regression tolerated (default 0.2 = 20%%)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when any series is flagged",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)

    files = args.files or default_files()
    if not files:
        print("regress: no BENCH_*.json files to check")
        return 0

    total_flagged = 0
    for path in files:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError) as error:
            print(f"regress: skipping {path}: {error}")
            continue
        flagged = check_document(document, args.threshold)
        label = os.path.basename(path)
        if not flagged:
            count = len(document.get("series", {}))
            print(f"regress: {label}: {count} series ok")
            continue
        total_flagged += len(flagged)
        for flag in flagged:
            message = (
                f"{label}: {flag['series']} regressed "
                f"{flag['ratio']:.2f}x "
                f"(baseline {flag['baseline']:.6f} -> "
                f"current {flag['current']:.6f}, "
                f"{flag['better']} is better, "
                f"{flag['runs']} runs)"
            )
            print(f"regress: FLAG {message}")
            if os.environ.get("GITHUB_ACTIONS"):
                print(f"::warning title=perf regression::{message}")

    if total_flagged:
        print(
            f"regress: {total_flagged} series over the "
            f"{args.threshold:.0%} threshold"
            + ("" if args.strict else " (soft gate: exit 0)")
        )
        return 1 if args.strict else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
