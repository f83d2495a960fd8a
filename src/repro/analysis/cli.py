"""Command line: ``python -m repro.analysis [--strict] ...``.

Exit status: 0 clean (or non-strict), 1 non-baselined findings or stale
baseline entries under ``--strict``, 2 the analyzer itself failed.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Trust-boundary / taint / lock-order / fault-site / 2PC static "
            "analysis for the Always Encrypted reproduction."
        ),
    )
    parser.add_argument("--root", type=Path, default=None,
                        help="package root to scan (default: the installed src/)")
    parser.add_argument("--tests", type=Path, default=None,
                        help="tests root for fault-site coverage checks")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="baseline file (default: <repo>/analysis-baseline.txt)")
    parser.add_argument("--rules", default=None,
                        help="comma-separated rule names to run (default: all)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 on any non-baselined finding or stale "
                             "baseline entry")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the available rule families and exit")
    parser.add_argument("--profile", action="store_true",
                        help="print per-phase wall time (model build, shared "
                             "taint flow, each rule family)")
    parser.add_argument("--budget-seconds", type=float, default=None,
                        help="exit 1 if the total analysis wall time exceeds "
                             "this budget (the perf ratchet for CI)")
    parser.add_argument("--sarif", type=Path, default=None, metavar="OUT",
                        help="also write the findings as a SARIF 2.1.0 log")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="also print suppressed (baselined) findings")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        from repro.analysis.config import default_config
        from repro.analysis.engine import AnalysisEngine
        from repro.analysis.rules import ALL_RULES

        if args.list_rules:
            for rule in ALL_RULES:
                doc = (sys.modules[type(rule).__module__].__doc__ or "").strip()
                first = doc.splitlines()[0] if doc else ""
                print(f"{rule.name:16s} {first}")
            return 0

        config = default_config(
            root=args.root, baseline_path=args.baseline, tests_root=args.tests
        )
        rules = ALL_RULES
        if args.rules:
            wanted = {name.strip() for name in args.rules.split(",") if name.strip()}
            rules = tuple(r for r in ALL_RULES if r.name in wanted)
            unknown = wanted - {r.name for r in rules}
            if unknown:
                print(f"unknown rule(s): {', '.join(sorted(unknown))}", file=sys.stderr)
                return 2
        report = AnalysisEngine(config, rules).run()
        if args.sarif is not None:
            from repro.analysis.sarif import write_sarif

            write_sarif(args.sarif, report, rules)
    except Exception:
        print("repro.analysis: internal error:", file=sys.stderr)
        traceback.print_exc()
        return 2

    for finding in report.new:
        print(finding.format())
    if args.verbose:
        for finding in report.suppressed:
            print(f"{finding.format()}  [baselined]")
    for entry in report.stale_baseline:
        print(
            f"{config.baseline_path}:{entry.lineno}: stale baseline entry "
            f"{entry.fingerprint!r} matches no current finding — delete it"
        )

    if args.profile:
        for phase, seconds in report.timings.items():
            print(f"repro.analysis: profile {phase:16s} {seconds * 1000:8.1f} ms")
        print(f"repro.analysis: profile {'total':16s} "
              f"{report.total_seconds * 1000:8.1f} ms")

    counts = report.per_rule_counts()
    summary = ", ".join(
        f"{rule.name}={counts.get(rule.name, 0)}" for rule in rules
    )
    print(
        f"repro.analysis: {len(report.new)} finding(s) "
        f"({summary}); {len(report.suppressed)} baselined, "
        f"{len(report.stale_baseline)} stale baseline entr"
        f"{'y' if len(report.stale_baseline) == 1 else 'ies'}"
    )
    if args.budget_seconds is not None and report.total_seconds > args.budget_seconds:
        print(
            f"repro.analysis: wall time {report.total_seconds:.2f}s exceeds "
            f"the {args.budget_seconds:.2f}s budget",
            file=sys.stderr,
        )
        return 1
    if args.strict and (report.new or report.stale_baseline):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
