"""``python -m repro.harness {list | run <name>|all [--smoke] [--out DIR] | report [--out DIR]}``.

``run`` writes ``DIR/<name>.json`` (default ``results/``) in the one schema
and exits non-zero only when an asserted (``count`` / ``model``) claim —
the quiesce invariant audits among them — does not hold. ``--smoke`` is CI
scale; without it, the scale the committed ``results/`` use. ``report``
prints the Markdown block of every result in ``DIR``, as EXPERIMENTS.md
holds them between ``<!-- harness:NAME -->`` markers.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.harness.experiments import EXPERIMENTS, Run
from repro.harness.result import failed_claims, load_results, render


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.harness", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("list")
    run_parser = commands.add_parser("run")
    run_parser.add_argument("name", choices=[*EXPERIMENTS, "all"])
    run_parser.add_argument("--smoke", action="store_true")
    for command in (run_parser, commands.add_parser("report")):
        command.add_argument("--out", type=Path, default=Path("results"))
    args = parser.parse_args(argv)

    if args.command == "list":
        for name, experiment in EXPERIMENTS.items():
            print(f"{name:20s}{experiment.__doc__.splitlines()[0]}")
        return 0
    if args.command == "report":
        for name, result in load_results(args.out).items():
            print(f"<!-- harness:{name} -->\n{render(result)}\n<!-- /harness:{name} -->\n")
        return 0

    run, failed = Run(smoke=args.smoke), 0
    args.out.mkdir(parents=True, exist_ok=True)
    for name in EXPERIMENTS if args.name == "all" else [args.name]:
        result = EXPERIMENTS[name](run)
        (args.out / f"{name}.json").write_text(json.dumps(result, indent=1, ensure_ascii=False))
        print(f"== {name}\n{render(result)}\n")
        for bad in failed_claims(result):
            failed += 1
            print(f"FAILED {name}: {bad['claim']} — {bad['measured']}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
