"""``python -m bench``: run the benchmark, or compare two results.

* no ``--workload``: every workload, ``ROUNDS`` timed rounds interleaved
  across workloads (w1 r1, w2 r1, ... w1 r2, ...), then one traced round
  each; writes ``bench/out/result.json`` and prints every metric.
* ``--workload W --trace 0|1``: the driver's form. ``--trace 0`` runs
  ``DRIVER_ROUNDS`` timed rounds of ``W`` and reports the end-to-end metrics;
  ``--trace 1`` runs one traced round between two untraced ones and
  reports the per-layer metrics. The last line of stdout is the result.
* ``--compare A.json B.json``: B against A, bounds from BENCHMARK.json.

Every round is a fresh subprocess (``--round``, internal).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

from pathlib import Path

from bench import OUT_DIR, ROOT, metrics

ROUNDS = 5
#: Rounds of one driver run (``--workload``). The driver makes 22 runs per
#: workload inside a fixed time budget and takes its own medians over them;
#: set-up dominates a round (3.4 s of tpcc_rnd's 7), so five rounds per run
#: would not fit when the host is in a slow phase.
DRIVER_ROUNDS = 3
REFERENCE_SECONDS = 10
DEFAULT_SEED = 20200614
SCHEMA_VERSION = 1
#: The driver allows a run 180 s; a round that outlives this is killed.
DEADLINE_S = 170.0


def round_ops(workload: str, seconds: int) -> int:
    """Ops in one round: a fixed amount of work, so counts repeat exactly.

    Sized at the seed commit so that ``ROUNDS`` rounds together measure
    about ``seconds`` (a driver run, with fewer rounds, measures less); a
    faster commit finishes the same work sooner.
    """
    from bench.workloads import SPECS

    spec = SPECS[workload]
    return max(len(spec.mix), round(spec.round_ops * seconds / REFERENCE_SECONDS))


def spawn_round(workload: str, seed: int, ops: int, traced: bool, deadline: float) -> dict:
    """Run one round in a fresh interpreter and return its measurements."""
    command = [
        sys.executable, "-m", "bench", "--round", "--workload", workload,
        "--seed", str(seed), "--ops", str(ops), "--trace", str(int(traced)),
    ]
    # A fixed hash seed: the same inputs then take the same paths through
    # every dict and set, which is part of "the same seed, the same run".
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if done.returncode != 0:
        raise RuntimeError(f"round of {workload} exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize_workload(workload: str, untraced: list[dict], traced: dict | None) -> dict:
    """End-to-end and per-layer tables for one workload from its rounds."""
    spec = metrics.manifest()
    e2e_rounds = [metrics.end_to_end(r) for r in untraced]
    e2e = metrics.summarize(spec["end_to_end"] + [metrics.FAILED_FRAC], e2e_rounds)
    out = {
        "ops_per_round": untraced[0]["ops"],
        "rounds": len(untraced),
        "attempted": sum(r["ops"] for r in untraced) + (traced["ops"] if traced else 0),
        "failed": sum(r["failed"] for r in untraced) + (traced["failed"] if traced else 0),
        "end_to_end": e2e,
    }
    if traced is not None:
        traced_rows = metrics.layer_trace(traced, e2e["ops_per_s"]["value"])
        layer_rounds = [metrics.layer_counts(r) | traced_rows for r in untraced]
        out["per_layer"] = metrics.summarize(spec["per_layer"], layer_rounds)
        for name, row in out["per_layer"].items():
            row["kind"] = metrics.kind_of(name)
            if row["kind"] == "count" and len(set(row["rounds"])) > 1:
                print(f"WARNING [{workload}] count {name} differed across rounds: "
                      f"{row['rounds']}", file=sys.stderr)
    out["correct"] = out["failed"] == 0
    return out


def print_workload(workload: str, summary: dict) -> None:
    print(f"\n== {workload}: {summary['rounds']} rounds x {summary['ops_per_round']} ops, "
          f"failed {summary['failed']}/{summary['attempted']}")
    for table in ("end_to_end", "per_layer"):
        for name, row in summary.get(table, {}).items():
            spread = ""
            if len(set(row["rounds"])) > 1:
                spread = f"   [{min(row['rounds']):.6g} .. {max(row['rounds']):.6g}]"
            print(f"  {name:<40} {row['value']:>14.6g} {row['unit']:<6}{spread}")


def driver_result(summary: dict, table: str) -> str:
    """The one-line JSON object the driver reads."""
    names = [m["name"] for m in metrics.manifest()[table]]
    return json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": summary[table][name]["value"], "unit": summary[table][name]["unit"]}
            for name in names
        },
    })


def run_one_workload(workload: str, seed: int, seconds: int, traced: bool) -> int:
    deadline = time.monotonic() + DEADLINE_S
    ops = round_ops(workload, seconds)
    if traced:
        first = spawn_round(workload, seed, ops, False, deadline)
        traced_round = spawn_round(workload, seed, ops, True, deadline)
        untraced = [first, spawn_round(workload, seed, ops, False, deadline)]
    else:
        traced_round = None
        untraced = [
            spawn_round(workload, seed, ops, False, deadline) for _ in range(DRIVER_ROUNDS)
        ]
    summary = summarize_workload(workload, untraced, traced_round)
    print_workload(workload, summary)
    print(driver_result(summary, "per_layer" if traced else "end_to_end"))
    return 0 if summary["correct"] else 1


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_all(seed: int, seconds: int, rounds: int, out_path: Path) -> int:
    spec = metrics.manifest()
    names = [w["name"] for w in spec["workloads"]]
    untraced: dict[str, list[dict]] = {name: [] for name in names}
    for index in range(rounds):
        for name in names:
            print(f"round {index + 1}/{rounds} {name}", file=sys.stderr)
            untraced[name].append(spawn_round(
                name, seed, round_ops(name, seconds), False, time.monotonic() + DEADLINE_S
            ))
    summaries = {}
    for name in names:
        print(f"traced round {name}", file=sys.stderr)
        traced = spawn_round(
            name, seed, round_ops(name, seconds), True, time.monotonic() + DEADLINE_S
        )
        summaries[name] = summarize_workload(name, untraced[name], traced)
    calib = [r["calib_ms"] for rounds_of in untraced.values() for r in rounds_of]
    result = {
        "schema_version": SCHEMA_VERSION,
        "git_commit": git_commit(),
        "seed": seed,
        "seconds": seconds,
        "rounds": rounds,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "host.calib_ms": {"min": min(calib), "max": max(calib)},
        },
        "workloads": {
            w["name"]: {"why": w["why"]} | summaries[w["name"]] for w in spec["workloads"]
        },
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"seed {seed}  commit {result['git_commit']}  host.calib_ms "
          f"{min(calib):.2f}..{max(calib):.2f}  nproc {os.cpu_count()}")
    for name in names:
        print_workload(name, summaries[name])
    print(f"\nwrote {out_path}")
    return 0 if all(s["correct"] for s in summaries.values()) else 1


def compare(path_a: str, path_b: str) -> int:
    """Print B against A; non-zero when B is worse than a bound allows."""
    end_to_end = metrics.manifest()["end_to_end"] + [metrics.FAILED_FRAC]
    with open(path_a, encoding="utf-8") as a, open(path_b, encoding="utf-8") as b:
        result_a, result_b = json.load(a), json.load(b)
    for key in ("schema_version", "seed", "seconds", "rounds"):
        if result_a[key] != result_b[key]:
            print(f"not comparable: {key} is {result_a[key]} in A and {result_b[key]} in B")
            return 2
    breaches = 0
    print(f"{'workload':<14} {'metric':<16} {'A':>12} {'B':>12} {'B vs A':>9} {'bound':>7}")
    for workload, summary_a in result_a["workloads"].items():
        summary_b = result_b["workloads"][workload]
        for metric in end_to_end:
            name = metric["name"]
            a, b = summary_a["end_to_end"][name]["value"], summary_b["end_to_end"][name]["value"]
            worse_by = (b - a) if metric["better"] == "lower" else (a - b)
            relative = (b - a) / a if a else 0.0
            breach = worse_by > metric["bound"] * abs(a)
            breaches += breach
            print(f"{workload:<14} {name:<16} {a:>12.5g} {b:>12.5g} {relative:>+9.1%} "
                  f"{metric['bound']:>7.0%}{'  BREACH' if breach else ''}")
        for name, row_a in summary_a["per_layer"].items():
            value_b = summary_b["per_layer"][name]["value"]
            if row_a["kind"] == "count" and row_a["value"] != value_b:
                breaches += 1
                print(f"{workload:<14} count {name} differs: {row_a['value']} vs {value_b}  BREACH")
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=REFERENCE_SECONDS,
                        help="nominal measured time per workload, all rounds together")
    parser.add_argument("--workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one short round per workload, to check the harness itself")
    parser.add_argument("--out", default=str(OUT_DIR / "result.json"))
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--round", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--ops", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no system under test at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.compare:
        return compare(*args.compare)
    if args.round:
        from bench.round import run_round

        print(json.dumps(run_round(args.workload, args.seed, args.ops, bool(args.trace))))
        return 0
    if args.workload:
        return run_one_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.smoke:
        return run_all(args.seed, seconds=1, rounds=1, out_path=Path(args.out))
    return run_all(args.seed, args.seconds, ROUNDS, Path(args.out))


if __name__ == "__main__":
    sys.exit(main())
