"""``python -m repro.obs.flightrec`` — record, validate, convert, report.

Subcommands:

* ``record --out DIR`` — build a small RND TPC-C system (QUEUED enclave
  gateway), drive it from concurrent client threads with the tracer armed
  (a recording is a request for spans), and export ``flight.jsonl``,
  ``flight.chrome.json`` (Perfetto-loadable) and ``transition_costs.json``;
* ``validate PATH`` — check a JSONL recording against the event schema;
* ``chrome PATH --out PATH`` — convert a JSONL recording to Chrome
  trace-event format;
* ``report PATH`` — print the leakage / contention / transition-cost /
  slowest-statement summary of a recording.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _cmd_record(args) -> int:
    from repro.enclave import CallMode
    from repro.obs.flightrec import get_recorder
    from repro.obs.flightrec.export import write_chrome_trace, write_jsonl
    from repro.obs.flightrec.report import build_report, format_report
    from repro.obs.tracing import get_tracer
    from repro.obs.transition_cost import get_transition_cost_model
    from repro.workloads.tpcc.config import EncryptionMode, TpccConfig
    from repro.workloads.tpcc.driver import build_system, run_multi_client

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = TpccConfig(
        warehouses=1,
        districts_per_warehouse=1,
        customers_per_district=args.customers,
        items=20,
        mode=EncryptionMode.RND,
        enclave_threads=2,
        eval_batch_size=args.batch_size,
    )
    print(f"building {config.label} system (QUEUED gateway) ...", flush=True)
    system = build_system(config, enclave_call_mode=CallMode.QUEUED)
    recorder = get_recorder()
    # The schema/load phase floods the ring; the recording of interest is
    # the concurrent client run.
    recorder.clear()
    get_transition_cost_model().reset()
    print(
        f"recording {args.clients} clients x {args.txns} transactions ...",
        flush=True,
    )
    tracer = get_tracer()
    tracer.enabled = True           # off by default: a recording asks for spans
    try:
        result = run_multi_client(
            system, n_clients=args.clients, transactions_per_client=args.txns
        )
    finally:
        tracer.enabled = False
    events = recorder.events()
    jsonl_path = out_dir / "flight.jsonl"
    chrome_path = out_dir / "flight.chrome.json"
    costs_path = out_dir / "transition_costs.json"
    n_events = write_jsonl(recorder, jsonl_path)
    n_slices = write_chrome_trace(recorder, chrome_path)
    get_transition_cost_model().save(costs_path)
    print(
        f"ran {result.transactions} transactions in {result.elapsed_s:.2f}s "
        f"({result.throughput:.1f} txn/s)"
    )
    print(f"wrote {jsonl_path} ({n_events} events, {recorder.dropped} dropped)")
    print(f"wrote {chrome_path} ({n_slices} trace events)")
    print(f"wrote {costs_path} "
          f"({get_transition_cost_model().observations} observations)")
    if args.report:
        print()
        print(format_report(build_report(events)))
    return 0


def _cmd_validate(args) -> int:
    from repro.obs.flightrec.export import SchemaError, validate_jsonl

    try:
        count = validate_jsonl(args.path)
    except SchemaError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    print(f"OK: {args.path} ({count} events, schema valid)")
    return 0


def _cmd_chrome(args) -> int:
    from repro.obs.flightrec.export import (
        read_chrome_trace,
        read_jsonl,
        write_chrome_trace,
    )

    __, events = read_jsonl(args.path)
    count = write_chrome_trace(events, args.out)
    # Round-trip: re-read what we just wrote so a malformed export fails here.
    read_chrome_trace(args.out)
    print(f"wrote {args.out} ({count} trace events, round-trip ok)")
    return 0


def _cmd_report(args) -> int:
    from repro.obs.flightrec.export import read_jsonl
    from repro.obs.flightrec.report import build_report, format_report

    __, events = read_jsonl(args.path)
    print(format_report(build_report(events, top_statements=args.top)))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.flightrec",
        description="flight recorder: record / validate / chrome / report",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_record = sub.add_parser("record", help="record a short TPC-C run")
    p_record.add_argument("--out", default="flightrec-out", help="output directory")
    p_record.add_argument("--clients", type=int, default=2)
    p_record.add_argument("--txns", type=int, default=10,
                          help="transactions per client")
    p_record.add_argument("--customers", type=int, default=10,
                          help="customers per district")
    p_record.add_argument("--batch-size", type=int, default=8,
                          help="enclave eval batch size")
    p_record.add_argument("--report", action="store_true",
                          help="print the summary report after recording")
    p_record.set_defaults(fn=_cmd_record)

    p_validate = sub.add_parser("validate", help="validate a JSONL recording")
    p_validate.add_argument("path")
    p_validate.set_defaults(fn=_cmd_validate)

    p_chrome = sub.add_parser("chrome", help="convert JSONL to Chrome trace")
    p_chrome.add_argument("path")
    p_chrome.add_argument("--out", required=True)
    p_chrome.set_defaults(fn=_cmd_chrome)

    p_report = sub.add_parser("report", help="summarize a recording")
    p_report.add_argument("path")
    p_report.add_argument("--top", type=int, default=5,
                          help="slowest statements to show")
    p_report.set_defaults(fn=_cmd_report)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
