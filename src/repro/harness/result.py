"""The one result schema, its validator and its Markdown rendering.

A result is a JSON object::

    {"experiment": name, "host": {...}, "params": {...},
     "rows":   [{"label", "x", "value", "counts", "wall_ms"}],
     "claims": [{"claim", "paper", "measured", "basis", "verdict", "wins"}]}

``params`` always names what ``value`` and ``x`` are (``params["value"]``,
``params["x"]``). ``counts`` are counted demands (they repeat exactly for a
seed); ``wall_ms`` is the (q1, median, q3) of one arm of a
:func:`~repro.harness.paired.paired` run, or null. A claim's ``basis`` says
what its verdict rests on: ``count`` (registry counters, asserted),
``model`` (the queueing model given one set of demands, asserted) or
``paired`` (the nine-tenths-and-beyond-IQR rule, reported only).
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

BASES = ("count", "model", "paired")
VERDICTS = ("✓", "~", "✗")
_ROW_KEYS = {"label", "x", "value", "counts", "wall_ms"}
_CLAIM_KEYS = {"claim", "paper", "measured", "basis", "verdict", "wins"}


def host_info() -> dict:
    """CPU topology the numbers were taken on — scaling depends on it."""
    try:
        effective = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux
        effective = os.cpu_count() or 1
    try:
        cpu_max = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        cpu_max = None
    return {"cpu_count": os.cpu_count(), "effective_cpus": effective, "cgroup_cpu_max": cpu_max}


def row(label: str, value: float, x=None, counts: dict | None = None, wall_ms=None) -> dict:
    return {"label": label, "x": x, "value": value, "counts": counts or {}, "wall_ms": wall_ms}


def claim(text: str, paper: str, measured: str, basis: str, holds: bool) -> dict:
    """An asserted claim: ``count`` or ``model``; ✓ or ✗, nothing between."""
    return {
        "claim": text, "paper": paper, "measured": measured,
        "basis": basis, "verdict": "✓" if holds else "✗", "wins": None,
    }


def result(experiment: str, params: dict, rows: list[dict], claims: list[dict]) -> dict:
    return validate({
        "experiment": experiment, "host": host_info(), "params": params,
        "rows": rows, "claims": claims,
    })


def validate(result: dict) -> dict:
    """Raise ``ValueError`` unless ``result`` is in the one schema."""
    def check(ok: bool, what: str) -> None:
        if not ok:
            raise ValueError(f"{result.get('experiment')}: {what}")

    check(set(result) == {"experiment", "host", "params", "rows", "claims"}, "top-level keys")
    check(isinstance(result["experiment"], str), "experiment name")
    check("effective_cpus" in result["host"], "host.effective_cpus")
    check({"value", "x"} <= set(result["params"]), "params name value and x")
    check(bool(result["rows"]) and bool(result["claims"]), "no rows or no claims")
    for r in result["rows"]:
        check(set(r) == _ROW_KEYS, f"row keys {sorted(r)}")
        check(isinstance(r["value"], (int, float)), f"row value {r['value']!r}")
        check(isinstance(r["counts"], dict), "row counts")
        check(r["wall_ms"] is None or len(r["wall_ms"]) == 3, "row wall_ms")
    for c in result["claims"]:
        check(set(c) == _CLAIM_KEYS, f"claim keys {sorted(c)}")
        check(c["basis"] in BASES and c["verdict"] in VERDICTS, f"claim {c['claim']!r}")
        check(all(isinstance(c[k], str) for k in ("claim", "paper", "measured")), "claim text")
        check((c["basis"] == "paired") == (c["wins"] is not None), "wins iff paired")
        check(c["basis"] == "paired" or c["verdict"] != "~", "asserted claim left unresolved")
    return result


def failed_claims(result: dict) -> list[dict]:
    """The asserted (``count`` / ``model``) claims that do not hold."""
    return [c for c in result["claims"] if c["basis"] != "paired" and c["verdict"] != "✓"]


# -- rendering ---------------------------------------------------------------


def _num(value) -> str:
    if not isinstance(value, float):
        return str(value)
    return f"{value:.3f}" if abs(value) < 10 else f"{value:.1f}"


def _table(header: list[str], body: list[list[str]]) -> list[str]:
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    return lines + ["| " + " | ".join(cells) + " |" for cells in body]


def render(result: dict) -> str:
    """The Markdown block EXPERIMENTS.md holds between the markers: the
    values — one column per label when swept over ``x``, else one row per
    label with its counts and wall quartiles — then the claims."""
    rows, params = result["rows"], result["params"]
    labels = list(dict.fromkeys(r["label"] for r in rows))
    if any(r["x"] is not None for r in rows):
        cell = {(r["x"], r["label"]): _num(r["value"]) for r in rows}
        lines = _table(
            [f"{params['x']} \\ {params['value']}", *labels],
            [[str(x), *(cell.get((x, label), "") for label in labels)]
             for x in dict.fromkeys(r["x"] for r in rows)],
        )
    else:
        count_keys = list(dict.fromkeys(k for r in rows for k in r["counts"]))
        lines = _table(
            [params.get("label", "configuration"), params["value"], *count_keys,
             "wall ms, median (q1–q3)"],
            [[r["label"], _num(r["value"]),
              *(f"{r['counts'][k]:g}" if k in r["counts"] else "" for k in count_keys),
              "{1} ({0}–{2})".format(*map(_num, r["wall_ms"])) if r["wall_ms"] else ""]
             for r in rows],
        )
    lines += [""] + _table(
        ["claim", "paper", "measured", "basis", "verdict"],
        [[c["claim"], c["paper"], c["measured"], c["basis"],
          c["verdict"] + (f" ({c['wins']} pairs)" if c["wins"] else "")]
         for c in result["claims"]],
    )
    return "\n".join(lines)


def load_results(directory: Path | str) -> dict[str, dict]:
    return {
        path.stem: validate(json.loads(path.read_text()))
        for path in sorted(Path(directory).glob("*.json"))
    }


_BLOCK = re.compile(r"(<!-- harness:([\w-]+) -->\n).*?(<!-- /harness:\2 -->)", re.DOTALL)


def splice(text: str, results: dict[str, dict]) -> str:
    """``text`` with every ``<!-- harness:NAME -->`` block re-rendered."""
    return _BLOCK.sub(
        lambda m: m[1] + render(results[m[2]]) + "\n" + m[3], text
    )
