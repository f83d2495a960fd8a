"""The rule engine: build the model once, run each rule, apply baseline.

The model (one AST pass over the tree) and the interprocedural flow
structures (call graph + taint summaries, memoized on ``model.caches``)
are shared by every rule family, so the per-rule cost is the rule's own
logic — ``Report.timings`` breaks the wall time down by phase so the
``--profile`` flag and the CI budget check can hold that property.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.analysis.baseline import BaselineResult, apply_baseline, load_baseline
from repro.analysis.findings import Finding
from repro.analysis.model import ProjectModel


@dataclass
class Report:
    findings: list = field(default_factory=list)     # all, deduped + sorted
    baseline: BaselineResult | None = None
    #: wall-clock seconds by phase: "model", "taint-flow", then one entry
    #: per rule name, in execution order (dicts preserve it).
    timings: dict = field(default_factory=dict)
    model: ProjectModel | None = None                # what the rules ran on

    @property
    def new(self) -> list:
        return self.baseline.new if self.baseline else list(self.findings)

    @property
    def suppressed(self) -> list:
        return self.baseline.suppressed if self.baseline else []

    @property
    def stale_baseline(self) -> list:
        return self.baseline.stale if self.baseline else []

    @property
    def total_seconds(self) -> float:
        return sum(self.timings.values())

    def per_rule_counts(self) -> dict:
        counts: dict[str, int] = {}
        for finding in self.new:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts


class AnalysisEngine:
    def __init__(self, config, rules=None):
        if rules is None:
            from repro.analysis.rules import ALL_RULES

            rules = ALL_RULES
        self.config = config
        self.rules = tuple(rules)

    def run(self, model: ProjectModel | None = None) -> Report:
        timings: dict[str, float] = {}
        if model is None:
            start = time.perf_counter()
            model = ProjectModel.build(self.config.root, self.config.packages)
            timings["model"] = time.perf_counter() - start
        if self.config.taint_packages:
            # Warm the shared flow structures here so per-rule numbers
            # measure the rules, not whichever taint rule runs first.
            from repro.analysis.taintflow import get_taintflow

            start = time.perf_counter()
            get_taintflow(model, self.config)
            timings["taint-flow"] = time.perf_counter() - start
        findings: list[Finding] = []
        seen: set = set()
        for rule in self.rules:
            start = time.perf_counter()
            for finding in rule.run(model, self.config):
                marker = (finding.rule, finding.path, finding.line, finding.key)
                if marker not in seen:
                    seen.add(marker)
                    findings.append(finding)
            timings[rule.name] = time.perf_counter() - start
        findings.sort(key=lambda f: (f.path, f.line, f.rule, f.key))
        entries = load_baseline(self.config.baseline_path)
        return Report(
            findings=findings,
            baseline=apply_baseline(findings, entries),
            timings=timings,
            model=model,
        )
