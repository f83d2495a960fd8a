"""Trust-boundary static analysis (lint-time enforcement of the paper's
isolation argument).

The reproduction's security story rests on invariants that, until this
package existed, were held only by convention: the host never touches
enclave internals, plaintext never escapes host-side, locks nest in one
declared order, every fault site is a registered, tested contract, and
2PC writes its log record before its state. ``python -m repro.analysis
--strict`` checks all of it on every commit. Each check is proved by a
realistic edit of the real tree that it catches: the mutation table in
``tests/analysis/test_injection.py``, printed in ``docs/ANALYSIS.md``.

Layout:

* :mod:`~repro.analysis.model` — one AST pass per module, shared records;
* :mod:`~repro.analysis.rules` — the rule families;
* :mod:`~repro.analysis.engine` — run rules, dedup, apply baseline;
* :mod:`~repro.analysis.baseline` — grandfathered findings, a ratchet;
* :mod:`~repro.analysis.cli` — the ``python -m repro.analysis`` command.

See ``docs/ANALYSIS.md`` for the trust-boundary model and how to add a
rule.
"""

from repro.analysis.baseline import apply_baseline, load_baseline
from repro.analysis.config import AnalysisConfig, LockOrderConfig, TaintConfig, default_config
from repro.analysis.engine import AnalysisEngine, Report
from repro.analysis.findings import Finding
from repro.analysis.model import ProjectModel

__all__ = [
    "AnalysisConfig",
    "AnalysisEngine",
    "Finding",
    "LockOrderConfig",
    "ProjectModel",
    "Report",
    "TaintConfig",
    "apply_baseline",
    "default_config",
    "load_baseline",
]
