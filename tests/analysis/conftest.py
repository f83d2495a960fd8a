"""Shared helpers for the analyzer's own test suite.

Each rule family gets a pair of fixture packages under ``fixtures/``
(one deliberately violating, one clean); tests build bespoke
:class:`~repro.analysis.config.AnalysisConfig` objects pointing at those
roots. The real tree is analyzed once per session (:func:`real_report`);
every "the real tree is clean" test reads that report, and tests that
drive the CLI over the real tree or an edited copy of it reuse its parse
of every unchanged module (:func:`parse_once`).
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from repro.analysis import model as model_mod
from repro.analysis.config import default_config
from repro.analysis.engine import AnalysisEngine

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def run_rule():
    """run_rule(rule, config) -> list of findings from that rule alone."""

    def _run(rule, config):
        return AnalysisEngine(config, rules=(rule,)).run().new

    return _run


@pytest.fixture(scope="session")
def real_report():
    """The default battery over this repository's tree, run once."""
    return AnalysisEngine(default_config()).run()


@pytest.fixture(scope="session")
def _parsed_modules(real_report) -> dict:
    return {
        (name, info.path.read_text(encoding="utf-8")): info
        for name, info in real_report.model.modules.items()
    }


@pytest.fixture()
def parse_once(monkeypatch, _parsed_modules):
    """Model builds reuse the session's parse of any module whose source
    is unchanged, so a CLI run parses only what an edit touched."""
    parse = model_mod.parse_module

    def cached(modname, path, source):
        info = _parsed_modules.get((modname, source))
        if info is None:
            return parse(modname, path, source)
        return dataclasses.replace(info, path=path)

    monkeypatch.setattr(model_mod, "parse_module", cached)
