"""Baseline mechanism: suppression by line-free fingerprint, stale-entry
expiry, and the strict-mode exit codes that make it a ratchet."""

from __future__ import annotations

from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import AnalysisEngine


def taint_config(root, baseline_path=None) -> AnalysisConfig:
    return AnalysisConfig(
        root=root,
        packages=("tpkg",),
        taint_packages=("tpkg",),
        baseline_path=baseline_path,
    )


def run(config):
    from repro.analysis.rules.plaintext_taint import PlaintextTaintRule

    return AnalysisEngine(config, rules=(PlaintextTaintRule(),)).run()


FINGERPRINT = "plaintext-taint|tpkg/pipeline.py|leak_return|return-plaintext"


def test_baselined_finding_is_suppressed(fixtures_dir, tmp_path):
    baseline = tmp_path / "baseline.txt"
    baseline.write_text(f"{FINGERPRINT}  # fixture: grandfathered on purpose\n")
    report = run(taint_config(fixtures_dir / "taint_bad", baseline))
    assert FINGERPRINT in {f.fingerprint for f in report.suppressed}
    assert FINGERPRINT not in {f.fingerprint for f in report.new}
    assert report.new  # the other leaks still fail the build
    assert report.stale_baseline == []


def test_stale_entry_is_reported(fixtures_dir, tmp_path):
    baseline = tmp_path / "baseline.txt"
    baseline.write_text(
        "# comment lines and blanks are ignored\n\n"
        f"{FINGERPRINT}  # still valid\n"
        "plaintext-taint|tpkg/gone.py|vanished|return-plaintext  # code was deleted\n"
    )
    report = run(taint_config(fixtures_dir / "taint_bad", baseline))
    assert [e.fingerprint for e in report.stale_baseline] == [
        "plaintext-taint|tpkg/gone.py|vanished|return-plaintext"
    ]


def test_missing_baseline_file_is_empty(fixtures_dir, tmp_path):
    report = run(taint_config(fixtures_dir / "taint_bad", tmp_path / "nope.txt"))
    assert report.suppressed == [] and report.stale_baseline == []
    assert report.new


def test_cli_strict_fails_on_stale_entry(tmp_path, capsys, parse_once):
    # Real tree + real baseline passes (see test_real_tree); the same
    # baseline with one dead entry appended must flip --strict to 1.
    from repro.analysis.cli import main
    from repro.analysis.config import repo_root

    real = (repo_root() / "analysis-baseline.txt").read_text()
    doctored = tmp_path / "baseline.txt"
    doctored.write_text(real + "lock-order|repro/nope.py|gone|cycle:x->y  # dead\n")
    assert main(["--strict", "--baseline", str(doctored)]) == 1
    out = capsys.readouterr().out
    assert "stale baseline entry" in out
