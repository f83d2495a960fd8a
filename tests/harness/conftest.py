"""One smoke-scale run shared by the harness tests."""

import pytest

from repro.harness.experiments import EXPERIMENTS, Run


@pytest.fixture(scope="session")
def smoke_run() -> Run:
    return Run(smoke=True)


@pytest.fixture(scope="session")
def smoke(smoke_run):
    """``smoke(name)`` -> that experiment's result at ``--smoke`` scale. The
    calibration and every experiment run at most once per session."""
    results: dict[str, dict] = {}

    def result_of(name: str) -> dict:
        if name not in results:
            results[name] = EXPERIMENTS[name](smoke_run)
        return results[name]

    return result_of
