"""The experiment harness: ``python -m repro.harness {list | run | report}``.

One sampling routine (:mod:`~repro.harness.paired`), one calibration and
every experiment definition (:mod:`~repro.harness.experiments`), the
queueing model (:mod:`~repro.harness.perfmodel`), the measured multi-client
sweep (:mod:`~repro.harness.measured`) and one result schema with its
renderer (:mod:`~repro.harness.result`).
"""
