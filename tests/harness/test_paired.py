"""The one sampling routine and the rule behind a ``paired`` verdict."""

import gc

from repro.harness.paired import Paired, paired
from repro.obs.metrics import get_registry


def test_every_arm_sees_every_seed_and_order_alternates():
    calls, ticks = [], get_registry().counter("harness_test.ticks")

    def arm(name, amount):
        def prepare(seed):
            calls.append((name, seed))
            assert not gc.isenabled()
            return lambda: ticks.inc(amount)
        return prepare

    sample = paired({"a": arm("a", 1), "b": arm("b", 5)}, pairs=3, seed_base=100,
                    counters=["harness_test.ticks"])
    assert gc.isenabled()
    assert calls == [("a", 100), ("b", 100), ("b", 101), ("a", 101), ("a", 102), ("b", 102)]
    assert sample.pairs == 3 and all(len(t) == 3 for t in sample.times.values())
    assert sample.counts == {"a": {"harness_test.ticks": 3}, "b": {"harness_test.ticks": 15}}


def _sample(ratios):
    return Paired({"arm": list(ratios), "base": [1.0] * len(ratios)}, {})


def test_verdict_is_nine_tenths_of_pairs_and_beyond_the_iqr():
    def verdict(ratios, below=1.0):
        return _sample(ratios).claim("c", "p", "m", "arm", "base", below)["verdict"]

    assert verdict([0.80, 0.81, 0.79, 0.80, 0.82, 0.80, 0.81, 0.79, 0.80, 1.30]) == "✓"
    assert verdict([1.20, 1.21, 1.19, 1.20, 1.22, 1.20, 1.21, 1.19, 1.20, 0.70]) == "✗"
    assert verdict([0.80, 0.81, 0.79, 0.80, 0.82, 0.80, 0.81, 0.79, 1.10, 1.30]) == "~"  # 8 of 10
    assert verdict([0.99, 0.90, 1.00, 0.95, 0.85, 0.99, 0.93, 0.97, 0.88, 0.92]) == "~"  # in the IQR
    assert verdict([1.02, 1.03, 1.01, 1.02, 1.04, 1.02, 1.03, 1.01, 1.02, 1.02], below=1.05) == "✓"
    made = _sample([0.5] * 4).claim("c", "p", "m", "arm", "base")
    assert (made["basis"], made["wins"]) == ("paired", "4/4")
