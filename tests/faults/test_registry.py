"""Units for the fault registry, schedules, actions, and error classifier."""

import sys
import threading

import pytest

from repro.errors import (
    FatalFault,
    ForcedCrash,
    LockTimeoutError,
    TransientFault,
)
from repro.faults import (
    Always,
    DropMessage,
    DropMessageDirective,
    DuplicateMessage,
    DuplicateMessageDirective,
    ErrorClass,
    EveryKth,
    FaultRegistry,
    FaultSite,
    ForceCrash,
    Never,
    OnNth,
    PartialFlush,
    PartialFlushDirective,
    RaiseFatal,
    RaiseTransient,
    SeededProbability,
    TornWrite,
    TornWriteDirective,
    classify_error,
    fault_site,
    get_fault_registry,
    is_transient,
)
from repro.obs.metrics import get_registry


def make_registry(*sites: str) -> FaultRegistry:
    return FaultRegistry(FaultSite(site, "a unit-test site") for site in sites)


def fire(registry: FaultRegistry, site: str, **ctx):
    return registry.site(site).fire(**ctx)


class TestSchedules:
    def test_never_and_always(self):
        assert not any(Never().should_fire(hit) for hit in range(1, 10))
        assert all(Always().should_fire(hit) for hit in range(1, 10))

    def test_on_nth_fires_exactly_once(self):
        schedule = OnNth(3)
        fired = [hit for hit in range(1, 10) if schedule.should_fire(hit)]
        assert fired == [3]

    def test_on_nth_rejects_zero(self):
        with pytest.raises(ValueError):
            OnNth(0)

    def test_every_kth(self):
        schedule = EveryKth(3)
        fired = [hit for hit in range(1, 13) if schedule.should_fire(hit)]
        assert fired == [3, 6, 9, 12]

    def test_every_kth_limit(self):
        schedule = EveryKth(2, limit=2)
        fired = [hit for hit in range(1, 13) if schedule.should_fire(hit)]
        assert fired == [2, 4]

    def test_seeded_probability_deterministic(self):
        a = SeededProbability(0.5, seed=42)
        b = SeededProbability(0.5, seed=42)
        decisions_a = [a.should_fire(hit) for hit in range(1, 200)]
        decisions_b = [b.should_fire(hit) for hit in range(1, 200)]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)

    def test_seeded_probability_limit_keeps_stream_aligned(self):
        # With a limit, suppressed fires must not shift later decisions:
        # the unlimited and limited instances agree wherever the limited
        # one is still allowed to fire.
        unlimited = SeededProbability(0.5, seed=7)
        limited = SeededProbability(0.5, seed=7, limit=3)
        fired = 0
        for hit in range(1, 100):
            u = unlimited.should_fire(hit)
            lim = limited.should_fire(hit)
            if fired < 3:
                assert u == lim
                fired += 1 if lim else 0
            else:
                assert not lim

    def test_seeded_probability_validates_p(self):
        with pytest.raises(ValueError):
            SeededProbability(1.5, seed=0)


class TestActions:
    def test_raising_actions(self):
        with pytest.raises(TransientFault):
            RaiseTransient().trigger("s", {})
        with pytest.raises(FatalFault):
            RaiseFatal().trigger("s", {})
        with pytest.raises(ForcedCrash):
            ForceCrash().trigger("s", {})

    def test_transient_is_fault_and_names_site(self):
        err = TransientFault("wal.flush")
        assert err.site == "wal.flush"
        assert "wal.flush" in str(err)

    def test_torn_write_tears_against_old_image(self):
        directive = TornWrite(keep_fraction=0.5).trigger("disk.write_page", {})
        assert isinstance(directive, TornWriteDirective)
        new = b"N" * 100
        old = b"O" * 100
        torn = directive.tear(new, old)
        assert len(torn) == 100
        assert torn[:50] == b"N" * 50 and torn[50:] == b"O" * 50

    def test_torn_write_tears_against_zeros_when_no_old_image(self):
        directive = TornWriteDirective(keep_fraction=0.25)
        torn = directive.tear(b"N" * 8, None)
        assert torn == b"NN" + b"\x00" * 6

    def test_torn_write_validates_fraction(self):
        with pytest.raises(ValueError):
            TornWrite(keep_fraction=0.0)
        with pytest.raises(ValueError):
            TornWrite(keep_fraction=1.0)

    def test_partial_flush_validates(self):
        with pytest.raises(ValueError):
            PartialFlush(drop_last=0)
        directive = PartialFlush(drop_last=2).trigger("wal.flush", {})
        assert isinstance(directive, PartialFlushDirective)
        assert directive.drop_last == 2 and directive.then_crash

    def test_message_directives(self):
        assert isinstance(DropMessage().trigger("s", {}), DropMessageDirective)
        assert isinstance(DuplicateMessage().trigger("s", {}), DuplicateMessageDirective)


class TestClassifier:
    def test_transient_types(self):
        assert classify_error(TransientFault("s")) is ErrorClass.TRANSIENT
        assert classify_error(LockTimeoutError("lock wait timed out")) is ErrorClass.TRANSIENT
        assert classify_error(ConnectionError()) is ErrorClass.TRANSIENT
        assert classify_error(TimeoutError()) is ErrorClass.TRANSIENT

    def test_fatal_types(self):
        assert classify_error(FatalFault("s")) is ErrorClass.FATAL
        # ForcedCrash subclasses FaultInjected but is never retryable.
        assert classify_error(ForcedCrash("s")) is ErrorClass.FATAL

    def test_unknown_errors_are_fatal(self):
        assert classify_error(ValueError("?")) is ErrorClass.FATAL
        assert not is_transient(ValueError("?"))
        assert is_transient(TransientFault("s"))


class TestRegistry:
    def test_arm_unknown_site_raises(self):
        registry = make_registry("a.b")
        with pytest.raises(KeyError, match="a.b"):
            registry.arm("a.typo", Always(), RaiseTransient())

    def test_registry_serves_its_own_rows(self):
        row = FaultSite("x.y", "first", ("drop",))
        registry = FaultRegistry([row])
        assert registry.site("x.y") is row
        assert registry.sites() == ["x.y"]
        with pytest.raises(KeyError, match="x.y"):
            registry.site("x.z")
        assert registry.armed_at("x.z") == []

    def test_disarmed_site_returns_none(self):
        registry = make_registry("a.b")
        assert registry.site("a.b").armed == ()
        assert fire(registry, "a.b") is None

    def test_fire_raises_and_counts(self):
        registry = make_registry("a.b")
        registry.arm("a.b", OnNth(2), RaiseTransient())
        baseline = get_registry().value("faults.injected")
        assert fire(registry, "a.b") is None          # hit 1: no fire
        with pytest.raises(TransientFault):
            fire(registry, "a.b")                     # hit 2: fires
        assert fire(registry, "a.b") is None          # hit 3: OnNth is done
        assert get_registry().value("faults.injected") - baseline == 1

    def test_directive_returned_to_site(self):
        registry = make_registry("a.b")
        registry.arm("a.b", Always(), DropMessage())
        assert isinstance(fire(registry, "a.b"), DropMessageDirective)

    def test_disarm_stops_firing(self):
        registry = make_registry("a.b")
        armed = registry.arm("a.b", Always(), RaiseTransient())
        registry.disarm(armed)
        assert fire(registry, "a.b") is None
        assert registry.armed_at("a.b") == []

    def test_disarm_all(self):
        registry = make_registry("a.b", "c.d")
        registry.arm("a.b", Always(), RaiseTransient())
        registry.arm("c.d", Always(), RaiseFatal())
        registry.disarm_all()
        assert fire(registry, "a.b") is None and fire(registry, "c.d") is None

    def test_rearming_restarts_hit_count(self):
        registry = make_registry("a.b")
        first = registry.arm("a.b", OnNth(1), RaiseTransient())
        with pytest.raises(TransientFault):
            fire(registry, "a.b")
        registry.disarm(first)
        registry.arm("a.b", OnNth(1), RaiseTransient())
        with pytest.raises(TransientFault):
            fire(registry, "a.b")  # a fresh arming fires on its own first hit

    def test_concurrent_arming_and_disarming_loses_no_arming(self):
        registry = make_registry("a.b")
        kept: list = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def churn():
            mine = [registry.arm("a.b", Never(), RaiseTransient()) for __ in range(200)]
            for armed in mine[::2]:
                registry.disarm(armed)
            kept.extend(mine[1::2])

        try:
            threads = [threading.Thread(target=churn) for __ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(map(id, registry.site("a.b").armed)) == sorted(map(id, kept))

    @pytest.mark.parametrize(
        "schedule",
        [OnNth(3), EveryKth(2, limit=2), SeededProbability(0.5, seed=7, limit=3)],
        ids=repr,
    )
    def test_rearmed_schedule_object_replays_its_sequence(self, schedule):
        registry = make_registry("a.b")

        def run() -> list[int]:
            armed = registry.arm("a.b", schedule, DropMessage())
            fired = [hit for hit in range(1, 13) if fire(registry, "a.b") is not None]
            registry.disarm(armed)
            return fired

        first = run()
        assert first and run() == first

    def test_armed_fault_records_hits_and_fires(self):
        registry = make_registry("a.b")
        armed = registry.arm("a.b", EveryKth(2), DropMessage())
        for __ in range(6):
            fire(registry, "a.b")
        assert armed.hits == 6
        assert armed.fired == 3

    def test_hits_are_counted_atomically_across_threads(self):
        registry = make_registry("a.b")
        armed = registry.arm("a.b", Never(), RaiseTransient())
        n_threads, per_thread = 8, 500

        def hammer():
            for __ in range(per_thread):
                fire(registry, "a.b")

        threads = [threading.Thread(target=hammer) for __ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert armed.hits == n_threads * per_thread

    def test_global_registry_has_all_advertised_sites(self):
        # The table declares every site, whatever has been imported.
        expected = {
            "attestation.verify",
            "bufferpool.evict",
            "disk.read_page",
            "disk.write_page",
            "driver.describe_parameter_encryption",
            "enclave.channel.recv",
            "enclave.channel.send",
            "enclave.eval_batch",
            "enclave.recrypt_batch",
            "engine.commit",
            "engine.index_insert",
            "engine.prepare",
            "freshness.advance",
            "freshness.verify",
            "net.recv_frame",
            "net.send_frame",
            "rotation.batch",
            "rotation.begin",
            "rotation.checkpoint",
            "rotation.end",
            "router.commit_decision",
            "wal.append",
            "wal.flush",
        }
        assert set(get_fault_registry().sites()) == expected

    def test_bound_site_is_the_global_registry_row(self):
        from repro.sqlengine.storage import wal

        site = fault_site("wal.flush")
        assert site is wal._FLUSH is get_fault_registry().site("wal.flush")
        armed = get_fault_registry().arm("wal.flush", Always(), RaiseFatal())
        try:
            assert site.armed == (armed,)
            with pytest.raises(FatalFault):
                site.fire()
        finally:
            get_fault_registry().disarm(armed)
        assert site.armed == ()

    def test_binding_an_undeclared_site_names_the_known_ones(self):
        with pytest.raises(KeyError, match="wal.flush"):
            fault_site("wal.flsuh")
