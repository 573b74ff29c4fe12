"""Unit tests: CFS units, event-tuple wiring, routing semantics."""

import pytest

from repro.core.framework_manager import FrameworkManager
from repro.core.unit import CFSUnit
from repro.errors import EventWiringError, UnknownEventType
from repro.events.registry import EventTuple, Requirement
from repro.events.types import ontology


class RecordingUnit(CFSUnit):
    """A CFS unit that records everything it processes."""

    def __init__(self, name, required=(), provided=()):
        super().__init__(name, ontology)
        self.set_event_tuple(EventTuple(required, provided))
        self.received = []
        self.registry.register_handler("EVENT", self.received.append)


class Harness:
    """A minimal deployment stand-in wiring units to a manager."""

    def __init__(self):
        self.manager = FrameworkManager(ontology)
        self.now = 0.0

    def add(self, unit):
        unit.deployment = self
        self.manager.register_unit(unit)
        unit.start()
        return unit


@pytest.fixture
def harness():
    return Harness()


class TestWiringDerivation:
    def test_provider_consumer_binding(self, harness):
        provider = harness.add(RecordingUnit("p", provided=["TC_OUT"]))
        consumer = harness.add(RecordingUnit("c", required=["TC_OUT"]))
        table = harness.manager.subscription_table()
        assert table["p"] == [("c", "TC_OUT", False)]
        # real OpenCom bindings exist for inspection
        wiring = harness.manager.wiring()
        assert len(wiring) == 1
        assert wiring[0].receptacle.owner is provider
        assert wiring[0].interface.provider is consumer

    def test_polymorphic_requirement(self, harness):
        harness.add(RecordingUnit("p", provided=["HELLO_IN"]))
        harness.add(RecordingUnit("c", required=["MSG_IN"]))
        assert harness.manager.subscription_table()["p"] == [
            ("c", "MSG_IN", False)
        ]

    def test_rewire_on_tuple_change(self, harness):
        provider = harness.add(RecordingUnit("p", provided=["TC_OUT"]))
        consumer = harness.add(RecordingUnit("c"))
        assert harness.manager.subscription_table()["p"] == []
        consumer.set_event_tuple(EventTuple(["TC_OUT"], []))
        assert harness.manager.subscription_table()["p"] == [
            ("c", "TC_OUT", False)
        ]

    def test_unregister_removes_wiring(self, harness):
        harness.add(RecordingUnit("p", provided=["TC_OUT"]))
        consumer = harness.add(RecordingUnit("c", required=["TC_OUT"]))
        harness.manager.unregister_unit(consumer)
        assert harness.manager.subscription_table()["p"] == []

    def test_tuple_validation_rejects_unknown_types(self, harness):
        unit = harness.add(RecordingUnit("u"))
        with pytest.raises(UnknownEventType):
            unit.set_event_tuple(EventTuple(["NOPE"], []))
        with pytest.raises(UnknownEventType):
            unit.set_event_tuple(EventTuple([], ["NOPE"]))

    def test_rewire_counter(self, harness):
        before = harness.manager.rewires
        harness.add(RecordingUnit("u"))
        assert harness.manager.rewires == before + 1


class TestRouting:
    def test_event_reaches_all_consumers_in_stack_order(self, harness):
        provider = harness.add(RecordingUnit("p", provided=["TC_OUT"]))
        first = harness.add(RecordingUnit("c1", required=["TC_OUT"]))
        second = harness.add(RecordingUnit("c2", required=["TC_OUT"]))
        delivered = provider.emit("TC_OUT", payload="x")
        assert delivered == 2
        assert len(first.received) == 1 and len(second.received) == 1

    def test_route_observer_sees_each_routing_until_removed(self, harness):
        provider = harness.add(RecordingUnit("p", provided=["TC_OUT"]))
        harness.add(RecordingUnit("c1", required=["TC_OUT"]))
        harness.add(RecordingUnit("c2", required=["TC_OUT"]))
        seen = []

        def observer(source, event, consumers):
            seen.append((source, event.etype.name, consumers))

        harness.manager.add_route_observer(observer)
        provider.emit("TC_OUT")
        assert seen == [("p", "TC_OUT", ["c1", "c2"])]
        harness.manager.remove_route_observer(observer)
        provider.emit("TC_OUT")
        assert len(seen) == 1

    def test_loop_avoidance_excludes_source(self, harness):
        both = harness.add(
            RecordingUnit("both", required=["TC_OUT"], provided=["TC_OUT"])
        )
        sink = harness.add(RecordingUnit("sink", required=["TC_OUT"]))
        delivered = both.emit("TC_OUT")
        assert delivered == 1
        assert both.received == []
        assert len(sink.received) == 1

    def test_exclusive_receive_preempts_normal_consumers(self, harness):
        provider = harness.add(RecordingUnit("p", provided=["TC_OUT"]))
        normal = harness.add(RecordingUnit("n", required=["TC_OUT"]))
        exclusive = harness.add(
            RecordingUnit("x", required=[Requirement("TC_OUT", exclusive=True)])
        )
        provider.emit("TC_OUT")
        assert len(exclusive.received) == 1
        assert normal.received == []

    def test_exclusive_interposition_chain(self, harness):
        """The fish-eye pattern: exclusive consumer re-emits to the rest."""
        provider = harness.add(RecordingUnit("p", provided=["TC_OUT"]))
        sink = harness.add(RecordingUnit("sink", required=["TC_OUT"]))

        class Interposer(RecordingUnit):
            def __init__(self):
                super().__init__(
                    "mid",
                    required=[Requirement("TC_OUT", exclusive=True)],
                    provided=["TC_OUT"],
                )
                self.registry.register_handler(
                    "TC_OUT", lambda e: self.emit("TC_OUT", payload="modified")
                )

        harness.add(Interposer())
        provider.emit("TC_OUT", payload="original")
        assert len(sink.received) == 1
        assert sink.received[0].payload == "modified"

    def test_unregistered_source_rejected(self, harness):
        stray = RecordingUnit("stray", provided=["TC_OUT"])
        stray.deployment = harness
        with pytest.raises(EventWiringError):
            harness.manager.route(stray, object.__new__(type("E", (), {})))

    def test_emit_before_deployment_counted(self):
        unit = RecordingUnit("lonely", provided=["TC_OUT"])
        assert unit.emit("TC_OUT") == 0
        assert unit.undeliverable == 1

    def test_event_carries_origin_and_timestamp(self, harness):
        harness.now = 3.25
        provider = harness.add(RecordingUnit("p", provided=["TC_OUT"]))
        sink = harness.add(RecordingUnit("s", required=["TC_OUT"]))
        provider.emit("TC_OUT", source=42)
        [event] = sink.received
        assert event.origin == "p"
        assert event.source == 42
        assert event.timestamp == 3.25

    def test_context_events_reach_concentrator(self, harness):
        provider = harness.add(RecordingUnit("p", provided=["POWER_STATUS"]))
        provider.emit("POWER_STATUS", payload={"battery": 0.5})
        assert harness.manager.concentrator.read("POWER_STATUS") == {
            "battery": 0.5
        }

    def test_events_routed_counter(self, harness):
        provider = harness.add(RecordingUnit("p", provided=["TC_OUT"]))
        provider.emit("TC_OUT")
        provider.emit("TC_OUT")
        assert harness.manager.events_routed == 2


class TestExclusiveEdgeCases:
    """Exclusive-requirement conflicts and dispatch-index invalidation."""

    def test_two_exclusive_requirers_rejected_at_rewire(self, harness):
        harness.add(RecordingUnit("p", provided=["TC_OUT"]))
        harness.add(
            RecordingUnit("x1", required=[Requirement("TC_OUT", exclusive=True)])
        )
        with pytest.raises(EventWiringError):
            harness.add(
                RecordingUnit(
                    "x2", required=[Requirement("TC_OUT", exclusive=True)]
                )
            )

    def test_exclusive_conflict_via_tuple_change_rejected(self, harness):
        harness.add(RecordingUnit("p", provided=["TC_OUT"]))
        harness.add(
            RecordingUnit("x1", required=[Requirement("TC_OUT", exclusive=True)])
        )
        late = harness.add(RecordingUnit("late", required=["TC_OUT"]))
        with pytest.raises(EventWiringError):
            late.set_event_tuple(
                EventTuple([Requirement("TC_OUT", exclusive=True)], [])
            )

    def test_polymorphic_exclusive_conflict_rejected(self, harness):
        """Exclusive requirements on an ancestor and the concrete type clash."""
        harness.add(RecordingUnit("p", provided=["HELLO_IN"]))
        harness.add(
            RecordingUnit(
                "x1", required=[Requirement("HELLO_IN", exclusive=True)]
            )
        )
        with pytest.raises(EventWiringError):
            harness.add(
                RecordingUnit(
                    "x2", required=[Requirement("MSG_IN", exclusive=True)]
                )
            )

    def test_nonexclusive_requirers_resume_after_exclusive_removed(self, harness):
        provider = harness.add(RecordingUnit("p", provided=["TC_OUT"]))
        normal = harness.add(RecordingUnit("n", required=["TC_OUT"]))
        exclusive = harness.add(
            RecordingUnit("x", required=[Requirement("TC_OUT", exclusive=True)])
        )
        provider.emit("TC_OUT")
        assert len(exclusive.received) == 1 and normal.received == []
        harness.manager.unregister_unit(exclusive)
        provider.emit("TC_OUT")
        assert len(normal.received) == 1
        assert len(exclusive.received) == 1

    def test_index_invalidated_across_reconfig_transitions(self, harness):
        provider = harness.add(RecordingUnit("p", provided=["TC_OUT"]))
        first = harness.add(RecordingUnit("c1", required=["TC_OUT"]))
        # Declared provided types are pre-resolved at rewire: first emit
        # already hits the index.
        provider.emit("TC_OUT")
        assert harness.manager.index_hits == 1
        # Registering a new consumer rebuilds the index.
        second = harness.add(RecordingUnit("c2", required=["TC_OUT"]))
        provider.emit("TC_OUT")
        assert len(first.received) == 2 and len(second.received) == 1
        # Dropping a requirement mid-run stops delivery immediately.
        first.set_event_tuple(EventTuple([], []))
        provider.emit("TC_OUT")
        assert len(first.received) == 2 and len(second.received) == 2
        # Unregistering a consumer is reflected too.
        harness.manager.unregister_unit(second)
        assert provider.emit("TC_OUT") == 0

    def test_polymorphic_emission_fills_index_lazily(self, harness):
        provider = harness.add(RecordingUnit("p", provided=["MSG_IN"]))
        sink = harness.add(RecordingUnit("s", required=["MSG_IN"]))
        misses = harness.manager.index_misses
        provider.emit("HELLO_IN")  # subtype of the declared MSG_IN
        assert harness.manager.index_misses == misses + 1
        provider.emit("HELLO_IN")
        assert harness.manager.index_misses == misses + 1  # now indexed
        assert len(sink.received) == 2


class TestDedicatedThreads:
    def test_dedicated_thread_delivery(self, harness):
        provider = harness.add(RecordingUnit("p", provided=["TC_OUT"]))
        consumer = harness.add(RecordingUnit("c", required=["TC_OUT"]))
        harness.manager.set_dedicated_thread(consumer)
        provider.emit("TC_OUT")
        assert harness.manager.drain(timeout=5.0)
        assert len(consumer.received) == 1
        harness.manager.set_dedicated_thread(consumer, enabled=False)
        harness.manager.shutdown()

    def test_drain_timeout_raises_naming_model_and_in_flight(self, harness):
        import time

        from repro.concurrency.models import ThreadPerMessage

        class SlowUnit(RecordingUnit):
            def process_event(self, event):
                time.sleep(0.3)
                super().process_event(event)

        provider = harness.add(RecordingUnit("p", provided=["TC_OUT"]))
        harness.add(SlowUnit("slow", required=["TC_OUT"]))
        harness.manager.set_model(ThreadPerMessage())
        provider.emit("TC_OUT")
        with pytest.raises(TimeoutError, match=r"ThreadPerMessage .* 1 event\(s\) in flight"):
            harness.manager.drain(timeout=0.01)
        assert harness.manager.drain(timeout=5.0)
        harness.manager.shutdown()

    def test_unit_describe(self, harness):
        unit = harness.add(
            RecordingUnit(
                "u",
                required=[Requirement("TC_OUT", exclusive=True), "MSG_IN"],
                provided=["HELLO_OUT"],
            )
        )
        description = unit.describe()
        assert description["required"] == ["TC_OUT!", "MSG_IN"]
        assert description["provided"] == ["HELLO_OUT"]
