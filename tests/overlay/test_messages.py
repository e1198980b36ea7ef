"""Unit tests for message accounting."""

from repro.overlay.messages import CostReport, MessageTracer, MessageType

from tests.conftest import bytes_by_phase


class TestMessageTracer:
    def test_counts_messages_and_bytes(self):
        tracer = MessageTracer()
        tracer.send(MessageType.ROUTE, 0, 1)
        tracer.send(MessageType.RESULT, 1, 0, payload_bytes=100)
        assert tracer.message_count == 2
        assert tracer.payload_bytes == 100

    def test_counts_by_type_and_phase(self):
        tracer = MessageTracer()
        tracer.send(MessageType.ROUTE, 0, 1, phase="gram_lookup")
        tracer.send(MessageType.ROUTE, 1, 2, phase="gram_lookup")
        tracer.send(MessageType.RESULT, 2, 0, 50, phase="oid_lookup")
        assert tracer.snapshot().by_type.get("route", 0) == 2
        assert tracer.snapshot().by_phase.get("gram_lookup", 0) == 2
        assert bytes_by_phase(tracer)["oid_lookup"] == 50

    def test_log_disabled_by_default(self):
        tracer = MessageTracer()
        tracer.send(MessageType.ROUTE, 0, 1)
        assert tracer.log == []

    def test_log_recorded_when_enabled(self):
        tracer = MessageTracer(record_log=True)
        tracer.send(MessageType.FORWARD, 3, 4, 7, phase="range")
        assert len(tracer.log) == 1
        message = tracer.log[0]
        assert (message.sender, message.receiver) == (3, 4)
        assert message.payload_bytes == 7

    def test_reset(self):
        tracer = MessageTracer(record_log=True)
        tracer.send(MessageType.ROUTE, 0, 1, 5)
        tracer.reset()
        assert tracer.message_count == 0
        assert tracer.payload_bytes == 0
        assert not tracer.snapshot().by_type
        assert tracer.log == []


class TestBulk:
    def test_bulk_equals_individual_sends(self):
        one_by_one, bulk = MessageTracer(), MessageTracer()
        for payload in (10, 0, 32):
            one_by_one.send(MessageType.DELEGATE, 0, 1, payload, phase="oid_lookup")
        bulk.send_bulk(MessageType.DELEGATE, 3, 42, phase="oid_lookup")
        bulk.send_bulk(MessageType.RESULT, 0, 0, phase="oid_lookup")  # no-op
        assert bulk.snapshot() == one_by_one.snapshot()
        assert bytes_by_phase(bulk) == bytes_by_phase(one_by_one)
        assert bulk.log == []


class TestSnapshots:
    def test_delta(self):
        tracer = MessageTracer()
        tracer.send(MessageType.ROUTE, 0, 1)
        before = tracer.snapshot()
        tracer.send(MessageType.RESULT, 1, 0, 30)
        tracer.send(MessageType.RESULT, 1, 0, 20)
        delta = before.delta(tracer.snapshot())
        assert delta.messages == 2
        assert delta.payload_bytes == 50
        assert delta.by_type["result"] == 2
        assert delta.by_type.get("route", 0) == 0

    def test_cost_report_from_delta(self):
        tracer = MessageTracer()
        before = tracer.snapshot()
        tracer.send(MessageType.DELEGATE, 0, 1, 1_000_000, phase="x")
        report = CostReport.from_delta(before, tracer.snapshot())
        assert report.messages == 1
        assert report.payload_megabytes == 1.0
        assert report.by_phase == {"x": 1}

    def test_cost_report_drops_zero_entries(self):
        tracer = MessageTracer()
        tracer.send(MessageType.ROUTE, 0, 1)
        before = tracer.snapshot()
        tracer.send(MessageType.RESULT, 1, 0)
        report = CostReport.from_delta(before, tracer.snapshot())
        assert "route" not in report.by_type
