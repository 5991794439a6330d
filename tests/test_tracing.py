"""Tests for causal distributed tracing (repro.obs.tracing).

Covers context propagation through the simulator and the reliable
transport (retransmission and crash/restart redelivery keep the
*original* trace id), span-tree assembly and verification against the
recorded deliveries, the per-broker flight recorder with its dump
triggers, the Chrome-trace / Prometheus exporters, and the hop spans of
socket nodes and of the one-process-per-broker deployment.
"""

import json
import os

import pytest

from repro.audit import AuditOracle, audit_scenarios, run_audited_workload
from repro.broker.messages import SubscribeMsg
from repro.broker.strategies import RoutingConfig
from repro.dtd.samples import psd_dtd
from repro.network import ConstantLatency, Overlay
from repro.network.faults import CrashEvent, FaultPlan, LinkFaults
from repro.obs.flight import FlightRecorder, FlightRecorderSet
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import (
    Span,
    TraceContext,
    TraceRecorder,
    assemble_traces,
    current_scope,
    mint_context,
    stamp,
    trace_of,
    verify_traces,
)
from repro.workloads.document_generator import generate_documents
from repro.xpath import parse_xpath


def traced_overlay(levels=2, faults=None, flight_dir=None, **tracing_kwargs):
    overlay = Overlay.binary_tree(
        levels,
        config=RoutingConfig.with_adv_with_cov(),
        latency_model=ConstantLatency(0.001),
        processing_scale=0.0,
        faults=faults,
    )
    overlay.enable_tracing(flight_dir=flight_dir, **tracing_kwargs)
    return overlay


def run_small_workload(overlay, documents=1):
    publisher = overlay.attach_publisher("pub", "b2")
    subscriber = overlay.attach_subscriber("sub", "b3")
    publisher.advertise_dtd(psd_dtd())
    overlay.run()
    subscriber.subscribe("/ProteinDatabase")
    overlay.run()
    for document in generate_documents(
        psd_dtd(), documents, seed=2, target_bytes=600
    ):
        publisher.publish_document(document)
    overlay.run()
    return overlay


class TestContextPropagation:
    def test_every_submission_mints_one_trace(self):
        overlay = run_small_workload(traced_overlay())
        recorder = overlay.tracing
        roots = [s for s in recorder.spans if s.name == "submit"]
        assert len(roots) == len(recorder.traces)
        assert {root.parent_id for root in roots} == {None}

    def test_root_kinds_cover_the_client_operations(self):
        overlay = run_small_workload(traced_overlay())
        subscriber = overlay.subscribers["sub"]
        subscriber.unsubscribe("/ProteinDatabase")
        overlay.run()
        kinds = {
            s.attrs["kind"]
            for s in overlay.tracing.spans
            if s.name == "submit"
        }
        assert {"AdvertiseMsg", "SubscribeMsg", "PublishMsg",
                "UnsubscribeMsg"} <= kinds

    def test_resubmission_keeps_its_original_trace(self):
        overlay = traced_overlay()
        message = SubscribeMsg(
            expr=parse_xpath("/ProteinDatabase"), subscriber_id="sub"
        )
        stamp(message, TraceContext("t-original", "s-root"))
        overlay.attach_subscriber("sub", "b3")
        overlay.submit("sub", message)
        overlay.run()
        assert trace_of(message).trace_id == "t-original"
        # no fresh trace was minted; no extra submit root either
        assert "t-original" in overlay.tracing.traces
        assert not any(
            s.name == "submit" for s in overlay.tracing.traces["t-original"]
        )

    def test_broker_originated_traffic_joins_the_causing_trace(self):
        # advertising floods broker-derived messages; every span must
        # still belong to a trace rooted at a client submit
        overlay = run_small_workload(traced_overlay(levels=3))
        trees = overlay.tracing.assemble()
        assert trees
        for tree in trees.values():
            assert tree.complete, tree.render()


class TestSpanDecomposition:
    def test_verify_traces_is_clean_fault_free(self):
        overlay = run_small_workload(traced_overlay())
        assert verify_traces(overlay) == []

    def test_fault_free_chain_sum_equals_delivery_delay(self):
        overlay = run_small_workload(traced_overlay())
        trees = overlay.tracing.assemble()
        checked = 0
        for record in overlay.stats.deliveries:
            for tree in trees.values():
                for span in tree.delivery_spans():
                    if (
                        span.attrs["subscriber"] == record.subscriber_id
                        and span.attrs["doc"] == record.doc_id
                        and span.attrs["path_id"] == record.path_id
                    ):
                        # no queueing and no retries: the decomposition
                        # is gapless, so stages sum to the exact delay
                        assert abs(
                            tree.path_sum(span) - record.delay
                        ) < 1e-9
                        checked += 1
        assert checked == len(overlay.stats.deliveries) > 0

    def test_match_sub_spans_carry_engine_and_cache_outcome(self):
        overlay = run_small_workload(traced_overlay(), documents=2)
        matches = [
            s for s in overlay.tracing.spans if s.name == "match"
        ]
        assert matches
        assert all(s.attrs["cache"] in ("hit", "miss", "stale")
                   for s in matches)
        assert any(s.attrs.get("engine") for s in matches)
        assert all("wall" in s.attrs for s in matches)

    def test_covering_check_spans_on_subscription_paths(self):
        overlay = run_small_workload(traced_overlay())
        covering = [
            s for s in overlay.tracing.spans if s.name == "covering.check"
        ]
        assert covering
        assert all(s.parent_id is not None for s in covering)

    def test_verify_reports_when_tracing_is_off(self):
        overlay = Overlay.binary_tree(2)
        assert verify_traces(overlay) == [
            "tracing is not enabled on this overlay"
        ]


class TestReliableTransport:
    def drop_plan(self):
        return FaultPlan(seed=3, default=LinkFaults(drop=0.4), rto=0.01)

    def test_retransmission_stays_in_the_original_trace(self):
        overlay = run_small_workload(traced_overlay(faults=self.drop_plan()))
        recorder = overlay.tracing
        retransmits = [
            s for s in recorder.spans if s.name == "retransmit"
        ]
        assert retransmits
        for span in retransmits:
            roots = [
                s
                for s in recorder.traces[span.trace_id]
                if s.name == "submit"
            ]
            assert len(roots) == 1  # retried delivery, original trace
        # retries never mint traces: one trace per client submission
        submits = sum(1 for s in recorder.spans if s.name == "submit")
        assert len(recorder.traces) == submits

    def test_duplicate_suppression_emits_a_span_not_a_trace(self):
        plan = FaultPlan(
            seed=1, default=LinkFaults(duplicate=1.0), rto=0.01
        )
        overlay = run_small_workload(traced_overlay(faults=plan))
        recorder = overlay.tracing
        dropped = [
            s for s in recorder.spans if s.name == "dropped.duplicate"
        ]
        assert dropped
        for span in dropped:
            assert span.trace_id in recorder.traces
            assert span.duration == 0.0
        submits = sum(1 for s in recorder.spans if s.name == "submit")
        assert len(recorder.traces) == submits
        assert verify_traces(overlay) == []

    def test_verification_survives_heavy_loss(self):
        overlay = run_small_workload(
            traced_overlay(faults=self.drop_plan()), documents=2
        )
        assert verify_traces(overlay) == []


class TestCrashRestart:
    def plan(self):
        return FaultPlan(
            seed=4,
            default=LinkFaults(drop=0.1),
            crashes=(CrashEvent("b2", at=0.002, restart_at=0.2),),
            rto=0.01,
        )

    def test_redelivery_after_crash_keeps_the_trace(self, tmp_path):
        overlay = run_small_workload(
            traced_overlay(faults=self.plan(), flight_dir=str(tmp_path))
        )
        recorder = overlay.tracing
        assert overlay.transport.stats["crashes"] == 1
        submits = sum(1 for s in recorder.spans if s.name == "submit")
        assert len(recorder.traces) == submits
        assert verify_traces(overlay) == []

    def test_crash_dumps_the_flight_rings(self, tmp_path):
        overlay = run_small_workload(
            traced_overlay(faults=self.plan(), flight_dir=str(tmp_path))
        )
        dumps = overlay.tracing.flight.dumps
        crash_dumps = [d for d in dumps if d["reason"] == "crash-b2"]
        assert len(crash_dumps) == 1
        path = crash_dumps[0]["path"]
        assert os.path.exists(path)
        with open(path) as handle:
            document = json.load(handle)
        assert document["reason"] == "crash-b2"
        spans = [
            span
            for ring in document["brokers"].values()
            for span in ring
        ]
        assert spans
        assert {"trace", "span", "name", "broker", "start", "end",
                "attrs"} <= set(spans[0])

    def test_partition_heal_dumps_the_affected_brokers(self):
        scenarios = audit_scenarios(0)
        overlay, _, report = run_audited_workload(
            plan=scenarios["partition-heals"], tracing=True
        )
        assert report.ok
        heal = [
            d
            for d in overlay.tracing.flight.dumps
            if d["reason"].startswith("partition-heal-")
        ]
        assert heal
        assert set(heal[0]["brokers"]) == {"b1", "b3"}


class TestChaosMatrix:
    def test_chaos_runs_reconstruct_complete_delivery_trees(self):
        scenarios = audit_scenarios(0)
        for name in ("drop-only", "crash-restart"):
            overlay, _, report = run_audited_workload(
                plan=scenarios[name], tracing=True
            )
            assert report.ok, report.summary()
            assert verify_traces(overlay) == []
            trees = overlay.tracing.assemble()
            assert all(tree.complete for tree in trees.values())


class TestAuditViolationDump:
    def test_violation_stamps_trace_ids_and_dumps_flight(self, tmp_path):
        overlay = run_small_workload(
            traced_overlay(flight_dir=str(tmp_path))
        )
        # the auditor must be attached before traffic to see submits;
        # rebuild the workload with one attached instead
        overlay = traced_overlay(flight_dir=str(tmp_path))
        oracle = overlay.attach_auditor(AuditOracle())
        run_small_workload(overlay)
        assert oracle.check().ok
        # forge a missed delivery: the oracle saw the publication but we
        # erase its delivery record, as if routing had dropped it
        oracle.delivered.clear()
        report = oracle.check()
        assert not report.ok
        missed = [
            v for v in report.soundness if v.code == "missed-delivery"
        ]
        assert missed
        assert missed[0].trace_ids
        assert "[trace " in str(missed[0])
        assert missed[0].trace_ids[0] in report.info["traces"]
        assert "flight_dump" in report.info
        dumps = overlay.tracing.flight.dumps
        assert any(d["reason"] == "audit-violation" for d in dumps)
        assert os.path.exists(report.info["flight_dump"])


class TestFlightRecorder:
    def span(self, i, broker="b1"):
        return Span("t1", "s%d" % i, None, "hop", broker, float(i), float(i))

    def test_ring_is_bounded_and_keeps_the_newest(self):
        ring = FlightRecorder("b1", capacity=4)
        for i in range(10):
            ring.record(self.span(i))
        assert len(ring) == 4
        assert [s.span_id for s in ring.spans()] == ["s6", "s7", "s8", "s9"]

    def test_set_routes_spans_by_broker(self):
        recorders = FlightRecorderSet(capacity=8)
        recorders.record(self.span(1, "b1"))
        recorders.record(self.span(2, "b2"))
        assert set(recorders.recorders) == {"b1", "b2"}

    def test_dump_writes_json_with_path(self, tmp_path):
        recorders = FlightRecorderSet(capacity=8, out_dir=str(tmp_path))
        recorders.record(self.span(1))
        document = recorders.dump("unit test!", time=1.5)
        assert document["time"] == 1.5
        assert document["path"].endswith("flight-000-unit-test.json")
        with open(document["path"]) as handle:
            assert json.load(handle)["brokers"]["b1"]

    def test_in_memory_dumps_are_capped(self):
        recorders = FlightRecorderSet(capacity=2)
        for i in range(FlightRecorderSet.MAX_DUMPS + 5):
            recorders.record(self.span(i))
            recorders.dump("r%d" % i)
        assert len(recorders.dumps) == FlightRecorderSet.MAX_DUMPS


class TestTraceRecorderUnit:
    def test_max_spans_cap_counts_drops_but_feeds_the_ring(self):
        recorder = TraceRecorder(max_spans=2, flight_capacity=8)
        for i in range(4):
            recorder.span("t1", None, "hop", "b1", float(i), float(i))
        assert len(recorder) == 2
        assert recorder.dropped == 2
        assert len(recorder.flight.recorder("b1")) == 4

    def test_clear_resets_spans_and_drop_count(self):
        recorder = TraceRecorder(max_spans=1)
        recorder.span("t1", None, "hop", "b1", 0.0, 0.0)
        recorder.span("t1", None, "hop", "b1", 1.0, 1.0)
        assert recorder.dropped == 1
        recorder.clear()
        assert len(recorder) == 0 and recorder.dropped == 0
        recorder.span("t2", None, "hop", "b1", 2.0, 2.0)
        assert len(recorder) == 1

    def test_hop_scope_maps_wall_time_onto_the_virtual_clock(self):
        recorder = TraceRecorder()
        hop = recorder.span("t1", None, "hop", "b1", 10.0, 10.5)
        scope = recorder.push_hop(hop, scale=0.5)
        try:
            assert current_scope() is scope
            sub = scope.sub_span(
                "match",
                scope.wall_anchor,
                scope.wall_anchor + 2.0,
                cache="miss",
            )
        finally:
            recorder.pop_hop(scope)
        assert current_scope() is None
        assert sub.parent_id == hop.span_id
        assert sub.start == 10.0
        assert abs(sub.end - 11.0) < 1e-9  # 2.0 wall s * 0.5 scale
        assert sub.attrs["wall"] == 2.0

    def test_stage_metrics_publish_into_a_registry(self):
        recorder = TraceRecorder()
        recorder.span("t1", None, "hop", "b1", 0.0, 0.25)
        recorder.span("t1", None, "forward", "b1", 0.25, 0.5)
        registry = MetricsRegistry(enabled=True)
        recorder.publish_stage_metrics(registry)
        stats = registry.histogram("trace.stage.hop").snapshot()
        assert stats["count"] == 1 and abs(stats["sum"] - 0.25) < 1e-9

    def test_assemble_traces_groups_loose_spans(self):
        spans = [
            Span("t1", "s1", None, "submit", "pub", 0.0, 0.1),
            Span("t1", "s2", "s1", "hop", "b1", 0.1, 0.2),
            Span("t2", "s3", None, "submit", "pub", 0.0, 0.1),
        ]
        trees = assemble_traces(spans)
        assert set(trees) == {"t1", "t2"}
        assert trees["t1"].complete
        assert [s.span_id for s in trees["t1"].chain(spans[1])] == [
            "s1", "s2",
        ]

    def test_mint_context_ids_are_unique(self):
        contexts = {mint_context().trace_id for _ in range(100)}
        assert len(contexts) == 100


class TestExporters:
    def test_chrome_trace_events_cover_every_span(self):
        from repro import obs

        overlay = run_small_workload(traced_overlay())
        spans = overlay.tracing.spans
        document = obs.to_chrome_trace(spans)
        complete = [
            e for e in document["traceEvents"] if e["ph"] == "X"
        ]
        assert len(complete) == len(spans)
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in complete)
        # virtual seconds map to microseconds
        first = min(spans, key=lambda s: (s.start, s.span_id))
        assert any(
            abs(e["ts"] - first.start * 1e6) < 1e-3 for e in complete
        )
        json.dumps(document)  # must be serialisable as-is

    def test_prometheus_text_includes_stage_summaries(self):
        from repro import obs

        overlay = run_small_workload(traced_overlay())
        registry = MetricsRegistry(enabled=True)
        overlay.tracing.publish_stage_metrics(registry)
        text = obs.to_prometheus(registry)
        assert "# TYPE repro_trace_stage_hop histogram" in text
        assert 'repro_trace_stage_hop_bucket{le="+Inf"}' in text
        assert "repro_trace_stage_hop_count" in text
        assert "repro_trace_stage_hop_sum" in text


class TestSocketDeployment:
    """Brokers in their own processes over TCP: the trace context rides
    the wire, and each child records its hops through its kernel."""

    @staticmethod
    def _pair(**tracing):
        """A started, traced b1 - b2 deployment with ``pub`` at b1 and a
        ``/claims//amount`` subscriber ``sub`` at b2."""
        from repro.runtime.multiprocess import MultiprocessDeployment

        deployment = MultiprocessDeployment(config=RoutingConfig.no_adv_no_cov())
        deployment.enable_tracing(**tracing)
        for name in ("b1", "b2"):
            deployment.add_broker(name)
        deployment.link("b1", "b2")
        deployment.start()
        deployment.attach_publisher("pub", "b1")
        deployment.attach_subscriber("sub", "b2")
        deployment.submit(
            "sub",
            SubscribeMsg(expr=parse_xpath("/claims//amount"),
                         subscriber_id="sub"),
        )
        deployment.run()
        return deployment

    def test_deployed_submission_mints_and_propagates_a_trace(self):
        deployment = self._pair()
        try:
            publication = _claim("c-1", "pub")
            deployment.submit("pub", publication)
            deployment.run()
            minted = trace_of(publication)
            assert minted is not None
            received = deployment.subscribers["sub"].received
            assert received
            # the delivery crossed a wire hop: the decoded copy carries
            # the publisher's trace context
            assert trace_of(received[0]).trace_id == minted.trace_id
        finally:
            deployment.stop()

    def test_a_traced_node_records_its_hops_through_its_kernel(
        self, tmp_path
    ):
        deployment = self._pair(flight_dir=str(tmp_path))
        try:
            publication = _claim("c-1", "pub")
            deployment.submit("pub", publication)
            deployment.run()
            assert len(deployment.subscribers["sub"].received) == 1
            trace_id = trace_of(publication).trace_id
            hops = {}
            for name, spans in deployment.child_spans().items():
                traced = [s for s in spans if s["trace"] == trace_id]
                (hop,) = [s for s in traced if s["name"] == "hop"]
                assert hop["broker"] == name
                assert hop["attrs"]["kind"] == "PublishMsg"
                # a wall-clock window, closed once the handler returned
                assert 0.0 < hop["start"] <= hop["end"]
                assert any(
                    s["name"] == "match" and s["parent"] == hop["span"]
                    for s in traced
                )
                hops[name] = hop
            # the flight ring is fed by the same recorder: each child's
            # crash dump carries its hop span
            for name, hop in hops.items():
                deployment.crash_broker(name)
                (dump,) = tmp_path.glob("flight-*-crash-%s.json" % name)
                assert hop in json.loads(dump.read_text())["brokers"][name]
        finally:
            deployment.stop()


def _claim(doc_id, publisher_id):
    from repro.broker.messages import PublishMsg
    from repro.xmldoc import Publication

    return PublishMsg(
        publication=Publication(
            doc_id=doc_id, path_id=0, path=("claims", "claim", "amount")
        ),
        publisher_id=publisher_id,
    )


class TestMultiprocessHopSpans:
    """One broker per OS process: each child records its hops in its
    own kernel's recorder, and the parent checks them against the tree
    path of every delivery."""

    def _tree(self):
        """The 7-broker tree, traced, with publishers at b5 and b7 and
        a subscriber at b4 (routing needs no advertisements)."""
        from repro.runtime.base import binary_tree_topology
        from repro.runtime.multiprocess import MultiprocessDeployment

        deployment = MultiprocessDeployment(
            config=RoutingConfig.no_adv_no_cov()
        )
        deployment.enable_tracing()
        broker_ids, links = binary_tree_topology(3)
        for broker_id in broker_ids:
            deployment.add_broker(broker_id)
        for a, b in links:
            deployment.link(a, b)
        deployment.start()
        deployment.attach_publisher("pub5", "b5")
        deployment.attach_publisher("pub7", "b7")
        deployment.attach_subscriber("sub", "b4")
        deployment.submit(
            "sub",
            SubscribeMsg(expr=parse_xpath("/claims//amount"),
                         subscriber_id="sub"),
        )
        deployment.run()
        return deployment

    def test_hop_check_follows_the_publisher_that_sent(self):
        """With two publishers the checked path runs to the sender's
        edge broker, not to the nearest publisher's: a b7 publication
        crosses b7-b3-b1-b2-b4 and never b5."""
        deployment = self._tree()
        try:
            publication = _claim("c-7", "pub7")
            deployment.submit("pub7", publication)
            deployment.run()
            assert len(deployment.subscribers["sub"].received) == 1
            assert deployment.verify_hop_traces() == []
            trace_id = trace_of(publication).trace_id
            hop_brokers = {
                broker_id
                for broker_id, spans in deployment.child_spans().items()
                if any(
                    s["name"] == "hop" and s["trace"] == trace_id
                    for s in spans
                )
            }
            assert hop_brokers == {"b7", "b3", "b1", "b2", "b4"}
            # the parent mints contexts but records no span
            assert deployment.tracing.spans == []
        finally:
            deployment.stop()

    def test_tracing_must_be_enabled_before_start(self):
        from repro.errors import TopologyError
        from repro.runtime.multiprocess import MultiprocessDeployment

        deployment = MultiprocessDeployment()
        deployment.add_broker("b1")
        deployment.start()
        try:
            with pytest.raises(TopologyError):
                deployment.enable_tracing()
        finally:
            deployment.stop()
