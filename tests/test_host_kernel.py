"""The sans-IO host kernel, driven by a backend that is a plain list.

``repro.runtime.host.HostKernel`` owns what a frame *means* — effect
interpretation, spans, audit observation, delivery records — and a
backend only moves frames.  So a test can substitute the cheapest
backend there is: no clock, no queue, no latency; frames sit in a list
until the test carries them across.  The second half checks the promise
that falls out of one kernel: the simulator and the asyncio runtime
emit the same span and metric *names* and move the same frames, and
the multiprocess children record a subset of those span names.
"""

import pytest

from repro import obs
from repro.adverts import Advertisement
from repro.broker.messages import AdvertiseMsg, PublishMsg, SubscribeMsg
from repro.broker.strategies import RoutingConfig
from repro.errors import RoutingError, TopologyError
from repro.obs.registry import MetricsRegistry
from repro.runtime.host import HostKernel
from repro.xmldoc import Publication
from repro.xpath import parse_xpath


class ListBackend(HostKernel):
    """Frames in flight are list items; :meth:`pump` carries them in
    FIFO order.  ``now`` is whatever the test last assigned."""

    def __init__(self, config):
        super().__init__(config=config, metrics=MetricsRegistry(enabled=True))
        self.now = 0.0
        #: (destination, messages, from_hop, hops, parent spans)
        self.wire = []
        #: every broker-originated frame: (src, destination, labels)
        self.sent = []

    def submit(self, client_id, *messages):
        """Messages handed in back to back (the publications of one
        document join one client→edge frame: a group).  A group stays
        open until :meth:`pump` takes its frame off the wire."""
        for message in messages:
            broker_id, context = self.admit(client_id, message)
            group, opened = self.join(client_id, message)
            if context is not None:
                group.roots[message.msg_id] = self.tracing.record_root(
                    context, client_id, message, self.now, 0.0
                )
            if opened:
                self.wire.append(
                    (broker_id, group.messages, client_id, 1, group.roots)
                )

    def pump(self):
        while self.wire:
            destination, messages, from_hop, hops, parents = self.wire.pop(0)
            self.close_group(messages)
            if destination not in self.brokers:
                self.receive(destination, messages, hops, self.now, parents)
                continue
            frames, hop_spans, _elapsed = self.dispatch(
                destination, messages, from_hop, self.now, parents
            )
            for span in (hop_spans or {}).values():
                span.end = self.now
            for target, out in frames:
                forwards = {
                    m.msg_id: self.forward_span(
                        destination, target, m, hop_spans, self.now, self.now
                    )
                    for m in out
                } if self.tracing is not None else None
                self.sent.append(
                    (destination, target, [_label(m) for m in out])
                )
                # hops count brokers: the edge→client leg adds none
                next_hops = hops + 1 if target in self.brokers else hops
                self.wire.append(
                    (target, out, destination, next_hops, forwards)
                )


class RecordingAuditor:
    def __init__(self):
        self.host = None
        self.submits = []
        self.deliveries = []

    def bind(self, host):
        self.host = host

    def observe_submit(self, client_id, message):
        self.submits.append((client_id, _label(message)))

    def observe_delivery(self, client_id, message):
        self.deliveries.append((client_id, _label(message)))


def _label(message):
    if isinstance(message, PublishMsg):
        publication = message.publication
        return "PUB %s#%d" % (publication.doc_id, publication.path_id)
    if isinstance(message, SubscribeMsg):
        return "SUB %s" % message.expr
    return "ADV %s" % message.adv_id


def _group(doc_id, issued_at):
    return [
        PublishMsg(
            publication=Publication(doc_id=doc_id, path_id=i, path=path),
            publisher_id="pub",
            issued_at=issued_at,
        )
        for i, path in enumerate((("a", "b"), ("a", "c")))
    ]


@pytest.fixture
def host():
    """b1 — b2, publisher at b1, subscribers at b2."""
    host = ListBackend(RoutingConfig.with_adv_with_cov())
    host.add_broker("b1")
    host.add_broker("b2")
    host.connect("b1", "b2")
    host.attach_publisher("pub", "b1")
    host.attach_subscriber("early", "b2")
    host.attach_subscriber("late", "b2")
    return host


def _run_scenario(host):
    """ADV → SUB → PUB group → the same paths again.  Returns the
    frames of each phase."""
    phases = {}

    def phase(name, at, client_id, *messages):
        host.now = at
        del host.sent[:]
        host.submit(client_id, *messages)
        host.pump()
        phases[name] = list(host.sent)

    phase("adv", 1.0, "pub", AdvertiseMsg(
        adv_id="adv1", advert=Advertisement.from_tests(("a", "*")),
        publisher_id="pub",
    ))
    phase("sub", 2.0, "early", SubscribeMsg(
        expr=parse_xpath("/a"), subscriber_id="early"
    ))
    phase("first", 3.0, "pub", *_group("d1", issued_at=3.0))
    phase("repeat", 4.0, "pub", *_group("d2", issued_at=4.0))
    return phases


class TestKernelWithAListBackend:
    def test_frames_per_phase(self, host):
        phases = _run_scenario(host)
        assert phases["adv"] == [("b1", "b2", ["ADV adv1"])]
        assert phases["sub"] == [("b2", "b1", ["SUB /a"])]
        # a document's paths cross each link as one group, and reach the
        # client as one frame
        assert phases["first"] == [
            ("b1", "b2", ["PUB d1#0", "PUB d1#1"]),
            ("b2", "early", ["PUB d1#0", "PUB d1#1"]),
        ]
        # the same paths again: routed like the first
        assert phases["repeat"] == [
            ("b1", "b2", ["PUB d2#0", "PUB d2#1"]),
            ("b2", "early", ["PUB d2#0", "PUB d2#1"]),
        ]
        assert host.delivered_map() == {"early": {"d1", "d2"}, "late": set()}

    def test_auditor_sees_every_submit_and_each_fresh_delivery(self, host):
        auditor = host.attach_auditor(RecordingAuditor())
        assert auditor.host is host
        _run_scenario(host)
        assert auditor.submits == [
            ("pub", "ADV adv1"), ("early", "SUB /a"),
            ("pub", "PUB d1#0"), ("pub", "PUB d1#1"),
            ("pub", "PUB d2#0"), ("pub", "PUB d2#1"),
        ]
        assert auditor.deliveries == [
            ("early", "PUB d1#0"), ("early", "PUB d1#1"),
            ("early", "PUB d2#0"), ("early", "PUB d2#1"),
        ]
        # a redelivered frame is deduplicated before the auditor
        redelivered = host.subscribers["early"].received[0]
        assert host.receive("early", (redelivered,), 2, 6.0) == 0
        assert len(auditor.deliveries) == 4
        assert host.subscribers["early"].duplicates == 1

    def test_delivery_records_use_the_backends_clock(self, host):
        _run_scenario(host)
        records = [
            (r.subscriber_id, r.doc_id, r.path_id, r.issued_at,
             r.delivered_at, r.hops)
            for r in host.stats.deliveries
        ]
        assert records == [
            ("early", "d1", 0, 3.0, 3.0, 2), ("early", "d1", 1, 3.0, 3.0, 2),
            ("early", "d2", 0, 4.0, 4.0, 2), ("early", "d2", 1, 4.0, 4.0, 2),
        ]
        # a delivery learnt of after the fact (now=None) is deduplicated
        # and counted, but leaves no latency record
        extra = _group("d3", issued_at=9.0)[0]
        assert host.receive("late", (extra,), 0, None) == 1
        assert len(host.stats.deliveries) == 4
        assert host.stats.client_messages == 5

    def test_span_names_and_parentage(self, host):
        recorder = host.enable_tracing()
        _run_scenario(host)
        trees = recorder.assemble()
        assert all(tree.complete for tree in trees.values())

        def chain_of(subscriber, doc):
            (tree, span), = [
                (tree, span)
                for tree in trees.values()
                for span in tree.delivery_spans()
                if span.attrs["subscriber"] == subscriber
                and span.attrs["doc"] == doc
                and span.attrs["path_id"] == 0
            ]
            return [(s.name, str(s.broker_id)) for s in tree.chain(span)]

        assert chain_of("early", "d1") == [
            ("submit", "pub"), ("hop", "b1"), ("forward", "b1"),
            ("hop", "b2"), ("forward", "b2"), ("deliver", "early"),
        ]
        assert chain_of("early", "d2")[-2:] == [
            ("forward", "b2"), ("deliver", "early"),
        ]
        hops = [s for s in recorder.spans if s.name == "hop"]
        grouped = [s for s in hops if s.attrs["kind"] == "PublishMsg"]
        assert grouped and all(s.attrs["group"] == 2 for s in grouped)
        # every member has its own hop span, counting its own forwarding
        assert {s.attrs["fanout"] for s in grouped} == {1}
        # the broker's own sub-spans hang off the hop that caused them
        by_id = {s.span_id: s for s in recorder.spans}
        matches = [s for s in recorder.spans if s.name == "match"]
        assert matches
        assert all(by_id[s.parent_id].name == "hop" for s in matches)

    def test_dispatch_metrics(self, host):
        phases = _run_scenario(host)
        snapshot = host.metrics.snapshot()
        # 2 ADV hops, 2 SUB hops, 2x2 PUB group hops
        assert snapshot["histograms"]["network.dispatch"]["count"] == 8
        assert snapshot["counters"]["network.dispatch.outbound"] == sum(
            len(labels)
            for frames in phases.values()
            for _src, _dst, labels in frames
        )
        assert snapshot["counters"]["network.messages"] == 12

    def test_only_the_frame_taken_off_the_link_closes_its_group(self, host):
        host.submit("early", SubscribeMsg(
            expr=parse_xpath("/a"), subscriber_id="early"
        ))
        first, second = _group("d1", issued_at=1.0)
        host.submit("pub", first)
        # the SUB's frame leaves the wire: d1's group is still open ...
        host.close_group(host.wire[0][1])
        host.submit("pub", second)
        # ... until its own frame does
        host.close_group(host.wire[1][1])
        host.submit("pub", _group("d1", issued_at=1.0)[0])
        assert [[_label(m) for m in frame[1]] for frame in host.wire] == [
            ["SUB /a"], ["PUB d1#0", "PUB d1#1"], ["PUB d1#0"],
        ]

    def test_a_shared_decision_fans_out_one_tuple(self):
        """A warmed group whose paths share one decision reaches every
        destination as one tuple object: built once from the client's
        list, and a forwarded tuple passes through uncopied."""
        kernel = HostKernel(config=RoutingConfig.no_adv_with_cov())
        for broker_id in ("b1", "b2", "b3"):
            kernel.add_broker(broker_id)
        kernel.connect("b1", "b2")
        kernel.connect("b1", "b3")
        kernel.attach_subscriber("s", "b1")
        broker = kernel.brokers["b1"]
        for hop in ("b3", "s"):
            broker.handle(
                SubscribeMsg(expr=parse_xpath("//a"), subscriber_id=hop), hop
            )
        group = [
            PublishMsg(
                publication=Publication(
                    doc_id="d", path_id=i, path=("r", "a", str(i))
                ),
                publisher_id="pub",
            )
            for i in range(4)
        ]
        kernel.dispatch("b1", group, "b2", 0.0)  # warm the route memo
        for arriving in (group, tuple(group)):
            frames, _spans, _elapsed = kernel.dispatch(
                "b1", arriving, "b2", 0.0
            )
            assert sorted(d for d, _m in frames) == ["b3", "s"]
            first, second = (messages for _d, messages in frames)
            assert first is second and first == tuple(group)
        assert first is arriving

    def test_merge_sweep_frames_and_topology_checks(self, host):
        assert host.sweep("b1") == []  # merging is off: nothing to send
        with pytest.raises(TopologyError):
            host.sweep("nowhere")
        with pytest.raises(TopologyError):
            host.connect("b1", "b2")  # duplicate link
        host.add_broker("b3")
        host.connect("b2", "b3")
        with pytest.raises(TopologyError):
            host.connect("b3", "b1")  # would close a cycle
        with pytest.raises(TopologyError):
            host.attach_subscriber("early", "b3")  # duplicate client id
        with pytest.raises(RoutingError):
            host.admit("ghost", SubscribeMsg(expr=parse_xpath("/a")))


# -- one kernel, one vocabulary: simulator vs asyncio ------------------------

#: Names only one backend can emit, by construction (docs/runtime.md).
BACKEND_ONLY_SPANS = {"queue.wait"}  # the simulator's queueing model
BACKEND_ONLY_METRIC_PREFIXES = (
    "runtime.backpressure.",  # asyncio's bounded queues
    "network.queue_wait",     # the simulator's queueing model
    "network.sim.",           # the simulator's event loop
)


def _vocabulary(adapter):
    from repro.runtime.workload import WorkloadSpec, build_plan, run_workload

    spec = WorkloadSpec(levels=3, queries_per_leaf=8, documents=6, seed=7)
    registry = obs.enable_metrics(reset=True)
    try:
        result = run_workload(adapter, spec, build_plan(spec))
        snapshot = registry.snapshot()
    finally:
        registry.reset().disable()
    assert result.delivered and result.trace_problems == []
    spans = adapter.host.tracing.spans
    attrs = {}
    for span in spans:
        attrs.setdefault(span.name, set()).update(span.attrs)
    metrics = {
        name
        for kind in ("counters", "histograms")
        for name in snapshot[kind]
        if name.startswith(("network.", "broker."))
        and not name.startswith(BACKEND_ONLY_METRIC_PREFIXES)
    }
    return {
        "spans": {span.name for span in spans} - BACKEND_ONLY_SPANS,
        "attrs": {
            name: keys
            for name, keys in attrs.items()
            if name not in BACKEND_ONLY_SPANS
        },
        "metrics": metrics,
        "delivered": result.delivered,
        # the hosts move the same frames, not just the same messages
        "traffic": {
            "frames": adapter.host.stats.frames,
            "network_traffic": adapter.host.stats.network_traffic,
            "client_messages": adapter.host.stats.client_messages,
        },
    }


def test_simulator_and_asyncio_share_one_vocabulary():
    from repro.runtime.workload import AsyncioAdapter, SimulatorAdapter

    simulator = _vocabulary(SimulatorAdapter(tracing=True))
    asyncio_ = _vocabulary(AsyncioAdapter(tracing=True))
    assert asyncio_["delivered"] == simulator["delivered"]
    assert asyncio_["traffic"] == simulator["traffic"]
    assert simulator["traffic"]["frames"] < (
        simulator["traffic"]["network_traffic"]
        + simulator["traffic"]["client_messages"]
    )
    assert "group" in simulator["attrs"]["hop"]
    assert simulator["spans"] >= {
        "submit", "hop", "match", "covering.check", "forward", "deliver",
    }
    assert asyncio_["spans"] == simulator["spans"]
    assert asyncio_["attrs"] == simulator["attrs"]
    assert simulator["metrics"] >= {
        "network.messages", "network.frames", "network.dispatch",
        "network.dispatch.outbound", "network.delivery_delay",
    }
    assert asyncio_["metrics"] == simulator["metrics"]


# -- the multiprocess children: the same kernel, a subset of the names -------


def _child_spans_adapter(**kwargs):
    """A multiprocess adapter that keeps what its children recorded,
    and the hop check's verdict, before the run stops them."""
    from repro.runtime.workload import MultiprocessAdapter

    class ChildSpans(MultiprocessAdapter):
        def extras(self):
            self.spans = [
                span
                for spans in self.deployment.child_spans().values()
                for span in spans
            ]
            self.verdict = self.deployment.verify_hop_traces()
            return super().extras()

    return ChildSpans(**kwargs)


def _names(spans):
    """Span names, and the message kind of every ``hop``."""
    return {
        (name, attrs["kind"] if name == "hop" else None)
        for name, attrs in spans
    }


def test_multiprocess_children_record_a_subset_of_the_simulators_spans():
    """Each child records only what its kernel dispatches (``hop`` and
    the broker sub-spans), so its names are a subset of the simulator's
    for the same plan; the parent, which learns of deliveries after the
    fact, records none."""
    from repro.runtime.workload import (
        SimulatorAdapter,
        WorkloadSpec,
        build_plan,
        run_workload,
    )

    spec = WorkloadSpec(levels=3, queries_per_leaf=4, documents=3, seed=7)
    plan = build_plan(spec)
    simulator = SimulatorAdapter(tracing=True)
    reference = run_workload(simulator, spec, plan)
    multiprocess = _child_spans_adapter(tracing=True)
    result = run_workload(multiprocess, spec, plan)
    assert result.delivered == reference.delivered
    assert result.trace_problems == [] and multiprocess.verdict == []
    children = _names((s["name"], s["attrs"]) for s in multiprocess.spans)
    assert {
        ("hop", "AdvertiseMsg"), ("hop", "SubscribeMsg"),
        ("hop", "PublishMsg"), ("match", None), ("covering.check", None),
    } <= children
    assert children <= _names(
        (s.name, s.attrs) for s in simulator.host.tracing.spans
    )
    assert multiprocess.host.tracing.spans == []


def test_an_untraced_multiprocess_run_records_no_spans():
    from repro.runtime.workload import WorkloadSpec, run_workload

    spec = WorkloadSpec(levels=2, queries_per_leaf=2, documents=1, seed=7)
    multiprocess = _child_spans_adapter()
    result = run_workload(multiprocess, spec)
    assert result.delivered and result.trace_problems == []
    assert multiprocess.host.tracing is None
    assert multiprocess.spans == []
    assert multiprocess.verdict == [
        "tracing is off (enable_tracing was not called)"
    ]
