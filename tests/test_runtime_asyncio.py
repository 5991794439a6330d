"""The asyncio backend's concurrency contract: backpressure and
deadlock-freedom.

Queueing discipline under test (see docs/runtime.md): actor inboxes are
unbounded (senders never block on them — the deadlock-freedom
invariant), while per-link send queues and per-client delivery queues
are bounded.  A slow consumer therefore exerts real backpressure on its
producer — the queue depth stays within its capacity, the stall is
surfaced on ``runtime.backpressure.*`` — and nothing is ever dropped
unless the fault injector says so.

What the queues hold is frames: a document's paths travel as one group
and take one slot.  Delay, loss and the telemetry backlog stay per
message — the multi-path tests below pin each.
"""

import pytest

from repro.broker.messages import PublishMsg, SubscribeMsg
from repro.broker.strategies import RoutingConfig
from repro.errors import RoutingError, TopologyError
from repro.obs.registry import MetricsRegistry
from repro.runtime.asyncio_backend import AsyncioRuntime
from repro.xmldoc import Publication
from repro.xpath import parse_xpath

LINK_CAPACITY = 4
DOCUMENTS = 40
#: Paths per document in the multi-path tests: frames of this many.
PATHS = 5


def _publication(i: int, path_id: int = 0) -> PublishMsg:
    return PublishMsg(
        publication=Publication(
            doc_id="doc-%d" % i, path_id=path_id,
            path=("claims", "claim", "amount"),
        ),
        publisher_id="pub",
    )


def _publish_documents(runtime, documents=DOCUMENTS, paths=PATHS):
    for i in range(documents):
        for path_id in range(paths):
            runtime.submit("pub", _publication(i, path_id))


def _received(runtime):
    return {
        (m.publication.doc_id, m.publication.path_id)
        for m in runtime.subscribers["sub"].received
    }


EVERY_PATH = {
    ("doc-%d" % i, path_id)
    for i in range(DOCUMENTS) for path_id in range(PATHS)
}


@pytest.fixture
def runtime():
    registry = MetricsRegistry(enabled=True)
    rt = AsyncioRuntime(
        config=RoutingConfig.no_adv_no_cov(),
        link_capacity=LINK_CAPACITY,
        client_capacity=LINK_CAPACITY,
        metrics=registry,
    )
    rt.add_broker("b1")
    rt.add_broker("b2")
    rt.connect("b1", "b2")
    rt.start()
    rt.attach_publisher("pub", "b1")
    rt.attach_subscriber("sub", "b2")
    rt.submit("sub", SubscribeMsg(expr=parse_xpath("/claims//amount"),
                                  subscriber_id="sub"))
    rt.drain()
    yield rt
    rt.close(drain=False)


def test_slow_link_bounds_queue_and_surfaces_backpressure(runtime):
    """A slow b1→b2 link makes the publisher-side actor outrun the link
    sender.  The bounded send queue must cap the depth, count the waits,
    finish the drain (no deadlock) and deliver everything (no drops)."""
    runtime.link_delay[("b1", "b2")] = 0.002
    for i in range(DOCUMENTS):
        runtime.submit("pub", _publication(i))
    runtime.drain(timeout=30)

    depth = runtime.max_queue_depth.get(("b1", "b2"), 0)
    assert 0 < depth <= LINK_CAPACITY
    waits = runtime.metrics.counter("runtime.backpressure.waits").value
    assert waits > 0, "slow link never exerted observable backpressure"
    received = {m.publication.doc_id for m in runtime.subscribers["sub"].received}
    assert received == {"doc-%d" % i for i in range(DOCUMENTS)}


def test_slow_client_bounds_delivery_queue(runtime):
    """Same discipline on the broker→client edge."""
    runtime.client_delay["sub"] = 0.002
    for i in range(DOCUMENTS):
        runtime.submit("pub", _publication(i))
    runtime.drain(timeout=30)

    depth = runtime.max_queue_depth.get("sub", 0)
    assert 0 < depth <= LINK_CAPACITY
    received = {m.publication.doc_id for m in runtime.subscribers["sub"].received}
    assert received == {"doc-%d" % i for i in range(DOCUMENTS)}


def test_nothing_dropped_without_fault_injector(runtime):
    for i in range(DOCUMENTS):
        runtime.submit("pub", _publication(i))
    runtime.drain(timeout=30)
    assert runtime.metrics.counter("runtime.faults.dropped").value == 0
    assert len(runtime.subscribers["sub"].received) == DOCUMENTS


def test_drop_filter_drops_are_counted_and_do_not_wedge(runtime):
    dropped = []

    def drop_every_fourth(src, dst, message):
        if isinstance(message, PublishMsg) and len(dropped) % 4 == 0:
            dropped.append(message.publication.doc_id)
            return True
        return False

    runtime.drop_filter = drop_every_fourth
    runtime.submit("pub", _publication(0))
    runtime.drain(timeout=30)
    assert runtime.metrics.counter("runtime.faults.dropped").value == 1
    assert dropped == ["doc-0"]
    # The drained runtime is still live: clear the fault and publish.
    runtime.drop_filter = None
    runtime.submit("pub", _publication(1))
    runtime.drain(timeout=30)
    received = {m.publication.doc_id for m in runtime.subscribers["sub"].received}
    assert "doc-1" in received and "doc-0" not in received


# -- frames of several messages: what stays per message ----------------------


def test_slow_link_bounds_frames_and_delays_per_message(runtime):
    """Multi-path documents: a queue slot is a frame, so the depth bound
    is in frames — and the link delay is charged per member."""
    delay = 0.0005
    runtime.link_delay[("b1", "b2")] = delay
    started = runtime.now
    frames_before = runtime.stats.frames
    _publish_documents(runtime)
    # one client→edge frame per document, not per path
    assert runtime.stats.frames - frames_before == DOCUMENTS
    runtime.drain(timeout=30)

    assert runtime.now - started >= delay * DOCUMENTS * PATHS
    depth = runtime.max_queue_depth.get(("b1", "b2"), 0)
    assert 0 < depth <= LINK_CAPACITY
    assert runtime.metrics.counter("runtime.backpressure.waits").value > 0
    assert _received(runtime) == EVERY_PATH
    assert runtime.queue_depth("b1") == runtime.queue_depth("b2") == 0


def test_slow_client_bounds_frames_and_delays_per_message(runtime):
    delay = 0.0005
    runtime.client_delay["sub"] = delay
    started = runtime.now
    _publish_documents(runtime)
    runtime.drain(timeout=30)

    assert runtime.now - started >= delay * DOCUMENTS * PATHS
    depth = runtime.max_queue_depth.get("sub", 0)
    assert 0 < depth <= LINK_CAPACITY
    assert runtime.metrics.counter("runtime.backpressure.waits").value > 0
    assert _received(runtime) == EVERY_PATH


def test_drop_filter_drops_one_member_and_the_rest_travel_on(runtime):
    def drop_third_path(src, dst, message):
        return (
            isinstance(message, PublishMsg)
            and message.publication.path_id == 2
        )

    runtime.drop_filter = drop_third_path
    _publish_documents(runtime, documents=1)
    runtime.drain(timeout=30)
    assert runtime.metrics.counter("runtime.faults.dropped").value == 1
    assert _received(runtime) == {
        ("doc-0", path_id) for path_id in range(PATHS) if path_id != 2
    }
    # a frame emptied by the hook is finished, not forwarded: no wedge
    runtime.drop_filter = lambda src, dst, message: True
    _publish_documents(runtime, documents=2)
    runtime.drain(timeout=30)
    assert runtime.metrics.counter("runtime.faults.dropped").value == (
        1 + 2 * PATHS
    )
    assert runtime.queue_depth("b1") == runtime.queue_depth("b2") == 0


def test_queue_depth_counts_messages_held_frames_included(runtime):
    """The telemetry backlog is in messages: a frame weighs its length
    from the moment it is queued until whoever dequeued it is done —
    including while a slow consumer sits on it."""
    _publish_documents(runtime, documents=3)
    assert runtime.queue_depth("b1") == 3 * PATHS
    depths = []
    consume = runtime.subscribers["sub"].receive

    def sampling_receive(message, hops):
        # mid-frame, inside the consumer: the frame still counts whole
        depths.append(runtime.queue_depth("b2"))
        return consume(message, hops)

    runtime.subscribers["sub"].receive = sampling_receive
    runtime.drain(timeout=30)
    assert depths and min(depths) >= PATHS
    assert runtime.queue_depth("b1") == runtime.queue_depth("b2") == 0


def test_a_path_submitted_after_its_group_was_dequeued_opens_a_new_frame(
    runtime,
):
    """The asyncio "still open" condition: the edge actor has not
    dequeued the group.  The fault hook runs on the b1→b2 sender —
    after b1's actor took the frame — and submits one more path of the
    same document: it must travel as its own frame, not vanish into a
    list the actor has already handed on."""
    late = []

    def submit_late_path(src, dst, message):
        if not late:
            late.append(message.publication.doc_id)
            runtime.submit("pub", _publication(0, path_id=PATHS))
        return False

    runtime.drop_filter = submit_late_path
    frames_before = runtime.stats.frames
    _publish_documents(runtime, documents=1)
    runtime.drain(timeout=30)
    assert late == ["doc-0"]
    assert _received(runtime) == {
        ("doc-0", path_id) for path_id in range(PATHS + 1)
    }
    # two client→edge frames, each forwarded once and delivered once
    assert runtime.stats.frames - frames_before == 6


# -- lifecycle ---------------------------------------------------------------


def test_a_closed_runtime_refuses_work_at_the_call(runtime):
    runtime.close()
    frames_before = runtime.stats.frames
    with pytest.raises(RoutingError, match="runtime is closed"):
        runtime.submit("pub", _publication(0))
    with pytest.raises(RoutingError, match="runtime is closed"):
        runtime.trigger_merge_sweep("b1")
    with pytest.raises(RoutingError, match="runtime is closed"):
        runtime.drain()
    assert runtime.stats.frames == frames_before  # nothing was queued


def test_merge_sweep_needs_a_started_runtime_and_a_known_broker(runtime):
    with pytest.raises(TopologyError, match="unknown broker"):
        runtime.trigger_merge_sweep("nowhere")
    unstarted = AsyncioRuntime(config=RoutingConfig.no_adv_no_cov())
    try:
        unstarted.add_broker("b1")
        with pytest.raises(TopologyError, match="after start"):
            unstarted.trigger_merge_sweep("b1")
    finally:
        unstarted.close()
