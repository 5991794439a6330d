"""The reliable channel on its own: no clock, no socket, no simulator.

:class:`repro.network.reliable.Channel` is the one seq / cumulative-ack
/ in-order-release / capped-backoff / epoch state machine; the
simulator's ``ReliableTransport`` and the TCP ``_Connection`` only drive
it.  Each scenario below is a script of wire events played between a
sender half and a receiver half — what the drivers' own suites
(tests/test_faults.py, tests/test_sockets.py) then sit on top of.
"""

import pytest

from repro.network.reliable import Channel

RTO, CAP, ATTEMPTS = 1.0, 8.0, 5


def _channel() -> Channel:
    return Channel(RTO, CAP, ATTEMPTS)


def _play(script):
    """Run a scenario: the sender pushes the payloads "p0", "p1", … it
    is told to, and each ``("data", seq)`` / ``("ack",)`` step carries
    one frame across.  Returns what the receiver released, in order,
    and what the sender still holds unacked."""
    sender, receiver = _channel(), _channel()
    released = []
    for step in script:
        if step[0] == "push":
            for _ in range(step[1]):
                sender.push("p%d" % sender.next_seq)
        elif step[0] == "data":
            ready = receiver.accept(step[1], "p%d" % step[1])
            released.extend(ready or ())
        elif step[0] == "ack":
            sender.acked(receiver.ack)
    return released, sorted(sender.unacked)


SCENARIOS = {
    "in order": (
        [("push", 3), ("data", 0), ("data", 1), ("data", 2), ("ack",)],
        ["p0", "p1", "p2"], [],
    ),
    "first transmission dropped, retransmitted after its successor": (
        [("push", 2), ("data", 1), ("ack",), ("data", 0), ("ack",)],
        ["p0", "p1"], [],
    ),
    "duplicate of a released frame": (
        [("push", 2), ("data", 0), ("data", 0), ("data", 1), ("ack",)],
        ["p0", "p1"], [],
    ),
    "duplicate of a buffered frame": (
        [("push", 3), ("data", 2), ("data", 2), ("data", 0), ("data", 1),
         ("ack",)],
        ["p0", "p1", "p2"], [],
    ),
    "reordered burst": (
        [("push", 4), ("data", 3), ("data", 1), ("data", 2), ("data", 0),
         ("ack",)],
        ["p0", "p1", "p2", "p3"], [],
    ),
    "ack lost: the sender keeps everything, redelivery is suppressed": (
        [("push", 2), ("data", 0), ("data", 1), ("data", 0), ("data", 1)],
        ["p0", "p1"], [0, 1],
    ),
    "cumulative ack stops at the gap": (
        [("push", 3), ("data", 0), ("data", 2), ("ack",)],
        ["p0"], [1, 2],
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_release_is_in_order_and_exactly_once(name):
    script, released, unacked = SCENARIOS[name]
    assert _play(script) == (released, unacked)


def test_nothing_to_acknowledge_before_the_first_release():
    receiver = _channel()
    assert receiver.ack == -1
    assert receiver.accept(1, "p1") == []  # buffered behind the gap
    assert receiver.ack == -1
    assert receiver.accept(0, "p0") == ["p0", "p1"]
    assert receiver.ack == 1


def test_receiver_state_is_bounded_by_the_window_not_the_history():
    receiver = _channel()
    for seq in range(1000):
        assert receiver.accept(seq, seq) == [seq]
    assert receiver.expected == 1000 and receiver.buffer == {}
    # an out-of-order window is held only until its gap fills
    for seq in (1003, 1002, 1001):
        assert receiver.accept(seq, seq) == []
    assert sorted(receiver.buffer) == [1001, 1002, 1003]
    assert receiver.accept(1000, 1000) == [1000, 1001, 1002, 1003]
    assert receiver.buffer == {}


def test_retransmit_schedule_doubles_to_the_cap_then_abandons():
    sender = Channel(rto=1.0, rto_cap=8.0, max_attempts=6)
    seq = sender.push("p")
    # the driver arms ``rto`` after the first transmission, then what
    # every retry returns: 1, 2, 4, 8, 8 (capped), then gives up
    waits = [sender.rto]
    while True:
        rto = sender.retry(seq)
        if rto is None:
            break
        waits.append(rto)
    assert waits == [1.0, 2.0, 4.0, 8.0, 8.0, 8.0]
    assert sender.unacked == {} and sender.attempts == {}


def test_backoff_is_per_frame_and_an_ack_forgets_it():
    sender = _channel()
    first, second = sender.push("a"), sender.push("b")
    assert sender.retry(first) == 2.0
    assert sender.retry(first) == 4.0
    assert sender.retry(second) == 2.0  # its own schedule
    sender.acked(first)
    assert sorted(sender.unacked) == [second]
    assert sorted(sender.attempts) == [second]


def test_epoch_reset_surfaces_the_outbox_and_restarts_numbering():
    sender, receiver = _channel(), _channel()
    for payload in ("a", "b", "c"):
        sender.push(payload)
    assert receiver.accept(0, "a") == ["a"]
    assert receiver.accept(2, "c") == []  # buffered, never released
    sender.acked(receiver.ack)
    # the link restarts (a broker crashed): both halves reset; what was
    # only buffered is still in the sender's outbox, in order
    assert receiver.reset() == []
    assert sender.reset() == ["b", "c"]
    assert (sender.epoch, receiver.epoch) == (1, 1)
    assert sender.unacked == {} and receiver.buffer == {}
    assert sender.push("b") == 0  # numbering starts over
    assert receiver.accept(0, "b") == ["b"]
