"""Stateful fuzzing of a single broker.

Hypothesis drives an arbitrary message sequence (advertise, subscribe,
unsubscribe, publish, unadvertise, duplicates included) into one broker
and checks structural invariants after every step:

* the broker never raises and never emits to an unknown destination,
* a message is never echoed back to its sender,
* forwarded records only ever reference neighbours,
* with covering, the subscription tree invariant holds throughout.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.adverts.model import Advertisement
from repro.broker.broker import Broker
from repro.broker.messages import (
    AdvertiseMsg,
    PublishMsg,
    SubscribeMsg,
    UnadvertiseMsg,
    UnsubscribeMsg,
)
from repro.broker.strategies import RoutingConfig
from repro.xmldoc import Publication
from repro.xpath.ast import Axis, Step, XPathExpr

NEIGHBORS = ["n1", "n2", "n3"]
CLIENTS = ["c1", "c2"]
HOPS = NEIGHBORS + CLIENTS
NAMES = ["a", "b", "c", "*"]


@st.composite
def exprs(draw):
    n = draw(st.integers(1, 4))
    rooted = draw(st.booleans())
    steps = []
    for i in range(n):
        axis = (
            Axis.CHILD
            if (i == 0 and rooted)
            else draw(st.sampled_from([Axis.CHILD, Axis.DESCENDANT]))
        )
        steps.append(Step(axis, draw(st.sampled_from(NAMES))))
    return XPathExpr(steps=tuple(steps), rooted=rooted)


@st.composite
def adverts(draw):
    tests = draw(
        st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=4)
    )
    return Advertisement.from_tests(tests)


class BrokerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.broker = Broker(
            "bX", config=RoutingConfig.with_adv_with_cov_ipm()
        )
        for neighbor in NEIGHBORS:
            self.broker.connect(neighbor)
        for client in CLIENTS:
            self.broker.attach_client(client)
        self.adv_ids = []

    def _dispatch(self, message, from_hop):
        out = self.broker.handle(message, from_hop)
        known = set(NEIGHBORS) | set(CLIENTS)
        for destination, (out_msg,) in out:
            assert destination in known, destination
            # A message must never bounce straight back to its sender.
            # Different-kind responses toward the sender are legitimate
            # (e.g. subscriptions replayed toward a new advertisement).
            if type(out_msg) is type(message):
                assert destination != from_hop, (
                    "echoed %s back to its sender" % out_msg.kind
                )
        return out

    @rule(advert=adverts(), hop=st.sampled_from(HOPS), data=st.data())
    def advertise(self, advert, hop, data):
        adv_id = "adv%d" % data.draw(st.integers(0, 5))
        self.adv_ids.append(adv_id)
        self._dispatch(
            AdvertiseMsg(adv_id=adv_id, advert=advert, publisher_id="p"),
            hop,
        )

    @rule(data=st.data(), hop=st.sampled_from(HOPS))
    def unadvertise(self, data, hop):
        if not self.adv_ids:
            return
        adv_id = data.draw(st.sampled_from(self.adv_ids))
        self._dispatch(UnadvertiseMsg(adv_id=adv_id), hop)

    @rule(expr=exprs(), hop=st.sampled_from(HOPS))
    def subscribe(self, expr, hop):
        self._dispatch(SubscribeMsg(expr=expr, subscriber_id=str(hop)), hop)

    @rule(expr=exprs(), hop=st.sampled_from(HOPS))
    def unsubscribe(self, expr, hop):
        self._dispatch(
            UnsubscribeMsg(expr=expr, subscriber_id=str(hop)), hop
        )

    @rule(
        path=st.lists(
            st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=5
        ),
        hop=st.sampled_from(HOPS),
    )
    def publish(self, path, hop):
        self._dispatch(
            PublishMsg(
                publication=Publication(
                    doc_id="d", path_id=0, path=tuple(path)
                ),
                publisher_id="p",
            ),
            hop,
        )

    @invariant()
    def tree_invariant(self):
        self.broker.table.validate()

    @invariant()
    def forwarded_only_to_neighbors(self):
        for expr in self.broker.forwarded.exprs():
            assert self.broker.forwarded.neighbors_for(expr) <= set(
                NEIGHBORS
            )


TestBrokerStateful = BrokerMachine.TestCase
TestBrokerStateful.settings = settings(
    max_examples=50, stateful_step_count=25, deadline=None
)
