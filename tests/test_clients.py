"""Unit tests for publisher/subscriber clients."""

from hypothesis import given, settings, strategies as st

from repro.broker.messages import PublishMsg
from repro.broker.strategies import RoutingConfig
from repro.dtd.samples import psd_dtd
from repro.network import ConstantLatency, Overlay
from repro.network.clients import SubscriberClient
from repro.network.wire import PATH_ID_LIMIT
from repro.workloads.datasets import psd_queries
from repro.workloads.document_generator import generate_documents
from repro.xmldoc import Publication, XMLDocument

DOC = """
<ProteinDatabase>
  <ProteinEntry>
    <header>
      <uid>U1</uid><accession>A1</accession>
      <created-date>d</created-date>
      <seq-rev-date>d</seq-rev-date><txt-rev-date>d</txt-rev-date>
    </header>
    <protein><name>p53</name></protein>
    <organism><formal>H. sapiens</formal></organism>
    <reference><refinfo>
      <authors><author>L</author></authors>
      <citation>c</citation><year>2008</year>
    </refinfo></reference>
    <summary><length>42</length></summary>
    <sequence>MA</sequence>
  </ProteinEntry>
</ProteinDatabase>
"""


def wired_overlay():
    overlay = Overlay.binary_tree(
        2,
        config=RoutingConfig.with_adv_with_cov(),
        latency_model=ConstantLatency(0.001),
    )
    publisher = overlay.attach_publisher("pub", "b2")
    subscriber = overlay.attach_subscriber("sub", "b3")
    publisher.advertise_dtd(psd_dtd())
    overlay.run()
    return overlay, publisher, subscriber


class TestSubscriberViews:
    def test_received_publications_per_document(self):
        overlay, publisher, subscriber = wired_overlay()
        subscriber.subscribe("//header")
        subscriber.subscribe("//sequence")
        overlay.run()
        publisher.publish_document(XMLDocument.parse(DOC, doc_id="d1"))
        overlay.run()
        pubs = subscriber.received_publications("d1")
        assert pubs
        assert all(m.publication.doc_id == "d1" for m in pubs)
        assert subscriber.received_publications("ghost") == []

    def test_matched_paths_are_the_matching_subset(self):
        overlay, publisher, subscriber = wired_overlay()
        subscriber.subscribe("/ProteinDatabase/ProteinEntry/sequence")
        overlay.run()
        doc = XMLDocument.parse(DOC, doc_id="d2")
        publisher.publish_document(doc)
        overlay.run()
        assert subscriber.matched_paths("d2") == [
            ("ProteinDatabase", "ProteinEntry", "sequence")
        ]

    def test_unsubscribed_client_receives_nothing(self):
        overlay, publisher, subscriber = wired_overlay()
        publisher.publish_document(XMLDocument.parse(DOC, doc_id="d3"))
        overlay.run()
        assert subscriber.delivered_documents() == set()

    def test_publish_paths_convenience(self):
        overlay, publisher, subscriber = wired_overlay()
        subscriber.subscribe("/ProteinDatabase/ProteinEntry/sequence")
        overlay.run()
        # publish_paths bypasses document parsing (workload drivers);
        # paths must still lie inside the advertised DTD or the
        # subscription is never routed toward the publisher.
        publisher.publish_paths(
            [
                ("ProteinDatabase", "ProteinEntry", "sequence"),
                ("ProteinDatabase", "ProteinEntry", "summary", "length"),
            ],
            doc_id="raw-1",
        )
        overlay.run()
        assert subscriber.delivered_documents() == {"raw-1"}
        assert subscriber.matched_paths("raw-1") == [
            ("ProteinDatabase", "ProteinEntry", "sequence")
        ]

    def test_repr_smoke(self):
        overlay, publisher, subscriber = wired_overlay()
        assert "pub" in repr(publisher)
        assert "sub" in repr(subscriber)


class TestDuplicateSuppression:
    """Redelivered publications (retransmission, crash-recovery replay)
    must be counted once and only once at the subscriber."""

    def make_msg(self, doc_id="d1", path_id=0):
        return PublishMsg(
            publication=Publication(
                doc_id=doc_id,
                path_id=path_id,
                path=("ProteinDatabase", "ProteinEntry", "sequence"),
            ),
            publisher_id="pub",
        )

    def test_receive_reports_first_delivery(self):
        overlay, publisher, subscriber = wired_overlay()
        msg = self.make_msg()
        assert subscriber.receive(msg, hops=2) is True
        assert subscriber.receive(msg, hops=2) is False
        assert len(subscriber.received) == 1
        assert subscriber.duplicates == 1

    def test_distinct_paths_of_one_document_both_count(self):
        overlay, publisher, subscriber = wired_overlay()
        assert subscriber.receive(self.make_msg(path_id=0), hops=2)
        assert subscriber.receive(self.make_msg(path_id=1), hops=2)
        assert len(subscriber.received) == 2
        assert subscriber.duplicates == 0

    def test_matched_paths_distinct_in_arrival_order(self):
        overlay, publisher, subscriber = wired_overlay()
        # two publications carrying the same path (different path ids,
        # as two documents' decompositions would produce)
        subscriber.receive(self.make_msg(path_id=0), hops=2)
        subscriber.receive(self.make_msg(path_id=1), hops=2)
        assert subscriber.matched_paths("d1") == [
            ("ProteinDatabase", "ProteinEntry", "sequence")
        ]

    def test_redelivery_never_reaches_delivery_stats(self):
        overlay, publisher, subscriber = wired_overlay()
        subscriber.subscribe("//sequence")
        overlay.run()
        publisher.publish_document(XMLDocument.parse(DOC, doc_id="d9"))
        overlay.run()
        delivered_before = len(overlay.stats.deliveries)
        assert delivered_before == len(subscriber.received)
        for msg in list(subscriber.received):
            overlay.receive("sub", (msg,), 2, overlay.now)
        assert len(overlay.stats.deliveries) == delivered_before
        assert subscriber.duplicates == delivered_before


#: Delivery sequences for the dedup differential: a few documents, a
#: few small path ids (so repeats are common), the boundary ids and any
#: id below the wire's limit.
DELIVERIES = st.lists(
    st.tuples(
        st.sampled_from(["d0", "d1", "d2"]),
        st.integers(0, 5)
        | st.sampled_from([63, 64, PATH_ID_LIMIT - 1])
        | st.integers(0, PATH_ID_LIMIT - 1),
    ),
    max_size=40,
)


class TestDedupDifferential:
    @settings(max_examples=300, deadline=None)
    @given(deliveries=DELIVERIES)
    def test_verdicts_match_a_set_of_doc_and_path_ids(self, deliveries):
        """The client's per-document path bitmask answers exactly as a
        set of ``(doc_id, path_id)`` pairs would."""
        client = SubscriberClient("sub", None, "b1")
        reference = set()
        duplicates = 0
        for doc_id, path_id in deliveries:
            msg = PublishMsg(publication=Publication(
                doc_id=doc_id, path_id=path_id, path=("a",)
            ))
            fresh = (doc_id, path_id) not in reference
            reference.add((doc_id, path_id))
            duplicates += not fresh
            assert client.receive(msg, hops=1) is fresh
        assert client.duplicates == duplicates
        assert [
            (m.publication.doc_id, m.publication.path_id)
            for m in client.received
        ] == list(dict.fromkeys(deliveries))


def test_dedup_keeps_one_entry_per_delivered_document():
    """On the 7-broker tree, each client's duplicate filter holds one
    entry per document it was delivered, whose bits are exactly the
    delivered path ids — not one entry per delivered path."""
    dtd = psd_dtd()
    overlay = Overlay.binary_tree(
        3,
        config=RoutingConfig.with_adv_with_cov(),
        latency_model=ConstantLatency(0.001),
    )
    publisher = overlay.attach_publisher("pub", "b1")
    publisher.advertise_dtd(dtd)
    overlay.run()
    for index, leaf in enumerate(overlay.leaf_brokers()):
        subscriber = overlay.attach_subscriber("sub%d" % index, leaf)
        for expr in psd_queries(12, seed=100 + index).exprs:
            subscriber.subscribe(expr)
    overlay.run()
    for document in generate_documents(dtd, 8, seed=3, target_bytes=800):
        publisher.publish_document(document)
    overlay.run()
    for subscriber in overlay.subscribers.values():
        masks = {}
        for msg in subscriber.received:
            publication = msg.publication
            masks[publication.doc_id] = (
                masks.get(publication.doc_id, 0) | 1 << publication.path_id
            )
        assert len(subscriber.received) > len(masks) > 0
        assert subscriber._seen_paths == masks


class TestAdvertisementIds:
    def test_a_scenario_built_twice_gets_the_same_ids(self):
        """Default advertisement ids are numbered per client, not per
        process: building one scenario twice must give the same ids
        and therefore the same routing state on every broker."""

        def scenario():
            overlay, publisher, subscriber = wired_overlay()
            subscriber.subscribe("//sequence")
            overlay.run()
            return list(publisher.advertised), overlay.routing_fingerprints()

        first_ids, first_tables = scenario()
        again_ids, again_tables = scenario()
        assert first_ids[0] == "pub/adv0"
        assert again_ids == first_ids
        assert again_tables == first_tables
