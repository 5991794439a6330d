"""Unit tests for publisher/subscriber clients."""

from repro.broker.strategies import RoutingConfig
from repro.dtd.samples import psd_dtd
from repro.network import ConstantLatency, Overlay
from repro.xmldoc import XMLDocument

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
        from repro.broker.messages import PublishMsg
        from repro.xmldoc import Publication

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
