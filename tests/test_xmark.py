"""End-to-end coverage on the third sample DTD (XMark-like auctions).

Exercises every layer on a DTD with a different recursion structure
(choice-based parlist/listitem recursion instead of NITF's block
nesting) to guard against NITF/PSD-specific assumptions.
"""

import collections

from repro.adverts import generate_advertisements, expr_and_advertisement
from repro.broker.strategies import RoutingConfig
from repro.covering.subscription_tree import SubscriptionTree
from repro.dtd import is_recursive, recursive_elements, xmark_dtd
from repro.merging.engine import PathUniverse
from repro.network import ConstantLatency, Overlay
from repro.workloads import (
    covering_rate,
    generate_documents,
    generate_queries,
)
from repro.xpath import parse_xpath


class TestXmarkStructure:
    def test_recursion_through_parlist(self):
        dtd = xmark_dtd()
        assert is_recursive(dtd)
        assert recursive_elements(dtd) == {"parlist", "listitem"}

    def test_advertisements_include_recursive_patterns(self):
        adverts = generate_advertisements(xmark_dtd())
        kinds = collections.Counter(a.kind for a in adverts)
        assert kinds["non-recursive"] > 0
        assert kinds["simple-recursive"] > 0

    def test_choice_content_model_children(self):
        dtd = xmark_dtd()
        assert dtd.declaration("description").child_names() == {
            "text",
            "parlist",
        }
        # description requires exactly one child: not leaf-capable.
        assert not dtd.declaration("description").can_be_leaf()


class TestXmarkWorkloads:
    def test_documents_conform(self):
        dtd = xmark_dtd()
        graph = dtd.child_map()
        for doc in generate_documents(dtd, 3, seed=2, target_bytes=1500):
            assert doc.depth() <= 10
            for path in doc.paths():
                for parent, child in zip(path, path[1:]):
                    assert child in graph[parent], path

    def test_queries_intersect_advertisements(self):
        dtd = xmark_dtd()
        adverts = generate_advertisements(dtd)
        for query in generate_queries(dtd, 40, seed=3):
            assert any(
                expr_and_advertisement(advert, query) for advert in adverts
            ), query

    def test_covering_tree_handles_xmark_queries(self):
        queries = generate_queries(xmark_dtd(), 150, seed=4)
        tree = SubscriptionTree()
        for i, query in enumerate(queries):
            tree.add(query, i)
        tree.validate()
        assert 0.0 <= covering_rate(queries) <= 1.0


class TestXmarkEndToEnd:
    def test_auction_dissemination(self):
        dtd = xmark_dtd()
        overlay = Overlay.binary_tree(
            3,
            config=RoutingConfig.full(),
            latency_model=ConstantLatency(0.001),
            universe=PathUniverse.from_dtd(dtd, max_depth=8),
        )
        seller = overlay.attach_publisher("seller", "b4")
        bid_watcher = overlay.attach_subscriber("bids", "b5")
        people_desk = overlay.attach_subscriber("people", "b7")

        seller.advertise_dtd(dtd)
        overlay.run()
        bid_watcher.subscribe("/site/open-auctions/open-auction/bidder")
        people_desk.subscribe("//person/address/city")
        overlay.run()

        docs = generate_documents(dtd, 6, seed=5, target_bytes=1800)
        for doc in docs:
            seller.publish_document(doc)
        overlay.run()

        expected_bids = {
            doc.doc_id
            for doc in docs
            if any(
                path[:4]
                == ("site", "open-auctions", "open-auction", "bidder")
                for path in doc.paths()
            )
        }
        from repro.covering.pathmatch import matches_path

        expected_people = {
            doc.doc_id
            for doc in docs
            if any(
                matches_path(parse_xpath("//person/address/city"), path)
                for path in doc.paths()
            )
        }
        assert bid_watcher.delivered_documents() == expected_bids
        assert people_desk.delivered_documents() == expected_people
