#!/usr/bin/env python
"""News dissemination with a recursive DTD: inside a broker.

Shows the machinery the evaluation section measures, on the NITF-like
news DTD:

* advertisement generation from a *recursive* DTD (the ``(...)+``
  patterns of paper §3.1),
* the subscription tree and covering-based table compaction (§4.1–4.2),
* merging and its effect on routing-table size (§4.3),
* publication matching against the compacted table.

Run:  python examples/news_dissemination.py
"""

import collections

from repro.adverts import generate_advertisements
from repro.covering import SubscriptionTree
from repro.dtd import nitf_dtd
from repro.merging import MergingEngine, PathUniverse
from repro.workloads import generate_documents, set_b
from repro.xpath import parse_xpath


def main():
    dtd = nitf_dtd()

    # 1. Advertisements from a recursive DTD.
    adverts = generate_advertisements(dtd)
    kinds = collections.Counter(advert.kind for advert in adverts)
    print("advertisements derived from the NITF-like DTD: %d" % len(adverts))
    for kind, count in sorted(kinds.items()):
        print("  %-20s %5d" % (kind, count))
    recursive = next(a for a in adverts if a.kind == "simple-recursive")
    print("  e.g. %s\n" % recursive)

    # 2. A newsroom's subscription workload in a covering tree.
    workload = set_b(600, seed=7)
    tree = SubscriptionTree()
    for index, expr in enumerate(workload.exprs):
        tree.add(expr, "client-%d" % index)
    print("subscriptions inserted:   %d" % len(workload))
    print("stored XPEs (all):        %d" % len(tree))
    print(
        "forwarded XPEs (maximal): %d  (covering removed %.0f%%)"
        % (
            tree.top_level_size(),
            100.0 * (1 - tree.top_level_size() / len(workload)),
        )
    )

    # 3. Merging compacts the forwarded table further.
    universe = PathUniverse.from_dtd(dtd, max_depth=8)
    engine = MergingEngine(universe=universe, max_degree=0.1)
    report = engine.merge_tree(tree)
    print(
        "after imperfect merging:  %d  (%d mergers, %d XPEs absorbed)\n"
        % (tree.top_level_size(), len(report), report.merged_away)
    )

    # 4. Route some publications against the compacted table.
    documents = generate_documents(dtd, 5, seed=3, target_bytes=2048)
    for document in documents:
        matched_clients = set()
        for publication in document.publications():
            matched_clients |= tree.match(publication.path)
        print(
            "document %-7s (%2d paths, depth %2d) -> %3d interested clients"
            % (
                document.doc_id,
                len(document.paths()),
                document.depth(),
                len(matched_clients),
            )
        )

    # 5. Covering detection on individual expressions.
    print("\ncovering spot checks:")
    for sup, sub in (
        ("/nitf/body", "/nitf/body/body-content/p"),
        ("//block/p", "/nitf/body/body-content/block/p"),
        ("/nitf/*//hl2", "/nitf/body//hl2"),
    ):
        from repro.covering import covers

        print(
            "  %-14s covers %-38s : %s"
            % (sup, sub, covers(parse_xpath(sup), parse_xpath(sub)))
        )


if __name__ == "__main__":
    main()
