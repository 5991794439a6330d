"""Microbenchmarks of individual components (throughput sanity).

Not tied to a paper table — these catch performance regressions in the
primitives everything else composes: XPE parsing, advertisement NFA
compilation, covering checks, wire encode/decode, document
decomposition.
"""

import pytest

from repro.adverts.generator import generate_advertisements
from repro.adverts.nfa import AdvertNFA
from repro.broker.messages import PublishMsg
from repro.covering.algorithms import covers
from repro.dtd.samples import nitf_dtd, psd_dtd
from repro.network.wire import decode, encode
from repro.workloads.datasets import psd_queries
from repro.workloads.document_generator import generate_documents
from repro.xpath.parser import parse_xpath


@pytest.fixture(scope="module")
def nitf_adverts():
    return generate_advertisements(nitf_dtd())


def test_parse_xpath_throughput(benchmark):
    texts = [
        "/nitf/body/body-content/block/p",
        "//block/*/hl2",
        "body//p",
        "/a/b/c",
    ] * 50

    def parse_all():
        return [parse_xpath(t) for t in texts]

    exprs = benchmark(parse_all)
    assert len(exprs) == len(texts)


def test_advert_nfa_compile(benchmark, nitf_adverts):
    recursive = [a for a in nitf_adverts if a.is_recursive][:200]

    def compile_all():
        total = 0
        for advert in recursive:
            if hasattr(advert, "_nfa_cache"):
                object.__delattr__(advert, "_nfa_cache")
            total += AdvertNFA.compile(advert).state_count()
        return total

    states = benchmark.pedantic(compile_all, rounds=1, iterations=1)
    assert states > 0


def test_covering_check_throughput(benchmark):
    exprs = list(psd_queries(150, seed=17).exprs)

    def all_pairs():
        hits = 0
        for s1 in exprs:
            for s2 in exprs:
                if covers(s1, s2):
                    hits += 1
        return hits

    hits = benchmark.pedantic(all_pairs, rounds=1, iterations=1)
    assert hits >= len(exprs)  # reflexivity


def test_wire_round_trip_throughput(benchmark):
    docs = generate_documents(psd_dtd(), 5, seed=18, target_bytes=2048)
    messages = [
        PublishMsg(publication=p, publisher_id="pub")
        for doc in docs
        for p in doc.publications()
    ]

    def round_trip_all():
        return [decode(encode(m)) for m in messages]

    decoded = benchmark(round_trip_all)
    assert len(decoded) == len(messages)


def test_document_decomposition(benchmark):
    docs = generate_documents(nitf_dtd(), 10, seed=19, target_bytes=4096)
    texts = [doc.serialize() for doc in docs]

    def parse_and_decompose():
        from repro.xmldoc import XMLDocument

        total = 0
        for index, text in enumerate(texts):
            doc = XMLDocument.parse(text, doc_id="bench-%d" % index)
            total += len(doc.publications())
        return total

    paths = benchmark(parse_and_decompose)
    assert paths > 0
