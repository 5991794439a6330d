"""Advertisement-based subscription forwarding (paper §3): where a SUB
goes, and what deciding it costs.

* the answer: ``SubscriptionRoutingTable.matching_last_hops(expr,
  among)`` is the set of candidate hops with at least one intersecting
  advertisement, under any interleaving of ADV/UNADV from neighbours and
  a local client, for PSD and recursive NITF advertisements;
* the cost: a candidate hop stops at its first intersecting
  advertisement and a hop that cannot be a target costs nothing, so a
  SUB at the publisher's edge broker makes no intersection check at
  all.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.broker.tables as tables
from repro.adverts import expr_and_advertisement, generate_advertisements
from repro.broker import (
    AdvertiseMsg,
    Broker,
    RoutingConfig,
    SubscribeMsg,
    UnadvertiseMsg,
)
from repro.dtd.samples import nitf_dtd, psd_dtd
from repro.network import ConstantLatency, Overlay
from repro.workloads.xpath_generator import generate_queries
from repro.xpath import parse_xpath

_NITF = generate_advertisements(nitf_dtd())
#: Every PSD advertisement, and a spread of NITF ones: recursive (the
#: ``(...)+`` groups) and plain.
_ADVERTS = (
    generate_advertisements(psd_dtd())
    + [advert for advert in _NITF if advert.is_recursive][::97]
    + [advert for advert in _NITF if not advert.is_recursive][::29]
)
#: Wildcards, ``//`` and relative XPEs at the generator's defaults.
_XPES = (
    generate_queries(psd_dtd(), 25, seed=3)
    + generate_queries(nitf_dtd(), 25, seed=4)
    + [parse_xpath("/nitf/body//p"), parse_xpath("//block/bq")]
)
#: The local client first: a table always holds some of its adverts.
_HOPS = ("c1", "n1", "n2", "n3")


def _brute_force(srt, expr, among):
    return {
        entry.last_hop
        for entry in srt.entries()
        if expr_and_advertisement(entry.advert, expr)
    } & among


@settings(max_examples=40)
@given(
    hop_count=st.integers(1, 4),
    ops=st.lists(
        st.tuples(
            st.booleans(),  # True: ADV, False: UNADV
            st.integers(0, len(_ADVERTS) - 1),
            st.integers(0, 3),
        ),
        min_size=1,
        max_size=40,
    ),
    exprs=st.lists(st.sampled_from(_XPES), min_size=1, max_size=6),
    among=st.sets(st.sampled_from(_HOPS + ("n9",))),
)
def test_matching_last_hops_is_the_brute_force_answer(
    hop_count, ops, exprs, among
):
    hops = _HOPS[:hop_count]
    broker = Broker("b1", config=RoutingConfig.with_adv_no_cov())
    broker.attach_client(hops[0])
    for hop in hops[1:]:
        broker.connect(hop)
    for advertise, index, hop in ops:
        adv_id = "adv%d" % index
        if advertise:
            msg = AdvertiseMsg(
                adv_id=adv_id, advert=_ADVERTS[index], publisher_id="p"
            )
        else:
            msg = UnadvertiseMsg(adv_id=adv_id)
        broker.handle(msg, hops[hop % hop_count])
    srt = broker.srt
    for expr in exprs:
        assert srt.matching_last_hops(expr, among) == _brute_force(
            srt, expr, among
        )
        # ... and the broker's targets are what the full scan gave
        # before, filtered to neighbours but the arrival hop.
        for from_hop in hops + (None,):
            want = _brute_force(srt, expr, broker.neighbors - {from_hop})
            assert broker._subscription_targets(expr, from_hop) == want


# -- what a SUB costs -------------------------------------------------------


@pytest.fixture
def psd_overlay():
    """The 7-broker overlay with PSD advertised from the client ``pub``
    at leaf b4 (every SRT entry of b2 comes from b4, of b4 from ``pub``)."""
    overlay = Overlay.binary_tree(
        3,
        config=RoutingConfig.with_adv_no_cov(),
        latency_model=ConstantLatency(0.001),
    )
    overlay.attach_publisher("pub", "b4").advertise_dtd(psd_dtd())
    overlay.run()
    return overlay


@pytest.fixture
def intersection_checks(monkeypatch):
    """Counts the SRT's ``expr_and_advertisement`` calls."""
    calls = []
    real = tables.expr_and_advertisement

    def counting(advert, expr):
        calls.append(advert)
        return real(advert, expr)

    monkeypatch.setattr(tables, "expr_and_advertisement", counting)
    return calls


_PSD_SUBS = (
    "/ProteinDatabase",
    "//keyword",
    "//sequence",
    "/ProteinDatabase/ProteinEntry/reference/refinfo/authors/author",
)


@pytest.mark.parametrize("text", _PSD_SUBS)
def test_a_sub_at_the_publishers_edge_makes_no_intersection_check(
    psd_overlay, intersection_checks, text
):
    edge = psd_overlay.brokers["b4"]
    assert len(edge.srt) == 52
    assert {entry.last_hop for entry in edge.srt.entries()} == {"pub"}
    frames = edge.handle(SubscribeMsg(expr=parse_xpath(text)), "b2")
    assert frames == []
    assert intersection_checks == []


@pytest.mark.parametrize("text", _PSD_SUBS)
def test_an_interior_sub_stops_at_the_first_intersecting_advert(
    psd_overlay, intersection_checks, text
):
    interior = psd_overlay.brokers["b2"]
    expr = parse_xpath(text)
    entries = interior.srt.entries()
    first = next(
        position
        for position, entry in enumerate(entries, 1)
        if expr_and_advertisement(entry.advert, expr)
    )
    frames = interior.handle(SubscribeMsg(expr=expr), "b5")
    assert [destination for destination, _ in frames] == ["b4"]
    assert len(intersection_checks) <= first < len(entries)
