"""Unit tests for messages, strategies and the error hierarchy."""

import pytest

from repro.adverts import Advertisement
from repro.broker.messages import (
    AdvertiseMsg,
    PublishMsg,
    SubscribeMsg,
    UnadvertiseMsg,
)
from repro.broker.strategies import MergingMode, RoutingConfig
from repro.errors import (
    DTDSyntaxError,
    ReproError,
    RoutingError,
    TopologyError,
    WorkloadError,
    XMLSyntaxError,
    XPathSyntaxError,
)
from repro.xmldoc import Publication
from repro.xpath import parse_xpath


class TestMessages:
    def test_unique_monotone_ids(self):
        a = UnadvertiseMsg(adv_id="x")
        b = UnadvertiseMsg(adv_id="x")
        assert a.msg_id != b.msg_id
        assert b.msg_id > a.msg_id

    def test_kind_names(self):
        assert UnadvertiseMsg(adv_id="x").kind == "UnadvertiseMsg"
        assert (
            SubscribeMsg(expr=parse_xpath("/a")).kind == "SubscribeMsg"
        )

    def test_messages_are_immutable(self):
        msg = SubscribeMsg(expr=parse_xpath("/a"))
        with pytest.raises(Exception):
            msg.expr = parse_xpath("/b")

    def test_publish_defaults(self):
        msg = PublishMsg(
            publication=Publication(doc_id="d", path_id=0, path=("a",))
        )
        assert msg.doc_size_bytes == 0
        assert msg.issued_at == 0.0

    def test_advertise_carries_advert(self):
        advert = Advertisement.from_tests(("a", "b"))
        msg = AdvertiseMsg(adv_id="a1", advert=advert, publisher_id="p")
        assert msg.advert is advert


class TestRoutingConfig:
    def test_all_names_resolve(self):
        for name in RoutingConfig.ALL_NAMES:
            config = RoutingConfig.by_name(name)
            assert config.name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            RoutingConfig.by_name("with-Magic")

    def test_merging_without_covering_is_refused(self):
        # Merging rewrites the covering tree's sibling groups.
        for merging in (MergingMode.PERFECT, MergingMode.IMPERFECT):
            with pytest.raises(ValueError):
                RoutingConfig(covering=False, merging=merging)

    def test_merge_interval_validation(self):
        with pytest.raises(ValueError):
            RoutingConfig(merge_interval=0)

    def test_full_is_imperfect_merging(self):
        config = RoutingConfig.full()
        assert config.merging is MergingMode.IMPERFECT
        assert config.advertisements and config.covering

    def test_frozen(self):
        config = RoutingConfig.full()
        with pytest.raises(Exception):
            config.covering = False

    def test_name_round_trip_with_merging(self):
        assert (
            RoutingConfig.with_adv_with_cov_pm().name
            == "with-Adv-with-CovPM"
        )
        assert (
            RoutingConfig.no_adv_with_cov().name == "no-Adv-with-Cov"
        )


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            XPathSyntaxError("src", 0, "reason"),
            DTDSyntaxError("reason"),
            XMLSyntaxError("reason"),
            RoutingError("reason"),
            TopologyError("reason"),
            WorkloadError("reason"),
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert isinstance(exc, ReproError)

    def test_xpath_error_carries_position(self):
        error = XPathSyntaxError("/a/&", 3, "bad char")
        assert error.position == 3
        assert "/a/&" in str(error)

    def test_dtd_error_line_formatting(self):
        assert "(line 4)" in str(DTDSyntaxError("bad", line=4))
        assert "line" not in str(DTDSyntaxError("bad"))
