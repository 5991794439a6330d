"""Tests for the interest model, broker queueing and delay percentiles."""

import pytest

from repro.broker.strategies import RoutingConfig
from repro.dtd.samples import psd_dtd
from repro.network import ConstantLatency, Overlay
from repro.network.stats import DeliveryRecord, NetworkStats
from repro.workloads import InterestModel, zipf_weights
from repro.workloads.document_generator import generate_documents


class TestZipfWeights:
    def test_uniform_at_zero_skew(self):
        assert zipf_weights(4, 0.0) == [1.0, 1.0, 1.0, 1.0]

    def test_decreasing_with_skew(self):
        weights = zipf_weights(5, 1.0)
        assert weights == sorted(weights, reverse=True)
        assert weights[0] == 1.0
        assert weights[1] == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError):
            zipf_weights(3, -0.1)


class TestInterestModel:
    def test_draws_are_distinct(self):
        model = InterestModel.from_dtd(psd_dtd(), pool_size=100, seed=1)
        draw = model.draw(30)
        assert len(set(draw)) == 30

    def test_draw_capped_by_pool(self):
        model = InterestModel.from_dtd(psd_dtd(), pool_size=20, seed=1)
        assert len(model.draw(100)) == 20

    def test_similarity_increases_with_skew(self):
        low = InterestModel.from_dtd(psd_dtd(), pool_size=200, skew=0.0, seed=2)
        high = InterestModel.from_dtd(psd_dtd(), pool_size=200, skew=2.0, seed=2)
        low_sim = low.similarity([low.draw(30) for _ in range(4)])
        high_sim = high.similarity([high.draw(30) for _ in range(4)])
        assert high_sim > low_sim

    def test_similarity_degenerate_cases(self):
        model = InterestModel.from_dtd(psd_dtd(), pool_size=50, seed=3)
        assert model.similarity([]) == 0.0
        assert model.similarity([model.draw(5)]) == 0.0

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            InterestModel([], skew=0.0)


class TestQueueing:
    def run_overlay(self, queueing):
        overlay = Overlay.binary_tree(
            2,
            config=RoutingConfig.with_adv_with_cov(),
            latency_model=ConstantLatency(0.001),
            # A fixed per-message charge, not measured wall time: the
            # comparison is about queueing, not scheduler noise.
            processing_scale=0.0,
            queueing=queueing,
        )
        overlay.processing_delay = dict.fromkeys(overlay.brokers, 0.0005)
        publisher = overlay.attach_publisher("pub", "b2")
        subscriber = overlay.attach_subscriber("sub", "b3")
        publisher.advertise_dtd(psd_dtd())
        overlay.run()
        subscriber.subscribe("/ProteinDatabase")
        overlay.run()
        for doc in generate_documents(psd_dtd(), 4, seed=4, target_bytes=800):
            publisher.publish_document(doc)
        overlay.run()
        return overlay

    def test_queueing_never_faster(self):
        plain = self.run_overlay(queueing=False)
        queued = self.run_overlay(queueing=True)
        # Four documents handed in at one instant overlap for free
        # without queueing and wait for one another with it.
        assert (
            queued.stats.mean_notification_delay()
            > plain.stats.mean_notification_delay()
        )
        # Deliveries themselves are unaffected.
        assert queued.delivered_map() == plain.delivered_map()


class TestDelayPercentiles:
    def make_stats(self, delays):
        stats = NetworkStats()
        for index, delay in enumerate(delays):
            stats.record_delivery(
                DeliveryRecord(
                    subscriber_id="s",
                    doc_id="d%d" % index,
                    path_id=0,
                    issued_at=0.0,
                    delivered_at=delay,
                    hops=2,
                )
            )
        return stats

    def test_percentiles(self):
        stats = self.make_stats([0.1 * i for i in range(1, 11)])
        assert stats.delay_percentile(0.5) == pytest.approx(0.5)
        assert stats.delay_percentile(1.0) == pytest.approx(1.0)

    def test_empty(self):
        assert NetworkStats().delay_percentile(0.95) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkStats().delay_percentile(0.0)
        with pytest.raises(ValueError):
            NetworkStats().delay_percentile(1.5)

    def test_summary_includes_p95(self):
        stats = self.make_stats([1.0, 2.0])
        assert stats.summary()["p95_delay_ms"] == pytest.approx(2000.0)
