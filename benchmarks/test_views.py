"""Edge materialized views: the CI ``views`` lane.

The repeat-publication serve path (docs/views.md): once a publication
group is hot, the edge broker serves later publications of the group
from the view's routing memo.  This lane pins that the serve path is
taken and is exact:

* one broker, :data:`SUBSCRIPTIONS` mass subscriptions behind a single
  edge client,
* :data:`ROUNDS` rounds each republishing the same hot publication
  paths under fresh doc ids — the views-on broker serves everything
  after the warmup round,
* identical routing decisions asserted every round.

Per-round timings land in ``views.repeat.on`` / ``views.repeat.off``
(plus the broker's own ``views.serve`` / ``views.route`` decision
histograms), gated bidirectionally by ``check_obs_regression.py
--only views.``.  There is no on-vs-off speed floor: since the route
memo (PR 14) a views-off repeat publication is a dict hit too, and the
view's bookkeeping makes the views-on round the slower of the two
(0.6–0.7x).  Views buy the replay window and the ``view_served``
classification, not repeat-publication speed.
"""

import time

import pytest

from repro import obs
from repro.broker import Broker, PublishMsg, RoutingConfig, SubscribeMsg
from repro.workloads.mass import (
    MassWorkloadParams,
    generate_mass_subscriptions,
    generate_probe_paths,
)
from repro.xmldoc import Publication

SUBSCRIPTIONS = 8_000

#: Rounds — one histogram sample each, above the regression gate's
#: MIN_SAMPLES (30).
ROUNDS = 40

#: Hot publication paths republished every round.
PROBES_PER_ROUND = 12


def _distinct_probe_paths(count, params, seed):
    paths = []
    seen = set()
    batch_seed = seed
    while len(paths) < count:
        for path in generate_probe_paths(count, params, seed=batch_seed):
            if path not in seen:
                seen.add(path)
                paths.append(path)
                if len(paths) == count:
                    break
        batch_seed += 1
    return paths


def _build_broker(views, pairs):
    config = RoutingConfig(
        advertisements=False,
        covering=False,
        views=views,
        view_hot_threshold=1,
        view_window=8,
        view_max=256,
    )
    broker = Broker("b1", config=config)
    broker.connect("n1")
    broker.attach_client("c1")
    for expr, _key in pairs:
        broker.handle(SubscribeMsg(expr=expr, subscriber_id="c1"), "c1")
    return broker


def _publish_round(broker, paths, round_index):
    """Publish every hot path under a fresh doc id; returns the routing
    decisions (view-served and core-routed must agree exactly)."""
    decisions = []
    for path_index, path in enumerate(paths):
        out = broker.handle(
            PublishMsg(
                publication=Publication(
                    doc_id="r%d" % round_index,
                    path_id=path_index,
                    path=path,
                ),
                publisher_id="pub",
            ),
            "n1",
        )
        decisions.append(sorted(str(dest) for dest, _msg in out))
    return decisions


@pytest.mark.paper
def test_repeat_publications_are_view_served():
    params = MassWorkloadParams()
    pairs = generate_mass_subscriptions(SUBSCRIPTIONS, params, seed=7)
    paths = _distinct_probe_paths(PROBES_PER_ROUND, params, seed=8)
    registry = obs.get_registry()

    plain = _build_broker(False, pairs)
    viewed = _build_broker(True, pairs)

    # Warmup round: both route through the core; the views-on broker
    # materializes every hot group (threshold 1).
    warm_plain = _publish_round(plain, paths, 0)
    warm_viewed = _publish_round(viewed, paths, 0)
    assert warm_plain == warm_viewed
    assert viewed.views.stats()["views"] == len(paths)

    plain_seconds = 0.0
    viewed_seconds = 0.0
    for round_index in range(1, ROUNDS + 1):
        start = time.perf_counter()
        with registry.timer("views.repeat.off"):
            plain_decisions = _publish_round(plain, paths, round_index)
        plain_seconds += time.perf_counter() - start

        start = time.perf_counter()
        with registry.timer("views.repeat.on"):
            viewed_decisions = _publish_round(viewed, paths, round_index)
        viewed_seconds += time.perf_counter() - start

        assert viewed_decisions == plain_decisions, (
            "view-served routing diverged from the core route in round %d"
            % round_index
        )

    stats = viewed.views.stats()
    assert stats["serves"] == ROUNDS * len(paths)  # every repeat served
    registry.set_gauge("views.bench.hit_ratio", stats["hit_ratio"])
    registry.set_gauge("views.bench.subscriptions", SUBSCRIPTIONS)

    print(
        "\n%d subscriptions, %d rounds x %d hot paths: views-off %.3fs, "
        "views-on %.3fs (off/on %.2fx), hit ratio %.3f, %d views resident"
        % (SUBSCRIPTIONS, ROUNDS, len(paths), plain_seconds,
           viewed_seconds, plain_seconds / viewed_seconds,
           stats["hit_ratio"], stats["views"])
    )
