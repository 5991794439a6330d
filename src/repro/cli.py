"""Command-line interface.

Usage::

    python -m repro.cli adverts --sample nitf          # advertisement set
    python -m repro.cli adverts my.dtd --stats
    python -m repro.cli paths --sample psd             # DTD path universe
    python -m repro.cli workload --sample psd -n 20    # query generator
    python -m repro.cli match "/a//b" a/x/b            # XPE vs path
    python -m repro.cli covers "/a" "/a/b"             # covering check
    python -m repro.cli simulate --levels 3 --strategy with-Adv-with-Cov
    python -m repro.cli stats --levels 3               # metrics snapshot
    python -m repro.cli experiments --only fig6        # paper tables

Each subcommand is a thin veneer over the library — anything it prints
can be recomputed through the public API.
"""

from __future__ import annotations

import argparse
import collections
import sys

from repro.adverts.generator import generate_advertisements
from repro.broker.strategies import MATCHING_ENGINES, RoutingConfig
from repro.covering.algorithms import covers
from repro.covering.pathmatch import matches_path
from repro.dtd.parser import parse_dtd
from repro.dtd.paths import enumerate_paths, is_recursive
from repro.dtd.samples import nitf_dtd, psd_dtd
from repro.errors import ReproError
from repro.xpath.parser import parse_xpath


def _load_dtd(args):
    if args.sample:
        return {"nitf": nitf_dtd, "psd": psd_dtd}[args.sample]()
    if not args.dtd_file:
        raise SystemExit("error: provide a DTD file or --sample nitf|psd")
    with open(args.dtd_file) as handle:
        return parse_dtd(handle.read())


def _add_faults_option(parser):
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="inject link faults with the reliability layer engaged, "
        "e.g. 'drop=0.1,dup=0.05,seed=7' (see "
        "repro.network.faults.FaultPlan.from_spec)",
    )


def _add_engine_option(parser):
    parser.add_argument(
        "--engine",
        choices=MATCHING_ENGINES,
        default="auto",
        help="publication-matching backend on every broker: 'auto' "
        "matches through the routing table itself, 'shared' layers the "
        "shared-automaton mass-subscription engine over it "
        "(see docs/matching.md)",
    )


def _add_views_option(parser):
    parser.add_argument(
        "--views",
        action="store_true",
        help="keep a replay window of the last publications each broker "
        "routed per publication group, and replay the matching windows "
        "to a late subscriber (see docs/views.md)",
    )


def _add_dtd_options(parser):
    parser.add_argument("dtd_file", nargs="?", help="path to a DTD file")
    parser.add_argument(
        "--sample",
        choices=("nitf", "psd"),
        help="use a bundled sample DTD instead of a file",
    )


def cmd_adverts(args) -> int:
    dtd = _load_dtd(args)
    adverts = generate_advertisements(dtd)
    if args.stats:
        kinds = collections.Counter(advert.kind for advert in adverts)
        print("root element: %s" % dtd.root)
        print("recursive DTD: %s" % is_recursive(dtd))
        print("advertisements: %d" % len(adverts))
        for kind, count in sorted(kinds.items()):
            print("  %-20s %6d" % (kind, count))
    else:
        for advert in adverts:
            print(advert)
    return 0


def cmd_paths(args) -> int:
    dtd = _load_dtd(args)
    for path in enumerate_paths(dtd, max_depth=args.max_depth):
        print("/" + "/".join(path))
    return 0


def cmd_workload(args) -> int:
    from repro.workloads.xpath_generator import (
        XPathWorkloadParams,
        generate_queries,
    )

    dtd = _load_dtd(args)
    params = XPathWorkloadParams(
        wildcard_prob=args.wildcard_prob,
        descendant_prob=args.descendant_prob,
        relative_prob=args.relative_prob,
        max_length=args.max_length,
    )
    for query in generate_queries(dtd, args.count, params=params, seed=args.seed):
        print(query)
    return 0


def cmd_match(args) -> int:
    expr = parse_xpath(args.xpe)
    path = tuple(part for part in args.path.strip("/").split("/") if part)
    matched = matches_path(expr, path)
    print("MATCH" if matched else "NO MATCH")
    return 0 if matched else 1


def cmd_covers(args) -> int:
    s1, s2 = parse_xpath(args.coverer), parse_xpath(args.covered)
    answer = covers(s1, s2)
    print("COVERS" if answer else "DOES NOT COVER")
    return 0 if answer else 1


def _parse_faults(args):
    """Turn the ``--faults SPEC`` option into a FaultPlan (or None)."""
    spec = getattr(args, "faults", None)
    if not spec:
        return None
    from repro.network.faults import FaultPlan

    return FaultPlan.from_spec(spec)


def cmd_simulate(args) -> int:
    from repro.experiments.tables23 import run_traffic_experiment

    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        from repro import obs

        obs.enable_metrics(reset=True)
    strategies = [args.strategy] if args.strategy else None
    result = run_traffic_experiment(
        levels=args.levels,
        xpes_per_subscriber=args.xpes,
        documents=args.documents,
        strategies=strategies,
        seed=args.seed,
        check_delivery_equivalence=strategies is None,
        faults=_parse_faults(args),
        matching_engine=args.engine,
        views=args.views,
    )
    print(result.format())
    if metrics_out:
        obs.write_json(
            obs.get_registry(),
            metrics_out,
            meta={"command": "simulate", "levels": args.levels},
        )
        print("metrics written to %s" % metrics_out)
    return 0


def cmd_stats(args) -> int:
    """Run a quickstart-style workload with metrics on and emit the
    unified observability snapshot (traffic + delay + timings)."""
    import json

    from repro import obs
    from repro.experiments.tables23 import run_traffic_experiment

    obs.enable_metrics(reset=True)
    strategy = args.strategy or "with-Adv-with-CovPM"
    result = run_traffic_experiment(
        levels=args.levels,
        xpes_per_subscriber=args.xpes,
        documents=args.documents,
        strategies=[strategy],
        seed=args.seed,
        check_delivery_equivalence=False,
        faults=_parse_faults(args),
        matching_engine=args.engine,
        views=args.views,
        telemetry_interval=args.sample_every,
    )
    registry = obs.get_registry()
    meta = {
        "command": "stats",
        "levels": args.levels,
        "brokers": 2 ** args.levels - 1,
        "strategy": strategy,
        "xpes_per_subscriber": args.xpes,
        "documents": args.documents,
        "seed": args.seed,
    }
    if args.views:
        meta["views"] = {
            "windows": registry.gauge("views.live").value,
            "retained": registry.gauge("views.retained").value,
            "replays": registry.counter("views.replays").value,
        }
    if args.format == "line":
        rendered = obs.to_line_protocol(registry)
    else:
        document = obs.snapshot_document(registry, meta=meta)
        rendered = json.dumps(document, indent=2, sort_keys=True)
    if args.views:
        print(
            "views: windows=%d retained=%d replays=%d"
            % (
                meta["views"]["windows"],
                meta["views"]["retained"],
                meta["views"]["replays"],
            )
        )
    if args.sample_every is not None:
        document = result.telemetry[strategy]
        with open(args.timeline_out, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(
            "telemetry timeline written to %s (%d samples, %d brokers; "
            "render with 'repro timeline %s')"
            % (
                args.timeline_out,
                document["samples_taken"],
                len(document["brokers"]) - 1,
                args.timeline_out,
            )
        )
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered + "\n")
        print("metrics written to %s" % args.out)
    else:
        print(rendered)
    return 0


def cmd_top(args) -> int:
    """Live per-broker operational view on a real concurrency backend:
    drive a seeded workload round by round and refresh the health table
    (queue depth, throughput, retransmits, delivery p99) from the live
    telemetry plane after every round.  ``--overload BROKER`` slows one
    broker down so the healthy → degraded → overloaded escalation is
    watchable; ``--prom-port``/``--prom-textfile`` expose the same
    numbers to Prometheus (see docs/telemetry.md)."""
    import dataclasses
    import time as _time

    from repro import obs
    from repro.broker.messages import AdvertiseMsg, PublishMsg, SubscribeMsg
    from repro.obs.telemetry import (
        PrometheusEndpoint,
        default_slo_rules,
        render_top,
    )
    from repro.runtime.workload import PUBLISHER, WorkloadSpec, build_plan

    obs.enable_metrics(reset=True)
    registry = obs.get_registry()
    spec = WorkloadSpec(
        levels=args.levels,
        queries_per_leaf=args.queries,
        documents=2,
        seed=args.seed,
        strategy=args.strategy or "with-Adv-with-Cov",
    )
    plan = build_plan(spec)
    if args.overload and args.overload not in plan.broker_ids:
        raise SystemExit(
            "error: --overload %r is not one of the %d brokers (%s...)"
            % (args.overload, len(plan.broker_ids), plan.broker_ids[0])
        )

    if args.backend == "multiprocess":
        from repro.runtime.multiprocess import MultiprocessDeployment

        host = MultiprocessDeployment(
            config=spec.config(),
            service_delay=(
                {args.overload: args.overload_delay} if args.overload else None
            ),
        )
        for broker_id in plan.broker_ids:
            host.add_broker(broker_id)
        for a, b in plan.links:
            host.link(a, b)
        host.start()

        def quiesce():
            if not host.settle():
                raise ReproError("multiprocess deployment failed to settle")
            host.drain_deliveries()

        teardown = host.stop
    else:
        from repro.runtime.asyncio_backend import AsyncioRuntime

        host = AsyncioRuntime(
            config=spec.config(), metrics=registry, client_capacity=8
        )
        for broker_id in plan.broker_ids:
            host.add_broker(broker_id)
        for a, b in plan.links:
            host.connect(a, b)
        host.start()
        quiesce = host.drain
        teardown = host.close

    telemetry_kwargs = {}
    if args.queue_slo:
        try:
            low, high = (float(part) for part in args.queue_slo.split(","))
        except ValueError:
            print(
                "error: --queue-slo expects LOW,HIGH (e.g. 3,8)",
                file=sys.stderr,
            )
            return 2
        telemetry_kwargs["rules"] = default_slo_rules(
            queue_depth=(low, high)
        )
    plane = host.enable_telemetry(interval=args.interval, **telemetry_kwargs)
    endpoint = None
    try:
        host.attach_publisher(PUBLISHER, plan.broker_ids[0])
        for leaf in sorted(plan.subscriptions):
            host.attach_subscriber("sub-%s" % leaf, leaf)
        if args.backend == "asyncio" and args.overload:
            # The asyncio overload knob is a slow consumer: delay every
            # subscriber attached at the target broker.
            slowed = 0
            for leaf in plan.subscriptions:
                if leaf == args.overload:
                    host.client_delay["sub-%s" % leaf] = args.overload_delay
                    slowed += 1
            if not slowed:
                print(
                    "note: --overload %s has no local subscribers on the "
                    "asyncio backend (pick a leaf broker)" % args.overload
                )
        if args.prom_port is not None or args.prom_textfile:
            endpoint = PrometheusEndpoint(
                registry,
                plane,
                port=args.prom_port or 0,
                textfile=args.prom_textfile,
            )
            if args.prom_port is not None:
                endpoint.start()
                print("prometheus endpoint at %s" % endpoint.url)

        for adv_id, advert in plan.adverts:
            host.submit(
                PUBLISHER,
                AdvertiseMsg(
                    adv_id=adv_id, advert=advert, publisher_id=PUBLISHER
                ),
            )
        quiesce()
        for leaf in sorted(plan.subscriptions):
            client_id = "sub-%s" % leaf
            for expr in plan.subscriptions[leaf]:
                host.submit(
                    client_id, SubscribeMsg(expr=expr, subscriber_id=client_id)
                )
        quiesce()

        for round_no in range(args.rounds):
            started = _time.monotonic()
            for document in plan.documents:
                size = document.size_bytes()
                issued_at = host.now
                for publication in document.publications():
                    # Fresh doc ids per round keep the delivery stream
                    # (and its p99) live past client-side dedup.
                    host.submit(
                        PUBLISHER,
                        PublishMsg(
                            publication=dataclasses.replace(
                                publication,
                                doc_id="%s.r%d"
                                % (publication.doc_id, round_no),
                            ),
                            publisher_id=PUBLISHER,
                            doc_size_bytes=size,
                            issued_at=issued_at,
                        ),
                    )
            quiesce()
            host.sample_telemetry()
            frame = render_top(plane, now=host.now)
            if not args.plain and sys.stdout.isatty():
                sys.stdout.write("\x1b[2J\x1b[H")
            print("round %d/%d (%.2fs)" % (
                round_no + 1, args.rounds, _time.monotonic() - started
            ))
            print(frame)
            if endpoint is not None:
                endpoint.write()

        health = plane.health()
        worst = sorted(set(health.values()))
        print(
            "final health: %s (%d transitions, alerts: %s)"
            % (
                ", ".join(
                    "%s=%s" % (b, s) for b, s in sorted(health.items())
                ),
                len(plane.monitor.transitions),
                dict(plane.monitor.alerts) or "none",
            )
        )
        if args.timeline:
            path = plane.write_timeline(
                args.timeline,
                meta={
                    "command": "top",
                    "backend": args.backend,
                    "levels": args.levels,
                    "rounds": args.rounds,
                    "overload": args.overload,
                    "seed": args.seed,
                },
            )
            print("telemetry timeline written to %s" % path)
        return 0 if worst in ([], ["healthy"]) or args.overload else 1
    finally:
        if endpoint is not None:
            endpoint.close()
        teardown()


def cmd_timeline(args) -> int:
    """Render a recorded telemetry timeline (``repro stats
    --sample-every`` / ``repro top --timeline``) as per-broker health
    plus a sparkline trend of one sampled metric."""
    from repro.obs.telemetry import load_timeline, render_timeline

    document = load_timeline(args.file)
    print(
        render_timeline(
            document,
            metric=args.metric,
            broker=args.broker,
            width=args.width,
        )
    )
    return 0


AUDIT_SCENARIOS = (
    "fault-free",
    "drop-only",
    "duplicate-only",
    "reorder-only",
    "partition-heals",
    "crash-restart",
)


def cmd_audit(args) -> int:
    """Run the routing-state audit over the chaos scenario matrix and
    exit nonzero when any invariant is violated (see docs/audit.md)."""
    from repro.audit import audit_scenarios, run_audited_workload

    scenarios = audit_scenarios(args.seed)
    names = (
        list(AUDIT_SCENARIOS) if args.scenario == "all" else [args.scenario]
    )
    failures = 0
    for name in names:
        _, _, report = run_audited_workload(
            plan=scenarios[name],
            levels=args.levels,
            xpes_per_leaf=args.xpes,
            documents=args.documents,
            max_degree=args.max_degree,
            merge_interval=args.merge_interval,
            seed=args.seed + 3,
            matching_engine=args.engine,
            views=args.views,
        )
        status = "OK" if report.ok else "FAIL"
        print(
            "%-16s %-4s  soundness=%d unexplained_fp=%d explained_fp=%d"
            % (
                name,
                status,
                len(report.soundness),
                len(report.unexplained_fp),
                len(report.explained_fp),
            )
        )
        if not report.ok:
            failures += 1
            for violation in report.soundness + report.unexplained_fp:
                print("  " + str(violation))
    if failures:
        print(
            "audit FAILED: %d of %d scenarios violated (seed=%d)"
            % (failures, len(names), args.seed)
        )
        return 1
    print("audit OK: %d scenarios clean (seed=%d)" % (len(names), args.seed))
    return 0


def cmd_trace(args) -> int:
    """Run the chaos matrix with causal tracing on, verify that every
    delivery tree is causally complete and its per-stage span sum stays
    within the recorded end-to-end latency, and optionally export the
    spans (Chrome trace JSON / Prometheus text) or dump flight rings."""
    import json

    from repro import obs
    from repro.audit import audit_scenarios, run_audited_workload
    from repro.obs.registry import MetricsRegistry
    from repro.obs.tracing import verify_traces

    scenarios = audit_scenarios(args.seed)
    names = (
        list(AUDIT_SCENARIOS) if args.scenario == "all" else [args.scenario]
    )
    stage_registry = MetricsRegistry(enabled=True)
    all_spans = []
    failures = 0
    for name in names:
        overlay, _, report = run_audited_workload(
            plan=scenarios[name],
            levels=args.levels,
            xpes_per_leaf=args.xpes,
            documents=args.documents,
            seed=args.seed + 3,
            tracing=True,
            flight_dir=args.flight_dump,
        )
        recorder = overlay.tracing
        problems = verify_traces(overlay)
        trees = recorder.assemble()
        complete = sum(1 for tree in trees.values() if tree.complete)
        status = "OK" if report.ok and not problems else "FAIL"
        print(
            "%-16s %-4s  spans=%6d traces=%4d complete=%4d "
            "deliveries=%4d audit=%s problems=%d"
            % (
                name,
                status,
                len(recorder),
                len(trees),
                complete,
                len(overlay.stats.deliveries),
                "OK" if report.ok else "FAIL",
                len(problems),
            )
        )
        for problem in problems:
            print("  " + problem)
        if not report.ok or problems:
            failures += 1
        if args.follow:
            followed = recorder.trees_for_doc(args.follow)
            if not followed:
                print("  no trace touched document %r" % args.follow)
            for tree in followed:
                print(tree.render())
        if args.last:
            for broker_id in sorted(recorder.flight.recorders, key=str):
                ring = recorder.flight.recorders[broker_id]
                spans = ring.spans()[-args.last:]
                print("  flight ring %s (last %d of %d):"
                      % (broker_id, len(spans), len(ring)))
                for span in spans:
                    print("    %r" % span)
        if args.flight_dump:
            dump = recorder.flight.dump(
                "cli-%s" % name, time=overlay.sim.now
            )
            print("  flight dump: %s" % dump.get("path", "in-memory"))
        recorder.publish_stage_metrics(stage_registry)
        all_spans.extend(recorder.spans)

    print("\nper-stage latency decomposition (virtual seconds):")
    print("%-28s %8s %12s %12s %12s" % ("stage", "count", "p50", "p95", "p99"))
    for kind, metric, instrument in sorted(
        stage_registry.iter_metrics(), key=lambda item: item[1]
    ):
        if kind != "histogram" or not metric.startswith("trace.stage."):
            continue
        stats = instrument.snapshot()
        print(
            "%-28s %8d %12.9f %12.9f %12.9f"
            % (
                metric[len("trace.stage."):],
                stats["count"],
                stats["p50"] or 0.0,
                stats["p95"] or 0.0,
                stats["p99"] or 0.0,
            )
        )

    if args.export:
        out = args.out or (
            "trace-export.json" if args.export == "chrome"
            else "trace-export.prom"
        )
        if args.export == "chrome":
            with open(out, "w") as handle:
                json.dump(obs.to_chrome_trace(all_spans), handle, indent=1)
                handle.write("\n")
        else:
            with open(out, "w") as handle:
                handle.write(obs.to_prometheus(stage_registry))
        print("%s export written to %s" % (args.export, out))

    if failures:
        print(
            "trace verification FAILED: %d of %d scenarios (seed=%d)"
            % (failures, len(names), args.seed)
        )
        return 1
    print(
        "trace verification OK: %d scenarios, %d spans (seed=%d)"
        % (len(names), len(all_spans), args.seed)
    )
    return 0


def cmd_deploy(args) -> int:
    """Run a seeded workload on a real concurrency backend — the
    asyncio runtime or the one-process-per-broker socket deployment —
    and (by default) differentially compare it against the simulator
    on the same seed: identical delivered sets, clean audit, causally
    complete traces, and (when the subscription phase is serialized)
    identical routing fingerprints.  See docs/runtime.md."""
    import dataclasses
    import json
    import os

    from repro.audit.oracle import AuditOracle
    from repro.runtime.workload import (
        ADAPTERS,
        WorkloadSpec,
        build_plan,
        run_workload,
    )

    spec = WorkloadSpec(
        levels=args.levels,
        queries_per_leaf=args.queries,
        documents=args.documents,
        seed=args.seed,
        strategy=args.strategy or "with-Adv-with-Cov",
        matching_engine=args.engine,
        views=args.views,
        serialize_subscriptions=not args.no_serialize,
    )
    plan = build_plan(spec)
    broker_count = len(plan.broker_ids)
    print(
        "deploy: %d brokers (levels=%d), %d subscriptions, %d documents, "
        "seed=%d, backend=%s"
        % (
            broker_count,
            spec.levels,
            sum(len(v) for v in plan.subscriptions.values()),
            spec.documents,
            spec.seed,
            args.backend,
        )
    )

    adapter = ADAPTERS[args.backend](tracing=True)
    auditor = AuditOracle() if args.audit else None
    result = run_workload(adapter, spec, plan, auditor=auditor)
    print(
        "%-12s delivered=%d audit_problems=%d trace_problems=%d"
        % (
            result.backend,
            len(result.delivered),
            len(result.audit_problems),
            len(result.trace_problems),
        )
    )
    for key, value in sorted(result.extras.items()):
        if key != "max_queue_depth":
            print("  %s: %s" % (key, value))

    problems = []
    if result.audit_problems:
        problems.append("audit: %d violations" % len(result.audit_problems))
    if result.trace_problems:
        problems.append(
            "tracing: %d incomplete causal chains" % len(result.trace_problems)
        )

    reference = None
    if not args.no_compare:
        reference = run_workload(
            ADAPTERS["simulator"](),
            spec,
            plan,
            auditor=AuditOracle() if args.audit else None,
        )
        delivered_ok = result.delivered == reference.delivered
        print(
            "%-12s delivered=%d  delivered_equal=%s"
            % (reference.backend, len(reference.delivered), delivered_ok)
        )
        if not delivered_ok:
            problems.append(
                "delivered sets differ: backend-only=%d simulator-only=%d"
                % (
                    len(result.delivered - reference.delivered),
                    len(reference.delivered - result.delivered),
                )
            )
        if spec.serialize_subscriptions:
            diverged = sorted(
                broker_id
                for broker_id in reference.fingerprints
                if result.fingerprints.get(broker_id)
                != reference.fingerprints[broker_id]
            )
            print(
                "fingerprints: %d/%d brokers identical"
                % (broker_count - len(diverged), broker_count)
            )
            if diverged:
                problems.append(
                    "routing fingerprints diverge on %d brokers: %s"
                    % (len(diverged), ", ".join(diverged[:8]))
                )
        else:
            print(
                "fingerprints: skipped (--no-serialize makes covering "
                "tables arrival-order-dependent; deliveries still compared)"
            )

    if args.dump and (problems or args.dump_always):
        dump = {
            "spec": dataclasses.asdict(spec),
            "problems": problems,
            "backend": {
                "name": result.backend,
                "delivered": sorted(map(list, result.delivered)),
                "fingerprints": result.fingerprints,
                "audit_problems": result.audit_problems,
                "trace_problems": result.trace_problems,
                "extras": {
                    k: v for k, v in result.extras.items() if k != "network_traffic"
                },
            },
        }
        if reference is not None:
            dump["simulator"] = {
                "delivered": sorted(map(list, reference.delivered)),
                "fingerprints": reference.fingerprints,
            }
        os.makedirs(args.dump, exist_ok=True)
        path = os.path.join(args.dump, "deploy-diagnostics.json")
        with open(path, "w") as handle:
            json.dump(dump, handle, indent=1, default=str)
        print("diagnostics written to %s" % path)

    if problems:
        print("deploy FAILED:")
        for problem in problems:
            print("  " + problem)
        return 1
    print("deploy OK")
    return 0


def cmd_experiments(args) -> int:
    from repro.experiments.__main__ import main as experiments_main

    forwarded = []
    if args.scale != 1.0:
        forwarded.extend(["--scale", str(args.scale)])
    if args.metrics_out:
        forwarded.extend(["--metrics-out", args.metrics_out])
    if args.only:
        forwarded.append("--only")
        forwarded.extend(args.only)
    if args.faults:
        forwarded.extend(["--faults", args.faults])
    return experiments_main(forwarded)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XML/XPath data dissemination network (ICDCS 2008 reproduction)",
    )
    parser.add_argument(
        "--no-compiled",
        action="store_true",
        help="disable the compiled XPE fast path and run the reference "
        "interpreter (equivalent to REPRO_COMPILED=0)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("adverts", help="derive a DTD's advertisement set")
    _add_dtd_options(p)
    p.add_argument("--stats", action="store_true", help="summary only")
    p.set_defaults(fn=cmd_adverts)

    p = sub.add_parser("paths", help="enumerate a DTD's root-to-leaf paths")
    _add_dtd_options(p)
    p.add_argument("--max-depth", type=int, default=10)
    p.set_defaults(fn=cmd_paths)

    p = sub.add_parser("workload", help="generate an XPath query workload")
    _add_dtd_options(p)
    p.add_argument("-n", "--count", type=int, default=20)
    p.add_argument("--wildcard-prob", type=float, default=0.2)
    p.add_argument("--descendant-prob", type=float, default=0.15)
    p.add_argument("--relative-prob", type=float, default=0.2)
    p.add_argument("--max-length", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_workload)

    p = sub.add_parser("match", help="match an XPE against a path")
    p.add_argument("xpe")
    p.add_argument("path", help="e.g. /a/b/c")
    p.set_defaults(fn=cmd_match)

    p = sub.add_parser("covers", help="covering check between two XPEs")
    p.add_argument("coverer")
    p.add_argument("covered")
    p.set_defaults(fn=cmd_covers)

    p = sub.add_parser("simulate", help="run an overlay traffic experiment")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--xpes", type=int, default=100)
    p.add_argument("--documents", type=int, default=10)
    p.add_argument("--strategy", choices=RoutingConfig.ALL_NAMES)
    p.add_argument("--seed", type=int, default=5)
    p.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="enable metrics and write the JSON snapshot here",
    )
    _add_engine_option(p)
    _add_views_option(p)
    _add_faults_option(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser(
        "stats",
        help="run a small workload with metrics enabled and print the "
        "observability snapshot",
    )
    p.add_argument("--levels", type=int, default=3, help="broker tree depth")
    p.add_argument("--xpes", type=int, default=50)
    p.add_argument("--documents", type=int, default=10)
    p.add_argument("--strategy", choices=RoutingConfig.ALL_NAMES)
    p.add_argument("--seed", type=int, default=5)
    p.add_argument("--out", metavar="FILE", default=None)
    p.add_argument("--format", choices=("json", "line"), default="json")
    p.add_argument(
        "--sample-every",
        type=float,
        default=None,
        metavar="SECONDS",
        dest="sample_every",
        help="turn on the live telemetry plane and sample every broker "
        "at this virtual-clock period, writing the timeline to "
        "--timeline-out (see docs/telemetry.md)",
    )
    p.add_argument(
        "--timeline-out",
        metavar="FILE",
        default="telemetry-timeline.json",
        help="destination of the --sample-every timeline (default "
        "telemetry-timeline.json; render with 'repro timeline')",
    )
    _add_engine_option(p)
    _add_views_option(p)
    _add_faults_option(p)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser(
        "top",
        help="live per-broker health/telemetry table while a workload "
        "runs on a real concurrency backend",
    )
    p.add_argument(
        "--backend",
        choices=("asyncio", "multiprocess"),
        default="asyncio",
    )
    p.add_argument("--levels", type=int, default=3, help="broker tree depth")
    p.add_argument(
        "--queries", type=int, default=2, help="subscriptions per leaf"
    )
    p.add_argument(
        "--rounds",
        type=int,
        default=5,
        help="publish rounds (one table refresh per round)",
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--strategy", choices=RoutingConfig.ALL_NAMES)
    p.add_argument(
        "--interval",
        type=float,
        default=0.05,
        help="telemetry sampling period, wall seconds",
    )
    p.add_argument(
        "--overload",
        metavar="BROKER",
        default=None,
        help="slow this broker down (multiprocess: dispatcher service "
        "delay; asyncio: its local subscribers consume slowly) so the "
        "health escalation is watchable",
    )
    p.add_argument(
        "--overload-delay",
        type=float,
        default=0.01,
        help="per-message delay, seconds, for --overload (default 0.01)",
    )
    p.add_argument(
        "--queue-slo",
        metavar="LOW,HIGH",
        default=None,
        help="override the queue-depth SLO thresholds "
        "(degraded,overloaded) — pair with --overload so the demo "
        "escalation crosses them on small workloads",
    )
    p.add_argument(
        "--plain",
        action="store_true",
        help="never clear the screen between refreshes",
    )
    p.add_argument(
        "--timeline",
        metavar="FILE",
        default=None,
        help="also record the run's telemetry timeline here",
    )
    p.add_argument(
        "--prom-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve GET /metrics on 127.0.0.1:PORT while running "
        "(0 picks an ephemeral port)",
    )
    p.add_argument(
        "--prom-textfile",
        metavar="FILE",
        default=None,
        help="atomically rewrite a node-exporter-style textfile after "
        "every round",
    )
    p.set_defaults(fn=cmd_top)

    p = sub.add_parser(
        "timeline",
        help="render a recorded telemetry timeline (from 'repro stats "
        "--sample-every' or 'repro top --timeline')",
    )
    p.add_argument("file", help="telemetry-timeline.json path")
    p.add_argument(
        "--metric",
        default=None,
        help="sampled metric to trend (default: queue_depth or the "
        "busiest recorded metric)",
    )
    p.add_argument(
        "--broker", default=None, help="restrict the table to one broker"
    )
    p.add_argument(
        "--width", type=int, default=60, help="sparkline width, columns"
    )
    p.set_defaults(fn=cmd_timeline)

    p = sub.add_parser(
        "audit",
        help="routing-state audit: oracle + invariant checker over the "
        "chaos scenario matrix",
    )
    p.add_argument(
        "--scenario",
        default="all",
        choices=("all",) + AUDIT_SCENARIOS,
        help="one scenario, or 'all' for the full matrix",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--levels", type=int, default=3, help="broker tree depth")
    p.add_argument("--xpes", type=int, default=12, help="XPEs per leaf")
    p.add_argument("--documents", type=int, default=5)
    p.add_argument("--max-degree", type=float, default=0.1)
    p.add_argument("--merge-interval", type=int, default=4)
    _add_engine_option(p)
    _add_views_option(p)
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser(
        "trace",
        help="causal tracing: run the chaos matrix with tracing on, "
        "verify delivery trees, export spans, dump flight rings",
    )
    p.add_argument(
        "--scenario",
        default="fault-free",
        choices=("all",) + AUDIT_SCENARIOS,
        help="one scenario, or 'all' for the full matrix",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--levels", type=int, default=3, help="broker tree depth")
    p.add_argument("--xpes", type=int, default=12, help="XPEs per leaf")
    p.add_argument("--documents", type=int, default=5)
    p.add_argument(
        "--follow",
        metavar="DOC_ID",
        default=None,
        help="render the delivery tree of every trace touching this document",
    )
    p.add_argument(
        "--export",
        choices=("chrome", "prom"),
        default=None,
        help="write spans as Chrome trace-event JSON (load in Perfetto) "
        "or the stage histograms as Prometheus text",
    )
    p.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="export destination (default trace-export.json/.prom)",
    )
    p.add_argument(
        "--flight-dump",
        metavar="DIR",
        default=None,
        help="write flight-recorder dumps (automatic and end-of-run) here",
    )
    p.add_argument(
        "--last",
        type=int,
        default=0,
        metavar="N",
        help="also print the last N flight-ring spans per broker",
    )
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "deploy",
        help="run the overlay on a real concurrency backend (asyncio or "
        "one process per broker over sockets) and differentially "
        "compare it with the simulator",
    )
    p.add_argument(
        "--backend",
        choices=("asyncio", "multiprocess"),
        default="multiprocess",
    )
    p.add_argument(
        "--levels",
        type=int,
        default=7,
        help="broker tree depth (7 = the paper's 127-broker overlay)",
    )
    p.add_argument(
        "--queries", type=int, default=2, help="subscriptions per leaf"
    )
    p.add_argument("--documents", type=int, default=1)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--strategy", choices=RoutingConfig.ALL_NAMES)
    p.add_argument(
        "--audit",
        action="store_true",
        help="attach the routing-state audit oracle to the run",
    )
    p.add_argument(
        "--no-compare",
        action="store_true",
        help="skip the simulator reference run",
    )
    p.add_argument(
        "--no-serialize",
        action="store_true",
        help="do not quiesce between per-leaf subscription batches; "
        "faster, but covering tables become arrival-order-dependent so "
        "fingerprint comparison is skipped",
    )
    p.add_argument(
        "--dump",
        metavar="DIR",
        default=None,
        help="write a JSON diagnostics dump here when the run fails "
        "(CI artifact)",
    )
    p.add_argument(
        "--dump-always",
        action="store_true",
        help="write the diagnostics dump even on success",
    )
    _add_engine_option(p)
    _add_views_option(p)
    p.set_defaults(fn=cmd_deploy)

    p = sub.add_parser("experiments", help="reproduce the paper's tables/figures")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--only", nargs="*", default=None)
    p.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="enable metrics and write the JSON snapshot here",
    )
    _add_faults_option(p)
    p.set_defaults(fn=cmd_experiments)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.no_compiled:
        from repro.xpath.compiled import set_compiled_enabled

        set_compiled_enabled(False)
    try:
        return args.fn(args)
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
