#!/usr/bin/env python
"""Record the mass-matching lane's peak RSS after its 100k-subscription load.

Usage::

    python benchmarks/record_mass_rss.py BENCH_obs.json
    python benchmarks/record_mass_rss.py BENCH_obs.json \\
        --record benchmarks/BENCH_mass.json

``benchmarks/test_mass_matching.py::test_mass_matching_100k`` sets the
``matching.mass.load_maxrss_mb`` gauge (the process's ``ru_maxrss``
right after both engines loaded their subscriptions) beside
``matching.mass.subscriptions``.  This prints them as a markdown line
for the CI job summary and, with ``--record``, writes them into the
record's ``mass_matching_100k`` entry.  It is a record, not a gate:
memory per subscription gets a history beside the lane's timings.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("artifact", help="BENCH_obs.json from the lane's run")
    parser.add_argument(
        "--record", metavar="PATH", help="BENCH_mass.json to write the figure into"
    )
    args = parser.parse_args(argv)

    with open(args.artifact) as handle:
        gauges = json.load(handle).get("metrics", {}).get("gauges", {})
    maxrss_mb = gauges.get("matching.mass.load_maxrss_mb")
    subscriptions = gauges.get("matching.mass.subscriptions")
    if maxrss_mb is None or not subscriptions:
        print("no matching.mass.load_maxrss_mb gauge in %s" % args.artifact)
        return 1
    per_subscription_kb = maxrss_mb * 1024.0 / subscriptions
    print(
        "peak RSS after loading %d subscriptions: %.1f MB (%.2f KB a "
        "subscription, both engines)" % (subscriptions, maxrss_mb, per_subscription_kb)
    )
    if args.record:
        with open(args.record) as handle:
            record = json.load(handle)
        entry = record["mass_matching_100k"]
        entry["load_maxrss_mb"] = round(maxrss_mb, 1)
        entry["load_maxrss_kb_per_subscription"] = round(per_subscription_kb, 2)
        with open(args.record, "w") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
