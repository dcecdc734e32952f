#!/usr/bin/env python3
"""Validate the metrics JSON emitted by the `telemetry_smoke` binary.

The CI telemetry lane runs a tiny real workload and dumps the unified
registry snapshot; this script asserts the document is well-formed JSON
with the instruments the runtime promises to keep populated:

* the per-node counter sets every layer keeps as registry handles
  (`net.*`, `group.node*.*`, `rts.node*.*`), not all zero, and every field
  of `RtsStatsSnapshot` as `rts.node<i>.<field>` for each node of the run
  (the nodes with `net.node<i>.*` rows);
* the always-on latency histograms of the invocation paths
  (`rts.invoke.sync_ns`, `rts.pipeline.queue_ns`,
  `rts.pipeline.service_ns`), each non-empty with internally consistent
  percentile ranks (count > 0, p50 <= p90 <= p99 <= p999);
* the read-lease protocol counters (`rts.lease.*`): all four present,
  with grants and zero-message local reads actually recorded by the
  smoke workload's leased primary-copy phase;
* the replicated-write counters (`rts.update.*`): all three present and
  non-zero — that phase pushes one write to two copy holders (two pushes
  and a one-way unlock: the last holder pushed to is never locked) and
  writes one through a holder's own copy (an install from the reply);
* the RPC layer's thread census (`amoeba.rpc.*`): requests served, worker
  threads started, mailboxes retired and the per-node gauges of workers
  alive. Services keep their workers, so a few hundred requests must have
  cost a handful of threads — `workers_spawned` at least 1 and at most a
  tenth of `requests` — every worker started must still be alive in the
  gauges, and the happy-path run must have retired no mailbox;
* the adaptive runtime's placement counters: `rts.adaptive.replacements`
  (switches that kept the regime and moved what it places by use — a
  sharded regime's partitions, a replicated regime's owner or mirrors)
  must exist, and — every re-placement being a regime switch — must not
  exceed the `rts.node*.regime_switches` summed over the nodes, which the
  smoke workload's adaptive phase (a written table, a mostly-read counter)
  makes non-zero.

Usage: check_telemetry.py <snapshot.json>
"""

import json
import sys

REQUIRED_HISTOGRAMS = [
    "rts.invoke.sync_ns",
    "rts.pipeline.queue_ns",
    "rts.pipeline.service_ns",
]

COUNTER_PREFIXES = ["net.", "group.node", "rts.node"]

# The fields of `RtsStatsSnapshot` (crates/rts/src/stats.rs), each published
# as `rts.node<i>.<field>`.
RTS_FIELDS = [
    "local_reads",
    "remote_reads",
    "writes",
    "broadcast_writes",
    "remote_writes",
    "updates_applied",
    "invalidations_received",
    "copies_fetched",
    "copies_dropped",
    "guard_retries",
    "objects_created",
    "regime_switches",
    "batches_sent",
    "ops_batched",
    "batch_ops_applied",
]

# Read-lease protocol counters: the smoke workload's leased primary-copy
# phase must grant leases and serve local reads under them; renewals and
# revokes only need to exist (the happy-path smoke run revokes nothing).
LEASE_COUNTERS = [
    "rts.lease.grants",
    "rts.lease.renewals",
    "rts.lease.revokes",
    "rts.lease.local_reads",
]
LEASE_NONZERO = ["rts.lease.grants", "rts.lease.local_reads"]

# Where a replicated write's messages went. `reply_installs` is the one
# that proves the write-through path ran: a writer holding a copy updated
# it from its own write's acknowledgement instead of being pushed to.
UPDATE_COUNTERS = [
    "rts.update.pushes",
    "rts.update.unlock_notifies",
    "rts.update.reply_installs",
]

# The RPC thread census.
RPC_REQUESTS = "amoeba.rpc.requests"
RPC_WORKERS_SPAWNED = "amoeba.rpc.workers_spawned"
RPC_MAILBOXES_RETIRED = "amoeba.rpc.mailboxes_retired"
RPC_WORKER_GAUGE = ("amoeba.rpc.node", ".workers")

# Adaptive placement: re-placements are a subset of the regime switches.
REPLACEMENTS = "rts.adaptive.replacements"
REGIME_SWITCHES = ("rts.node", ".regime_switches")


def fail(message):
    print(f"check_telemetry: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 2:
        fail(f"usage: {sys.argv[0]} <snapshot.json>")
    path = sys.argv[1]
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"{path}: {err}")

    for section in ("counters", "gauges", "histograms"):
        if not isinstance(doc.get(section), dict):
            fail(f"{path}: missing or malformed section {section!r}")

    counters = doc["counters"]
    for prefix in COUNTER_PREFIXES:
        matching = [k for k in counters if k.startswith(prefix)]
        if not matching:
            fail(f"no counters with prefix {prefix!r} (got {sorted(counters)})")
        if all(counters[k] == 0 for k in matching):
            fail(f"all {prefix!r} counters are zero: nothing recorded")
    nodes = {k.split(".")[1] for k in counters if k.startswith("net.node")}
    for node in sorted(nodes):
        for field in RTS_FIELDS:
            if f"rts.{node}.{field}" not in counters:
                fail(f"counter 'rts.{node}.{field}' missing (got {sorted(counters)})")

    for name in LEASE_COUNTERS:
        if name not in counters:
            fail(f"lease counter {name!r} missing (got {sorted(counters)})")
    for name in LEASE_NONZERO:
        if counters[name] == 0:
            fail(f"lease counter {name!r} is zero: the leased phase never ran")

    for name in UPDATE_COUNTERS:
        if name not in counters:
            fail(f"update counter {name!r} missing (got {sorted(counters)})")
        if counters[name] == 0:
            fail(f"update counter {name!r} is zero: no write took that path")

    for name in (RPC_REQUESTS, RPC_WORKERS_SPAWNED, RPC_MAILBOXES_RETIRED):
        if name not in counters:
            fail(f"rpc counter {name!r} missing (got {sorted(counters)})")
    requests = counters[RPC_REQUESTS]
    spawned = counters[RPC_WORKERS_SPAWNED]
    if spawned < 1:
        fail("no rpc worker was ever started, yet requests were served")
    if spawned * 10 > requests:
        fail(
            f"{spawned} rpc workers for {requests} requests: "
            "a request must not cost a thread"
        )
    if counters[RPC_MAILBOXES_RETIRED] != 0:
        fail("a reply mailbox was retired: some call ended without its reply")
    prefix, suffix = RPC_WORKER_GAUGE
    alive = {
        k: v
        for k, v in doc["gauges"].items()
        if k.startswith(prefix) and k.endswith(suffix)
    }
    if not alive:
        fail(f"no {prefix}N{suffix} gauge (got {sorted(doc['gauges'])})")
    if sum(alive.values()) != spawned:
        fail(f"rpc workers alive {alive} do not add up to the {spawned} started")

    if REPLACEMENTS not in counters:
        fail(f"counter {REPLACEMENTS!r} missing (got {sorted(counters)})")
    prefix, suffix = REGIME_SWITCHES
    switches = sum(
        v for k, v in counters.items() if k.startswith(prefix) and k.endswith(suffix)
    )
    if switches == 0:
        fail("no regime switch recorded: the adaptive phase never adapted")
    if counters[REPLACEMENTS] > switches:
        fail(
            f"{counters[REPLACEMENTS]} re-placements but only {switches} regime "
            "switches: every re-placement is a switch"
        )

    hists = doc["histograms"]
    for name in REQUIRED_HISTOGRAMS:
        hist = hists.get(name)
        if hist is None:
            fail(f"histogram {name!r} missing (got {sorted(hists)})")
        for field in ("count", "sum", "max", "mean", "p50", "p90", "p99", "p999"):
            if field not in hist:
                fail(f"histogram {name!r} lacks field {field!r}")
        if hist["count"] <= 0:
            fail(f"histogram {name!r} recorded nothing")
        ranks = [hist["p50"], hist["p90"], hist["p99"], hist["p999"]]
        if ranks != sorted(ranks):
            fail(f"histogram {name!r} percentile ranks not monotone: {ranks}")

    print(
        f"check_telemetry: OK: {len(counters)} counters, "
        f"{len(doc['gauges'])} gauges, {len(hists)} histograms, "
        f"required histograms populated"
    )


if __name__ == "__main__":
    main()
