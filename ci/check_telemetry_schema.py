#!/usr/bin/env python3
"""Validates the `telemetry` block a bench --json record ships.

Usage: check_telemetry_schema.py RECORD.json [--base session|server|none]
           [--require NAME ...]
       check_telemetry_schema.py --prometheus DUMP.txt [--require NAME ...]

--base picks which baseline metric set is demanded: "session" (default,
the core::Session surface every query runs through) or "server" (the
network serving tier, which runs its requests through one core::Session,
so it demands the session counters as well as the server.* surface).
--prometheus mode checks only --require names plus histogram
consistency.

Every bench record carries the global registry's DumpJson() under a
top-level "telemetry" key (bench_util.h appends it at flush time). This
checker pins that contract so the observability surface cannot silently
rot:

  * the block exists and has the five sections (counters, gauges,
    histograms, slow_queries, spans);
  * a baseline set of metric names every query-serving run must emit is
    present (session plan-cache counters, per-route counters/histograms);
  * additional required names can be demanded per bench with --require
    (e.g. the online bench must ship per-shard applier histograms). A
    trailing ".*" makes the requirement a prefix wildcard: --require
    'server.*' demands at least one metric under the server. namespace;
  * every histogram is internally consistent: non-negative count/sum,
    min <= p50 <= p95 <= p99 <= max, cumulative buckets monotone
    non-decreasing with strictly increasing finite `le` edges, and the
    terminal "+Inf" bucket equal to the total count.

With --prometheus the input is a /metrics scrape (text exposition
format) instead of a bench record: series names are collected from the
`# TYPE` lines, required names are matched after the registry's '.'→'_'
Prometheus translation, and histogram `_bucket` series are checked for
cumulative monotonicity.

Exit 1 on any violation; the offending record and reason are printed.
"""

import json
import sys

# Metrics any run that served at least one query must have registered,
# keyed by which front end drove the queries (--base). The session base
# is the default; the network server runs every request through one
# core::Session, so serving runs check the server surface on top of the
# Session's counters.
ROUTE_COUNTERS = [
    "query.route.relational",
    "query.route.graph",
    "query.route.dual",
    "query.route.view",
]
BASES = {
    "session": (
        ROUTE_COUNTERS + [
            "session.prepares",
            "session.cache_hits",
            "session.executions",
        ],
        ["session.prepare_us", "session.plan_us", "session.execute_us"],
    ),
    "server": (
        ROUTE_COUNTERS + [
            "server.connections.accepted",
            "server.requests.admitted",
            "server.requests.rejected",
            "server.responses",
            "server.batches",
            "session.prepares",
            "session.cache_hits",
            "session.executions",
        ],
        ["server.request_us", "server.batch_size", "session.execute_us"],
    ),
    "none": ([], []),
}


def fail(msg: str) -> int:
    print(f"telemetry schema: FAIL: {msg}")
    return 1


def check_histogram(name: str, h) -> list:
    errs = []
    for key in ("count", "sum", "min", "max", "p50", "p95", "p99",
                "buckets"):
        if key not in h:
            errs.append(f"histogram {name}: missing field '{key}'")
    if errs:
        return errs
    if h["count"] < 0 or h["sum"] < 0:
        errs.append(f"histogram {name}: negative count/sum")
    if h["count"] > 0:
        order = [h["min"], h["p50"], h["p95"], h["p99"], h["max"]]
        if any(a > b for a, b in zip(order, order[1:])):
            errs.append(
                f"histogram {name}: quantiles out of order: {order}")
    buckets = h["buckets"]
    if not buckets or buckets[-1].get("le") != "+Inf":
        errs.append(f"histogram {name}: missing terminal +Inf bucket")
        return errs
    prev_le = None
    prev_count = 0
    for b in buckets:
        le, cum = b.get("le"), b.get("count")
        if cum is None or cum < prev_count:
            errs.append(
                f"histogram {name}: cumulative counts not monotone at "
                f"le={le}")
            break
        prev_count = cum
        if le == "+Inf":
            continue
        if prev_le is not None and not le > prev_le:
            errs.append(
                f"histogram {name}: bucket edges not increasing at "
                f"le={le}")
            break
        prev_le = le
    if buckets[-1]["count"] != h["count"]:
        errs.append(
            f"histogram {name}: +Inf bucket {buckets[-1]['count']} != "
            f"count {h['count']}")
    return errs


def require_satisfied(req: str, known: set) -> bool:
    """Exact name, or prefix wildcard when `req` ends in '.*'."""
    if req.endswith(".*"):
        prefix = req[:-1]  # keep the trailing '.' of the namespace
        return any(name.startswith(prefix) for name in known)
    return req in known


def prom_name(name: str) -> str:
    """The registry's DumpText translation: '.' becomes '_'."""
    return name.replace(".", "_").replace("-", "_")


def check_prometheus(path: str, required: list) -> int:
    """Schema-checks a /metrics scrape (Prometheus text format)."""
    series = {}  # base series name -> declared type
    samples = {}  # full sample name -> list of (labels, value)
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if line.startswith("# TYPE "):
                parts = line.split()
                if len(parts) != 4:
                    return fail(f"{path}: malformed TYPE line: {line}")
                series[parts[2]] = parts[3]
                continue
            if line.startswith("#"):
                continue
            # `name{labels} value` or `name value`
            head, _, value = line.rpartition(" ")
            name, _, labels = head.partition("{")
            try:
                samples.setdefault(name, []).append(
                    (labels.rstrip("}"), float(value)))
            except ValueError:
                return fail(f"{path}: unparseable sample: {line}")

    if not series:
        return fail(f"{path}: no '# TYPE' lines — not a metrics dump?")

    errors = []
    for req in required:
        # Requirements are written in registry (dotted) form; a scrape
        # carries the Prometheus translation ('.' -> '_').
        if req.endswith(".*"):
            prefix = prom_name(req[:-2]) + "_"
            ok = any(n.startswith(prefix) for n in series)
        else:
            ok = prom_name(req) in series
        if not ok:
            errors.append(f"required series '{req}' absent")

    # Histograms: cumulative buckets must be monotone and end at +Inf ==
    # _count.
    for name, kind in sorted(series.items()):
        if kind != "histogram":
            continue
        buckets = samples.get(name + "_bucket", [])
        if not buckets:
            errors.append(f"histogram {name}: no _bucket samples")
            continue
        prev = 0.0
        saw_inf = False
        for labels, value in buckets:
            if value < prev:
                errors.append(
                    f"histogram {name}: cumulative bucket decreases at "
                    f"{labels}")
                break
            prev = value
            saw_inf = saw_inf or 'le="+Inf"' in labels
        if not saw_inf:
            errors.append(f"histogram {name}: missing +Inf bucket")
        count = samples.get(name + "_count")
        if count and buckets and count[0][1] != buckets[-1][1]:
            errors.append(
                f"histogram {name}: +Inf bucket {buckets[-1][1]} != "
                f"_count {count[0][1]}")

    if errors:
        for e in errors:
            print(f"telemetry schema: FAIL: {path}: {e}")
        return 1
    print(f"telemetry schema: OK: {path}: {len(series)} prometheus series")
    return 0


def main() -> int:
    argv = sys.argv[1:]
    if not argv:
        print(__doc__)
        return 2
    prometheus = False
    path = None
    required = []
    base = "session"
    it = iter(argv)
    for arg in it:
        if arg == "--require":
            name = next(it, None)
            if name is None:
                print("--require needs a metric name")
                return 2
            required.append(name)
        elif arg == "--base":
            base = next(it, None)
            if base not in BASES:
                print(f"--base must be one of {sorted(BASES)}")
                return 2
        elif arg == "--prometheus":
            prometheus = True
        elif path is None:
            path = arg
        else:
            print(f"unknown argument {arg}")
            return 2
    if path is None:
        print("no input file")
        return 2
    base_counters, base_histograms = BASES[base]

    if prometheus:
        return check_prometheus(path, required)

    with open(path) as f:
        record = json.load(f)

    telem = record.get("telemetry")
    if telem is None:
        return fail(f"{path}: no top-level 'telemetry' block")
    for section in ("counters", "gauges", "histograms", "slow_queries",
                    "spans"):
        if section not in telem:
            return fail(f"{path}: telemetry block missing '{section}'")

    known = (set(telem["counters"]) | set(telem["gauges"])
             | set(telem["histograms"]))
    errors = []
    for name in base_counters:
        if name not in telem["counters"]:
            errors.append(f"required counter '{name}' absent")
    for name in base_histograms + required:
        if not require_satisfied(name, known):
            errors.append(f"required metric '{name}' absent")

    for name, h in sorted(telem["histograms"].items()):
        errors.extend(check_histogram(name, h))

    if errors:
        for e in errors:
            print(f"telemetry schema: FAIL: {path}: {e}")
        return 1
    print(f"telemetry schema: OK: {path}: "
          f"{len(telem['counters'])} counters, {len(telem['gauges'])} "
          f"gauges, {len(telem['histograms'])} histograms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
