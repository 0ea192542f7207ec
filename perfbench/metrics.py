"""Turns the driver's raw per-cycle records into the benchmark's metrics.

The driver (perfbench/driver) writes one record per cycle of every
repetition; this module pools the timed cycles and derives the
end-to-end metrics (untraced runs) and the per-layer metrics (traced
runs) that BENCHMARK.json names.
"""

import statistics

# Sink names of the controller pipeline, and where the fleet keeps its
# application sink and its per-reader tap.
PIPELINE_SINKS = ("assessor", "history", "app")
FLEET_APP = "fleet.app"
FLEET_TAP = "fleet-tap"
CLASSES = ("phase1", "phase2_select", "phase2_all")


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count).  Sorted ascending, the
    sample at 0-based rank n - 11 has exactly ten samples above it, so it
    sits at percentile 100 * (n - 10) / n.  Below 21 samples that rank
    falls under the median and would measure the fast side, so the
    maximum is returned instead, as percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of no samples")
    if n < 21:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def tail_note(metric, samples, value):
    _, pct, n = value
    if n < 21:
        return "%s is the maximum of %d %s (fewer than 21)" % (metric, n, samples)
    return "%s is p%.1f of %d %s" % (metric, pct, n, samples)


def _timed(reps):
    return [c for r in reps for c in r["cycles"] if c["timed"]]


def _ratio(num, den):
    return num / den if den else 0.0


def overhead_ratios(reps):
    """Traced over untraced median cycle time, one ratio per pair.

    The driver runs untraced/traced pairs and swaps their order from one
    pair to the next, so run order does not bias the median ratio.
    """
    ratios = []
    for i in range(0, len(reps) - 1, 2):
        p50 = {r["traced"]: statistics.median(c["host_ms"] for c in _timed([r]))
               for r in reps[i:i + 2]}
        ratios.append(p50[True] / p50[False])
    return ratios


def end_to_end(run):
    """End-to-end metrics of an untraced run, plus notes to print."""
    reps = [r for r in run["reps"] if not r["traced"]]
    timed = _timed(reps)
    host_ms = [c["host_ms"] for c in timed]
    gaps = [g[0] for c in timed for g in c["readers"] if g[0] >= 0]
    cycle_tail = tail(host_ms)
    gap_tail = tail(gaps)

    # The simulated record repeats exactly across repetitions (the driver
    # checks the digest), so the sim metrics come from the first one.
    first = reps[0]["cycles"]
    first_timed = [c for c in first if c["timed"]]
    irr = _ratio(sum(c["irr_sel_reads"] + c["irr_all_reads"] for c in first_timed),
                 sum(c["irr_sel_tag_s"] + c["irr_all_tag_s"] for c in first_timed))
    sel = _ratio(sum(c["irr_sel_reads"] for c in first),
                 sum(c["irr_sel_tag_s"] for c in first))
    ra = _ratio(sum(c["irr_all_reads"] for c in first),
                sum(c["irr_all_tag_s"] for c in first))
    gain = sel / ra if sel > 0 and ra > 0 else 1.0

    metrics = {
        "sim_rate": (sum(c["sim_s"] for c in timed) /
                     (sum(host_ms) / 1e3), "sim_s/s"),
        "cycle_host_ms.p50": (statistics.median(host_ms), "ms"),
        "cycle_host_ms.tail": (cycle_tail[0], "ms"),
        "interphase_host_ms.p50": (statistics.median(gaps), "ms"),
        "interphase_host_ms.tail": (gap_tail[0], "ms"),
        "middleware_host_ms": (statistics.median(
            c["host_ms"] - c["exec_ms"] for c in timed), "ms"),
        "mover_irr_hz": (irr, "Hz"),
        "mover_irr_gain": (gain, "ratio"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
    }
    notes = [
        "timed from cycle %d, %d timed cycles per repetition"
        % (reps[0]["warmup_cycles"], len(first_timed)),
        tail_note("cycle_host_ms.tail", "timed cycles", cycle_tail),
        tail_note("interphase_host_ms.tail", "reader cycles", gap_tail),
        "mover IRR: selective %.4f Hz, read-all %.4f Hz" % (sel, ra),
    ]
    if not (sel > 0 and ra > 0):
        notes.append("mover_irr_gain reported as 1.0: the run has no %s cycles"
                     % ("selective" if sel == 0 else "read-all"))
    return metrics, notes


def per_layer(run):
    """Per-layer metrics of a traced run, plus notes to print."""
    traced = [r for r in run["reps"] if r["traced"]]
    timed = _timed(traced)
    n = len(timed)
    fleet = run["fleet"]

    def per_cycle(total):
        return total / n

    def sink(name, field):
        return sum(c["sinks"].get(name, [0, 0, 0, 0])[field] for c in timed)

    m = {}
    for k, cls in enumerate(CLASSES):
        m["gen2.host_s." + cls] = (per_cycle(sum(c["class_s"][k] for c in timed)),
                                   "s/cycle")
        m["gen2.calls." + cls] = (per_cycle(sum(c["class_calls"][k] for c in timed)),
                                  "count/cycle")
    slots = sum(c["slots"] for c in timed)
    exec_ms = sum(c["exec_ms"] for c in timed)
    executes = sum(c["executes"] for c in timed)
    m["gen2.slots"] = (per_cycle(slots), "count/cycle")
    m["gen2.success_ratio"] = (_ratio(sum(c["success"] for c in timed), slots),
                               "ratio")
    m["gen2.collision_ratio"] = (_ratio(sum(c["collisions"] for c in timed),
                                        slots), "ratio")
    m["gen2.readings"] = (per_cycle(sum(c["readings"] for c in timed)),
                          "count/cycle")
    m["gen2.host_ns_per_slot"] = (_ratio(exec_ms * 1e6, slots), "ns")
    m["llrp.executes_per_cycle"] = (per_cycle(executes), "count")
    m["llrp.host_us_per_execute"] = (_ratio(exec_ms * 1e3, executes), "us")

    for s in PIPELINE_SINKS:
        name = FLEET_APP if (fleet and s == "app") else s
        m["core.pipeline.%s.host_s" % s] = (per_cycle(sink(name, 0)), "s/cycle")
        for i, field in enumerate(("delivered", "dropped", "exceptions"), 1):
            m["core.pipeline.%s.%s" % (s, field)] = (per_cycle(sink(name, i)),
                                                      "count/cycle")

    rows = [g for c in timed for g in c["readers"]]
    planned = [g for g in rows if g[2] >= 0]
    m["core.planner.host_ms.p50"] = (
        statistics.median(g[2] for g in planned) if planned else 0.0, "ms")
    m["core.planner.candidates"] = (
        _ratio(sum(c["candidates"] for c in timed), len(planned)), "count")
    m["core.planner.selections"] = (
        _ratio(sum(c["selections"] for c in timed), len(planned)), "count")
    m["core.planner.target_fraction"] = (
        _ratio(sum(c["targets"] for c in timed), sum(c["scene"] for c in timed)),
        "ratio")
    # Assessor self time: the inter-phase gap minus the planner replay and
    # the sink dispatch that happened inside the gap.
    self_ms = [g[0] - max(g[2], 0.0) - g[1] for g in rows if g[0] >= 0]
    m["core.assessor.self_ms.p50"] = (statistics.median(self_ms), "ms")
    m["core.assessor.mobile"] = (per_cycle(sum(c["mobile"] for c in timed)),
                                 "count/cycle")

    if fleet:
        ctrl_sinks = [sum(v[0] for k, v in c["sinks"].items()
                          if not k.startswith("fleet.")) for c in timed]
        fleet_self = [c["host_ms"] - c["exec_ms"]
                      - sum(g[0] for g in c["readers"] if g[0] >= 0)
                      - (ctrl * 1e3 - sum(g[1] for g in c["readers"]))
                      for c, ctrl in zip(timed, ctrl_sinks)]
        m["core.fleet.tap.host_s"] = (per_cycle(sink(FLEET_TAP, 0)), "s/cycle")
        m["core.fleet.self_host_ms"] = (statistics.median(fleet_self), "ms")
        m["core.fleet.dup_ratio"] = (
            _ratio(sum(c["fleet_duplicates"] for c in timed),
                   sum(c["fleet_readings"] for c in timed)), "ratio")
        m["core.fleet.handoffs"] = (per_cycle(sum(c["handoffs"] for c in timed)),
                                    "count/cycle")
        m["core.fleet.journal_records"] = (
            statistics.median(r["journal_records"] for r in traced), "count")
    else:
        for name, unit in (("tap.host_s", "s/cycle"), ("self_host_ms", "ms"),
                           ("dup_ratio", "ratio"), ("handoffs", "count/cycle"),
                           ("journal_records", "count")):
            m["core.fleet." + name] = (0.0, unit)

    for name in ("live_tags", "arrivals", "departures"):
        key = "sim.live_tags" if name == "live_tags" else "sim.%s_per_cycle" % name
        m[key] = (per_cycle(sum(c[name] for c in timed)), "count")

    ratios = overhead_ratios(run["reps"])
    m["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    notes = ["tracing overhead: traced/untraced cycle_host_ms.p50, median of "
             "%d order-swapped pairs %.3f (pairs: %s)"
             % (len(ratios), statistics.median(ratios),
                ", ".join("%.3f" % x for x in ratios))]
    return m, notes
