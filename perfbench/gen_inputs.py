"""Seeded input generator for the perfbench workloads.

Builds each workload's scene (tags, antennas, reader zones) and, for the
fleet, the conveyor arrival schedule, from a seed alone, and writes them
in the text format perfbench/driver/inputs.cpp parses.  The driver draws
nothing itself, so the same seed always gives the same inputs.

    python3 perfbench/gen_inputs.py --workload steady-2k --seed 1 --out in.txt
"""

import argparse
import math
import random

TWO_PI = 2.0 * math.pi

# Single-reader testbed of bench/bench_common.hpp: 4 antennas at
# (+-5 m, +-5 m), statics uniform over a 6 m square, movers on a 20 cm
# turntable at 0.7 m/s.
TESTBED_ANTENNAS = [(1, -5.0, -5.0), (2, 5.0, -5.0), (3, -5.0, 5.0), (4, 5.0, 5.0)]

WORKLOADS = {
    "steady-2k": {
        "why": "Planner cost and per-execute overhead: timed from the first "
               "selective cycle, with dozens of small filtered Phase-II "
               "executes per cycle.",
        "kind": "testbed", "tags": 2000, "movers": 100,
        "timed_from": "selective", "timed_cycles": 32, "max_warmup_cycles": 30,
        "repetitions": 2,
    },
    "coldstart-8k": {
        "why": "The Gen2 workload: untrained models keep every cycle in "
               "read-all, the planner never runs, and nearly all host time "
               "is inside execute.",
        "kind": "testbed", "tags": 8000, "movers": 400,
        "timed_from": "first", "timed_cycles": 2, "max_warmup_cycles": 0,
        "repetitions": 5,
    },
    "conveyor-fleet": {
        "why": "FleetController over 4 churning zones: planner deltas, fresh "
               "models, flag-field and ledger remaps every cycle, dedup, "
               "handoffs and journal growth.",
        "kind": "fleet", "readers": 4, "pitch_m": 4.0, "zone_radius_m": 3.0,
        "rack_tags_per_zone": 1000, "arrivals_per_s": 4.0, "belt_mps": 0.5,
        "timed_from": "selective", "timed_cycles": 30, "max_warmup_cycles": 10,
        # Fleet cycle times follow the host's speed most closely, so a run
        # pools four repetitions.
        "repetitions": 4,
        # Fleet cycles last 32-37 simulated seconds; the schedule covers
        # every cycle the driver may run with room to spare.
        "horizon_s": 45.0 * (10 + 30),
    },
}


def epc_source(rng):
    """Distinct random 96-bit EPCs, as uppercase hex."""
    seen = set()

    def draw():
        while True:
            epc = "%024X" % rng.getrandbits(96)
            if epc not in seen:
                seen.add(epc)
                return epc
    return draw


def testbed_lines(spec, rng):
    epc = epc_source(rng)
    lines = ["reader_seed %d" % rng.getrandbits(63)]
    for aid, x, y in TESTBED_ANTENNAS:
        lines.append("antenna %d %r %r 0 8" % (aid, x, y))
    for i in range(spec["tags"]):
        tag_phase = rng.uniform(0.0, TWO_PI)
        if i < spec["movers"]:
            lines.append("turntable %s 0.5 0.5 0 0.2 0.7 %r %r"
                         % (epc(), rng.uniform(0.0, TWO_PI), tag_phase))
        else:
            lines.append("static %s %r %r 0 %r"
                         % (epc(), rng.uniform(-3, 3), rng.uniform(-3, 3),
                            tag_phase))
    return lines


def fleet_lines(spec, rng):
    epc = epc_source(rng)
    pitch = spec["pitch_m"]
    lines = []
    for r in range(spec["readers"]):
        cx = r * pitch
        lines.append("reader zone-%d %r 0 %r %r 0 2 8 %d"
                     % (r, cx, spec["zone_radius_m"], cx, rng.getrandbits(63)))
    # Static racks around each zone center; the outer rows sit inside the
    # neighbouring zone too, so seams see cross-reader duplicates.
    for r in range(spec["readers"]):
        cx = r * pitch
        for _ in range(spec["rack_tags_per_zone"]):
            lines.append("static %s %r %r 0 %r"
                         % (epc(), cx + rng.uniform(-1.5, 1.5),
                            rng.uniform(-1.5, 1.5), rng.uniform(0.0, TWO_PI)))
    # Poisson parcel arrivals on a belt running the whole strip.  The
    # schedule starts one traversal before t = 0, so the belt is already
    # full when the first cycle runs.
    x0 = -spec["zone_radius_m"] - 0.5
    travel = (spec["readers"] - 1) * pitch + 2 * (spec["zone_radius_m"] + 0.5)
    t = -travel / spec["belt_mps"]
    while t < spec["horizon_s"]:
        t += rng.expovariate(spec["arrivals_per_s"])
        lines.append("parcel %s %r %r %r 0.5 %r 0 0 %r %r"
                     % (epc(), t, x0, rng.uniform(-0.4, 0.4),
                        spec["belt_mps"], travel, rng.uniform(0.0, TWO_PI)))
    return lines


def generate(workload, seed):
    """The inputs file for `workload` under `seed`, as a string."""
    spec = WORKLOADS[workload]
    rng = random.Random("%s/%d" % (workload, seed))
    lines = ["# perfbench inputs: workload %s, seed %d" % (workload, seed),
             "workload " + workload,
             "fleet %d" % (spec["kind"] == "fleet"),
             "timed_from " + spec["timed_from"],
             "timed_cycles %d" % spec["timed_cycles"],
             "repetitions %d" % spec["repetitions"],
             "max_warmup_cycles %d" % spec["max_warmup_cycles"]]
    if spec["kind"] == "fleet":
        lines += fleet_lines(spec, rng)
    else:
        lines += testbed_lines(spec, rng)
    lines.append("end")
    return "\n".join(lines) + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(args.out, "w") as f:
        f.write(generate(args.workload, args.seed))


if __name__ == "__main__":
    main()
