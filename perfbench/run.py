"""Repository benchmark: full Tagwatch cycles, timed end to end and per layer.

    python3 perfbench/run.py --workload steady-2k --seed 1 --seconds 20 --trace 0

Run from the repository root.  Builds perfbench/driver against ../src
(CMake, into $CARGO_TARGET_DIR or .bench_build), generates the workload's
inputs from the seed, runs the driver, checks its outputs, and prints
provenance and notes followed, as the last line, by one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.  Exits 1 when an output
check fails and 2 when the benchmark cannot build or run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in perfbench/

import gen_inputs  # noqa: E402
import metrics  # noqa: E402

BUILD_TYPE = "RelWithDebInfo"
DRIVER_TIMEOUT_S = 170
CONFIG_DEVIATION = ("charge_compute_time=false: host compute time stays off "
                    "the simulated clock, so a faster planner cannot change "
                    "any simulated reading and the sim record stays an "
                    "output check")


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no src/ next to perfbench/: run from a full checkout")
    # The compiler's temporary files stay inside the build directory too.
    env = dict(os.environ, TMPDIR=os.path.join(out_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
        steps.append(["cmake", "--build", out_dir, "--target",
                      "perfbench_driver", "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed: " + " ".join(cmd))
    return os.path.join(out_dir, "perfbench_driver")


def driver_cpu():
    """The one CPU the driver is pinned to: the last this process may use.

    The driver runs on one thread; pinning it keeps the scheduler from
    moving it between cores mid-cycle, which on a shared host widens the
    spread of every host-time metric.
    """
    return max(os.sched_getaffinity(0))


def provenance(driver_info, cpu):
    """Where a result came from: commit, source hash, build, ISA, CPUs."""
    try:
        git = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        describe = git.stdout.strip() if git.returncode == 0 else ""
    except (OSError, subprocess.TimeoutExpired):
        describe = ""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return {
        "git_describe": describe or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest()[:16],
        "build_type": driver_info["build_type"],
        "compiler": driver_info["compiler"],
        "isa_detected": driver_info["isa_detected"],
        "isa_active": driver_info["isa_active"],
        "nproc": os.cpu_count() or 1,
        "cpu_pinning": "driver pinned to cpu %d of %s" % (
            cpu, ",".join(map(str, sorted(os.sched_getaffinity(0))))),
        "threads": 1,
        "config_deviation": CONFIG_DEVIATION,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(gen_inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--keep", metavar="PATH",
                        help="also write the full result (metrics, notes, "
                             "provenance, digest) as JSON to PATH")
    args = parser.parse_args()

    out_dir = build_dir()
    driver = build(out_dir)
    run_dir = os.path.join(out_dir, "runs")
    os.makedirs(run_dir, exist_ok=True)
    stem = os.path.join(run_dir, "%s-%d-t%d" % (args.workload, args.seed,
                                                 args.trace))
    with open(stem + ".inputs", "w") as f:
        f.write(gen_inputs.generate(args.workload, args.seed))
    for stale in (stem + ".json", stem + ".json.spans.jsonl"):
        if os.path.exists(stale):
            os.remove(stale)

    cpu = driver_cpu()
    try:
        proc = subprocess.run(
            [driver, "--inputs", stem + ".inputs", "--seconds",
             str(args.seconds), "--trace", str(args.trace),
             "--out", stem + ".json"],
            timeout=DRIVER_TIMEOUT_S, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        die("driver timed out after %d s" % DRIVER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode not in (0, 1) or not os.path.exists(stem + ".json"):
        die("driver failed with exit code %d" % proc.returncode)
    with open(stem + ".json") as f:
        run = json.load(f)

    prov = provenance(run["provenance"], cpu)
    digests = sorted({r["digest"] for r in run["reps"]})
    if args.trace:
        values, notes = metrics.per_layer(run)
    else:
        values, notes = metrics.end_to_end(run)
    failures = run["failures"]
    attempted = sum(r["attempted"] for r in run["reps"])
    failed = sum(r["failed"] for r in run["reps"])
    result = {
        "correct": not failures and proc.returncode == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }

    print("provenance: " + json.dumps(prov, sort_keys=True))
    print("workload %s, seed %d, %d repetitions, digest %s"
          % (args.workload, args.seed, len(run["reps"]), ",".join(digests)))
    for note in notes:
        print(note)
    for failure in failures:
        print("CHECK FAILED: " + failure)
    if args.keep:
        with open(args.keep, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "repetitions": len(run["reps"]), "digest": digests,
                       "provenance": prov, "notes": notes, "result": result},
                      f, indent=1, sort_keys=True)
            f.write("\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
