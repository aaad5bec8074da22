#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload hot-1bit|cold-float \
        --seed N --seconds S --trace 0|1 [pinned settings]

Run from the repository root. The pinned settings are the ones
BENCHMARK.json's "command" carries; when a flag is missing, its value is
read from that command. The program is built from source into
.bench_build/ on first use. Each workload runs in its own process with a
scrubbed CYBERHD_* environment (only the pinned variables are set). The
program's output is passed through; its last line is the result JSON.
Exits non-zero when the build fails, the program fails, or an output
check fails.
"""
import argparse
import fcntl
import json
import os
import pathlib
import shlex
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "hdbench"
WORKLOADS = ("hot-1bit", "cold-float")
# Flags of the program a workload's pin string sets, by pin key; every
# workload pins all of them, plus threads=N.
PIN_FLAGS = {
    "rate_fps": "--rate-fps",
    "p99_limit_us": "--p99-limit-us",
    "window_flows": "--window-flows",
    "population": "--population",
    "fit_rows": "--fit-rows",
    "model_seed": "--model-seed",
    "accuracy_floor": "--accuracy-floor",
}
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Pinned settings (recorded in BENCHMARK.json's command).
    p.add_argument("--default-seed", type=int, default=None)
    p.add_argument("--linger-us", type=int, default=None)
    p.add_argument("--cache-rows", type=int, default=None)
    p.add_argument("--ring-slots", type=int, default=None)
    for w in WORKLOADS:
        p.add_argument("--" + w, dest="pin_" + w.replace("-", "_"),
                       default=None, metavar="KEY=VALUE,...")
    return p.parse_args(argv)


def fill_from_benchmark_json(args):
    """Take every pinned setting the caller did not pass from BENCHMARK.json."""
    missing = [k for k, v in vars(args).items()
               if v is None and k != "seed"]
    if not missing:
        return args
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pinned = parse_args(spec["command"][2:] + ["--workload", args.workload])
    for k in missing:
        setattr(args, k, getattr(pinned, k))
    return args


def workload_pins(args):
    """The workload's pin string as a dict (threads=2,rate_fps=... )."""
    raw = getattr(args, "pin_" + args.workload.replace("-", "_")) or ""
    pins = {}
    for item in filter(None, raw.split(",")):
        key, _, value = item.partition("=")
        pins[key.strip()] = value.strip()
    expected = set(PIN_FLAGS) | {"threads"}
    if set(pins) != expected:
        sys.exit("run.py: the %s pins must be exactly %s" %
                 (args.workload, ",".join(sorted(expected))))
    return pins


def build():
    """Configure once and build hdbench; build output goes to stderr."""
    BUILD_DIR.mkdir(exist_ok=True)
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        steps = []
        if not (BUILD_DIR / "build.ninja").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-G", "Ninja", "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", "4",
                      "--target", "hdbench"])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                sys.exit("run.py: build failed: " + shlex.join(cmd))


def main(argv):
    args = fill_from_benchmark_json(parse_args(argv))
    pins = workload_pins(args)
    seed = args.seed if args.seed is not None else args.default_seed
    build()

    env = {k: v for k, v in os.environ.items() if not k.startswith("CYBERHD_")}
    env["CYBERHD_THREADS"] = pins["threads"]
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--linger-us", str(args.linger_us),
           "--cache-rows", str(args.cache_rows),
           "--ring-slots", str(args.ring_slots)]
    for key, flag in PIN_FLAGS.items():
        cmd += [flag, pins[key]]
    if args.trace:
        cmd += ["--trace-out",
                str(BUILD_DIR / ("trace-%s.json" % args.workload))]
    print("run.py: " + " ".join(["CYBERHD_THREADS=" + pins["threads"]] + cmd),
          flush=True)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        partial = e.stdout or b""
        if isinstance(partial, bytes):
            partial = partial.decode(errors="replace")
        sys.stderr.write(partial)
        sys.exit("run.py: hdbench timed out after %d s" % CHILD_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        sys.exit("run.py: hdbench exited %d without a result" % proc.returncode)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result.get("correct") else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
