#!/usr/bin/env python3
"""End-to-end SPARQL-endpoint benchmark: one command per workload run.

    python3 e2ebench/run.py --workload lubm-stream --seed 1 --seconds 20 --trace 0

Builds e2ebench/ (CMake, Release) into $CARGO_TARGET_DIR or .bench_build,
generates the workload's inputs from the seed, runs e2e_bench against them
and prints, as the last line of standard output, one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics. Exits
non-zero if the build or the run fails or any response was wrong.

    python3 e2ebench/run.py steady --workload live-rw --runs 10 --seconds 20

repeats a workload on consecutive seeds and prints each end-to-end metric's
median, quartiles and (q3 - q1) / median against its bound; see
e2ebench/README.md.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "e2ebench")
RUN_TIMEOUT_S = 170  # generate + run, inside the 180 s a run may take


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))


def build():
    """Configures and builds e2e_bench; returns the binary's path."""
    out = os.path.join(build_dir(), "e2ebench")
    tmp = os.path.join(build_dir(), "tmp")  # compiler temporaries stay in the tree
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", out, "-j", str(os.cpu_count() or 2), "--target", "e2e_bench"],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(out, "e2e_bench")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(binary, workload, seed, seconds, trace, quiet=False):
    """One generate + run; returns (exit code, BenchReport dict or None)."""
    data = os.path.join(build_dir(), "data")
    os.makedirs(data, exist_ok=True)
    report_path = os.path.join(data, "%s-%d-trace%d.json" % (workload, seed, trace))
    common = ["--workload", workload, "--seed", str(seed), "--dir", data]
    env = dict(os.environ, BENCH_JSON=report_path)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        subprocess.run([binary, "generate"] + common, check=True, timeout=RUN_TIMEOUT_S)
        # Flush the fresh inputs so their writeback does not overlap the timed run.
        for name in os.listdir(data):
            if name.startswith("%s-%d." % (workload, seed)):
                fd = os.open(os.path.join(data, name), os.O_RDONLY)
                os.fsync(fd)
                os.close(fd)
        if os.path.exists(report_path):
            os.remove(report_path)
        code = subprocess.run([binary, "run"] + common +
                              ["--seconds", str(seconds), "--trace", str(trace)],
                              env=env, stdout=subprocess.DEVNULL if quiet else None,
                              timeout=max(1.0, deadline - time.monotonic())).returncode
    finally:
        # Inputs are regenerated from the seed on every run; keep the tree small.
        for name in os.listdir(data):
            if name.startswith("%s-%d." % (workload, seed)):
                os.remove(os.path.join(data, name))
    sys.stdout.flush()
    if not os.path.exists(report_path):
        return code, None
    with open(report_path) as f:
        return code, json.load(f)


def result_line(report, metric_specs):
    """The contract's last line from a BenchReport."""
    groups = {r["name"]: r["metrics"] for r in report["results"]}
    found = dict(groups.get("end_to_end", {}), **groups.get("per_layer", {}))
    metrics = {}
    for m in metric_specs:
        if m["name"] not in found:
            raise KeyError("metric %s missing from the report" % m["name"])
        metrics[m["name"]] = {"value": found[m["name"]], "unit": m["unit"]}
    check = groups["check"]
    failed = int(check["failed"])
    return {"correct": failed == 0, "attempted": int(check["attempted"]), "failed": failed,
            "metrics": metrics}


def cmd_run(args):
    s = spec()
    binary = build()
    code, report = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    if report is None:
        log("run.py: e2e_bench produced no report (exit %d)" % code)
        return 1
    line = result_line(report, s["per_layer"] if args.trace else s["end_to_end"])
    print(json.dumps(line))
    return 0 if code == 0 and line["correct"] else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_steady(args):
    """Repeats a workload and reports each end-to-end metric's spread."""
    s = spec()
    binary = build()
    bounds = {m["name"]: m for m in s["end_to_end"]}
    seeds = [int(x) for x in args.seeds.split(",")] if args.seeds else \
        list(range(args.first_seed, args.first_seed + args.runs))
    values = {name: [] for name in bounds}
    failed = 0
    for seed in seeds:
        code, report = run_once(binary, args.workload, seed, args.seconds, 0, quiet=True)
        if report is None or code != 0:
            log("run.py: seed %d failed (exit %d)" % (seed, code))
            return 1
        line = result_line(report, s["end_to_end"])
        failed += line["failed"]
        for name, m in line["metrics"].items():
            values[name].append(m["value"])
        log("seed %d: %s steal=%s%%" % (seed, " ".join("%s=%.4g" % (k, v["value"])
                                                       for k, v in line["metrics"].items()),
                                        report["config"].get("cpu_steal_pct", "?")))
    against = {}
    if args.against:
        with open(args.against) as f:
            against = json.load(f)["metrics"]
    ok = failed == 0
    print("%s: %d runs, seeds %s, %d wrong responses" % (args.workload, len(seeds), seeds, failed))
    print("%-16s %12s %12s %12s %8s %7s %s" % ("metric", "q1", "median", "q3", "spread", "bound",
                                              "verdict"))
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]["bound"]
        verdict = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        if name == "setup_s":
            verdict = "n/a (spread not gated)"
        elif spread > bound:
            ok = False
        if name in against:
            prev = against[name]["median"]
            worse = (med - prev) / prev if bounds[name]["better"] == "lower" else (prev - med) / prev
            verdict += "; vs first set %+.3f" % worse
            if worse > bound:
                verdict += " WORSE THAN BOUND"
                ok = False
        summary[name] = {"q1": q1, "median": med, "q3": q3, "spread": spread, "values": vals}
        print("%-16s %12.5g %12.5g %12.5g %8.4f %7.3f %s" % (name, q1, med, q3, spread, bound,
                                                            verdict))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seeds": seeds, "failed": failed,
                       "metrics": summary}, f, indent=1)
    return 0 if ok else 1


def main():
    argv = sys.argv[1:]
    steady = bool(argv) and argv[0] == "steady"
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seconds", type=int, default=None)
    if steady:
        argv = argv[1:]
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--first-seed", type=int, default=1)
        p.add_argument("--seeds", help="comma-separated seeds (overrides --runs/--first-seed)")
        p.add_argument("--against", help="a previous --out file: gate median shifts on the bounds")
        p.add_argument("--out", help="write medians and quartiles here (JSON)")
    else:
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    try:
        return cmd_steady(args) if steady else cmd_run(args)
    except (OSError, subprocess.SubprocessError, KeyError, ValueError) as e:
        log("run.py: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
