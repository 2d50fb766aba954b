#!/usr/bin/env python3
"""The repository benchmark: builds ccpr_perfbench and runs one workload.

    python3 perfbench/run.py --workload read_mostly --seed 1 --seconds 30 --trace 0

Run from the repository root. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line before
it ("# run-info ...") carries the host fingerprint, seed and op-stream hash.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Any correctness violation prints
correct=false and exits 1.

Two helper modes:
    --steady --workload W --runs K   run W K times (seeds 1..K) and print
                                     median, quartiles and spread vs bound
    --self-test                      tiny runs of every workload: every
                                     metric printed with its unit, and an
                                     injected corrupt read is caught;
                                     metric_map.json matches BENCHMARK.json
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then an incremental build; output goes to stderr."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", out,
                            f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    r = subprocess.run(["cmake", "--build", out, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        return None
    return os.path.join(out, "ccpr_perfbench")


def source_digest():
    h = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.[ch]pp"),
                             recursive=True))
    files += sorted(glob.glob(os.path.join(HERE, "src", "*.[ch]pp")))
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "kernel": platform.release(),
        "build_type": BUILD_TYPE,
        "git_sha": sha,
        "source_digest": source_digest(),
    }


def cpu_times():
    """(steal, total) jiffies of the whole VM from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def run_once(binary, workload, seed, seconds, trace, extra=()):
    """One run of the binary; returns (exit code, parsed JSON or None)."""
    steal0, total0 = cpu_times()
    work = os.path.join(build_dir(), f"work-{os.getpid()}-{seed}")
    cmd = [binary, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}", f"--work-dir={work}",
           *extra]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed} timed out")
        return 1, None
    finally:
        # Traced runs leave their client spans behind; keep them beside the
        # build, drop the rest of the scratch directory.
        spans = os.path.join(work, "client_spans.bin")
        if os.path.exists(spans):
            os.replace(spans, os.path.join(build_dir(), f"spans-{workload}-{seed}.bin"))
        shutil.rmtree(work, ignore_errors=True)
    lines = [l for l in r.stdout.splitlines() if l.startswith("{")]
    if not lines:
        return r.returncode or 1, None
    res = json.loads(lines[-1])
    # CPU time the hypervisor gave to other guests during the run: a run
    # with a large share measured the host, not the program.
    steal1, total1 = cpu_times()
    res.setdefault("info", {})["host_steal_pct"] = (
        100.0 * (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0)
    return r.returncode, res


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_metrics(result, spec, trace):
    """Names and units exactly as BENCHMARK.json lists them."""
    want = expected_metrics(spec, trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    return got == want


def main_run(args):
    spec = load_spec()
    binary = build()
    if binary is None:
        log("build failed")
        return 1
    code, res = run_once(binary, args.workload, args.seed, args.seconds,
                         args.trace)
    if res is None:
        log("the run produced no result")
        return 1
    info = dict(res.get("info", {}))
    info["host"] = fingerprint()
    print("# run-info " + json.dumps(info, sort_keys=True))
    correct = bool(res["correct"]) and check_metrics(res, spec, args.trace)
    for v in info.get("violations", []):
        log(f"violation: {v}")
    out = {"correct": correct, "attempted": int(res["attempted"]),
           "failed": int(res["failed"]), "metrics": res["metrics"]}
    print(json.dumps(out), flush=True)
    return 0 if correct and code == 0 else 1


def main_steady(args):
    spec = load_spec()
    binary = build()
    if binary is None:
        return 1
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in range(args.seed, args.seed + args.runs):
        code, res = run_once(binary, args.workload, seed, args.seconds,
                             args.trace)
        if res is None or code != 0 or not res["correct"]:
            log(f"seed {seed}: run failed ({code})")
            return 1
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        log(f"seed {seed}: steal {res['info']['host_steal_pct']:.1f}%, " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()))
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  ok")
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        ok = "" if bound is None else ("yes" if spread <= bound else "NO")
        print(f"{name:34} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}  {ok}")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bound, "values": vals}
    print(json.dumps({"workload": args.workload, "runs": args.runs,
                      "metrics": summary}))
    return 0


def main_self_test(args):
    spec = load_spec()
    binary = build()
    if binary is None:
        return 1
    with open(os.path.join(HERE, "metric_map.json")) as f:
        mapping = json.load(f)
    failures = []
    names = [w["name"] for w in spec["workloads"]]
    layer = {m["name"] for m in spec["per_layer"]}
    if set(mapping) != layer:
        failures.append(f"metric_map.json keys differ from the per-layer metrics: "
                        f"missing {sorted(layer - set(mapping))}, "
                        f"extra {sorted(set(mapping) - layer)}")
    e2e = {m["name"] for m in spec["end_to_end"]}
    for name, targets in mapping.items():
        for t in targets:
            if t["moves"] not in e2e or t["workload"] not in names + ["*"]:
                failures.append(f"metric_map.json: {name} -> {t} names no "
                                f"end-to-end metric and workload")
    for workload in names:
        for trace in (0, 1):
            code, res = run_once(binary, workload, 1, 2, trace, ["--tiny"])
            if res is None or code != 0 or not res["correct"]:
                failures.append(f"{workload} trace={trace}: run failed")
                continue
            if not check_metrics(res, spec, trace):
                want = expected_metrics(spec, trace)
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                failures.append(f"{workload} trace={trace}: metrics differ: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[k for k in want if k in got and got[k] != want[k]]}")
    code, res = run_once(binary, names[0], 1, 2, 0,
                         ["--tiny", "--inject-corrupt-read"])
    if res is None or res["correct"] or code == 0:
        failures.append(f"an injected corrupt read was not caught "
                        f"(exit {code}, result {res and res['correct']})")
    for f_ in failures:
        log(f"self-test FAILED: {f_}")
    if not failures:
        log("self-test passed")
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        log("run from the repository root (BENCHMARK.json not found)")
        return 2
    if args.self_test:
        return main_self_test(args)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("--workload must name a workload of BENCHMARK.json")
        return 2
    return main_steady(args) if args.steady else main_run(args)


if __name__ == "__main__":
    sys.exit(main())
