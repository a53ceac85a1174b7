"""korthos benchmark: one workload per run, timed end to end or traced by layer.

Usage, from the repository root:

    python3 bench/run.py --workload {cli-desk,census-large,checks} --seed N \\
        --seconds S --trace {0,1} [--smoke]

A run (1) checks that the checkout holds korthos's sources and golden tables,
(2) builds the workload's jobs and their expected outputs from the seed
(untimed), (3) times set-up over several fresh interpreters, (4) starts
passes.py in a fresh interpreter to run whole passes over the jobs for at
least S seconds, and (5) prints a report, then one JSON line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json; with --trace 1 they are its
per-layer metrics.  The exit code is 0 only when every job passed its check.
--smoke runs a minimal job list once, for a quick check that the harness
still works.  Records and spans go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

SETUP_PROBES = 9
RUN_LIMIT_S = 170  # a run must end within 180 s
# Environment variables that change what the program does or how fast it starts.
UNSET = ("KORTHOS_BUDGET", "PYTHONDONTWRITEBYTECODE", "PYTHONPROFILEIMPORTTIME",
         "PYTHONDEVMODE", "PYTHONMALLOC", "PYTHONSTARTUP", "PYTHONHOME")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def pinned_env():
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def machine_record():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "src_lines": src_lines}


# ---------------------------------------------------------------------------
# set-up

_IMPORTTIME = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \| (\S.*)$")


def _probe(env, rings, importtime):
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(BENCH / "probe.py"), *rings]
    t_launch = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=60)
    if proc.returncode != 0:
        raise BenchError("set-up probe failed:\n" + proc.stderr[-2000:])
    stamps = json.loads(proc.stdout.splitlines()[-1])
    if Path(stamps["korthos_file"]).resolve() != ROOT / "src" / "korthos" / "__init__.py":
        raise BenchError(f"imported korthos from {stamps['korthos_file']}, not src/")
    top = {}
    for line in proc.stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            top[m.group(2)] = int(m.group(1)) / 1e6
    return {
        "setup_s": stamps["t_ready"] - t_launch,
        "setup.interpreter_s": stamps["t_main"] - t_launch,
        "setup.import_numpy_s": top.get("numpy"),
        "setup.import_korthos_s": top.get("korthos"),
        "setup.rings_s": stamps["t_ready"] - stamps["t_korthos"],
    }


def measure_setup(env, rings, count, importtime):
    """`count` fresh interpreters, after one untimed launch that leaves the
    bytecode caches written."""
    _probe(env, rings, False)
    return [_probe(env, rings, importtime) for _ in range(count)]


def median_setup(probes):
    return {key: statistics.median(p[key] for p in probes) for key in probes[0]
            if all(p[key] is not None for p in probes)}


# ---------------------------------------------------------------------------
# the timed passes

def run_passes(env, spec, limit_s):
    proc = subprocess.Popen([sys.executable, str(BENCH / "passes.py")], env=env, cwd=ROOT,
                            stdin=subprocess.PIPE, start_new_session=True, text=True)
    try:
        proc.communicate(json.dumps(spec), timeout=limit_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"passes did not finish within {limit_s:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"passes.py exited with {proc.returncode}")
    with open(spec["result"], encoding="utf-8") as fh:
        return json.load(fh)


def tail_percentile(times):
    """(p, value): the highest whole percentile with at least 10 jobs beyond
    its nearest-rank value, or None with 10 jobs or fewer."""
    n = len(times)
    if n <= 10:
        return None
    p = 100 * (n - 10) // n
    return p, sorted(times)[math.ceil(p * n / 100) - 1]


def best_pass(passes):
    """{job id: the job's fastest time among the passes}.

    Other tenants of a shared machine slow it for seconds at a time; a job's
    fastest pass is its least-disturbed measurement.
    """
    best = {}
    for p in passes:
        for j in p["jobs"]:
            best[j["id"]] = min(j["s"], best.get(j["id"], math.inf))
    return best


def end_to_end(passes, setup, peak_rss_kb):
    untraced = [p for p in passes if not p["traced"]]
    best = best_pass(untraced)
    times = [j["s"] for p in untraced for j in p["jobs"]]
    return {
        "setup_s": setup["setup_s"],
        "wall_s": sum(best.values()),
        "job_p50_s": statistics.median(best.values()),
        "peak_rss_mb": peak_rss_kb / 1024,
    }, tail_percentile(times), len(times)


def per_layer(passes, setup):
    """Per-layer metrics of the traced passes: times are medians over the
    traced passes of per-pass totals; counts come from the first traced pass
    (they repeat exactly from pass to pass)."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    names = sorted({name for p in traced for name in p["layers"]})
    layers = {}
    for name in names:
        st = dict(traced[0]["layers"].get(name, {}))
        for key in ("total_s", "self_s"):
            st[key] = statistics.median(p["layers"].get(name, {}).get(key, 0.0)
                                        for p in traced)
        layers[name] = st
    metrics = {f"{name}.{key}": val for name, st in layers.items() for key, val in st.items()}
    search = layers.get("search.enumerate_semigroup", {})
    if search.get("nodes"):
        metrics["search.elements_per_node"] = search["elements"] / search["nodes"]
    if "cli.startup_s" in traced[0]:
        metrics["cli.startup_s"] = statistics.median(p["cli.startup_s"] for p in traced)
    metrics["trace.overhead_s"] = (sum(best_pass(traced).values())
                                   - sum(best_pass(untraced).values()))
    metrics.update({k: v for k, v in setup.items() if k.startswith("setup.")})
    repeat = all(
        {k: v for k, v in p["layers"].get(n, {}).items() if not k.endswith("_s")}
        == {k: v for k, v in traced[0]["layers"].get(n, {}).items() if not k.endswith("_s")}
        for p in traced for n in names)
    return metrics, layers, repeat


# ---------------------------------------------------------------------------

def _declared_value(metrics, decl):
    """A count of a function the workload never calls is 0; any other
    declared metric must have been measured."""
    if decl["name"] in metrics:
        return metrics[decl["name"]]
    if decl["unit"] == "count":
        return 0
    raise BenchError(f"metric {decl['name']} was not measured")


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="minimal job list, one pass (two when traced), one set-up probe")
    args = ap.parse_args(argv)
    t_start = time.monotonic()

    missing = [p for p in ("src/korthos/__init__.py", "tables", "BENCHMARK.json")
               if not (ROOT / p).exists()]
    if missing:
        print(f"bench: not a korthos checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["end_to_end" if not args.trace else "per_layer"]
    OUT.mkdir(exist_ok=True)
    env = pinned_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"

    jobs = workloads.build(args.workload, ROOT, args.seed, args.smoke)
    # Half the set-up probes run before the passes and half after, so that a
    # few seconds of a busy machine do not decide the median.
    rings = workloads.RINGS[args.workload]
    probes = 1 if args.smoke else SETUP_PROBES
    setup = measure_setup(env, rings, (probes + 1) // 2, bool(args.trace))
    spec = {"workload": args.workload, "seed": args.seed, "root": str(ROOT),
            "bench": str(BENCH), "out_dir": str(OUT), "result": str(OUT / f"{tag}-passes.json"),
            "spans": str(OUT / f"{tag}-spans.jsonl"),
            "seconds": 0 if args.smoke else args.seconds, "trace": args.trace, "jobs": jobs}
    result = run_passes(env, spec, RUN_LIMIT_S - (time.monotonic() - t_start))
    passes = result["passes"]
    if probes > 1:
        setup += measure_setup(env, rings, probes // 2, bool(args.trace))
    setup = median_setup(setup)

    failures = [(p["traced"], j) for p in passes for j in p["jobs"] if j["problems"]]
    attempted = sum(len(p["jobs"]) for p in passes)
    e2e, tail, n_jobs = end_to_end(passes, setup, result["peak_rss_kb"])
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "machine": machine_record(),
              "env": {"PYTHONHASHSEED": "0", "KORTHOS_BUDGET": None,
                      **{v: "1" for v in THREAD_VARS}},
              "end_to_end": e2e, "tail": tail, "attempted": attempted,
              "failed": len(failures), "passes": passes}

    m = record["machine"]
    print(f"korthos benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}{' smoke' if args.smoke else ''}")
    print(f"machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
          f"numpy={m['numpy']} src_lines={m['src_lines']}")
    print("env: PYTHONHASHSEED=0, KORTHOS_BUDGET unset, thread variables=1; "
          "each run and each in-process pass starts cold")
    print(f"jobs: {len(jobs)} per pass, {len(passes)} passes, "
          f"{sum(1 for p in passes if p['traced'])} traced")
    print(f"  setup_s      {_fmt(e2e['setup_s'])} s  (median of {probes} fresh interpreters)")
    print(f"  wall_s       {_fmt(e2e['wall_s'])} s  (one pass, each job at its fastest)")
    print(f"  job_p50_s    {_fmt(e2e['job_p50_s'])} s  (median job, each at its fastest)")
    if tail:
        print(f"  job_p{tail[0]}_s    {_fmt(tail[1])} s  (over all {n_jobs} untraced job runs; "
              "highest percentile with 10+ beyond it)")
    print(f"  peak_rss_mb  {_fmt(e2e['peak_rss_mb'])} MB")
    print(f"  failed_frac  {_fmt(len(failures) / attempted)}  ({len(failures)}/{attempted})")
    for traced, job in failures:
        print(f"  FAILED {job['id']}{' (traced)' if traced else ''}: " + "; ".join(job["problems"]))

    metrics = e2e
    if args.trace:
        metrics, layers, repeat = per_layer(passes, setup)
        record.update(per_layer=metrics, layers=layers, counts_repeat=repeat)
        print("per layer (per pass; times are medians over traced passes):")
        print(f"  {'function':40s} {'calls':>8s} {'errors':>6s} {'total_s':>10s} {'self_s':>10s}  counters")
        for name, st in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
            extra = " ".join(f"{k}={v}" for k, v in st.items()
                             if k not in ("calls", "errors", "total_s", "self_s"))
            print(f"  {name:40s} {st['calls']:8d} {st['errors']:6d} "
                  f"{st['total_s']:10.4f} {st['self_s']:10.4f}  {extra}")
        for key in sorted(metrics):
            if key.startswith(("setup.", "trace.", "cli.startup")) or key.endswith("_per_node"):
                print(f"  {key:40s} {_fmt(metrics[key])}")
        if not repeat:
            print("  WARNING: count metrics differ between traced passes")

    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {d["name"]: {"value": _declared_value(metrics, d), "unit": d["unit"]}
                    for d in declared},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(1)
