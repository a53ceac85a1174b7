"""Runs one workload's passes in a fresh interpreter and times every job.

run.py starts this script with the pinned environment and writes the run
spec (workload, seed, seconds, trace flag, jobs with their expectations,
output paths) to its stdin as JSON.  It runs whole passes over the job list
for about `seconds` (at least one); with tracing on it alternates untraced
and traced passes and ends on a traced one.  Each job is timed alone; its output
is then observed and compared with its expectation outside the timed region.
The measurements go to the `result` path as JSON.

Every in-process job starts cold, as in a fresh user session: the runner
empties search._GRAM_CACHE before the job, and every job builds its own
rings (so the rings' numpy tables are rebuilt inside the job).  Job times and
memory then do not depend on which jobs ran before.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import re
import resource
import signal
import subprocess
import sys
import time
import traceback

import oracles
import tracing

JOB_TIMEOUT_S = 120
# What a malformed output raises while it is observed.
OBSERVE_ERRORS = (ValueError, KeyError, AttributeError, TypeError, json.JSONDecodeError)


# ---------------------------------------------------------------------------
# observing CLI output (the text and JSON formats the README documents)

def _field(pattern, text, conv=str):
    m = re.search(pattern, text, re.M)
    if m is None:
        raise ValueError(f"output has no match for {pattern!r}")
    return conv(m.group(1))


def _bool(text):
    return {"True": True, "False": False}[text]


def _observe_cli(parse, out, job):
    if parse == "idempotents":
        return {"idempotents": _field(r"^idempotents: (.*)$", out).split(", ")}
    if parse == "census-matrices":
        mats = [line.strip().replace(";", ",").split(",")
                for line in out.splitlines() if line.startswith("    ")]
        return {"matrices": sorted(mats)}
    if parse == "census-csv":
        rows = list(csv.DictReader(io.StringIO(out)))
        return {"counts": {r["k"]: int(r["count"]) for r in rows}}
    if parse == "tables":
        rows = {}
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 4 and parts[1].isdigit():
                rows[parts[0]] = [int(x) for x in parts[1:]]
        return {"rows": rows, "golden_ok": _field(r"^golden check: (.*)$", out) == "OK"}
    if parse == "verify":
        return {"ok": out.rstrip().endswith(": OK")}
    if parse == "crt":
        m = re.search(r"factor counts \[(.*)\], product (\d+), direct (\d+)", out)
        return {"factor_counts": [int(x) for x in m.group(1).split(", ")],
                "product": int(m.group(2)), "direct": int(m.group(3)),
                "bijection_ok": _field(r"^bijection: (\w+)$", out) == "OK"}
    if parse == "code":
        return {
            "length": _field(r"length (\d+),", out, int),
            "size": _field(r"(\d+) codewords", out, int),
            "dual_size": _field(r"dual size (\d+);", out, int),
            "self_dual": _field(r" self-dual=(\w+),", out, _bool),
            "weakly_self_dual": _field(r"weakly self-dual=(\w+),", out, _bool),
            "lcd": _field(r"lcd=(\w+)", out, _bool),
            "hamming": _field(r"hamming=(\d+)", out, int),
            "lee": _field(r"lee=(\d+)", out, int),
        }
    if parse == "antiortho":
        return {"found": not out.startswith("no ")}
    report = json.loads(out)
    result = report["result"]
    if parse == "census-json":
        m, n, k = job["zmod"]
        (entry,) = result["censuses"]
        mats = [tuple(int(x) for x in e) for e in entry["matrices"]]
        return {"count": entry["count"], "distinct": len(set(mats)),
                "all_valid": all(oracles.zmod_left_orthogonal(m, n, k, e) for e in mats)}
    if parse == "census-json-counts":
        return {"counts": {e["k"]: e["count"] for e in result["censuses"]}}
    if parse in ("tables-json", "verify-json"):
        out = {"rows": {r["k"]: [r["lo"], r["o"], r["diff"]] for r in result["rows"]}}
        if parse == "verify-json":
            out["mismatches"] = result["mismatches"]
        return out
    raise ValueError(f"unknown output kind {parse!r}")


# ---------------------------------------------------------------------------
# in-process library jobs (checks)

def _library_job(K, job):
    ring = K.parse_ring(job["ring"])
    n = job.get("n")
    k = ring.parse_element(job["k"]) if "k" in job else None
    kind = job["kind"]
    if kind == "closure":
        census = K.enumerate_semigroup(ring, n, k, "left")
        return {"count": census.count, "closed": K.verify_closure(census)}
    if kind == "group":
        census = K.enumerate_semigroup(ring, n, k, "two")
        K.verify_closure(census)
        return {"count": census.count, "is_group": K.verify_group(census)["is_group"]}
    if kind == "transpose":
        left = K.enumerate_semigroup(ring, n, k, "left")
        right = K.enumerate_semigroup(ring, n, k, "right")
        return {"left": left.count, "right": right.count,
                "bijection": K.transpose_bijection_check(left, right)}
    if kind == "iso":
        r = K.verify_semigroup_isomorphism(ring, n, k, side=job["side"])
        return {"factor_counts": r["factor_counts"], "product": r["product"],
                "direct": r["direct_count"], "bijection_ok": r["bijection_ok"]}
    if kind == "naive":
        naive = K.enumerate_naive(ring, n, k, job["side"])
        pruned = K.enumerate_semigroup(ring, n, k, job["side"])
        return {"equal": naive == pruned.elements, "count": len(naive)}
    if kind == "code":
        a = K.Mat.from_text(ring, job["A"])
        if job["drop"]:
            a = K.drop_rows(a, job["drop"])
        code = K.systematic_from_A(a)
        r = K.duality_report(code)
        return {"length": code.length, "size": code.size, "dual_size": r.dual_size,
                "self_dual": r.self_dual, "weakly_self_dual": r.weakly_self_dual,
                "lcd": r.lcd, "hamming": r.hamming_distance, "lee": r.lee_distance}
    raise ValueError(f"unknown job kind {kind!r}")


# ---------------------------------------------------------------------------
# running one job

def _problems(expect, observed):
    return [f"{key}: expected {want!r}, got {observed.get(key, '<missing>')!r}"
            for key, want in expect.items() if observed.get(key) != want]


def _clip(text, limit=400):
    return text if len(text) <= limit else text[:limit] + "..."


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


def _run_child(cmd, spec):
    """Run one CLI process; returns (seconds, exit code, stdout, stderr, maxrss KiB).

    The child is reaped with wait4 so its own peak RSS is known.
    """
    err_path = os.path.join(spec["out_dir"], "child-stderr.txt")
    with open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=spec["root"])
        signal.alarm(JOB_TIMEOUT_S)
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            out = b""
        finally:
            signal.alarm(0)
        elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return elapsed, proc.returncode, out.decode(errors="replace"), stderr, usage.ru_maxrss


class CliRunner:
    """cli-desk: every job is a fresh `python -m korthos.cli` process, or,
    when traced, a fresh cli_child.py process that installs the wrappers."""

    def __init__(self, spec):
        self.spec = spec
        self.peak_rss_kb = 0
        self.spans = []

    def start_pass(self, traced):
        self.traced = traced
        self.layers = {}
        self.startup_s = 0.0

    def run(self, job):
        spec = self.spec
        if self.traced:
            spans_path = os.path.join(spec["out_dir"], "child-spans.json")
            cmd = [sys.executable, os.path.join(spec["bench"], "cli_child.py"),
                   spans_path, job["id"], *job["argv"]]
        else:
            cmd = [sys.executable, "-m", "korthos.cli", *job["argv"]]
        elapsed, code, out, err, rss = _run_child(cmd, spec)
        self.peak_rss_kb = max(self.peak_rss_kb, rss)
        if self.traced:
            with open(spans_path, encoding="utf-8") as fh:
                spans = json.load(fh)
            stats = tracing.summarize(spans)
            tracing.merge(self.layers, stats)
            self.spans.append(spans)
            self.startup_s += elapsed - stats.get("cli.main", {}).get("total_s", 0.0)
        observed = {"exit": code}
        problems = []
        if code == 0:
            try:
                observed.update(_observe_cli(job["parse"], out, job))
            except OBSERVE_ERRORS as exc:
                problems.append(f"unreadable output: {exc!r}")
        problems += _problems(job["expect"], observed)
        if problems and err:
            problems.append("stderr: " + _clip(err))
        return elapsed, problems

    def finish_pass(self):
        return {"layers": self.layers, "cli.startup_s": self.startup_s} if self.traced else {}


class InProcessRunner:
    """census-large and checks: jobs call korthos in this interpreter."""

    def __init__(self, spec):
        import korthos
        import korthos.cli
        import korthos.search

        self.K = korthos
        self.cli = korthos.cli
        self.search = korthos.search
        self.tracer = None
        self.spans = []

    def start_pass(self, traced):
        self.tracer = tracing.Tracer() if traced else None
        if traced:
            self.tracer.install()

    def run(self, job):
        cache = getattr(self.search, "_GRAM_CACHE", None)
        if cache is not None:
            cache.clear()
        if self.tracer:
            self.tracer.job = job["id"]
        buf = io.StringIO()
        problems = []
        t0 = time.perf_counter()
        try:
            if job["kind"] == "main":
                with contextlib.redirect_stdout(buf):
                    try:
                        code = self.cli.main(job["argv"])
                    except SystemExit as exc:
                        code = exc.code
                observed = None
            else:
                observed = _library_job(self.K, job)
        except Exception:  # a job that raises is a failed job; the run goes on
            elapsed = time.perf_counter() - t0
            return elapsed, ["raised: " + _clip(traceback.format_exc(), 2000)]
        elapsed = time.perf_counter() - t0
        if observed is None:
            observed = {"exit": code}
            if code == 0:
                try:
                    observed.update(_observe_cli(job["parse"], buf.getvalue(), job))
                except OBSERVE_ERRORS as exc:
                    problems.append(f"unreadable output: {exc!r}")
        return elapsed, problems + _problems(job["expect"], observed)

    def finish_pass(self):
        if not self.tracer:
            return {}
        self.tracer.uninstall()
        self.spans.append(self.tracer.spans)
        return {"layers": tracing.summarize(self.tracer.spans)}

    @property
    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run(spec):
    runner = (CliRunner if spec["workload"] == "cli-desk" else InProcessRunner)(spec)
    # A new seeded order every pass: peak RSS depends on which jobs' garbage
    # the heap still holds, so it is the peak over several orders.
    order = random.Random(spec["seed"])
    passes = []
    t_start = time.perf_counter()
    while True:
        traced = bool(spec["trace"]) and len(passes) % 2 == 1
        runner.start_pass(traced)
        jobs = []
        for job in order.sample(spec["jobs"], len(spec["jobs"])):
            elapsed, problems = runner.run(job)
            jobs.append({"id": job["id"], "s": elapsed, "problems": problems})
        passes.append({"traced": traced, "wall_s": sum(j["s"] for j in jobs),
                       "jobs": jobs, **runner.finish_pass()})
        # Stop when one more pass (or untraced/traced pair) of the same length
        # would overrun the measuring time, so a run lasts about `seconds`
        # however fast the machine is.
        step = passes[-1]["wall_s"] * (2 if spec["trace"] else 1)
        over = time.perf_counter() - t_start + step > spec["seconds"]
        if over and (not spec["trace"] or traced):
            break
    if spec["trace"]:
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            for spans in runner.spans:
                fh.write(json.dumps(spans) + "\n")
    return {"passes": passes, "peak_rss_kb": runner.peak_rss_kb}


def main():
    signal.signal(signal.SIGALRM, _on_alarm)
    spec = json.load(sys.stdin)
    result = run(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
