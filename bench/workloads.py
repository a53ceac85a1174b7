"""The three workloads' job lists, each job with the output it must produce.

`build` is the untimed prep step: it draws the seeded inputs and computes
every expected output with the oracles.
The set of jobs and the size of each job do not depend on the seed.

Job kinds: `cli` runs a fresh `python -m korthos.cli` process (cli-desk);
`main` calls korthos.cli.main in-process (census-large); the rest are
in-process library calls (checks).  Every job carries `expect`, a dict that
must be a sub-dict of what passes.py observes.
"""

from __future__ import annotations

import json
import math
import random

import oracles as O

WORKLOADS = ("cli-desk", "census-large", "checks")

# Rings each workload builds; the set-up probe builds them after import.
RINGS = {
    "cli-desk": ["Z6", "R2", "Z4", "GF(2,5)", "GF(7,2)", "Z256"],
    "census-large": ["R2", "Z4", "Z12", "Z5", "GF(3)"],
    "checks": ["Z6", "Z15", "Z4", "GF(2)", "Z5"],
}

# The minimal job lists of --smoke: every job kind, each with its check.
SMOKE = {
    "cli-desk": {"idempotents-Z6", "verify-z6-n2-counts", "code-octacode"},
    "census-large": {"census-GF3-n4-k1-two", "census-Z12-n3-k0"},
    "checks": {"closure-LO3-4-Z6", "group-O3-1-Z6", "transpose-LO3-0-Z6",
               "iso-Z6-n3-k4-left", "naive-GF2-n4-k1-two", "code-Z5-anti-0",
               "code-octacode-drop4"},
}

COUNT_FILES = ("r2-n2-counts.json", "r2-n3-counts.json",
               "z6-n2-counts.json", "z6-n3-counts.json")


def _golden(root, name):
    with open(root / "tables" / name, encoding="utf-8") as fh:
        return json.load(fh)


def _rows(golden):
    return {r["k"]: [r["lo"], r["o"], r["diff"]] for r in golden["rows"]}


def _cli_desk(root, rng):
    z6n3 = _golden(root, "z6-n3-counts.json")
    v_listing = _golden(root, "r2-n2-v-semigroups.json")
    z6_k0 = O.naive_count(2, 3, 0, "left") * O.naive_count(3, 3, 0, "left")
    octa = ["--ring", "Z4", "--A", O.OCTACODE_A]
    jobs = [
        # the README CLI section, command for command
        {"id": "idempotents-Z6", "argv": ["idempotents", "--ring", "Z6"],
         "parse": "idempotents",
         "expect": {"idempotents": [str(e) for e in O.zmod_idempotents(6)]}},
        {"id": "census-R2-n2-v-matrices",
         "argv": ["census", "--ring", "R2", "--n", "2", "--k", "v", "--side", "left",
                  "--emit", "matrices"],
         "parse": "census-matrices", "expect": {"matrices": sorted(v_listing["lo"])}},
        {"id": "census-Z6-n3-two-csv",
         "argv": ["census", "--ring", "Z6", "--n", "3", "--side", "two", "--format", "csv"],
         "parse": "census-csv",
         "expect": {"counts": {k: o for k, (_lo, o, _d) in _rows(z6n3).items()}}},
        {"id": "tables-Z6-n3-golden",
         "argv": ["tables", "--ring", "Z6", "--n", "3", "--golden", "tables/z6-n3-counts.json"],
         "parse": "tables", "expect": {"rows": _rows(z6n3), "golden_ok": True}},
        {"id": "verify-r2-n2-v-semigroups",
         "argv": ["verify", "--table", "tables/r2-n2-v-semigroups.json"],
         "parse": "verify", "expect": {"ok": True}},
        {"id": "crt-Z6-n3-k4-verify",
         "argv": ["crt", "--ring", "Z6", "--n", "3", "--k", "4", "--verify"],
         "parse": "crt",
         "expect": _crt_expect([(2, 0), (3, 1)], "left")},
        {"id": "code-octacode", "argv": ["code", *octa, "--report"],
         "parse": "code", "expect": O.OCTACODE_REPORTS[()]},
        {"id": "code-octacode-drop4", "argv": ["code", *octa, "--drop-rows", "4", "--report"],
         "parse": "code", "expect": O.OCTACODE_REPORTS[(4,)]},
        {"id": "antiortho-Z6-n3", "argv": ["antiortho", "--ring", "Z6", "--n", "3"],
         "parse": "antiortho", "expect": {"found": O.ANTIORTHO_Z6_N3_FOUND}},
        # a census listing in JSON, checked matrix by matrix
        {"id": "census-Z6-n3-k0-json",
         "argv": ["census", "--ring", "Z6", "--n", "3", "--k", "0", "--emit", "matrices",
                  "--format", "json"],
         "parse": "census-json", "zmod": [6, 3, 0],
         "expect": {"count": z6_k0, "distinct": z6_k0, "all_valid": True}},
    ]
    for name in COUNT_FILES:
        jobs.append({"id": "verify-" + name.removesuffix(".json"),
                     "argv": ["verify", "--table", f"tables/{name}", "--format", "json"],
                     "parse": "verify-json",
                     "expect": {"rows": _rows(_golden(root, name)), "mismatches": []}})
    # ring-table builds of larger rings
    for literal, idem in O.PINNED_IDEMPOTENTS.items():
        jobs.append({"id": f"idempotents-{literal}", "argv": ["idempotents", "--ring", literal],
                     "parse": "idempotents", "expect": {"idempotents": idem}})
    for job in jobs:
        job["kind"] = "cli"
        job["expect"] = {"exit": 0, **job["expect"]}
    return jobs


def _crt_expect(parts, side):
    """verify_semigroup_isomorphism over Z_m = prod Z_q: the factor counts are
    naive field-level counts, and the direct count is their product."""
    counts = [O.naive_count(q, 3, a, side) for q, a in parts]
    product = math.prod(counts)
    return {"factor_counts": counts, "product": product, "direct": product,
            "bijection_ok": True}


def _census_large(root, rng):
    def census(job_id, ring, n, k, side, count):
        argv = ["census", "--ring", ring, "--n", str(n), "--k", k]
        if side == "two":
            argv += ["--side", "two"]
        return {"id": job_id, "kind": "main", "argv": argv + ["--format", "json"],
                "parse": "census-json-counts", "expect": {"exit": 0, "counts": {k: count}}}

    r2_rows = {}
    for k, (a1, a2) in O.R2_SPLIT.items():
        lo = O.naive_count(2, 4, a1, "left") * O.naive_count(2, 4, a2, "left")
        two = O.naive_count(2, 4, a1, "two") * O.naive_count(2, 4, a2, "two")
        r2_rows[k] = [lo, two, lo - two]
    return [
        {"id": "tables-R2-n4", "kind": "main",
         "argv": ["tables", "--ring", "R2", "--n", "4", "--format", "json"],
         "parse": "tables-json", "expect": {"exit": 0, "rows": r2_rows}},
        census("census-Z4-n4-k0", "Z4", 4, "0", "left", O.PINNED_COUNTS[("Z4", 4, 0, "left")]),
        census("census-Z12-n3-k0", "Z12", 3, "0", "left",
               O.PINNED_COUNTS[("Z12", 3, 0, "left")]),
        census("census-Z5-n4-k4-two", "Z5", 4, "4", "two", O.antiorthogonal_count(5, 4)),
        census("census-GF3-n4-k1-two", "GF(3)", 4, "1", "two",
               O.orthogonal_group_order(3, 4)),
    ]


def _checks(root, rng):
    def z6(k, side):
        return O.naive_count(2, 3, k % 2, side) * O.naive_count(3, 3, k % 3, side)

    jobs = [
        {"id": "closure-LO3-0-Z6", "kind": "closure", "ring": "Z6", "n": 3, "k": "0",
         "expect": {"count": z6(0, "left"), "closed": True}},
        {"id": "closure-LO3-4-Z6", "kind": "closure", "ring": "Z6", "n": 3, "k": "4",
         "expect": {"count": z6(4, "left"), "closed": True}},
        {"id": "group-O3-1-Z6", "kind": "group", "ring": "Z6", "n": 3, "k": "1",
         "expect": {"count": O.naive_count(2, 3, 1, "two") * O.orthogonal_group_order(3, 3),
                    "is_group": True}},
        {"id": "transpose-LO3-0-Z6", "kind": "transpose", "ring": "Z6", "n": 3, "k": "0",
         "expect": {"left": z6(0, "left"), "right": z6(0, "right"), "bijection": True}},
    ]
    for k in O.zmod_idempotents(6):
        for side in ("left", "two"):
            jobs.append({"id": f"iso-Z6-n3-k{k}-{side}", "kind": "iso", "ring": "Z6", "n": 3,
                         "k": str(k), "side": side,
                         "expect": _crt_expect([(2, k % 2), (3, k % 3)], side)})
    jobs.append({"id": "iso-Z15-n3-k0-left", "kind": "iso", "ring": "Z15", "n": 3, "k": "0",
                 "side": "left", "expect": _crt_expect([(3, 0), (5, 0)], "left")})
    jobs += [
        {"id": "naive-Z4-n3-k0-left", "kind": "naive", "ring": "Z4", "n": 3, "k": "0",
         "side": "left", "expect": {"equal": True, "count": O.naive_count(4, 3, 0, "left")}},
        {"id": "naive-GF2-n4-k1-two", "kind": "naive", "ring": "GF(2)", "n": 4, "k": "1",
         "side": "two", "expect": {"equal": True, "count": O.naive_count(2, 4, 1, "two")}},
    ]
    octa = O.parse_matrix(O.OCTACODE_A)
    codes = [("code-octacode", "Z4", octa, (), O.OCTACODE_REPORTS[()]),
             ("code-octacode-drop4", "Z4", octa, (4,), O.OCTACODE_REPORTS[(4,)])]
    for i in range(2):
        a = O.sample_antiorthogonal(rng, 5, 4)
        codes.append((f"code-Z5-anti-{i}", "Z5", a, (), O.code_report(5, a)))
        codes.append((f"code-Z5-anti-{i}-drop4", "Z5", a, (4,), O.code_report(5, a, (4,))))
    for i in range(2):
        a = O.sample_self_orthogonal(rng, 4, 4)
        codes.append((f"code-Z4-selforth-{i}", "Z4", a, (), O.code_report(4, a)))
    for job_id, ring, a, drop, expect in codes:
        jobs.append({"id": job_id, "kind": "code", "ring": ring, "A": O.render_matrix(a),
                     "drop": list(drop), "expect": expect})
    return jobs


def build(workload, root, seed, smoke=False):
    """The workload's jobs, with seeded inputs and expectations.  passes.py
    permutes their order, by the same seed, afresh for every pass."""
    rng = random.Random(seed)
    jobs = {"cli-desk": _cli_desk, "census-large": _census_large,
            "checks": _checks}[workload](root, rng)
    if smoke:
        jobs = [j for j in jobs if j["id"] in SMOKE[workload]]
    return jobs
