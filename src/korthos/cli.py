"""Command-line front end: censuses, golden-table verification, CRT reports,
code analysis, and antiorthogonal witness searches.

Every command assembles a run report {command, ring, params, result,
elapsed_ms, nodes}; identical invocations produce byte-identical JSON apart
from the elapsed-time field.  Exit codes: 0 success, 2 verification mismatch,
1 usage or budget errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .codes import (
    code_from_generator,
    drop_rows,
    duality_report,
    systematic_from_A,
)
from .errors import KorthosError
from .matrices import Mat
from .rings import parse_ring
from .search import (
    _antiorthogonal_search,
    census_table,
    enumerate_semigroup,
    normalize_side,
)
from .crt import split, verify_semigroup_isomorphism

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"korthos: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(report, fmt, text_lines):
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _report(command, ring_literal, params, result, t0, nodes=0):
    return {
        "command": command,
        "ring": ring_literal,
        "params": params,
        "result": result,
        "elapsed_ms": round((time.perf_counter() - t0) * 1000.0, 3),
        "nodes": nodes,
    }


# ---------------------------------------------------------------------------
# subcommands

def _cmd_idempotents(args):
    t0 = time.perf_counter()
    ring = parse_ring(args.ring)
    idem = ring.idempotents()
    result = {"idempotents": [ring.render(e) for e in idem], "count": len(idem)}
    rep = _report("idempotents", ring.literal, {}, result, t0)
    _emit(rep, args.format, [
        f"ring {ring.literal} (order {ring.order})",
        "idempotents: " + ", ".join(result["idempotents"]),
    ])
    return EXIT_OK


def _cmd_census(args):
    t0 = time.perf_counter()
    ring = parse_ring(args.ring)
    side = normalize_side(args.side)
    ks = [ring.parse_element(args.k)] if args.k is not None else ring.idempotents()
    entries = []
    nodes = 0
    for k in ks:
        census = enumerate_semigroup(ring, args.n, k, side)
        nodes += census.nodes
        row = {"k": ring.render(k), "side": side, "count": census.count}
        if args.emit == "matrices":
            row["matrices"] = [m.render_entries() for m in census.elements]
        entries.append(row)
    result = {"n": args.n, "censuses": entries}
    rep = _report("census", ring.literal, {"n": args.n, "side": side,
                                           "k": args.k, "emit": args.emit},
                  result, t0, nodes)
    if args.format == "csv":
        print("k,side,count")
        for row in entries:
            print(f"{row['k']},{row['side']},{row['count']}")
        return EXIT_OK
    lines = [f"{side} census over {ring.literal}, n={args.n}"]
    for row in entries:
        lines.append(f"  k={row['k']}: {row['count']} matrices")
        if args.emit == "matrices":
            census_mats = row["matrices"]
            lines.extend("    " + ";".join(",".join(r[i * args.n:(i + 1) * args.n])
                                           for i in range(args.n))
                         for r in census_mats)
    _emit(rep, args.format, lines)
    return EXIT_OK


def _rows_to_map(rows):
    return {r["k"]: (r["lo"], r["o"], r.get("diff", r["lo"] - r["o"])) for r in rows}


def _cmd_tables(args):
    t0 = time.perf_counter()
    ring = parse_ring(args.ring)
    rows = census_table(ring, args.n)
    result = {"n": args.n, "rows": rows}
    status = EXIT_OK
    mismatches = []
    if args.golden:
        golden = _load_table(args.golden, "rows")
        mismatches = _compare_count_tables(golden, ring, args.n, rows)
        result["golden"] = args.golden
        result["mismatches"] = mismatches
        if mismatches:
            status = EXIT_MISMATCH
    rep = _report("tables", ring.literal, {"n": args.n, "golden": args.golden},
                  result, t0, sum(r["nodes"] for r in rows))
    if args.format == "csv":
        print("k,lo,o,diff")
        for r in rows:
            print(f"{r['k']},{r['lo']},{r['o']},{r['diff']}")
        return status
    lines = [f"census table over {ring.literal}, n={args.n}",
             f"{'k':>8} {'LO':>8} {'O':>8} {'LO-O':>8}"]
    for r in rows:
        lines.append(f"{r['k']:>8} {r['lo']:>8} {r['o']:>8} {r['diff']:>8}")
    if args.golden:
        lines.append("golden check: " + ("OK" if not mismatches else "; ".join(mismatches)))
    _emit(rep, args.format, lines)
    return status


def _load_table(path, *keys):
    """Parse a golden table file: a JSON object holding every key in `keys`."""
    with open(path, encoding="utf-8") as fh:
        try:
            table = json.load(fh)
        except ValueError as exc:
            raise KorthosError(f"{path} is not a JSON table: {exc}") from None
    if not isinstance(table, dict):
        raise KorthosError(f"{path} is not a JSON table: expected an object")
    missing = [key for key in keys if key not in table]
    if missing:
        raise KorthosError(f"{path} has no {', '.join(map(repr, missing))} key")
    _check_shape(path, table)
    return table


def _check_shape(path, table):
    """Reject a table whose values have the wrong types, naming the key."""
    def require(ok, key, want):
        if not ok:
            raise KorthosError(f"{path}: {key!r} must be {want}")

    if "n" in table:
        require(isinstance(table["n"], int), "n", "an integer")
    if "k" in table:
        require(isinstance(table["k"], str), "k", "an element literal string")
    rows = table.get("rows", [])
    require(isinstance(rows, list) and all(
        isinstance(r, dict) and isinstance(r.get("k"), str)
        and isinstance(r.get("lo"), int) and isinstance(r.get("o"), int)
        for r in rows), "rows", "a list of objects with a string 'k' and integer 'lo' and 'o'")
    for key in ("lo", "ro", "o"):
        mats = table.get(key, [])
        require(isinstance(mats, list) and all(
            isinstance(m, list) and all(isinstance(e, str) for e in m) for m in mats),
            key, "a list of matrices, each a list of entry strings")


def _compare_count_tables(golden, ring, n, rows):
    problems = []
    if golden.get("ring") and parse_ring(golden["ring"]) != ring:
        problems.append(f"ring mismatch: golden has {golden['ring']}")
    if golden.get("n") != n:
        problems.append(f"degree mismatch: golden has n={golden.get('n')}")
    if problems:
        return problems
    got = _rows_to_map(rows)
    want = _rows_to_map(golden["rows"])
    for k in sorted(set(got) | set(want)):
        if k not in got:
            problems.append(f"k={k} missing from computed table")
        elif k not in want:
            problems.append(f"k={k} not in golden table")
        elif got[k] != want[k]:
            problems.append(f"k={k}: computed {got[k]}, golden {want[k]}")
    return problems


def _matrix_set(entry_lists):
    return {tuple(e) for e in entry_lists}


def _compare_matrix_table(golden, ring, n):
    """Golden files carrying explicit LO/RO/O matrix lists for one k.
    Returns (problems, nodes summed over the censuses run)."""
    k = ring.parse_element(golden["k"])
    problems = []
    nodes = 0
    for side_key, side in (("lo", "left"), ("ro", "right"), ("o", "two_sided")):
        if side_key not in golden:
            continue
        census = enumerate_semigroup(ring, n, k, side)
        nodes += census.nodes
        got = _matrix_set(m.render_entries() for m in census.elements)
        want = _matrix_set(golden[side_key])
        if got != want:
            problems.append(
                f"{side_key}: computed {len(got)} matrices, golden {len(want)}, "
                f"set difference {len(got ^ want)}"
            )
    return problems, nodes


def _cmd_verify(args):
    t0 = time.perf_counter()
    golden = _load_table(args.table, "ring", "n")
    ring = parse_ring(golden["ring"])
    n = golden["n"]
    if "rows" in golden:
        rows = census_table(ring, n)
        nodes = sum(r["nodes"] for r in rows)
        mismatches = _compare_count_tables(golden, ring, n, rows)
        result = {"n": n, "kind": "counts", "rows": rows, "mismatches": mismatches}
    else:
        if "k" not in golden:
            raise KorthosError(f"{args.table} has neither a 'rows' nor a 'k' key")
        mismatches, nodes = _compare_matrix_table(golden, ring, n)
        result = {"n": n, "kind": "matrices", "k": golden.get("k"),
                  "mismatches": mismatches}
    status = EXIT_OK if not mismatches else EXIT_MISMATCH
    rep = _report("verify", ring.literal, {"table": args.table}, result, t0, nodes)
    _emit(rep, args.format, [
        f"verify {args.table} against {ring.literal}, n={n}: "
        + ("OK" if not mismatches else "MISMATCH"),
        *("  " + m for m in mismatches),
    ])
    return status


def _cmd_crt(args):
    t0 = time.perf_counter()
    ring = parse_ring(args.ring)
    crt_split = split(ring)
    if args.verify:
        if args.k is None or args.n is None:
            raise KorthosError("crt --verify needs both --n and --k")
        k = ring.parse_element(args.k)
        result = verify_semigroup_isomorphism(ring, args.n, k, side=args.side)
        status = EXIT_OK if result["bijection_ok"] else EXIT_MISMATCH
        rep = _report("crt", ring.literal,
                      {"n": args.n, "k": args.k, "verify": True, "side": args.side},
                      result, t0, result["nodes"])
        _emit(rep, args.format, [
            f"{ring.literal} -> " + " x ".join(result["factors"]),
            f"k={result['k']} maps to a=({', '.join(result['a_j'])})",
            f"factor counts {result['factor_counts']}, product {result['product']}, "
            f"direct {result['direct_count']}",
            "bijection: " + ("OK" if result["bijection_ok"] else "FAILED"),
        ])
        return status
    result = {"factors": [f.literal for f in crt_split.factors]}
    if args.k is not None:
        k = ring.parse_element(args.k)
        result["k"] = ring.render(k)
        result["a_j"] = [f.render(x) for f, x in
                       zip(crt_split.factors, crt_split.forward(k))]
    rep = _report("crt", ring.literal, {"k": args.k}, result, t0)
    lines = [f"{ring.literal} -> " + " x ".join(result["factors"])]
    if "a_j" in result:
        lines.append(f"k={result['k']} maps to ({', '.join(result['a_j'])})")
    _emit(rep, args.format, lines)
    return EXIT_OK


def _cmd_code(args):
    t0 = time.perf_counter()
    ring = parse_ring(args.ring)
    if (args.A is None) == (args.generator is None):
        raise KorthosError("pass exactly one of --A or --generator")
    if args.A is not None:
        a = Mat.from_text(ring, args.A)
        if args.drop_rows:
            try:
                rows = [int(t) for t in args.drop_rows.split(",")]
            except ValueError:
                raise KorthosError(
                    f"--drop-rows takes comma-separated row numbers, got {args.drop_rows!r}"
                ) from None
            a = drop_rows(a, rows)
        code = systematic_from_A(a)
    else:
        with open(args.generator, encoding="utf-8") as fh:
            code = code_from_generator(ring, Mat.from_text(ring, fh.read()))
    result = {
        "length": code.length,
        "size": code.size,
        "systematic": code.systematic,
        "generator": code.generator.render_entries() if code.generator else None,
        "generator_rows": code.generator.rows if code.generator else None,
    }
    if args.report:
        rpt = duality_report(code)
        result["report"] = {
            "dual_size": rpt.dual_size,
            "self_dual": rpt.self_dual,
            "weakly_self_dual": rpt.weakly_self_dual,
            "lcd": rpt.lcd,
            "gram_nonsingular": rpt.gram_nonsingular,
            "hamming_distance": rpt.hamming_distance,
            "lee_distance": rpt.lee_distance,
        }
    rep = _report("code", ring.literal,
                  {"A": args.A, "generator": args.generator,
                   "drop_rows": args.drop_rows, "report": args.report},
                  result, t0)
    lines = [f"code over {ring.literal}: length {code.length}, "
             f"{code.size} codewords, systematic={code.systematic}"]
    if args.report:
        r = result["report"]
        lines.append(
            f"dual size {r['dual_size']}; self-dual={r['self_dual']}, "
            f"weakly self-dual={r['weakly_self_dual']}, lcd={r['lcd']}"
        )
        lines.append(
            f"gram nonsingular={r['gram_nonsingular']}, "
            f"hamming={r['hamming_distance']}, lee={r['lee_distance']}"
        )
    _emit(rep, args.format, lines)
    return EXIT_OK


def _cmd_antiortho(args):
    t0 = time.perf_counter()
    ring = parse_ring(args.ring)
    witness, nodes = _antiorthogonal_search(ring, args.n)
    result = {
        "n": args.n,
        "found": witness is not None,
        "witness": witness.render_entries() if witness else None,
    }
    rep = _report("antiortho", ring.literal, {"n": args.n}, result, t0, nodes)
    lines = ([f"antiorthogonal {args.n}x{args.n} witness over {ring.literal}: "
              + witness.to_text()]
             if witness else
             [f"no {args.n}x{args.n} antiorthogonal matrix over {ring.literal} (none found)"])
    _emit(rep, args.format, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser():
    parser = _Parser(prog="korthos",
                     description="k-orthogonal matrix semigroups over finite "
                                 "commutative rings and their codes")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, ring=True, csv=False):
        if ring:
            p.add_argument("--ring", required=True, help="ring literal, e.g. Z6, R2, GF(2,2;x^2+x+1)")
        p.add_argument("--format", choices=["text", "json", "csv"] if csv else ["text", "json"],
                       default="text")

    p = sub.add_parser("idempotents", help="list the idempotent elements")
    common(p)
    p.set_defaults(func=_cmd_idempotents)

    p = sub.add_parser("census", help="enumerate a k-orthogonal semigroup")
    common(p, csv=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", help="element literal; default: every idempotent")
    p.add_argument("--side", choices=["left", "right", "two"], default="left")
    p.add_argument("--emit", choices=["counts", "matrices"], default="counts")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("tables", help="census table over all idempotents")
    common(p, csv=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--golden", help="golden JSON to compare against")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("verify", help="recompute and compare a golden table file")
    common(p, ring=False)
    p.add_argument("--table", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("crt", help="residue decomposition and census products")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--k")
    p.add_argument("--side", choices=["left", "right", "two"], default="left")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_crt)

    p = sub.add_parser("code", help="build a code and report its duality status")
    common(p)
    p.add_argument("--A", help="matrix text for the systematic part [I:A]")
    p.add_argument("--generator", help="file holding a full generator matrix")
    p.add_argument("--drop-rows", help="1-based rows to delete from A, e.g. 4 or 3,4")
    p.add_argument("--report", action="store_true")
    p.set_defaults(func=_cmd_code)

    p = sub.add_parser("antiortho", help="search for an antiorthogonal matrix")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_antiortho)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KorthosError, OSError) as exc:
        print(f"korthos: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
