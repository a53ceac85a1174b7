"""Command-line front end: censuses, golden-table verification, CRT reports,
code analysis, and antiorthogonal witness searches.

Every command returns its result as a `_Run`, and `main` alone times it,
assembles the run report {command, ring, params, result, elapsed_ms, nodes}
and prints it as JSON, text or CSV; identical invocations produce
byte-identical JSON apart from the elapsed-time field.  Exit codes: 0
success, 2 verification mismatch, 1 usage or budget errors.  `main` can be
called repeatedly in one process: it builds the parser on first use and
reuses it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Iterable, NamedTuple

from .codes import code_from_generator, drop_rows, duality_report, systematic_from_A
from .errors import KorthosError
from .matrices import Mat
from .rings import Ring, parse_ring
from .search import (_antiorthogonal_search, _factored_counts, census_table,
                     enumerate_semigroup, normalize_side)
from .crt import split, verify_semigroup_isomorphism

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"korthos: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class _Run(NamedTuple):
    """What a command hands to `main`: the report's ring, params, result and
    nodes, the lines to print as text and as CSV, and the exit status."""
    ring: Ring
    params: dict
    result: dict
    nodes: int = 0
    text: Iterable[str] = ()
    csv: Iterable[str] = ()
    status: int = EXIT_OK


# ---------------------------------------------------------------------------
# subcommands

def _cmd_idempotents(args):
    ring = parse_ring(args.ring)
    idem = [ring.render(e) for e in ring.idempotents()]
    return _Run(ring, {}, {"idempotents": idem, "count": len(idem)}, text=[
        f"ring {ring.literal} (order {ring.order})",
        "idempotents: " + ", ".join(idem),
    ])


def _cmd_census(args):
    ring = parse_ring(args.ring)
    side = normalize_side(args.side)
    ks = [ring.parse_element(args.k)] if args.k is not None else ring.idempotents()
    params = {"n": args.n, "side": side, "k": args.k, "emit": args.emit}
    if args.emit == "counts":   # through the CRT split: a field factor in closed form
        count_from, counts = _factored_counts(ring, args.n, ks, side)
        entries = [{"k": ring.render(k), "side": side, "count": count, "count_from": count_from}
                   for k, (count, _, _) in zip(ks, counts)]
        result = {"n": args.n, "censuses": entries,
                  "factors": [f.literal for f in split(ring).factors]}
        nodes, censuses = sum(nodes for _, _, nodes in counts), None
    else:
        censuses = [enumerate_semigroup(ring, args.n, k, side) for k in ks]
        entries = [{"k": ring.render(c.k), "side": side, "count": c.count,
                    "matrices": [m.render_entries() for m in c.elements]} for c in censuses]
        result = {"n": args.n, "censuses": entries}
        nodes = sum(c.nodes for c in censuses)

    def text():   # lazy, so a JSON listing renders no matrix text
        yield f"{side} census over {ring.literal}, n={args.n}"
        for i, row in enumerate(entries):
            yield f"  k={row['k']}: {row['count']} matrices"
            if censuses:
                yield from ("    " + m.to_text() for m in censuses[i].elements)

    return _Run(ring, params, result, nodes, text(),
                ["k,side,count", *(f"{r['k']},{r['side']},{r['count']}" for r in entries)])


def _cmd_tables(args):
    ring = parse_ring(args.ring)
    rows = census_table(ring, args.n)
    result = {"n": args.n, "rows": rows, "factors": [f.literal for f in split(ring).factors]}
    text = [f"census table over {ring.literal}, n={args.n}",
            f"{'k':>8} {'LO':>8} {'O':>8} {'LO-O':>8}",
            *(f"{r['k']:>8} {r['lo']:>8} {r['o']:>8} {r['diff']:>8}" for r in rows)]
    mismatches = []
    if args.golden:
        mismatches = _compare_count_tables(_load_table(args.golden, "rows"), ring, args.n, rows)
        result.update(golden=args.golden, mismatches=mismatches)
        text.append("golden check: " + ("OK" if not mismatches else "; ".join(mismatches)))
    return _Run(ring, {"n": args.n, "golden": args.golden}, result,
                sum(r["nodes"] for r in rows), text,
                ["k,lo,o,diff", *(f"{r['k']},{r['lo']},{r['o']},{r['diff']}" for r in rows)],
                EXIT_MISMATCH if mismatches else EXIT_OK)


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
    """Reject a table whose values have the wrong types, naming the key.  An
    integer is `type(v) is int`: JSON's true and false are bools, which
    subclass int."""
    def require(ok, key, want):
        if not ok:
            raise KorthosError(f"{path}: {key!r} must be {want}")

    if "n" in table:
        require(type(table["n"]) is int, "n", "an integer")
    if "k" in table:
        require(isinstance(table["k"], str), "k", "an element literal string")
    rows = table.get("rows", [])
    require(isinstance(rows, list) and all(
        isinstance(r, dict) and isinstance(r.get("k"), str)
        and type(r.get("lo")) is int and type(r.get("o")) is int
        for r in rows), "rows", "a list of objects with a string 'k' and integer 'lo' and 'o'")
    for key in ("lo", "ro", "o"):
        mats = table.get(key, [])
        require(isinstance(mats, list) and all(
            isinstance(m, list) and all(isinstance(e, str) for e in m) for m in mats),
            key, "a list of matrices, each a list of entry strings")


def _compare_count_tables(golden, ring, n, rows):
    """The mismatches of computed `census_table` rows against a golden count
    table; `verify` on a count table and `tables --golden` both end here."""
    problems = []
    if golden.get("ring") and parse_ring(golden["ring"]) != ring:
        problems.append(f"ring mismatch: golden has {golden['ring']}")
    if golden.get("n") != n:
        problems.append(f"degree mismatch: golden has n={golden.get('n')}")
    if problems:
        return problems
    got, want = ({r["k"]: (r["lo"], r["o"], r.get("diff", r["lo"] - r["o"])) for r in table}
                 for table in (rows, golden["rows"]))
    for k in sorted(set(got) | set(want)):
        if k not in got:
            problems.append(f"k={k} missing from computed table")
        elif k not in want:
            problems.append(f"k={k} not in golden table")
        elif got[k] != want[k]:
            problems.append(f"k={k}: computed {got[k]}, golden {want[k]}")
    return problems


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
        got = {tuple(m.render_entries()) for m in census.elements}
        want = set(map(tuple, golden[side_key]))
        if got != want:
            problems.append(f"{side_key}: computed {len(got)} matrices, golden {len(want)}, "
                            f"set difference {len(got ^ want)}")
    return problems, nodes


def _cmd_verify(args):
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
    return _Run(ring, {"table": args.table}, result, nodes, [
        f"verify {args.table} against {ring.literal}, n={n}: "
        + ("OK" if not mismatches else "MISMATCH"),
        *("  " + m for m in mismatches),
    ], status=EXIT_MISMATCH if mismatches else EXIT_OK)


def _cmd_crt(args):
    ring = parse_ring(args.ring)
    crt_split = split(ring)
    if args.verify:
        if args.k is None or args.n is None:
            raise KorthosError("crt --verify needs both --n and --k")
        k = ring.parse_element(args.k)
        result = verify_semigroup_isomorphism(ring, args.n, k, side=args.side)
        ok = result["bijection_ok"]
        return _Run(ring, {"n": args.n, "k": args.k, "verify": True, "side": args.side},
                    result, result["nodes"], [
            f"{ring.literal} -> " + " x ".join(result["factors"]),
            f"k={result['k']} maps to a=({', '.join(result['a_j'])})",
            f"factor counts {result['factor_counts']}, product {result['product']}, "
            f"direct {result['direct_count']}",
            "bijection: " + ("OK" if ok else "FAILED"),
        ], status=EXIT_OK if ok else EXIT_MISMATCH)
    result = {"factors": [f.literal for f in crt_split.factors]}
    text = [f"{ring.literal} -> " + " x ".join(result["factors"])]
    if args.k is not None:
        k = ring.parse_element(args.k)
        result["k"] = ring.render(k)
        result["a_j"] = [f.render(x) for f, x in
                         zip(crt_split.factors, crt_split.forward(k))]
        text.append(f"k={result['k']} maps to ({', '.join(result['a_j'])})")
    return _Run(ring, {"k": args.k}, result, text=text)


def _cmd_code(args):
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
            try:
                code = code_from_generator(ring, Mat.from_text(ring, fh.read()))
            except UnicodeDecodeError as exc:
                raise KorthosError(f"{args.generator} is not UTF-8 text: {exc}") from None
    result = {
        "length": code.length,
        "size": code.size,
        "systematic": code.systematic,
        "generator": code.generator.render_entries() if code.generator else None,
        "generator_rows": code.generator.rows if code.generator else None,
    }
    text = [f"code over {ring.literal}: length {code.length}, "
            f"{code.size} codewords, systematic={code.systematic}"]
    if args.report:
        r = result["report"] = duality_report(code)._asdict()
        text += [
            f"dual size {r['dual_size']}; self-dual={r['self_dual']}, "
            f"weakly self-dual={r['weakly_self_dual']}, lcd={r['lcd']}",
            f"gram nonsingular={r['gram_nonsingular']}, "
            f"hamming={r['hamming_distance']}, lee={r['lee_distance']}",
        ]
    return _Run(ring, {"A": args.A, "generator": args.generator,
                       "drop_rows": args.drop_rows, "report": args.report},
                result, text=text)


def _cmd_antiortho(args):
    ring = parse_ring(args.ring)
    witness, nodes = _antiorthogonal_search(ring, args.n)
    result = {"n": args.n, "found": witness is not None,
              "witness": witness.render_entries() if witness else None}
    return _Run(ring, {"n": args.n}, result, nodes, [
        f"antiorthogonal {args.n}x{args.n} witness over {ring.literal}: " + witness.to_text()
        if witness else
        f"no {args.n}x{args.n} antiorthogonal matrix over {ring.literal} (none found)"
    ])


# ---------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The one parser of this process, built on first use.  It is shared by
    every `main` call, so callers must not mutate it."""
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
    args = build_parser().parse_args(argv)
    try:   # printing too, so a failed write (a closed pipe) is one error line
        t0 = time.perf_counter()
        run = args.func(args)
        if args.format == "json":
            print(json.dumps({
                "command": args.cmd,
                "ring": run.ring.literal,
                "params": run.params,
                "result": run.result,
                "elapsed_ms": round((time.perf_counter() - t0) * 1000.0, 3),
                "nodes": run.nodes,
            }, sort_keys=True, indent=2))
        else:
            for line in run.csv if args.format == "csv" else run.text:
                print(line)
        return run.status
    except (KorthosError, OSError) as exc:
        print(f"korthos: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
