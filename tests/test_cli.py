import json
import re
import shlex
import sys
from pathlib import Path

import pytest

from korthos import enumerate_semigroup, parse_ring, search, split
from korthos.cli import build_parser, main

from helpers import ring_family

ROOT = Path(__file__).resolve().parent.parent
TABLES = ROOT / "tables"
SNAPSHOTS = Path(__file__).resolve().parent / "cli_snapshots.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


# ---------------------------------------------------------------------------

def test_idempotents_text(capsys):
    code, out, _ = run(capsys, "idempotents", "--ring", "Z6")
    assert code == 0
    assert "0, 1, 3, 4" in out


def test_idempotents_json_r2(capsys):
    code, payload, _ = run_json(capsys, "idempotents", "--ring", "GF(2)+vGF(2)[v2=v]")
    assert code == 0
    assert payload["result"]["idempotents"] == ["0", "v", "1", "1+v"]
    assert payload["command"] == "idempotents"


def test_idempotents_z4(capsys):
    code, payload, _ = run_json(capsys, "idempotents", "--ring", "Z4")
    assert payload["result"]["idempotents"] == ["0", "1"]


def test_census_counts_default_all_idempotents(capsys):
    code, payload, _ = run_json(capsys, "census", "--ring", "Z6", "--n", "2")
    assert code == 0
    counts = {row["k"]: row["count"] for row in payload["result"]["censuses"]}
    assert counts == {"0": 4, "1": 16, "3": 2, "4": 32}


def test_census_matrices_csv_and_side(capsys):
    code, out, _ = run(capsys, "census", "--ring", "R2", "--n", "2", "--k", "v",
                       "--side", "two", "--format", "csv")
    assert code == 0
    assert "v,two_sided,4" in out


def test_census_emit_matrices(capsys):
    code, payload, _ = run_json(capsys, "census", "--ring", "R2", "--n", "2",
                                "--k", "v", "--emit", "matrices")
    rows = payload["result"]["censuses"][0]["matrices"]
    assert len(rows) == 8
    assert ["v", "0", "0", "v"] in rows


def test_tables_against_golden(capsys):
    code, out, _ = run(capsys, "tables", "--ring", "R2", "--n", "3",
                       "--golden", str(TABLES / "r2-n3-counts.json"))
    assert code == 0
    assert "golden check: OK" in out


def test_tables_csv(capsys):
    code, out, _ = run(capsys, "tables", "--ring", "Z6", "--n", "2", "--format", "csv")
    assert code == 0
    assert "0,4,2,2" in out
    assert "4,32,16,16" in out


def test_tables_mismatch_exits_2(tmp_path, capsys):
    bad = {"ring": "Z6", "n": 2, "rows": [
        {"k": "0", "lo": 4, "o": 2, "diff": 2},
        {"k": "1", "lo": 99, "o": 16, "diff": 83},
        {"k": "3", "lo": 2, "o": 2, "diff": 0},
        {"k": "4", "lo": 32, "o": 16, "diff": 16},
    ]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "tables", "--ring", "Z6", "--n", "2",
                       "--golden", str(path))
    assert code == 2
    assert "k=1" in out


@pytest.mark.parametrize("name", [
    "r2-n2-counts.json",
    "r2-n3-counts.json",
    "z6-n2-counts.json",
    "z6-n3-counts.json",
    "r2-n2-v-semigroups.json",
])
def test_verify_shipped_goldens(capsys, name):
    code, out, _ = run(capsys, "verify", "--table", str(TABLES / name))
    assert code == 0, out
    assert "OK" in out


def test_verify_matrix_table_mismatch(tmp_path, capsys):
    golden = json.loads((TABLES / "r2-n2-v-semigroups.json").read_text())
    golden["o"] = golden["o"][:3]  # drop one matrix
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(golden))
    code, out, _ = run(capsys, "verify", "--table", str(path))
    assert code == 2


def test_crt_verify(capsys):
    code, payload, _ = run_json(capsys, "crt", "--ring", "Z6", "--n", "3",
                                "--k", "4", "--verify")
    assert code == 0
    assert payload["result"]["product"] == 1056
    assert payload["result"]["direct_count"] == 1056
    assert payload["result"]["bijection_ok"] is True


def test_crt_plain_split(capsys):
    code, payload, _ = run_json(capsys, "crt", "--ring", "Z6", "--k", "4")
    assert code == 0
    assert payload["result"]["factors"] == ["Z2", "Z3"]
    assert payload["result"]["a_j"] == ["0", "1"]


def test_crt_verify_needs_n_and_k(capsys):
    code, _, err = run(capsys, "crt", "--ring", "Z6", "--verify")
    assert code == 1
    assert "needs both" in err


def test_code_report(capsys):
    code, payload, _ = run_json(
        capsys, "code", "--ring", "Z4",
        "--A", "3,1,2,1;1,2,3,1;3,3,3,2;2,3,1,1", "--report",
    )
    assert code == 0
    report = payload["result"]["report"]
    assert report["self_dual"] is True
    assert report["lee_distance"] == 6
    assert report["hamming_distance"] == 4


def test_code_drop_rows(capsys):
    code, payload, _ = run_json(
        capsys, "code", "--ring", "Z4",
        "--A", "3,1,2,1;1,2,3,1;3,3,3,2;2,3,1,1", "--drop-rows", "4", "--report",
    )
    report = payload["result"]["report"]
    assert report["weakly_self_dual"] is True
    assert report["self_dual"] is False


@pytest.mark.parametrize("value", ["x", "1,,2"])
def test_code_bad_drop_rows_exits_1(capsys, value):
    code, _, err = run(capsys, "code", "--ring", "Z4",
                       "--A", "3,1,2,1;1,2,3,1;3,3,3,2;2,3,1,1", "--drop-rows", value)
    assert code == 1
    assert "korthos: error:" in err and repr(value) in err


def test_code_generator_file(tmp_path, capsys):
    path = tmp_path / "gen.txt"
    path.write_text("1,0,4,5;0,1,1,4\n")
    code, payload, _ = run_json(capsys, "code", "--ring", "Z6",
                                "--generator", str(path), "--report")
    assert code == 0
    assert payload["result"]["report"]["self_dual"] is True
    assert payload["result"]["systematic"] is True


def test_code_generator_file_not_utf8_exits_1(tmp_path, capsys):
    path = tmp_path / "gen.txt"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "code", "--ring", "Z4", "--generator", str(path))
    assert code == 1 and out == ""
    assert err.startswith("korthos: error:") and err.count("\n") == 1
    assert "UTF-8" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["x", "v*x", "x+v"])
def test_vext_parse_error_names_the_vext_ring(capsys, value):
    # the base field's parse error must not escape under the field's name
    code, out, err = run(capsys, "census", "--ring", "R2", "--n", "2", "--k", value)
    assert code == 1 and out == ""
    assert err == f"korthos: error: cannot parse {value!r} as an element of GF(2)+vGF(2)[v2=v]\n"


def test_code_requires_exactly_one_input(capsys):
    code, _, err = run(capsys, "code", "--ring", "Z6")
    assert code == 1
    code, _, err = run(capsys, "code", "--ring", "Z6", "--A", "1", "--generator", "x")
    assert code == 1


def test_antiortho_none_found(capsys):
    code, out, _ = run(capsys, "antiortho", "--ring", "Z6", "--n", "3")
    assert code == 0
    assert "none found" in out


def test_antiortho_witness(capsys):
    code, payload, _ = run_json(capsys, "antiortho", "--ring", "Z6", "--n", "2")
    assert code == 0
    assert payload["result"]["found"] is True


def test_bad_ring_literal_exits_1(capsys):
    code, _, err = run(capsys, "idempotents", "--ring", "Q8")
    assert code == 1
    assert "error" in err


def test_ring_above_table_cap_exits_1(capsys):
    code, _, err = run(capsys, "idempotents", "--ring", "Z257")
    assert code == 1
    assert "korthos: error:" in err and "256" in err


NINES = "9" * 5000


@pytest.mark.parametrize("argv", [
    ("idempotents", "--ring", f"Z{NINES}"),
    ("idempotents", "--ring", f"GF(2,2;x^{NINES}+1)"),
    ("census", "--ring", "GF(2,2)", "--n", "2", "--k", "(a,1)"),
    ("code", "--ring", "GF(2,2)", "--A", "(1,b)"),
    ("idempotents", "--ring", "GF(1000000000000000003)"),
    ("idempotents", "--ring", "GF(2,61;x^61+x^5+x^2+x+1)"),
    ("idempotents", "--ring", "x".join(["Z2"] * 15000)),
    ("idempotents", "--ring", f"Z{NINES[:4000]}"),
    ("idempotents", "--ring", f"GF({NINES})"),
    ("idempotents", "--ring", f"GF({NINES[:4000]})"),
    ("census", "--ring", "Z6", "--n", "6000"),
    ("census", "--ring", "Z6", "--n", "5000", "--k", "0"),
    ("tables", "--ring", "Z6", "--n", str(10 ** 7)),
    ("antiortho", "--ring", "Z6", "--n", str(10 ** 20)),
    ("crt", "--ring", "Z6", "--n", "6000", "--k", "0", "--verify"),
], ids=["zmod-digits", "modulus-digits", "field-element", "matrix-entry",
        "huge-prime", "huge-degree", "many-factors", "zmod-4000-digits",
        "prime-digits", "prime-4000-digits", "census-n-6000", "census-n-5000",
        "tables-n-1e7", "antiortho-n-1e20", "crt-n-6000"])
def test_bad_literal_exits_1(capsys, argv):
    # one short error line: the message never echoes a whole literal
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("korthos: error:")
    assert err.count("\n") == 1 and len(err) < 200


def test_census_past_the_listing_cap(monkeypatch, capsys):
    # LO_3(0, Z15) lists 234,675 words of paths: below that cap it is
    # counted as before but refuses to list
    argv = ("census", "--ring", "Z15", "--n", "3", "--k", "0")
    counts = run_json(capsys, *argv)
    monkeypatch.setattr(search, "LIST_CAP", 234674)
    capped = run_json(capsys, *argv)
    for code, payload, _ in (counts, capped):
        assert code == 0 and payload.pop("elapsed_ms") >= 0
    assert capped == counts
    assert counts[1]["result"]["censuses"][0]["count"] == 78225
    code, out, err = run(capsys, *argv, "--emit", "matrices", "--format", "json")
    assert (code, out) == (1, "")
    assert err.startswith("korthos: error:") and err.count("\n") == 1
    assert "78225 elements" in err and "234674 words" in err


def test_missing_table_file_exits_1(capsys):
    code, _, err = run(capsys, "verify", "--table", "no/such/file.json")
    assert code == 1


class _ClosedPipe:
    """A stdout whose reader has gone, as in `korthos ... | head -1`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_failed_write_exits_1(monkeypatch, capsys, fmt):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(["census", "--ring", "Z6", "--n", "2", "--format", fmt])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "korthos: error: [Errno 32] Broken pipe\n"


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--ring", "Z6"])  # missing --n
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [
    ("census", "--ring", "Z6", "--n", "2", "--jobs", "2"),
    ("idempotents", "--ring", "Z6", "--format", "csv"),
    ("crt", "--ring", "Z6", "--format", "csv"),
    ("code", "--ring", "Z4", "--A", "1", "--format", "csv"),
    ("antiortho", "--ring", "Z6", "--n", "2", "--format", "csv"),
], ids=["census-jobs", "idempotents-csv", "crt-csv", "code-csv", "antiortho-csv"])
def test_unsupported_options_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    assert "korthos: error:" in capsys.readouterr().err


def test_budget_env_propagates(monkeypatch, capsys):
    # Z12 splits into Z4, which is walked, and Z3, which is counted in closed form
    monkeypatch.setenv("KORTHOS_BUDGET", "10")
    code, _, err = run(capsys, "census", "--ring", "Z12", "--n", "3", "--k", "0")
    assert code == 1
    assert err.startswith("korthos: error: walking factor Z4 of Z12 at k=0: ")
    assert "budget of 10 " in err


def test_budget_bounds_only_the_degree_of_a_closed_form(monkeypatch, capsys):
    # Z6 splits into fields: no node is walked, and the budget of 10 (4 bits)
    # refuses n = 4 as a walk would, with the walk's own message
    monkeypatch.setenv("KORTHOS_BUDGET", "10")
    code, payload, _ = run_json(capsys, "census", "--ring", "Z6", "--n", "3", "--k", "0")
    assert code == 0 and payload["nodes"] == 0
    assert payload["result"]["censuses"][0]["count"] == 22 * 105 == 2310
    code, _, err = run(capsys, "census", "--ring", "Z6", "--n", "4", "--k", "0")
    assert code == 1
    assert err == ("korthos: error: walking factor Z2 of Z6 at k=0: the 2^4 candidate "
                   "columns exceed the node budget of 10\n")


def test_budget_failure_names_the_factor_walked(monkeypatch, capsys):
    monkeypatch.setenv("KORTHOS_BUDGET", "10")
    code, _, err = run(capsys, "tables", "--ring", "Z6", "--n", "3")
    assert code == 1
    assert err.startswith("korthos: error: walking factor Z2 of Z6 at k=0: search exceeded "
                          "the node budget of 10 ")


@pytest.mark.parametrize("ring", [ring.literal for ring in ring_family()])
def test_count_only_census_agrees_with_the_tables(capsys, ring):
    # the closed forms of the census's field factors against the walks of
    # every factor behind `tables`
    factors = split(parse_ring(ring)).factors
    count_from = ["closed-form" if f.is_field() else "walk" for f in factors]
    for n in ("1", "2", "3"):
        code, table, _ = run_json(capsys, "tables", "--ring", ring, "--n", n)
        assert code == 0 and table["result"]["factors"] == [f.literal for f in factors]
        for side, column in (("left", "lo"), ("two", "o")):
            code, census, _ = run_json(capsys, "census", "--ring", ring, "--n", n, "--side", side)
            assert code == 0 and census["result"]["factors"] == table["result"]["factors"]
            assert [(c["k"], c["count"], c["count_from"])
                    for c in census["result"]["censuses"]] == [
                (r["k"], r[column], count_from) for r in table["result"]["rows"]]


def test_count_only_census_of_a_field_is_closed_form(capsys):
    # the walk takes 91,664,916 nodes (4.6 s) for the same count
    code, payload, _ = run_json(capsys, "census", "--ring", "GF(2)", "--n", "8", "--k", "0")
    assert code == 0 and payload["nodes"] == 0
    assert payload["result"]["censuses"] == [{"k": "0", "side": "left", "count": 569316868096,
                                              "count_from": ["closed-form"]}]


@pytest.mark.parametrize("side", ["left", "right", "two"])
def test_count_only_census_agrees_with_the_listing(capsys, side):
    argv = ("census", "--ring", "Z6", "--n", "3", "--side", side)
    code, counted, _ = run_json(capsys, *argv)
    assert code == 0 and counted["result"]["factors"] == ["Z2", "Z3"]
    code, listed, _ = run_json(capsys, *argv, "--emit", "matrices")
    assert code == 0 and "factors" not in listed["result"]
    assert [(c["k"], c["count"]) for c in counted["result"]["censuses"]] == [
        (c["k"], len(c["matrices"])) for c in listed["result"]["censuses"]]


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_budget_env_exits_1(monkeypatch, capsys, value):
    monkeypatch.setenv("KORTHOS_BUDGET", value)
    code, _, err = run(capsys, "census", "--ring", "Z6", "--n", "2", "--k", "1")
    assert code == 1
    assert "korthos: error:" in err and "KORTHOS_BUDGET" in err


@pytest.mark.parametrize("text,needle", [
    (None, "'ring'"),  # tables/worked-examples.json, which holds no census
    ('{"ring": "Z6"}', "'n'"),
    ('{"ring": "Z6", "n": 2}', "'rows' nor a 'k'"),
    ('{"ring": "Z6", "n": "two", "rows": []}', "'n' must be an integer"),
    ("ring Z6, n 2", "not a JSON table"),
    ("[1, 2]", "not a JSON table"),
], ids=["worked-examples", "no-n", "no-rows-or-k", "n-not-int", "not-json", "not-object"])
def test_malformed_table_file_exits_1(tmp_path, capsys, text, needle):
    path = TABLES / "worked-examples.json"
    if text is not None:
        path = tmp_path / "table.json"
        path.write_text(text)
    code, _, err = run(capsys, "verify", "--table", str(path))
    assert code == 1
    assert "korthos: error:" in err and needle in err


@pytest.mark.parametrize("command,text,needle", [
    ("verify", '{"ring": "Z6", "n": 2, "rows": [{"k": "0", "o": 1}]}', "'rows'"),
    ("tables", '{"ring": "Z6", "n": 2, "rows": [{"k": "0", "lo": 1}]}', "'rows'"),
    ("verify", '{"ring": "Z6", "n": 2, "rows": 5}', "'rows'"),
    ("verify", '{"ring": "Z6", "n": true, "rows": []}', "'n' must be an integer"),
    ("verify", '{"ring": "Z6", "n": 2, "rows": [{"k": "0", "lo": true, "o": 1}]}', "'rows'"),
    ("verify", '{"ring": 6, "n": 2, "rows": []}', "ring literal"),
    ("tables", '{"ring": 6, "n": 2, "rows": []}', "ring literal"),
    ("verify", '{"ring": "Z6", "n": 2, "k": 7, "lo": []}', "'k'"),
    ("verify", '{"ring": "Z6", "n": 2, "k": "1", "lo": 5}', "'lo'"),
    ("verify", None, "directory"),
    ("tables", None, "directory"),
], ids=["row-without-lo", "row-without-o", "rows-not-list", "n-bool", "lo-bool", "ring-not-str",
        "golden-ring-not-str", "k-not-str", "lo-not-list", "directory",
        "golden-directory"])
def test_bad_table_shape_exits_1(tmp_path, capsys, command, text, needle):
    path = tmp_path
    if text is not None:
        path = tmp_path / "table.json"
        path.write_text(text)
    argv = (("verify", "--table", str(path)) if command == "verify" else
            ("tables", "--ring", "Z6", "--n", "2", "--golden", str(path)))
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "korthos: error:" in err and needle in err


def test_golden_without_rows_exits_1(tmp_path, capsys):
    path = tmp_path / "golden.json"
    path.write_text('{"ring": "Z6", "n": 2}')
    code, _, err = run(capsys, "tables", "--ring", "Z6", "--n", "2", "--golden", str(path))
    assert code == 1
    assert "korthos: error:" in err and "'rows'" in err


def _golden_copy(tmp_path, name, edit):
    """A temp copy of the shipped golden table `name`, changed by `edit`."""
    table = json.loads((TABLES / name).read_text())
    edit(table)
    path = tmp_path / name
    path.write_text(json.dumps(table))
    return path


def test_golden_of_another_degree_exits_2(tmp_path, capsys):
    path = _golden_copy(tmp_path, "z6-n2-counts.json", lambda t: t.update(n=3))
    code, out, _ = run(capsys, "tables", "--ring", "Z6", "--n", "2", "--golden", str(path))
    assert code == 2
    assert "degree mismatch: golden has n=3" in out


def _swap_rows(table):
    # k = 2 is not idempotent in Z6, so no census row has it
    table["rows"] = [r for r in table["rows"] if r["k"] != "1"]
    table["rows"].append({"k": "2", "lo": 1, "o": 1, "diff": 0})


@pytest.mark.parametrize("command", ["verify", "tables"])
def test_golden_with_an_extra_and_a_dropped_row_exits_2(tmp_path, capsys, command):
    path = _golden_copy(tmp_path, "z6-n2-counts.json", _swap_rows)
    argv = (("verify", "--table", str(path)) if command == "verify" else
            ("tables", "--ring", "Z6", "--n", "2", "--golden", str(path)))
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert "k=2 missing from computed table" in out
    assert "k=1 not in golden table" in out


def test_matrix_table_checks_only_the_sides_it_lists(tmp_path, capsys):
    def left_only(table):
        del table["ro"], table["o"]
    path = _golden_copy(tmp_path, "r2-n2-v-semigroups.json", left_only)
    code, payload, _ = run_json(capsys, "verify", "--table", str(path))
    assert code == 0 and payload["result"]["mismatches"] == []
    ring = parse_ring("GF(2)+vGF(2)[v2=v]")
    assert payload["nodes"] == enumerate_semigroup(ring, 2, ring.parse_element("v")).nodes


def test_payloads_are_deterministic(capsys):
    def payload_no_time(*argv):
        code, payload, _ = run_json(capsys, *argv)
        assert code == 0
        del payload["elapsed_ms"]
        return json.dumps(payload, sort_keys=True)

    argv = ("census", "--ring", "Z6", "--n", "2", "--k", "4", "--emit", "matrices")
    assert payload_no_time(*argv) == payload_no_time(*argv)
    argv = ("crt", "--ring", "Z6", "--n", "2", "--k", "4", "--verify")
    assert payload_no_time(*argv) == payload_no_time(*argv)
    argv = ("tables", "--ring", "R2", "--n", "2")
    assert payload_no_time(*argv) == payload_no_time(*argv)


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_main_reuses_its_parser_across_calls(monkeypatch, capsys):
    """Usage errors, --help, command errors and other commands' options leave
    nothing on the shared parser for the next call."""
    first = ["census", "--ring", "Z6", "--n", "2", "--format", "json"]
    before = run_snapshot(capsys, first)
    assert before["exit"] == 0

    with pytest.raises(SystemExit) as exc:
        main(["census", "--ring", "Z6"])  # missing --n
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("usage: korthos census")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: korthos" in capsys.readouterr().out
    assert run(capsys, "idempotents", "--ring", "Z1")[0] == 1

    assert run(capsys, "census", "--ring", "Z6", "--n", "2", "--k", "1",
               "--side", "two", "--emit", "matrices")[0] == 0
    code, payload, _ = run_json(capsys, "census", "--ring", "Z6", "--n", "2", "--k", "1")
    assert code == 0
    assert payload["params"]["side"] == "left"
    assert payload["params"]["emit"] == "counts"
    assert run_snapshot(capsys, first) == before

    argv = ["idempotents", "--ring", "Z4", "--format", "json"]
    want = run_snapshot(capsys, argv)
    monkeypatch.setattr(sys, "argv", ["korthos", *argv])
    assert run_snapshot(capsys, None) == want


@pytest.mark.parametrize("argv", [
    ("tables", "--ring", "R2", "--n", "2"),
    ("verify", "--table", str(TABLES / "z6-n2-counts.json")),
    ("verify", "--table", str(TABLES / "r2-n2-v-semigroups.json")),
    ("crt", "--ring", "Z6", "--n", "2", "--k", "4", "--verify"),
    ("antiortho", "--ring", "Z6", "--n", "3"),
], ids=["tables", "verify-counts", "verify-matrices", "crt-verify", "antiortho"])
def test_search_commands_report_nodes(capsys, argv):
    code, payload, _ = run_json(capsys, *argv)
    assert code == 0
    assert payload["nodes"] > 0
    rows = payload["result"].get("rows")
    if rows:
        assert payload["nodes"] == sum(r["nodes"] for r in rows)


# ---------------------------------------------------------------------------
# pinned output of every README command in every format it accepts

# branches the README block does not reach: a plain CRT split, a census over
# every idempotent with its matrices, a count-table verify, a witness found,
# a usage error and a golden mismatch
EXTRA_COMMANDS = [
    "crt --ring Z6 --k 4",
    "census --ring Z6 --n 2 --emit matrices",
    "verify --table tables/z6-n2-counts.json",
    "antiortho --ring Z6 --n 2",
    "crt --ring Z6 --verify",
    "tables --ring Z6 --n 2 --golden tables/r2-n2-counts.json",
]


def readme_commands():
    """The `korthos ...` lines of README's `## CLI` bash block, as argv lists."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n+```bash\n(.*?)^```", text, re.S | re.M).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("korthos ")]


def snapshot_cases():
    """(key, argv) for each command in each format it accepts; any
    `--format` on the command line is replaced."""
    cases = []
    for argv in readme_commands() + [shlex.split(c) for c in EXTRA_COMMANDS]:
        if "--format" in argv:
            i = argv.index("--format")
            argv = argv[:i] + argv[i + 2:]
        formats = ["text", "json"] + (["csv"] if argv[0] in ("census", "tables") else [])
        for fmt in formats:
            full = argv + ["--format", fmt]
            cases.append((shlex.join(full), full))
    return cases


def run_snapshot(capsys, argv):
    """{exit, stdout, stderr} of one run, with the JSON `elapsed_ms` line cut."""
    code = main(argv)
    out = capsys.readouterr()
    stdout = re.sub(r'\n  "elapsed_ms": [-+.eE0-9]+,', "", out.out)
    return {"exit": code, "stdout": stdout, "stderr": out.err}


def test_snapshots_cover_every_readme_command():
    keys = set(json.loads(SNAPSHOTS.read_text(encoding="utf-8")))
    assert keys == {key for key, _ in snapshot_cases()}
    assert len(readme_commands()) >= 9


@pytest.mark.parametrize("key,argv", snapshot_cases(), ids=[k for k, _ in snapshot_cases()])
def test_cli_output_matches_snapshot(monkeypatch, capsys, key, argv):
    # run from the repo root, so the README's relative table paths resolve
    # and appear verbatim in `params`
    monkeypatch.chdir(ROOT)
    want = json.loads(SNAPSHOTS.read_text(encoding="utf-8"))[key]
    assert run_snapshot(capsys, argv) == want
