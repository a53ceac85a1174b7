import json
from pathlib import Path

import pytest

from korthos.cli import main

TABLES = Path(__file__).resolve().parent.parent / "tables"


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


def test_missing_table_file_exits_1(capsys):
    code, _, err = run(capsys, "verify", "--table", "no/such/file.json")
    assert code == 1


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
    monkeypatch.setenv("KORTHOS_BUDGET", "10")
    code, _, err = run(capsys, "census", "--ring", "Z6", "--n", "3", "--k", "0")
    assert code == 1
    assert "budget" in err


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
    ("verify", '{"ring": 6, "n": 2, "rows": []}', "ring literal"),
    ("tables", '{"ring": 6, "n": 2, "rows": []}', "ring literal"),
    ("verify", '{"ring": "Z6", "n": 2, "k": 7, "lo": []}', "'k'"),
    ("verify", '{"ring": "Z6", "n": 2, "k": "1", "lo": 5}', "'lo'"),
    ("verify", None, "directory"),
    ("tables", None, "directory"),
], ids=["row-without-lo", "row-without-o", "rows-not-list", "ring-not-str",
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
