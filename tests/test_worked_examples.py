"""Data-driven checks against the shipped worked-examples golden file, and
the values README's library sketch states in its comments."""

import ast
import json
import re
from pathlib import Path

import pytest

from korthos import (
    Mat,
    classify_k_orthogonal,
    code_from_generator,
    drop_rows,
    duality_report,
    parse_ring,
    systematic_from_A,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tables" / "worked-examples.json").read_text())


@pytest.mark.parametrize("case", GOLDEN["orthogonality"],
                         ids=lambda c: f"{c['ring']}:{c['matrix']}")
def test_orthogonality_examples(case):
    ring = parse_ring(case["ring"])
    mat = Mat.from_text(ring, case["matrix"])
    k = ring.parse_element(case["k"])
    cls = classify_k_orthogonal(mat, k)
    assert cls.left_k == case["left"]
    assert cls.right_k == case["right"]
    if "det" in case:
        assert mat.det() == ring.parse_element(case["det"])
    if "invertible" in case:
        assert mat.is_invertible() == case["invertible"]


@pytest.mark.parametrize("case", GOLDEN["codes"], ids=lambda c: c["ring"] + ":" +
                         c.get("A", c.get("generator", ""))[:12])
def test_code_examples(case):
    ring = parse_ring(case["ring"])
    if "A" in case:
        a = Mat.from_text(ring, case["A"])
        if "drop_rows" in case:
            a = drop_rows(a, case["drop_rows"])
        code = systematic_from_A(a)
    else:
        code = code_from_generator(ring, Mat.from_text(ring, case["generator"]))
    if "size" in case:
        assert code.size == case["size"]
    report = duality_report(code)
    assert report.self_dual == case["self_dual"]
    assert report.weakly_self_dual == case["weakly_self_dual"]
    if "lee" in case:
        assert report.lee_distance == case["lee"]
    if "hamming" in case:
        assert report.hamming_distance == case["hamming"]


def test_readme_library_sketch_states_its_values():
    """Run README's `## Library sketch` block line by line; an expression
    line must equal the literal its comment opens with (up to " (" or ":")."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, seen = {}, []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        body = ast.parse(code).body
        if body and isinstance(body[0], ast.Expr):
            got = eval(code, namespace)
            want = ast.literal_eval(re.split(r" \(|:", comment.strip())[0])
            assert repr(got) == repr(want), line
            seen.append(want)
        else:
            exec(code, namespace)
    assert seen == [1056, True, ([22, 48], True), True, None]
