"""End-to-end CLI behaviour through main(argv)."""

import json

import pytest

from pcirc import circuit as circ
from pcirc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_small_term(capsys):
    code, out, _ = run(capsys, "eval", "6*7")
    assert code == 0
    assert out.strip() == "42"


def test_eval_formula_true_false(capsys):
    code, out, _ = run(capsys, "eval", "1+1 = 2")
    assert (code, out.strip()) == (0, "True")
    code, out, _ = run(capsys, "eval", "1+1 = 3")
    assert (code, out.strip()) == (0, "False")


def test_eval_undefined(capsys):
    code, out, _ = run(capsys, "eval", "3 >>^ 1")
    assert (code, out.strip()) == (1, "Undefined")


def test_eval_huge_term_prints_sizes(capsys):
    code, out, _ = run(capsys, "eval", "tower(20)")
    assert code == 0
    assert out.startswith("|V|=")
    assert "sha256=" in out


def test_eval_let_binding(capsys):
    code, out, _ = run(capsys, "eval", "x + y", "--let", "x=40", "--let", "y=2")
    assert (code, out.strip()) == (0, "42")


def test_eval_parse_error(capsys):
    code, _, err = run(capsys, "eval", "1 + ")
    assert code == 2
    assert "parse error" in err


def test_eval_unbound_variable(capsys):
    code, _, err = run(capsys, "eval", "q + 1")
    assert code == 2
    assert "q" in err


def test_eval_budget_exit_code(capsys):
    big = "*".join(f"(2^({1 << k})+1)" for k in range(2, 9))
    code, _, err = run(capsys, "eval", big, "--max-vertices", "64")
    assert code == 3
    assert "budget" in err


def test_deep_nesting_exits_3(capsys):
    code, _, err = run(capsys, "cmp", "tower(x)+1", "tower(x)", "--let", "x=1200")
    assert code == 3
    assert "nesting too deep" in err
    code, _, err = run(capsys, "eval", "2^(" * 400 + "1" + ")" * 400)
    assert code == 3
    assert "nesting too deep" in err


def test_cmp_tower(capsys):
    code, out, _ = run(capsys, "cmp", "tower(x)+1", "tower(x)", "--let", "x=50")
    assert (code, out.strip()) == (0, ">")
    code, out, _ = run(capsys, "cmp", "3*3", "9")
    assert (code, out.strip()) == (0, "=")
    code, out, _ = run(capsys, "cmp", "2", "5")
    assert (code, out.strip()) == (0, "<")


def test_normalize_json_round_trip(tmp_path, capsys):
    from pcirc.arithmetic import add

    p = tmp_path / "c.json"
    raw = circ.to_json_dict(add(circ.from_integer(2), circ.from_integer(4)))
    p.write_text(json.dumps(raw))
    code, out, _ = run(capsys, "normalize", str(p))
    assert code == 0
    loaded = circ.from_json_dict(json.loads(out))
    assert circ.canonical_bytes(loaded) == circ.canonical_bytes(circ.from_integer(6))


def test_normalize_improper(tmp_path, capsys):
    c = circ.PowerCircuit()
    z = c.add_vertex()
    v = c.add_vertex()
    u = c.add_vertex()
    c.add_edge(u, z, 1)
    c.add_edge(v, u, -1)
    c.set_mark(v, 1)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(circ.to_json_dict(c)))
    code, _, err = run(capsys, "normalize", str(p))
    assert code == 1
    assert "Improper" in err


def test_normalize_rejects_garbage(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    code, _, err = run(capsys, "normalize", str(p))
    assert code == 2
    assert "error" in err


def test_stats_expression(capsys):
    code, out, _ = run(capsys, "stats", "12")
    assert code == 0
    line1, line2 = out.strip().splitlines()
    assert "kind=normal" in line1
    assert "|V|=" in line1 and "certificate=" in line1
    assert line2 == "12"


def test_stats_file(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(circ.to_json_dict(circ.from_integer(7))))
    code, out, _ = run(capsys, "stats", str(p))
    assert code == 0
    assert "kind=normal" in out
    assert out.strip().endswith("7")


def test_export_dot(capsys):
    code, out, _ = run(capsys, "export", "5", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")


def test_export_json(capsys):
    code, out, _ = run(capsys, "export", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "normal"
    assert circ.eval_bignum(circ.from_json_dict(doc)) == 5


def test_bench_csv(capsys):
    code, out, _ = run(capsys, "bench", "--family", "reduce", "--n-max", "20",
                       "--trials", "2", "--seed", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,vertices,ops,seconds"
    assert len(lines) == 3
    assert lines[1].startswith("10,")


def test_bench_tower(capsys):
    code, out, _ = run(capsys, "bench", "--family", "tower", "--n-max", "4")
    assert code == 0
    assert len(out.strip().splitlines()) == 5


def test_demo_blowup(capsys):
    code, out, _ = run(capsys, "demo", "blowup", "--n", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,raw_vertices")
    last = lines[-1].split(",")
    assert last[0] == "8"
    # normal form mark count reaches the stated lower bound
    assert int(last[4]) >= int(last[5]) == 32


def test_demo_blowup_bounds(capsys):
    assert run(capsys, "demo", "blowup", "--n", "3")[0] == 2
    assert run(capsys, "demo", "blowup", "--n", "15")[0] == 3


def test_demo_div3(capsys):
    code, out, _ = run(capsys, "demo", "div3", "--j", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "j,i,compact_terms,min_circuit_vertices"
    assert lines[1].split(",")[:3] == ["0", "2", "3"]
    assert lines[2].split(",")[:3] == ["1", "4", "5"]
