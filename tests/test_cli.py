"""End-to-end CLI behaviour through main(argv)."""

import io
import json

import pytest

from pcirc import circuit as circ
from pcirc import cli
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


def test_parser_built_once_keeps_calls_apart(capsys):
    # one parser serves every call in a process; no option, binding or
    # subcommand of one call leaks into the next
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run(capsys, "eval", "x + y", "--let", "x=40", "--let", "y=2",
                       "--max-vertices", "3")
    assert (code, out.strip()) == (3, "")
    code, out, _ = run(capsys, "cmp", "x", "7", "--let", "x=5")
    assert (code, out.strip()) == (0, "<")
    code, out, _ = run(capsys, "eval", "x + y", "--let", "x=1", "--let", "y=2")
    assert (code, out.strip()) == (0, "3")
    code, out, _ = run(capsys, "eval", "y", "--let", "x=1")
    assert code == 2


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
    code, _, err = run(capsys, "cmp", "tower(x)+1", "tower(x)", "--let", "x=1200",
                       "--max-vertices", "100")
    assert code == 3
    assert "vertices exceed the ceiling" in err


def test_deep_nesting_is_answered(capsys):
    # parsing and evaluation use explicit stacks, so depth costs time, not
    # the interpreter's recursion limit
    code, out, _ = run(capsys, "cmp", "tower(x)+1", "tower(x)", "--let", "x=1200")
    assert (code, out.strip()) == (0, ">")
    code, out, _ = run(capsys, "eval", "2^(" * 400 + "1" + ")" * 400)
    assert (code, out.strip()) == (0, "|V|=402 |E|=401 |M|=1 sha256="
                                      "02eaa5e16f5ea1a19bf7a001392ba4303de6215d70b7d9285515478a7e75c23c")
    code, out, _ = run(capsys, "eval", "(" * 400 + "1 = 1" + ")" * 400)
    assert (code, out.strip()) == (0, "True")
    code, out, _ = run(capsys, "eval", "!" * 2000 + "1 = 1")
    assert (code, out.strip()) == (0, "True")


def test_leading_minus_goes_after_double_dash(capsys):
    # argparse reads a leading "-" as an option
    code, out, _ = run(capsys, "eval", "--let", "x=3", "--", "-x")
    assert (code, out.strip()) == (0, "-3")
    code, out, _ = run(capsys, "cmp", "--let", "x=3", "--", "-x", "1")
    assert (code, out.strip()) == (0, "<")


def test_cmp_tower(capsys):
    code, out, _ = run(capsys, "cmp", "tower(x)+1", "tower(x)", "--let", "x=50")
    assert (code, out.strip()) == (0, ">")
    code, out, _ = run(capsys, "cmp", "3*3", "9")
    assert (code, out.strip()) == (0, "=")
    code, out, _ = run(capsys, "cmp", "2", "5")
    assert (code, out.strip()) == (0, "<")


def test_cmp_parses_each_argument_on_its_own(capsys):
    # spliced into one source, these two read as (5) + (100) - (1) and printed >
    code, out, err = run(capsys, "cmp", "5) + (100", "1")
    assert (code, out) == (2, "")
    assert "parse error: left argument: trailing input (column 1)" in err
    code, out, err = run(capsys, "cmp", "1 < 2", "1")
    assert (code, out) == (2, "")
    assert "parse error: left argument: expected a term, found a relation" in err
    code, out, err = run(capsys, "cmp", "1", "(2")
    assert (code, out) == (2, "")
    assert "parse error: right argument: expected ')' (column 2)" in err


def test_normalize_json_round_trip(tmp_path, capsys):
    from pcirc.arithmetic import add

    p = tmp_path / "c.json"
    raw = circ.to_json_dict(add(circ.from_integer(2), circ.from_integer(4)))
    p.write_text(json.dumps(raw))
    code, out, _ = run(capsys, "normalize", str(p))
    assert code == 0
    loaded = circ.from_json_dict(json.loads(out))
    assert circ.canonical_bytes(loaded) == circ.canonical_bytes(circ.from_integer(6))


def improper_circuit():
    c = circ.PowerCircuit()
    z = c.add_vertex()
    v = c.add_vertex()
    u = c.add_vertex()
    c.add_edge(u, z, 1)
    c.add_edge(v, u, -1)
    c.set_mark(v, 1)
    return c


def test_normalize_improper(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(circ.to_json_dict(improper_circuit())))
    code, _, err = run(capsys, "normalize", str(p))
    assert code == 1
    assert "Improper" in err


def test_normalize_rejects_garbage(tmp_path, capsys, monkeypatch):
    one = {"kind": "general", "vertices": [{"id": 0, "label": "zero"}, {"id": 1}],
           "edges": [{"from": 1, "to": 0, "sign": 1}], "marks": [{"vertex": 1, "sign": 1}]}
    # each breaks one thing: an edge without "to", a mark without "sign", a
    # certificate without "doubles", an edge into a missing vertex, a sign
    # that is not a number; each used to end in a traceback and exit 1
    docs = [
        {**one, "edges": [{"from": 1, "sign": 1}]},
        {**one, "marks": [{"vertex": 1}]},
        {**one, "kind": "reduced", "certificate": {"order": [0, 1]}},
        {**one, "edges": [{"from": 1, "to": 5, "sign": 1}]},
        {**one, "edges": [{"from": 1, "to": 0, "sign": "x"}]},
    ]
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    code, _, err = run(capsys, "normalize", str(p))
    assert code == 2
    assert "error" in err
    for doc in docs:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run(capsys, "normalize", "-")
        assert (code, out) == (2, "")
        assert err.startswith("error: malformed circuit document")


def test_normalize_rejects_json_nested_too_deeply(tmp_path, capsys):
    # json gives up with RecursionError, which used to escape as exit 1
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "normalize", str(p))
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid JSON")


def test_normalize_rejects_an_infinite_id(tmp_path, capsys):
    # json reads 1e400 as inf, and int(inf) raises OverflowError
    p = tmp_path / "inf.json"
    p.write_text('{"kind": "general", "vertices": [{"id": 1e400, "label": "zero"}],'
                 ' "edges": [], "marks": [{"vertex": 0, "sign": 1}]}')
    code, out, err = run(capsys, "normalize", str(p))
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed circuit document")


@pytest.mark.parametrize("command", ["normalize", "stats"])
def test_input_that_is_not_utf8_is_an_input_error(tmp_path, capsys, command):
    p = tmp_path / "bytes.json"
    p.write_bytes(b"\xd0\x00")
    code, out, err = run(capsys, command, str(p))
    assert (code, out) == (2, "")
    assert "not UTF-8" in err


def test_a_cycle_no_mark_reaches_still_exits_2(tmp_path, capsys):
    # a loaded circuit is ordered once, while it is validated; the cycle
    # 2 -> 3 -> 2 is outside what the mark reaches, and still refused
    doc = {"kind": "general",
           "vertices": [{"id": i, "label": "zero" if i == 0 else None} for i in range(4)],
           "edges": [{"from": 1, "to": 0, "sign": 1}, {"from": 2, "to": 3, "sign": 1},
                     {"from": 3, "to": 2, "sign": 1}],
           "marks": [{"vertex": 1, "sign": 1}]}
    p = tmp_path / "cycle.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, "normalize", str(p))
    assert (code, out) == (2, "")
    assert "cycle" in err


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


def test_stats_improper_file(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(circ.to_json(improper_circuit()))
    code, out, err = run(capsys, "stats", str(p))
    assert code == 1
    assert out.startswith("kind=general")
    assert "Improper" in err


def test_stats_hashes_the_normal_form(tmp_path, capsys):
    # an uncertified circuit too wide for the oracle is normalized first
    from pcirc.generators import tower_circuit

    p = tmp_path / "tower.json"
    p.write_text(circ.to_json(tower_circuit(6)))
    code, out, _ = run(capsys, "stats", str(p))
    assert code == 0
    assert out.splitlines()[0].startswith("kind=general")
    code, expr_out, _ = run(capsys, "stats", "tower(6)")
    assert code == 0
    assert out.splitlines()[-1] == expr_out.splitlines()[-1]
    assert "sha256=" in out.splitlines()[-1]


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

