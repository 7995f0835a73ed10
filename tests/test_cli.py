import dataclasses
import json
import os
import subprocess
import sys

import pytest

import ztransport as zt
from ztransport import cli
from ztransport import expr as E
from ztransport.cli import ParseError, parse_diagram

from helpers import fig2b

FIG2A_TEXT = """\
# four observables, selection on Z, experiments available on Z
W -> Z
Z -> X
X -> Y
W <-> Y
X <-> Z
Z <-> Y
select Z
X: X
Y: Y
Z: Z
"""


def fig2a_file(tmp_path, text=FIG2A_TEXT, name="fig2a.graph"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# -- parsing -------------------------------------------------------------------

def test_parse_spec_example():
    qf = parse_diagram("Z -> X\nX -> Y\nZ <-> Y\nselect Z\nX: X\nY: Y\nZ: Z")
    g = qf.diagram.graph
    assert g.nodes == ("Z", "X", "Y")
    assert qf.diagram.s_targets == {"Z"}
    assert qf.query == zt.Query.create(["X"], ["Y"], ["Z"])


def test_parse_first_mention_order_and_node_lines():
    qf = parse_diagram("node B\nA -> B\nY: B")
    assert qf.diagram.graph.nodes == ("B", "A")


def test_parse_rejects_overlap_of_x_and_y():
    with pytest.raises(ParseError, match="disjoint|overlap"):
        parse_diagram("A -> B\nX: B\nY: B")


def test_parse_rejects_cycle():
    with pytest.raises(ParseError, match="cycle"):
        parse_diagram("A -> B\nB -> A\nY: A")


def test_parse_rejects_duplicate_edge():
    with pytest.raises(ParseError, match="line 2"):
        parse_diagram("A -> B\nA -> B\nY: B")
    with pytest.raises(ParseError, match="duplicate"):
        parse_diagram("A <-> B\nB <-> A\nY: B")


def test_parse_rejects_unknown_tokens_with_line_number():
    with pytest.raises(ParseError, match="line 2"):
        parse_diagram("A -> B\nfrobnicate A\nY: B")


def test_parse_rejects_unknown_reference():
    with pytest.raises(ParseError, match="unknown node"):
        parse_diagram("A -> B\nselect Q\nY: B")


def test_parse_requires_y():
    with pytest.raises(ParseError, match="Y:"):
        parse_diagram("A -> B")


def test_parse_comments_and_blank_lines():
    qf = parse_diagram("\n# leading comment\nA -> B  # trailing\n\nY: B\n")
    assert qf.diagram.graph.nodes == ("A", "B")


@pytest.mark.parametrize("text, message, line", [
    ("A -> B\nA -> 1B\nY: B", "invalid node name '1B'", 2),
    ("node A B\nY: A", "expected: node <name>", 1),
    # a line of three tokens with an arrow in the middle is an edge, even from a node named node
    ("node -> node\nY: node", "self-loop", 1),
    ("node -> Y\nnode <-> Y\nY <-> node\nY: Y", "duplicate edge Y <-> node", 3),
    ("A -> B\nB -> B\nY: B", "self-loop", 2),
    ("A -> B\nA <-> B\nB <-> A\nY: B", "duplicate edge B <-> A", 3),
    ("A -> B\nselect A B\nY: B", "expected: select <name>", 2),
    ("A -> B\nselect A\nselect A\nY: B", "duplicate select A", 3),
    ("A -> B\nX: A\nY: B\nX: A", "duplicate X: line", 4),
    ("A -> B\nselect Q\nY: B", "unknown node 'Q'", 2),
    ("A -> B\nX: a\nY: B", "unknown node 'a'", 2),
    ("A -> B\n\nfrobnicate A\nY: B", "unknown statement 'frobnicate A'", 3),
    ("x -> X\nX -> Y\nX: X\nY: Y", "nodes x and X differ only in case", 1),
    ("node B\nA -> C\nb -> C\nY: C", "nodes B and b differ only in case", 3),
    ("A -> B\nY: B B", "Y: names B twice", 2),
    ("A -> B\nX: A A\nY: B", "X: names A twice", 2),
    ("A -> B\nY: B\nZ: A B A", "Z: names A twice", 3),
    ("A -> B\nX: A\nY:", "query must declare a nonempty Y:", 3),
    # errors about the whole file name no line; a cycle is named by its nodes
    ("A -> B\nB -> C\nC -> A\nY: C", "directed part contains a cycle: A -> B -> C -> A", None),
    # (walking up from C, which is not on the cycle but sits below it)
    ("C -> D\nA -> B\nB -> A\nA -> C\nY: D", "directed part contains a cycle: A -> B -> A", None),
    ("A -> B\nX: A", "query must declare a nonempty Y:", None),
    ("A -> B\nX: A B\nY: B", "x and y overlap: ['B']", None),
])
def test_parse_error_message_and_line(text, message, line):
    with pytest.raises(ParseError) as info:
        parse_diagram(text)
    assert info.value.line == line
    assert str(info.value) == (message if line is None else f"line {line}: {message}")


def test_parse_nodes_named_like_keywords():
    # nodes named node and select: their edge lines start with a keyword
    qf = parse_diagram("node -> select\nselect -> Y\nnode <-> Y\nselect node\nX: select\nY: Y\nZ: node\n")
    assert qf.diagram == zt.SelectionDiagram.create(
        zt.SemiMarkovianGraph.create(
            ["node", "select", "Y"], [("node", "select"), ("select", "Y")], [("node", "Y")]
        ),
        ["node"],
    )
    assert qf.query == zt.Query.create(["select"], ["Y"], ["node"])


# -- run -------------------------------------------------------------------

def test_run_transportable_document():
    qf = parse_diagram(FIG2A_TEXT)
    code, doc = cli.run(qf)
    assert code == 0
    assert doc["status"] == "transportable"
    assert doc["formula_text"] == "P_{z}(y|x)"
    assert doc["witness"] is None
    assert zt.from_json(doc["formula"]) == zt.term("source", ["Y"], ["X"], ["Z"])


def test_run_hedge_document():
    text = FIG2A_TEXT.replace("Z: Z", "Z: W")
    code, doc = cli.run(parse_diagram(text))
    assert code == 2
    assert doc["status"] == "not_transportable"
    assert doc["witness"]["kind"] == "hedge"
    assert doc["formula"] is None


def test_run_shedge_document():
    # fig2b with S pointed at W instead of Z
    qf = parse_diagram(
        "node Z\nnode W\nZ -> X\nW -> X\nX -> Y\nW -> Y\nX <-> Z\nZ <-> Y\nW <-> Y\n"
        "select W\nX: X\nY: Y\nZ: Z\n"
    )
    assert qf.diagram.graph == fig2b().graph
    code, doc = cli.run(qf)
    assert code == 2
    assert doc["witness"]["kind"] == "shedge"
    assert doc["witness"]["s_targets_in_component"] == ["W"]


# -- validate ---------------------------------------------------------------

def test_validate_passes_on_golden(tmp_path):
    # and on a 12-node chain at arity 3, whose formula reads 6 of its 32
    # experiments of 3^12 cells each: the set holds those 6, not all 32
    chain12 = "\n".join(f"V{i} -> V{i + 1}" for i in range(11)) + "\nX: V0\nY: V11\nZ: V1 V2 V3 V4 V5\n"
    for text, seeds, arity in ((FIG2A_TEXT, range(1, 6), 2), (chain12, range(1, 4), 3)):
        code, doc = cli.validate(parse_diagram(text), seeds=seeds, arity=arity)
        assert code == 0
        assert doc["status"] == "pass"
        assert len(doc["results"]) == len(seeds)
        assert all(r["max_abs_error"] <= 1e-9 for r in doc["results"])


def test_validate_corruption_hook_fails(monkeypatch):
    # the decision emits the formula with its first conditioner dropped
    qf = parse_diagram(FIG2A_TEXT)
    res = cli.sid_z(qf.query.y, qf.query.x, qf.diagram, qf.query.z)
    kind, corrupted = next(E.term_corruptions(E.normalize(res.formula)))
    assert kind == "drop"
    monkeypatch.setattr(cli, "sid_z", lambda *args: dataclasses.replace(res, formula=corrupted))
    code, doc = cli.validate(qf, seeds=range(1, 6))
    assert doc["formula_text"] == E.render(corrupted, "text")
    assert code == 2
    assert doc["status"] == "fail"
    assert max(r["max_abs_error"] for r in doc["results"]) > 1e-3


def test_validate_marginal_query_exact():
    # no interventions: the emitted target marginal matches truth exactly
    qf = parse_diagram("Z -> X\nX -> Y\nZ <-> Y\nselect Z\nY: Y\nZ: Z")
    code, doc = cli.validate(qf, seeds=range(1, 4))
    assert code == 0
    assert all(r["max_abs_error"] <= 1e-12 for r in doc["results"])


@pytest.mark.parametrize("seeds", [range(0), range(5, 1)])
def test_validate_on_an_empty_seed_range_is_an_input_error(tmp_path, capsys, seeds):
    # checking no model pair is no pass, for a formula or a failure alike
    for text in (FIG2A_TEXT, FIG2A_TEXT.replace("Z: Z", "Z: W")):
        with pytest.raises(zt.InputError, match="seed range is empty"):
            cli.validate(parse_diagram(text), seeds)
    # the CLI prints the same refusal as an error line
    assert cli.main(["validate", fig2a_file(tmp_path), "--seeds", "5..1"]) == 1
    assert capsys.readouterr().err == "error: the seed range is empty: no model pair would be checked\n"


def layered_text(query: list[str]) -> str:
    """A 200-node diagram in 20 layers of 10: each node's parents are two nodes of the
    layer before, every other layer holds three bidirected edges, one bow joins layers
    10 and 11, and every fourth layer has a selected node."""
    lines = [f"V{l - 1}_{p} -> V{l}_{k}" for l in range(1, 20) for k in range(10) for p in (k, (k + 3) % 10)]
    lines += [f"V{l}_{k} <-> V{l}_{k + 1}" for l in range(0, 20, 2) for k in (0, 3, 6)]
    lines += ["V10_0 <-> V11_0"] + [f"select V{l}_4" for l in range(0, 20, 4)]
    return "\n".join(lines + query) + "\n"


def test_a_decision_reads_the_graph_through_its_masks():
    # deciding builds none of the graph's edge sets, nor its node set
    for query, status in ((["X: V2_0", "Y: V19_0"], 0), (["X: V10_0", "Y: V11_0"], 2)):
        qf = parse_diagram(layered_text(query))
        g = qf.diagram.graph
        assert len(g.nodes) == 200
        assert cli.run(qf)[0] == status
        assert not {"directed_edges", "bidirected_edges", "node_set"} & vars(g).keys()


def test_validate_not_transportable_exits_2():
    text = FIG2A_TEXT.replace("Z: Z", "Z: W")
    code, doc = cli.validate(parse_diagram(text), seeds=range(1, 3))
    assert code == 2
    assert doc["status"] == "not_transportable"


# -- main entry point ---------------------------------------------------------

def test_main_run_json(tmp_path, capsys):
    code = cli.main(["run", fig2a_file(tmp_path), "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["status"] == "transportable"
    assert out["formula_text"] == "P_{z}(y|x)"


def test_main_run_text(tmp_path, capsys):
    code = cli.main(["run", fig2a_file(tmp_path)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "P_{z}(y|x)"


def test_main_run_latex(tmp_path, capsys):
    code = cli.main(["run", fig2a_file(tmp_path), "--format", "latex"])
    assert code == 0
    assert capsys.readouterr().out.strip() == r"P_{z}\left(y \mid x\right)"


def test_main_not_transportable_exit_code(tmp_path, capsys):
    path = fig2a_file(tmp_path, FIG2A_TEXT.replace("Z: Z", "Z: W"), "w.graph")
    code = cli.main(["run", path])
    assert code == 2
    assert "hedge" in capsys.readouterr().out


def test_main_run_prints_warnings_whatever_the_verdict(tmp_path, capsys):
    # Z: Y is dropped with a warning, on stderr, both when the effect
    # transports and when it does not
    warning = (
        "warning: dropped controllable variables inside y "
        "(experiments on them have no bearing): ['Y']\n"
    )
    for text, code, out in [
        ("X -> Y\nX: X\nY: Y\nZ: Y\n", 0, "P(y|x)\n"),
        ("X -> Y\nX <-> Y\nX: X\nY: Y\nZ: Y\n", 2, "not transportable: hedge over {X, Y} / {Y}\n"),
    ]:
        assert cli.main(["run", fig2a_file(tmp_path, text, "zy.graph")]) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (out, warning)


def test_main_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.graph"
    p.write_text("A -> B\nB -> A\nY: A\n")
    code = cli.main(["run", str(p)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_main_names_that_differ_only_in_case_exit_1(tmp_path, capsys):
    p = tmp_path / "twins.graph"
    p.write_text("x -> X\nX -> Y\nX: X\nY: Y\n")
    assert cli.main(["run", str(p)]) == 1
    assert capsys.readouterr().err.strip() == "error: line 1: nodes x and X differ only in case"


def test_main_missing_file_exit_code(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "nope.graph")]) == 1


def test_main_components(tmp_path, capsys):
    code = cli.main(["components", fig2a_file(tmp_path)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "{W, Z, X, Y}"


def test_main_validate_seed_range(tmp_path, capsys):
    code = cli.main(["validate", fig2a_file(tmp_path), "--seeds", "1..3"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [r["seed"] for r in doc["results"]] == [1, 2, 3]


def test_main_validate_default_and_single_seed(tmp_path, capsys):
    for extra, seeds in (([], list(range(1, 21))), (["--seeds", "5"], [5])):
        code = cli.main(["validate", fig2a_file(tmp_path), *extra])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [r["seed"] for r in doc["results"]] == seeds


def test_main_validate_empty_seed_range_is_a_usage_error(tmp_path, capsys):
    code = cli.main(["validate", fig2a_file(tmp_path), "--seeds", "5..1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_main_validate_non_integer_seed_range(tmp_path, capsys):
    code = cli.main(["validate", fig2a_file(tmp_path), "--seeds", "1..x"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: --seeds expects A..B\n"


def test_main_validate_arity_below_two(tmp_path, capsys):
    code = cli.main(["validate", fig2a_file(tmp_path), "--seeds", "1", "--arity", "1"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_main_validate_arity_over_the_cell_budget(tmp_path, capsys):
    # 100^4 observed cells: rejected from structure before any model is drawn
    code = cli.main(["validate", fig2a_file(tmp_path), "--seeds", "1", "--arity", "100"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_main_validate_without_a_positive_pair(tmp_path, capsys):
    # on the complete 10-node DAG no draw for seed 1 has a strictly positive
    # joint: an error line and exit 1, not a traceback
    edges = [f"V{i} -> V{j}" for i in range(10) for j in range(i + 1, 10)]
    path = fig2a_file(tmp_path, "\n".join(edges + ["X: V0", "Y: V9"]), "complete.graph")
    code = cli.main(["validate", path, "--seeds", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "strictly positive" in err


def test_exit_codes_through_a_real_process(tmp_path):
    # every bad input exits 1 with an error line and no traceback; 2 is
    # reserved for "not transportable"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    good = fig2a_file(tmp_path)
    hedge = fig2a_file(tmp_path, FIG2A_TEXT.replace("Z: Z", "Z: W"), "w.graph")
    latin1 = tmp_path / "latin1.graph"
    latin1.write_bytes(FIG2A_TEXT.replace("W", "\xc9").encode("latin-1"))

    def ztransport(*args):
        return subprocess.run(
            [sys.executable, "-m", "ztransport.cli", *args],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )

    usage_errors = {
        "diagram not UTF-8": ztransport("run", str(latin1)),
        "negative seed range": ztransport("validate", good, "--seeds=-3..-1"),
        "run with no file": ztransport("run"),
        "unknown format": ztransport("run", good, "--format", "xml"),
    }
    for case, p in usage_errors.items():
        assert p.returncode == 1, (case, p.returncode, p.stderr)
        assert any(line.startswith("error:") for line in p.stderr.splitlines()), (case, p.stderr)
        assert "Traceback" not in p.stderr, (case, p.stderr)
    assert ztransport("run", good).returncode == 0
    assert ztransport("run", hedge).returncode == 2


def test_a_closed_stdout_ends_quietly_with_the_commands_status(tmp_path):
    # a reader that stops early (``| head -c 10``) closes the pipe: each command still
    # exits with the status it decided, and prints nothing on stderr
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    chain12 = "\n".join(f"V{i} -> V{i + 1}" for i in range(11)) + "\nX: V0\nY: V11\nZ: V1 V2 V3 V4 V5\n"
    chain = fig2a_file(tmp_path, chain12, "chain12.graph")
    hedge = fig2a_file(tmp_path, FIG2A_TEXT.replace("Z: Z", "Z: W"), "w.graph")
    cases = [
        (("run", chain, "--format", "json"), 0),
        (("run", chain), 0),
        (("validate", chain, "--seeds", "1..20"), 0),
        (("run", hedge), 2),
        (("validate", hedge, "--seeds", "1"), 2),
        (("components", chain), 0),
    ]
    for args, status in cases:
        read, write = os.pipe()
        os.close(read)  # stdout is a pipe no one reads: the first write fails
        try:
            p = subprocess.run(
                [sys.executable, "-m", "ztransport.cli", *args],
                env={**os.environ, "PYTHONPATH": src}, stdout=write, stderr=subprocess.PIPE, timeout=120,
            )
        finally:
            os.close(write)
        assert (p.returncode, p.stderr.decode()) == (status, ""), args
