import json
import os
import subprocess
import sys

import pytest

import ztransport as zt
from ztransport import cli
from ztransport.cli import ParseError, parse_diagram, write_diagram

from helpers import GOLDEN, fig2a, fig2b

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


def test_roundtrip_canonical_writer():
    for name, (make, (x, y, z)) in GOLDEN.items():
        d = make()
        qf = cli.QueryFile(d, zt.Query.create(x, y, z))
        text = write_diagram(qf)
        back = parse_diagram(text)
        assert back.diagram == d
        assert back.query == qf.query
        assert write_diagram(back) == text


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
    d = fig2b()
    qf = cli.QueryFile(d, zt.Query.create(["X"], ["Y"], ["Z"]))
    text = write_diagram(qf).replace("select Z", "select W")
    code, doc = cli.run(parse_diagram(text))
    assert code == 2
    assert doc["witness"]["kind"] == "shedge"
    assert doc["witness"]["s_targets_in_component"] == ["W"]


# -- validate ---------------------------------------------------------------

def test_validate_passes_on_golden(tmp_path):
    qf = parse_diagram(FIG2A_TEXT)
    code, doc = cli.validate(qf, seeds=range(1, 6))
    assert code == 0
    assert doc["status"] == "pass"
    assert len(doc["results"]) == 5
    assert all(r["max_abs_error"] <= 1e-9 for r in doc["results"])


def test_validate_corruption_hook_fails():
    qf = parse_diagram(FIG2A_TEXT)
    code, doc = cli.validate(qf, seeds=range(1, 6), corrupt=True)
    assert code == 2
    assert doc["status"] == "fail"
    assert max(r["max_abs_error"] for r in doc["results"]) > 1e-3


def test_validate_marginal_query_exact():
    # no interventions: the emitted target marginal matches truth exactly
    qf = parse_diagram("Z -> X\nX -> Y\nZ <-> Y\nselect Z\nY: Y\nZ: Z")
    code, doc = cli.validate(qf, seeds=range(1, 4))
    assert code == 0
    assert all(r["max_abs_error"] <= 1e-12 for r in doc["results"])


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


def test_main_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.graph"
    p.write_text("A -> B\nB -> A\nY: A\n")
    code = cli.main(["run", str(p)])
    assert code == 1
    assert "error" in capsys.readouterr().err


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


def test_main_validate_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ZTRANSPORT_SEED", "7")
    code = cli.main(["validate", fig2a_file(tmp_path)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["results"][0]["seed"] == 7
    assert len(doc["results"]) == 20


def test_main_validate_empty_seed_range_is_a_usage_error(tmp_path, capsys):
    code = cli.main(["validate", fig2a_file(tmp_path), "--seeds", "5..1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_main_validate_non_integer_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ZTRANSPORT_SEED", "abc")
    code = cli.main(["validate", fig2a_file(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


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

    def ztransport(*args, env=()):
        return subprocess.run(
            [sys.executable, "-m", "ztransport.cli", *args],
            env={**os.environ, "PYTHONPATH": src, **dict(env)},
            capture_output=True, text=True, timeout=120,
        )

    usage_errors = {
        "diagram not UTF-8": ztransport("run", str(latin1)),
        "negative seed range": ztransport("validate", good, "--seeds=-3..-1"),
        "negative env seed": ztransport("validate", good, env={"ZTRANSPORT_SEED": "-2"}),
        "run with no file": ztransport("run"),
        "unknown format": ztransport("run", good, "--format", "xml"),
    }
    for case, p in usage_errors.items():
        assert p.returncode == 1, (case, p.returncode, p.stderr)
        assert any(line.startswith("error:") for line in p.stderr.splitlines()), (case, p.stderr)
        assert "Traceback" not in p.stderr, (case, p.stderr)
    assert ztransport("run", good).returncode == 0
    assert ztransport("run", hedge).returncode == 2
