"""Command-line front end: parse diagram files, run the transport decision,
and drive numerical validation against generated model pairs.

File grammar (one statement per line, ``#`` starts a comment):

    node <name>          optional pre-declaration
    <a> -> <b>           directed edge
    <a> <-> <b>          bidirected edge
    select <name>        mark a node as differing between domains
    X: <names...>        intervention set
    Y: <names...>        outcome set (required, nonempty)
    Z: <names...>        controllable set

Node order is first-mention order.  Names referenced by select/X:/Y:/Z:
must already have been mentioned.  Exit codes: 0 transportable, 1 usage or
parse error, 2 not transportable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import expr as E
from .graph import NAME_RE, GraphError, InputError, Query, SelectionDiagram, SemiMarkovianGraph
from .identify import IdentResult, sid_z
from .oracle import OracleError, build_distribution_set, generate_pair, validate_formula

TOLERANCE = 1e-9


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class QueryFile:
    diagram: SelectionDiagram
    query: Query


def parse_diagram(text: str) -> QueryFile:
    """Parse the line-oriented diagram/query format; raises ParseError."""
    nodes: list[str] = []
    known: set[str] = set()
    directed: set[tuple[str, str]] = set()
    bidirected: set[frozenset[str]] = set()
    selected: list[str] = []
    sets: dict[str, list[str]] = {}

    def mention(name: str, line: int) -> None:
        if not NAME_RE.match(name):
            raise ParseError(f"invalid node name {name!r}", line)
        if name not in known:
            known.add(name)
            nodes.append(name)

    def known_node(name: str, line: int) -> str:
        if name not in known:
            raise ParseError(f"unknown node {name!r}", line)
        return name

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "node":
            if len(tokens) != 2:
                raise ParseError("expected: node <name>", lineno)
            mention(tokens[1], lineno)
        elif len(tokens) == 3 and tokens[1] in ("->", "<->"):
            a, arrow, b = tokens
            mention(a, lineno)
            mention(b, lineno)
            if a == b:
                raise ParseError("self-loop", lineno)
            edges, edge = (directed, (a, b)) if arrow == "->" else (bidirected, frozenset((a, b)))
            if edge in edges:
                raise ParseError(f"duplicate edge {a} {arrow} {b}", lineno)
            edges.add(edge)
        elif tokens[0] == "select":
            if len(tokens) != 2:
                raise ParseError("expected: select <name>", lineno)
            name = known_node(tokens[1], lineno)
            if name in selected:
                raise ParseError(f"duplicate select {name}", lineno)
            selected.append(name)
        elif tokens[0] in ("X:", "Y:", "Z:"):
            key = tokens[0][0]
            if key in sets:
                raise ParseError(f"duplicate {tokens[0]} line", lineno)
            sets[key] = [known_node(t, lineno) for t in tokens[1:]]
        else:
            raise ParseError(f"unknown statement {line!r}", lineno)

    try:
        graph = SemiMarkovianGraph.create(nodes, directed, bidirected)
    except GraphError as e:
        raise ParseError(str(e), 0)
    if "Y" not in sets or not sets["Y"]:
        raise ParseError("query must declare a nonempty Y:", 0)
    try:
        diagram = SelectionDiagram.create(graph, selected)
        query = Query.create(sets.get("X", []), sets["Y"], sets.get("Z", []))
        query.validate_against(graph)
    except (InputError, GraphError) as e:
        raise ParseError(str(e), 0)
    return QueryFile(diagram=diagram, query=query)


def write_diagram(qf: QueryFile) -> str:
    """Canonical text for a parsed file; parsing it back is the identity."""
    g = qf.diagram.graph
    lines = [f"node {n}" for n in g.nodes]
    seen_d = sorted(g.directed_edges, key=lambda e: (g.index[e[0]], g.index[e[1]]))
    lines += [f"{a} -> {b}" for a, b in seen_d]
    lines += [f"{a} <-> {b}" for a, b in map(g.sorted, g.bidirected_order)]
    lines += [f"select {n}" for n in g.sorted(qf.diagram.s_targets)]
    q = qf.query
    if q.x:
        lines.append("X: " + " ".join(g.sorted(q.x)))
    lines.append("Y: " + " ".join(g.sorted(q.y)))
    if q.z:
        lines.append("Z: " + " ".join(g.sorted(q.z)))
    return "\n".join(lines) + "\n"


def _result_doc(res: IdentResult) -> dict:
    doc: dict = {"warnings": list(res.warnings)}
    if res.ok:
        norm = E.normalize(res.formula)
        doc["status"] = "transportable"
        doc["formula"] = E.to_json(norm)
        doc["formula_text"] = E.render(norm, "text")
        doc["formula_latex"] = E.render(norm, "latex")
        doc["witness"] = None
    else:
        w = res.witness
        doc["status"] = "not_transportable"
        doc["formula"] = doc["formula_text"] = doc["formula_latex"] = None
        doc["witness"] = {
            "kind": w.kind,
            "f_nodes": list(w.f_graph.nodes),
            "f_sub_nodes": list(w.f_sub.nodes),
            "s_targets_in_component": sorted(w.s_targets_in_component),
        }
    return doc


def run(qf: QueryFile) -> tuple[int, dict]:
    """Run the transport decision; returns (exit status, output document)."""
    res = sid_z(qf.query.y, qf.query.x, qf.diagram, qf.query.z)
    return (0 if res.ok else 2), _result_doc(res)


def _corrupt_formula(e: E.ProbExpr) -> E.ProbExpr:
    """Test hook: drop the first conditioner of the first conditioned term."""
    kind, corrupted = next(E.term_corruptions(e), (None, None))
    if kind != "drop":
        raise InputError("formula has no conditioned term to corrupt")
    return corrupted


def validate(
    qf: QueryFile,
    seeds: range,
    arity: int = 2,
    corrupt: bool = False,
) -> tuple[int, dict]:
    """Check the emitted formula against exact model pairs for each seed."""
    res = sid_z(qf.query.y, qf.query.x, qf.diagram, qf.query.z)
    if not res.ok:
        return 2, _result_doc(res)
    formula = E.normalize(res.formula)
    if corrupt:
        formula = _corrupt_formula(formula)
    rows = []
    ok = True
    for seed in seeds:
        pair = generate_pair(qf.diagram, seed, arity=arity)
        tables = build_distribution_set(pair, qf.query.z)
        err = validate_formula(formula, pair, qf.query, tables=tables)
        rows.append({"seed": seed, "max_abs_error": err})
        ok = ok and err <= TOLERANCE
    doc = {
        "status": "pass" if ok else "fail",
        "tolerance": TOLERANCE,
        "formula_text": E.render(formula, "text"),
        "results": rows,
        "warnings": list(res.warnings),
    }
    return (0 if ok else 2), doc


def _parse_seed_range(spec: str, default_start: int) -> range:
    if not spec:
        return range(default_start, default_start + 20)
    if ".." in spec:
        a, b = spec.split("..", 1)
        return range(int(a), int(b) + 1)
    n = int(spec)
    return range(n, n + 1)


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1, like every other bad input: exit status 2
    means "not transportable"."""

    def error(self, message: str):
        self.exit(1, f"error: {message}\n{self.format_usage()}")


def main(argv: list[str] | None = None) -> int:
    parser = _ArgumentParser(
        prog="ztransport",
        description="Decide whether a causal effect transports from source "
        "experiments on controllable variables, and emit or validate the formula.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="decide transportability and print the formula")
    p_run.add_argument("file")
    p_run.add_argument("--format", choices=["text", "latex", "json"], default="text")

    p_val = sub.add_parser("validate", help="validate the formula on seeded model pairs")
    p_val.add_argument("file")
    p_val.add_argument("--seeds", default="", help="seed range A..B (default: SEED..SEED+19)")
    p_val.add_argument("--arity", type=int, default=2)
    p_val.add_argument("--inject-corruption", action="store_true", help=argparse.SUPPRESS)

    p_comp = sub.add_parser("components", help="print the c-component decomposition")
    p_comp.add_argument("file")

    args = parser.parse_args(argv)

    try:
        with open(args.file, encoding="utf-8") as fh:
            qf = parse_diagram(fh.read())
    except (OSError, UnicodeDecodeError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    if args.command == "run":
        code, doc = run(qf)
        if args.format == "json":
            print(json.dumps(doc, indent=2, sort_keys=True))
        elif doc["status"] == "transportable":
            print(doc["formula_latex"] if args.format == "latex" else doc["formula_text"])
            for w in doc["warnings"]:
                print(f"warning: {w}", file=sys.stderr)
        else:
            w = doc["witness"]
            print(
                f"not transportable: {w['kind']} over {{{', '.join(w['f_nodes'])}}} "
                f"/ {{{', '.join(w['f_sub_nodes'])}}}"
            )
        return code

    if args.command == "validate":
        env_seed = os.environ.get("ZTRANSPORT_SEED")
        try:
            start = int(env_seed) if env_seed else 1
        except ValueError:
            print(f"error: ZTRANSPORT_SEED must be an integer, got {env_seed!r}", file=sys.stderr)
            return 1
        try:
            seeds = _parse_seed_range(args.seeds, start)
        except ValueError:
            print("error: --seeds expects A..B", file=sys.stderr)
            return 1
        if not seeds:
            print(f"error: --seeds {args.seeds} is an empty range", file=sys.stderr)
            return 1
        try:
            code, doc = validate(qf, seeds, arity=args.arity, corrupt=args.inject_corruption)
        except (InputError, OracleError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        print(json.dumps(doc, indent=2, sort_keys=True))
        return code

    if args.command == "components":
        from .graph import c_components

        for comp in c_components(qf.diagram.graph):
            print("{" + ", ".join(qf.diagram.graph.sorted(comp)) + "}")
        return 0

    return 1


if __name__ == "__main__":
    sys.exit(main())
