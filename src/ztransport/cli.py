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

Names match ``[A-Za-z_][A-Za-z0-9_]*``; no two may differ only in case.
Three tokens with an arrow in the middle are an edge, whatever the names.
Node order is first-mention order.  Names referenced by select/X:/Y:/Z:
must already have been mentioned, and an X:/Y:/Z: line names each once.
A parse error names the line it was found on, or no line when it concerns
the whole file (a directed cycle, which it names, no Y:, X and Y
overlapping).  Exit codes: 0 transportable, 1 usage or parse
error, 2 not transportable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import expr as E
from .graph import NAME_RE, GraphError, InputError, Query, SelectionDiagram, SemiMarkovianGraph, c_components
from .identify import IdentResult, sid_z
from .oracle import OracleError, generate_pair, validate_formula

TOLERANCE = 1e-9


class ParseError(ValueError):
    """A malformed diagram file; ``line`` is None for an error about the
    whole file."""

    def __init__(self, message: str, line: int | None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class QueryFile:
    diagram: SelectionDiagram
    query: Query


def parse_diagram(text: str) -> QueryFile:
    """Parse the line-oriented diagram/query format; raises ParseError."""
    folded: dict[str, str] = {}  # lower-cased name -> name, in first-mention order
    directed: set[tuple[str, str]] = set()
    bidirected: set[frozenset[str]] = set()
    selected: list[str] = []
    sets: dict[str, list[str]] = {}

    def mention(name: str, line: int) -> None:
        if not NAME_RE.match(name):
            raise ParseError(f"invalid node name {name!r}", line)
        twin = folded.setdefault(name.lower(), name)
        if twin != name:
            raise ParseError(f"nodes {twin} and {name} differ only in case", line)

    def known_node(name: str, line: int) -> str:
        if folded.get(name.lower()) != name:
            raise ParseError(f"unknown node {name!r}", line)
        return name

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        # the edge form comes first: a node may be named like a keyword
        if len(tokens) == 3 and tokens[1] in ("->", "<->"):
            a, arrow, b = tokens
            mention(a, lineno)
            mention(b, lineno)
            if a == b:
                raise ParseError("self-loop", lineno)
            edges, edge = (directed, (a, b)) if arrow == "->" else (bidirected, frozenset((a, b)))
            if edge in edges:
                raise ParseError(f"duplicate edge {a} {arrow} {b}", lineno)
            edges.add(edge)
        elif tokens[0] == "node":
            if len(tokens) != 2:
                raise ParseError("expected: node <name>", lineno)
            mention(tokens[1], lineno)
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
            if key == "Y" and len(tokens) == 1:
                raise ParseError("query must declare a nonempty Y:", lineno)
            sets[key] = []
            for name in tokens[1:]:
                if known_node(name, lineno) in sets[key]:
                    raise ParseError(f"{tokens[0]} names {name} twice", lineno)
                sets[key].append(name)
        else:
            raise ParseError(f"unknown statement {line!r}", lineno)

    try:
        graph = SemiMarkovianGraph.create(folded.values(), directed, bidirected)
    except GraphError as e:
        raise ParseError(str(e), None)
    if "Y" not in sets:
        raise ParseError("query must declare a nonempty Y:", None)
    try:
        diagram = SelectionDiagram.create(graph, selected)
        query = Query.create(sets.get("X", []), sets["Y"], sets.get("Z", []))
        query.validate_against(graph)
    except (InputError, GraphError) as e:
        raise ParseError(str(e), None)
    return QueryFile(diagram=diagram, query=query)


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
    """Drop the first conditioner of the first conditioned term: the damaged
    formula the benchmark's self-test counts as a failed operation."""
    kind, corrupted = next(E.term_corruptions(e), (None, None))
    if kind != "drop":
        raise InputError("formula has no conditioned term to corrupt")
    return corrupted


def validate(qf: QueryFile, seeds: range, arity: int = 2) -> tuple[int, dict]:
    """Check the emitted formula against exact model pairs for each seed;
    an empty seed range is an InputError, since it would check nothing."""
    if not seeds:
        raise InputError("the seed range is empty: no model pair would be checked")
    res = sid_z(qf.query.y, qf.query.x, qf.diagram, qf.query.z)
    if not res.ok:
        return 2, _result_doc(res)
    formula = E.normalize(res.formula)
    rows = []
    ok = True
    for seed in seeds:
        pair = generate_pair(qf.diagram, seed, arity=arity)
        err = validate_formula(formula, pair, qf.query)
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


def _parse_seed_range(spec: str) -> range:
    """``A..B`` (both included) or one seed ``N``."""
    a, dots, b = spec.partition("..")
    try:
        return range(int(a), int(b if dots else a) + 1)
    except ValueError:
        raise InputError("--seeds expects A..B") from None


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
    p_val.add_argument("--seeds", default="1..20", help="seed range A..B, or one seed (default: 1..20)")
    p_val.add_argument("--arity", type=int, default=2)

    p_comp = sub.add_parser("components", help="print the c-component decomposition")
    p_comp.add_argument("file")

    args = parser.parse_args(argv)

    warnings: list[str] = []  # printed on stderr after the output
    try:
        with open(args.file, encoding="utf-8") as fh:
            qf = parse_diagram(fh.read())
        if args.command == "run":
            code, doc = run(qf)
            warnings = [] if args.format == "json" else doc["warnings"]  # the JSON document holds them
            if args.format == "json":
                lines = [json.dumps(doc, indent=2, sort_keys=True)]
            elif doc["status"] == "transportable":
                lines = [doc["formula_latex"] if args.format == "latex" else doc["formula_text"]]
            else:
                w = doc["witness"]
                lines = [
                    f"not transportable: {w['kind']} over {{{', '.join(w['f_nodes'])}}} "
                    f"/ {{{', '.join(w['f_sub_nodes'])}}}"
                ]
        elif args.command == "validate":
            code, doc = validate(qf, _parse_seed_range(args.seeds), arity=args.arity)
            lines = [json.dumps(doc, indent=2, sort_keys=True)]
        else:
            g = qf.diagram.graph
            code, lines = 0, ["{" + ", ".join(g.sorted(comp)) + "}" for comp in c_components(g)]
    except (OSError, UnicodeDecodeError, ParseError, InputError, OracleError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: what is left cannot be shown, and the command's
        # status stands; stdout now points at devnull, so the flush at exit succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
