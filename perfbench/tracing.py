"""Spans around the program's public calls, recorded from outside.

A ``Tracer`` wraps each target function and rebinds the wrapper under
every name a caller looks the function up by: module globals anywhere in
the ``ztransport`` package (``from .expr import evaluate`` leaves a second
binding in ``oracle``), or the class attribute for a method.  The
benchmark itself calls the program through module attributes
(``cli.run``), so it sees the wrappers too.  The program's files are
never changed.

Each span records its name, start, end and parent span, in flat arrays
kept in memory.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# metric name -> (module, attribute path) of the function to wrap
TARGETS = {
    "cli.parse_diagram": ("ztransport.cli", "parse_diagram"),
    "cli.run": ("ztransport.cli", "run"),
    "identify.sid_z": ("ztransport.identify", "sid_z"),
    "graph.ancestors": ("ztransport.graph", "ancestors"),
    "graph.c_components": ("ztransport.graph", "c_components"),
    "graph.induced_subgraph": ("ztransport.graph", "induced_subgraph"),
    "graph.mutilate": ("ztransport.graph", "mutilate"),
    "graph.topological_order": ("ztransport.graph", "topological_order"),
    "expr.normalize": ("ztransport.expr", "normalize"),
    "expr.render": ("ztransport.expr", "render"),
    "expr.to_json": ("ztransport.expr", "to_json"),
    "expr.evaluate": ("ztransport.expr", "evaluate"),
    "oracle.generate_pair": ("ztransport.oracle", "generate_pair"),
    "oracle.build_distribution_set": ("ztransport.oracle", "build_distribution_set"),
    "oracle.validate_formula": ("ztransport.oracle", "validate_formula"),
    "oracle.ground_truth_effect": ("ztransport.oracle", "ground_truth_effect"),
    "oracle.enumerate_joint": ("ztransport.oracle", "enumerate_joint"),
    "oracle.cpt": ("ztransport.oracle", "DiscreteSCM.cpt"),
    "oracle.table_prob": ("ztransport.oracle", "Table.prob"),
}

# spans the benchmark opens around its own phases; every program span nests in one
OP = "bench.op"
SETUP = "bench.setup"


def _resolve(module: str, path: str):
    """(owner, attribute, function) for a dotted path, or None if absent."""
    owner = sys.modules.get(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    fn = getattr(owner, parts[-1], None)
    return None if fn is None else (owner, parts[-1], fn)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        kind, parent, start, end, stack = self.kind, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(kind)
            kind.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def install(self, targets: dict = TARGETS):
        """Rebind every target; returns the metric names whose target is absent."""
        absent = []
        for name, (module, path) in targets.items():
            found = _resolve(module, path)
            if found is None:
                absent.append(name)
                continue
            owner, attr, fn = found
            wrapper = self.wrap(name, fn)
            self._rebind(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod is owner or not (mod_name == "ztransport" or mod_name.startswith("ztransport.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, key, wrapper)
        return absent

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def span(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span of its own."""
        return self.wrap(name, fn)(*args)

    def summary(self) -> dict:
        """Per-name totals plus the figures the per-layer metrics need.

        ``calls`` and ``self_s`` cover every span; ``op_self_s`` only the
        spans under a benchmark operation, whose total duration is
        ``op_s``.  ``children`` counts spans by (parent name, child name).
        """
        n = len(self.kind)
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        covered = array("d", bytes(8 * n))
        root = array("i", bytes(4 * n))
        for i in range(n):
            p = parent[i]
            root[i] = i if p < 0 else root[p]
            if p >= 0:
                covered[p] += end[i] - start[i]
        names = self.names
        op_id = self.name_ids.get(OP, -1)
        calls = [0] * len(names)
        self_s = [0.0] * len(names)
        op_self = [0.0] * len(names)
        children: dict[tuple[str, str], int] = {}
        op_s = 0.0
        for i in range(n):
            k = kind[i]
            own = end[i] - start[i] - covered[i]
            calls[k] += 1
            self_s[k] += own
            if kind[root[i]] == op_id:
                op_self[k] += own
                if i == root[i]:
                    op_s += end[i] - start[i]
            p = parent[i]
            if p >= 0:
                key = (names[kind[p]], names[k])
                children[key] = children.get(key, 0) + 1
        return {
            "calls": dict(zip(names, calls)),
            "self_s": dict(zip(names, self_s)),
            "op_self_s": dict(zip(names, op_self)),
            "op_s": op_s,
            "children": children,
        }
