"""One workload in one process: set up, run the closed loop, check every
output, and print one JSON line for ``run.py``.

    python3 perfbench/workload.py --workload golden --seed 0 --seconds 10 --mode run

Modes: ``setup`` exits when the first operation would start; ``run``
measures the closed loop untraced for ``--seconds``; ``trace`` runs a fixed
number of operations with spans around the program's public calls, then
replays the same operations untraced to measure the tracing overhead.

The loop is closed with one client: one thread, and each operation starts
only after the previous one has returned.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import inputs
import speed
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
TOLERANCE = 1e-9
# length of a traced run, in blocks of operations (see ``block`` below)
TRACE_BLOCKS = {"golden": 25, "random_sweep": 5, "large_decide": 6}
GOLDEN_ROUNDS = 2  # rounds of the 8 study diagrams in one golden operation
SETUP_PROBES = 5  # speed probes right after set-up, outside the set-up time


def import_program():
    """The ztransport modules, imported from this checkout's ``src/`` only."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import ztransport
    from ztransport import cli, expr, oracle

    if not os.path.abspath(ztransport.__file__).startswith(SRC + os.sep):
        raise ImportError(f"ztransport came from {ztransport.__file__}, not {SRC}")
    return cli, expr, oracle


def verdict_code(doc: dict) -> str:
    """One letter per verdict, as in the reference file."""
    if doc["status"] == "transportable":
        return "T"
    return inputs.VERDICT_CODES[doc["witness"]["kind"]]


def term_shapes_ok(node: dict, z: frozenset[str]) -> bool:
    """Target terms carry no do(), and source do-sets stay inside z."""
    kind = node["kind"]
    if kind == "term":
        if node["domain"] == "target":
            return not node["do"]
        return {v.rstrip("'") for v in node["do"]} <= z
    if kind == "product":
        return all(term_shapes_ok(f, z) for f in node["factors"])
    if kind == "sum":
        return term_shapes_ok(node["body"], z)
    if kind == "ratio":
        return term_shapes_ok(node["num"], z) and term_shapes_ok(node["den"], z)
    return True


class Validation:
    """golden and random_sweep: decide every query once with ``cli.run``;
    then validate the transportable queries' formulas on model pairs, each
    validation one row of ``ztransport validate``.

    random_sweep: one operation is one row; operations go round-robin over
    the queries, one pair seed per round, so every prefix of the run holds
    every query in equal measure.  golden (``rounds_per_op``): one operation
    is GOLDEN_ROUNDS rounds, the 8 study diagrams validated on one pair seed
    and then on the next.  Single rows fall into two tight groups, fig2 and
    fig5, four diagrams each, so the median row would sit in the gap
    between them, and a small change in how often the machine ran slow
    would move it from one group to the other.  Every round holds both
    groups, so round times form one group; and two rounds (about 0.1 s)
    span several of the machine's switches between its fast and slow
    states (speed.py), so the spread of operation times depends less on
    the share of slow time.
    """

    def __init__(self, specs, expected: list[str], pair_seeds: int, seed: int, rounds_per_op: int | None):
        self.specs = specs
        self.expected = expected
        self.pair_seeds = pair_seeds
        self.pair_base = seed * pair_seeds + 1
        self.rounds_per_op = rounds_per_op  # None: one row per operation
        self.min_ops = 1

    def setup(self, program) -> list[str]:
        """Parse and decide every query; returns the mismatches found."""
        self.cli, self.expr, self.oracle = program
        self.items = []
        self.bad: set[str] = set()
        self.formula_chars = 0
        self.worst = 0.0
        problems = []
        for spec, code in zip(self.specs, self.expected):
            qf = self.cli.parse_diagram(spec.text())
            _, doc = self.cli.run(qf)
            got = verdict_code(doc)
            if got != code:
                problems.append(f"{spec.name}: verdict {got}, reference {code}")
                self.bad.add(spec.name)
            formula = None
            if doc["formula"] is not None:
                self.formula_chars += len(doc["formula_text"])
                formula = self.expr.from_json(doc["formula"])
                if not term_shapes_ok(doc["formula"], qf.query.z):
                    problems.append(f"{spec.name}: term shape broken")
                    self.bad.add(spec.name)
            if code == "T":
                self.items.append((spec.name, qf, formula))
        n = len(self.items)
        self.rows_per_op = n * self.rounds_per_op if self.rounds_per_op else 1
        self.block = max(1, n // self.rows_per_op)  # one block: at least one round
        return problems

    def rows(self, k: int) -> list[tuple[int, int]]:
        """(index into items, pair seed) of each row of operation k."""
        n, r = len(self.items), self.rows_per_op
        return [(j % n, self.pair_base + (j // n) % self.pair_seeds) for j in range(k * r, (k + 1) * r)]

    def op(self, k: int) -> list[float]:
        errors = []
        for i, pair_seed in self.rows(k):
            _, qf, formula = self.items[i]
            if formula is None:
                raise ValueError("no formula to validate")
            pair = self.oracle.generate_pair(qf.diagram, pair_seed, arity=2)
            tables = self.oracle.build_distribution_set(pair, qf.query.z)
            errors.append(self.oracle.validate_formula(formula, pair, qf.query, tables=tables))
        return errors

    def check(self, k: int, errors: list[float]) -> str | None:
        reasons = []
        for (i, _), err in zip(self.rows(k), errors):
            name = self.items[i][0]
            if name in self.bad:
                reasons.append(f"{name}: decided against the reference")
                continue
            self.worst = max(self.worst, err)
            if not err <= TOLERANCE:
                reasons.append(f"{name}: error {err:.3g} above {TOLERANCE}")
        return "; ".join(reasons) or None

    def metrics(self) -> dict:
        return {
            "formula_chars": (self.formula_chars, "chars", len(self.specs)),
            "max_abs_error": (self.worst, "prob", 1),
        }


class Decision:
    """large_decide: one operation is one ``cli.run`` on a large layered
    diagram.  These exceed the oracle's node limit, so no oracle runs."""

    def __init__(self, picked):
        self.picked = picked

    def setup(self, program) -> list[str]:
        self.cli = program[0]
        self.items = [(spec.name, self.cli.parse_diagram(spec.text()), code) for spec, code in self.picked]
        self.chars: dict[int, int] = {}
        self.min_ops = len(self.items)  # formula_chars needs one full pass
        self.block = len(inputs.LARGE_BLOCK)
        return []

    def op(self, k: int):
        return self.cli.run(self.items[k % len(self.items)][1])

    def check(self, k: int, result) -> str | None:
        name, qf, code = self.items[k % len(self.items)]
        _, doc = result
        got = verdict_code(doc)
        if got != code:
            return f"{name}: verdict {got}, reference {code}"
        if doc["formula"] is not None and not term_shapes_ok(doc["formula"], qf.query.z):
            return f"{name}: term shape broken"
        self.chars[k % len(self.items)] = len(doc["formula_text"] or "")
        return None

    def metrics(self) -> dict:
        return {"formula_chars": (sum(self.chars.values()), "chars", len(self.chars))}


def make_workload(name: str, seed: int, reference: dict):
    if name == "golden":
        expected = [reference["golden"][spec.name] for spec in inputs.GOLDEN]
        return Validation(inputs.GOLDEN, expected, inputs.GOLDEN_PAIRS, seed, GOLDEN_ROUNDS)
    if name == "random_sweep":
        return Validation(
            inputs.sweep_queries(), list(reference["random_sweep"]), inputs.SWEEP_PAIRS, seed,
            rounds_per_op=None,
        )
    if name == "large_decide":
        return Decision(inputs.large_queries(seed, reference))
    raise ValueError(f"unknown workload {name!r}")


def closed_loop(w, seconds: float, max_ops: int | None = None, span=None, start: int = 0, probes=None):
    """Run operations ``start``, ``start + 1``, ... back to back until
    ``seconds`` have passed (and at least ``w.min_ops`` ran) or ``max_ops``
    ran.  Checks stay outside the timed interval.  If ``probes`` is a list,
    a speed probe runs between operations every ``speed.PROBE_EVERY_S``
    and its time is appended there.  Returns (latencies, failure reasons)."""
    clock = time.perf_counter
    deadline = clock() + seconds
    next_probe = clock() + speed.PROBE_EVERY_S
    latencies: list[float] = []
    failures: list[str] = []
    k = start
    while True:
        t0 = clock()
        try:
            result = w.op(k) if span is None else span(tracing.OP, w.op, k)
        except Exception as e:  # a raising operation counts as failed; the run goes on
            latencies.append(clock() - t0)
            failures.append(f"op {k} raised {type(e).__name__}: {e}")
        else:
            latencies.append(clock() - t0)
            reason = w.check(k, result)
            if reason:
                failures.append(reason)
        k += 1
        if probes is not None and clock() >= next_probe:
            probes.append(speed.probe())
            next_probe = clock() + speed.PROBE_EVERY_S
        if max_ops is not None and k - start >= max_ops:
            break
        if clock() >= deadline and k - start >= w.min_ops:
            break
    return latencies, failures


def traced_run(w, program, seconds: float, blocks: int) -> tuple[dict, list[str], int, list[str]]:
    """Set up and run ``blocks`` blocks of operations traced, each block
    followed at once by its untraced replay, so that drift in machine speed
    hits both sides of the overhead alike.  Stops early after ``seconds``.

    Returns (per-layer metrics, setup problems, operations run, failures).
    """
    tracer = tracing.Tracer()
    absent = tracer.install()
    problems = tracer.span(tracing.SETUP, w.setup, program)
    tracer.uninstall()
    deadline = time.perf_counter() + seconds
    failures: list[str] = []
    ops = 0
    replay_s = 0.0
    for b in range(blocks):
        tracer.install()
        lat, fail = closed_loop(w, float("inf"), w.block, tracer.span, b * w.block)
        tracer.uninstall()
        replay, fail_replay = closed_loop(w, float("inf"), w.block, start=b * w.block)
        ops += len(lat) + len(replay)
        replay_s += sum(replay)
        failures += fail + fail_replay
        if time.perf_counter() >= deadline:
            break
    summary = tracer.summary()
    overhead = 100.0 * (summary["op_s"] / replay_s - 1.0)
    return layer_metrics(summary, absent, overhead), problems, ops, failures


def layer_metrics(summary: dict, absent: list[str], overhead_pct: float) -> dict:
    calls, self_s, children = summary["calls"], summary["self_s"], summary["children"]
    out = {}
    for name in tracing.TARGETS:
        if name not in absent:
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
            out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    gp, bds, ej = "oracle.generate_pair", "oracle.build_distribution_set", "oracle.enumerate_joint"
    if gp not in absent and ej not in absent:
        pairs = calls.get(gp, 0)
        out[f"{gp}.enumerations_per_pair"] = (
            children.get((gp, ej), 0) / pairs if pairs else 0.0, "count"
        )
    if bds not in absent and ej not in absent:
        out[f"{bds}.tables"] = (children.get((bds, ej), 0), "count")
    op_s = summary["op_s"] or 1.0

    def share(*layers: str) -> float:
        own = summary["op_self_s"]
        return 100.0 * sum(v for k, v in own.items() if k.split(".")[0] in layers) / op_s

    out["share.oracle_pct"] = (share("oracle"), "%")
    out["share.graph_identify_expr_pct"] = (share("graph", "identify", "expr"), "%")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--mode", choices=["setup", "run", "trace"], default="run")
    args = p.parse_args(argv)

    program = import_program()
    w = make_workload(args.workload, args.seed, inputs.load_reference())
    report: dict = {"workload": args.workload, "mode": args.mode}
    if args.mode == "trace":
        metrics, problems, attempted, failures = traced_run(
            w, program, args.seconds, TRACE_BLOCKS[args.workload]
        )
        report["metrics"] = {k: (v, u, attempted // 2) for k, (v, u) in metrics.items()}
        report["absent"] = [k for k in tracing.TARGETS if f"{k}.calls" not in metrics]
    else:
        problems = w.setup(program)
        report["ready_at"] = time.monotonic()
        report["setup_probe_s"] = statistics.fmean(speed.probe() for _ in range(SETUP_PROBES))
        attempted, failures = 0, []
        if args.mode == "run":
            probes: list[float] = []
            latencies, failures = closed_loop(w, args.seconds, probes=probes)
            n = attempted = len(latencies)
            # timings read at the reference machine speed (speed.py)
            f = speed.factor(probes or [report["setup_probe_s"]])
            metrics = {
                "ops_per_s": (n / (f * sum(latencies)), "1/s", n),
                "op_ms_p50": (1000.0 * f * statistics.median(latencies), "ms", n),
                "op_ms_p90": (1000.0 * f * statistics.quantiles(latencies, n=10)[-1], "ms", n),
                "raw_ops_per_s": (n / sum(latencies), "1/s", n),
                "speed_factor": (f, "ratio", len(probes)),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
                "failed_op_share": (len(failures) / n, "ratio", n),
            }
            metrics.update(w.metrics())
            report["metrics"] = metrics
    report.update(
        attempted=attempted,
        failed=len(failures),
        correct=not problems and not failures,
        problems=(problems + failures)[:20],
        python=sys.version.split()[0],
        numpy=sys.modules["numpy"].__version__,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
