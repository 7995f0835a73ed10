"""Regenerate reference.json: the verdict and witness kind of every query
any workload can run, as decided by the program in this checkout.

    python3 perfbench/make_reference.py

Codes: T transportable, h hedge, s s-hedge.  Run it only on a commit whose
verdicts are trusted; the benchmark counts every later disagreement as a
failed operation.
"""

from __future__ import annotations

import json

import inputs
from workload import import_program, verdict_code


def main() -> None:
    cli = import_program()[0]

    def code(spec) -> str:
        return verdict_code(cli.run(cli.parse_diagram(spec.text()))[1])

    reference = {
        "golden": {spec.name: code(spec) for spec in inputs.GOLDEN},
        "random_sweep": "".join(code(spec) for spec in inputs.sweep_queries()),
        "large_decide": {
            str(n): "".join(code(inputs.layered_query(n, i)) for i in range(size))
            for n, size in inputs.LARGE_POOL.items()
        },
    }
    with open(inputs.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
