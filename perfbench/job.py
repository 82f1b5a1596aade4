"""Runs one benchmark job in a fresh process: ``python3 job.py SPEC.json``.

The process imports ``affsieve`` from the checkout's ``src``, notes when it
is ready, then times the call into the CLI entry point ``cli.main`` (or,
for ``trend`` jobs, into ``affsieve.prime_factor_trend``).  The timestamps
go to the spec's ``result`` file.  With ``trace`` set, the tracer is
installed before the ready mark and its summary goes into the result.
"""

from __future__ import annotations

import json
import sys
import time


def _trend(affsieve, families):
    tables = []
    for a, M in families:
        table = affsieve.prime_factor_trend(lambda m, a=a: (a**m - a) * (a**m - 1), M, start=2)
        tables.append(
            {
                "a": a,
                "M": M,
                "incomplete": table.incomplete,
                "rows": [[r.m, r.value, r.omega_distinct, r.omega_mult, r.running_min] for r in table.rows],
            }
        )
    return tables


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import affsieve
    from affsieve import cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(job=spec["key"])
        tracer.install()
    ready = time.monotonic()
    start = time.perf_counter()
    if spec["command"] == "trend":
        tables = _trend(affsieve, spec["families"])
        rc = 0
    else:
        rc = cli.main(spec["argv"])
    wall = time.perf_counter() - start
    if spec["command"] == "trend":
        with open(spec["record"], "w") as fh:
            json.dump({"command": "trend", "outputs": {"tables": tables}}, fh, sort_keys=True)
    result = {"ready": ready, "wall": wall}
    if tracer is not None:
        from tracer import summarize

        result["trace"] = summarize(tracer.spans)
        tracer.dump(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
