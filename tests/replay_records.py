"""Write the ``--record`` of every replayed CLI invocation into one directory.

    python tests/replay_records.py OUTDIR [--seed N ...]

Covers each ``REPLAY`` invocation of ``tests/test_scenario_cli.py`` (under
``OUTDIR/replay``), each ``EXTRA`` invocation below (under ``OUTDIR/extra``)
and, for each seed (101 and 102 by default), every CLI job of the benchmark
workloads with its generated scenario files (under
``OUTDIR/<seed>/<workload>``; the ``trend`` jobs call a library function and
have no record).  Records carry no paths or timestamps, so two trees agree
exactly when ``diff -r`` of their output directories is empty.  The records
of the current code are committed under ``tests/records``, which
``tests/test_records.py`` compares against; a change that moves a record
regenerates them with

    rm -rf tests/records && python tests/replay_records.py tests/records

A job that exits non-zero leaves ``<key>.exit`` with its exit code instead of
a record.  Not collected by pytest (the file name does not start with
``test_``).  ``perfbench/workloads.py`` is only imported, never changed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

from affsieve import cli  # noqa: E402
from test_scenario_cli import HEIS, HEIS_Q, REPLAY, SL2  # noqa: E402
import workloads  # noqa: E402

SEEDS = (101, 102)

# Invocations beside REPLAY, which holds exactly one per subcommand: beta(p)
# at primes whose images are large (|SL_2(F_61)| = 226,920), so record diffs
# cover the certified route where image enumeration is the dual route;
# strong approximation mod 35 (every prime certified and >= 5, nothing
# enumerated) and mod 15 (p = 3 < 5, the image mod 15 enumerated); and
# strong approximation on the unipotent Heisenberg group, refused (exit 2);
# saturation at D = 2, where det - 1 gives ambient rows to the density test
# (the benchmark's saturate runs at D = 1, where it gives none); the
# unipotent sieve on a Heisenberg group with rational generators, whose
# Mal'cev basis has denominators 2, 12 and 3 (conjugation level 6); and the
# unipotent sieve on families that take its routes the benchmark never does:
# a member factored by sympy (4*y1**2 - 4*y3**2) and a certificate with
# Q = 2*y1**2 - 1.
HEIS_F = str(ROOT / "scenarios" / "heisenberg-families.json")
EXTRA = [
    ["local-density", "--scenario", SL2, "--p", "61"],
    ["beta-table", "--scenario", SL2, "--pmax", "47"],
    ["strong-approx", "--scenario", SL2, "--q", "35"],
    ["strong-approx", "--scenario", SL2, "--q", "15"],
    ["strong-approx", "--scenario", HEIS, "--q", "5"],
    ["saturate", "--scenario", SL2, "--Lmax", "5", "--D", "2"],
    ["uni-sieve", "--scenario", HEIS_Q, "--want", "3", "--prefixes", "10"],
    ["uni-sieve", "--scenario", HEIS_F, "--want", "3", "--prefixes", "10"],
]


def run(argv: list[str], out: Path) -> None:
    """One CLI invocation, its printed summary discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main([*argv, "--record", str(out.with_suffix(".json"))])
    if rc:
        out.with_suffix(".exit").write_text(f"{rc}\n")


def write_records(outdir: Path, seeds=SEEDS) -> None:
    for group, invocations in (("replay", REPLAY), ("extra", EXTRA)):
        (outdir / group).mkdir(parents=True, exist_ok=True)
        for i, inv in enumerate(invocations):
            run(inv, outdir / group / f"{i:02d}-{inv[0]}")

    for seed in seeds:
        for name in workloads.WHY:
            inputs = workloads.build(name, seed)
            work = outdir / str(seed) / name
            work.mkdir(parents=True, exist_ok=True)
            for stem, scenario in inputs.scenarios.items():
                (work / f"{stem}.json").write_bytes(workloads.scenario_bytes(scenario))
            for job in inputs.jobs:
                if job.command == "trend":
                    continue
                scenario = ["--scenario", str(work / f"{job.scenario}.json")] if job.scenario else []
                run([job.command, *scenario, *job.args], work / job.key)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--seed", type=int, action="append", help="default: 101 and 102")
    args = parser.parse_args(argv)
    write_records(args.outdir, args.seed or SEEDS)
    print(f"records written under {args.outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
