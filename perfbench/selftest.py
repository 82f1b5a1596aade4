"""Checks on the benchmark itself: ``python3 perfbench/selftest.py``.

- the same seed generates byte-identical inputs, and another seed other ones;
- scenario text written by the generator means the polynomial the checks use;
- self time on a synthetic nested call equals its duration minus its children;
- layer self times add up to the root spans;
- the tracer rebinds a wrapped function in every module that imported it.

Each traced benchmark run also checks, per workload, that the layer self
times sum to the traced wall time (``run.py``).
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def check(cond: bool, what: str) -> None:
    if not cond:
        FAILURES.append(what)


def snapshot(workload: str, seed: int):
    inputs = workloads.build(workload, seed)
    files = {stem: workloads.scenario_bytes(sc) for stem, sc in inputs.scenarios.items()}
    return files, [(j.key, j.command, j.scenario, j.args, j.families) for j in inputs.jobs]


def test_seeded_inputs():
    for workload in workloads.WHY:
        for seed in (0, 1, 12345):
            check(snapshot(workload, seed) == snapshot(workload, seed), f"{workload} seed {seed} not reproducible")
        check(snapshot(workload, 1) != snapshot(workload, 2), f"{workload}: seeds 1 and 2 give the same inputs")


def test_poly_text_matches_terms():
    from affsieve.polyalg import MultiPoly

    rng = random.Random(7)
    for degree in (1, 2, 3, 4):
        for _ in range(20):
            terms = workloads.random_poly(rng, degree)
            f = MultiPoly.parse(workloads.poly_text(terms), workloads.SL2_VARS)
            check(f.eval((1, 0, 0, 1)) == 1, f"f(I) != 1 for {terms}")
            for _ in range(5):
                x = [rng.randrange(-9, 10) for _ in range(4)]
                direct = sum(c * x[0] ** e[0] * x[1] ** e[1] * x[2] ** e[2] * x[3] ** e[3] for c, e in terms)
                check(f.eval(x) == direct, f"poly_text disagrees with its terms: {terms} at {x}")


class FakeClock:
    """Advances by a fixed step on every reading, so span times are exact."""

    def __init__(self):
        self.t = Fraction(0)

    def __call__(self):
        self.t += Fraction(1, 8)
        return self.t


def test_self_time_nested():
    clock = FakeClock()
    tr = tracer.Tracer(job="synthetic", clock=clock)
    leaf = tr.wrap("core_arith", "leaf", lambda: clock())
    inner = tr.wrap("polyalg", "inner", lambda: (leaf(), leaf(), clock()))
    outer = tr.wrap("cli", "outer", lambda: (inner(), clock(), inner()))
    outer()
    spans = tr.spans
    selfs = tracer.self_times(spans)
    check(len(spans) == 7, f"expected 7 spans, got {len(spans)}")
    for i, s in enumerate(spans):
        kids = [k for k in spans if k[tracer.PARENT] == i]
        want = (s[tracer.END] - s[tracer.START]) - sum(k[tracer.END] - k[tracer.START] for k in kids)
        check(selfs[i] == want, f"span {i} ({s[tracer.NAME]}): self {selfs[i]} != {want}")
        check(selfs[i] > 0, f"span {i} has no self time")
    summary = tracer.summarize(spans)
    root = spans[0][tracer.END] - spans[0][tracer.START]
    check(sum(summary["layer_self_s"].values()) == root, "layer self times do not sum to the root span")
    check(summary["calls"] == {"outer": 1, "inner": 2, "leaf": 4}, f"calls: {summary['calls']}")


def test_self_time_overlapping_children():
    # children [1, 4] and [3, 6] inside [0, 10] cover 5, not 6
    spans = [
        ["cli", "root", 0.0, 10.0, -1, "j", None, None],
        ["modp", "a", 1.0, 4.0, 0, "j", None, None],
        ["modp", "b", 3.0, 6.0, 0, "j", None, None],
        ["modp", "c", 8.0, 12.0, 0, "j", None, None],  # clipped to [8, 10]
    ]
    check(tracer.self_times(spans)[0] == 10.0 - 5.0 - 2.0, "union of child spans not clipped and merged")


def test_rebinding():
    import affsieve
    from affsieve import cli, matgroup, orbit_sieve, polyalg

    original = matgroup.ball
    tr = tracer.Tracer(job="rebind")
    tr.install()
    check(matgroup.ball is not original, "matgroup.ball not wrapped")
    check(cli.ball is matgroup.ball and affsieve.ball is matgroup.ball, "cli.ball / affsieve.ball not rebound")
    check(orbit_sieve.ball is matgroup.ball, "orbit_sieve.ball not rebound")
    check(orbit_sieve.omega_outside is affsieve.core_arith.omega_outside, "orbit_sieve.omega_outside not rebound")
    gens = affsieve.GeneratorSet([[[1, 2], [0, 1]], [[1, 0], [2, 1]]])
    f = polyalg.MultiPoly.parse("x11 + x22 - 2", affsieve.matgroup.entry_variable_names(2))
    seq = orbit_sieve.build_sequence(gens, f, 2)
    names = [s[tracer.NAME] for s in tr.spans]
    check(names[:2] == ["orbit_sieve.sequence", "matgroup.ball"], f"spans: {names[:3]}")
    check(names.count("polyalg.eval") == len(affsieve.ball(gens, 2)), "MultiPoly.eval not traced per element")
    check(seq.X + seq.skipped == 17, "traced call changed the result")


def main() -> int:
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            before = len(FAILURES)
            fn()
            print(f"{'ok  ' if len(FAILURES) == before else 'FAIL'} {name}")
    for line in FAILURES:
        print(f"  {line}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
