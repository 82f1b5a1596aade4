"""affsieve benchmark: seeded CLI workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload ball-sieve --seed 1 --seconds 30 --trace 0

The load is a closed loop with one client: each job is one ``affsieve``
invocation in a fresh child process (``job.py``), and jobs run one after
another.  A pass runs the workload's job list once; passes repeat until
``--seconds`` have gone by.  Children pin BLAS and OpenMP to one thread.

``--trace 0`` reports the end-to-end metrics over untraced passes.
``--trace 1`` alternates untraced passes with traced ones, in which the
children wrap affsieve's public functions (``tracer.py``), and reports the
per-layer metrics.  Every job's outputs are checked against independent
invariants (``workloads.py``) and must be identical in every pass.  The last
line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(PINNED_THREADS)

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

# Children also get a fixed hash seed, so set iteration order (and with it
# the work done) is the same in every pass.
CHILD_ENV = {**os.environ, **PINNED_THREADS, "PYTHONHASHSEED": "0"}

# Each job's time is a median over passes, so take at least three; a traced
# run alternates untraced and traced passes and takes at least two of each.
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# No pass starts that would end later than this after the first one began,
# so that a run ends within three minutes even when the program is slow.
PASS_LIMIT_S = 140
# A job still running after this many seconds is killed and counts as failed.
JOB_TIMEOUT_S = 60

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class JobRun:
    key: str
    setup: float = 0.0
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    outputs: str | None = None  # canonical JSON of the record's outputs
    trace: dict | None = None
    error: str | None = None


class Runner:
    def __init__(self, inputs: workloads.Inputs, tmp: Path, spans_dir: Path):
        self.inputs = inputs
        self.tmp = tmp
        self.spans_dir = spans_dir

    def run_job(self, job: workloads.Job, traced: bool) -> JobRun:
        tmp = self.tmp
        record, result = tmp / f"{job.key}.record.json", tmp / f"{job.key}.result.json"
        for stale in (record, result):
            stale.unlink(missing_ok=True)
        argv = [job.command]
        if job.scenario is not None:
            argv += ["--scenario", str(tmp / f"{job.scenario}.json")]
        argv += job.args + ["--record", str(record)]
        spec = {
            "key": job.key,
            "src": str(SRC),
            "command": job.command,
            "argv": argv,
            "families": job.families,
            "record": str(record),
            "result": str(result),
            "trace": traced,
            "spans": str(self.spans_dir / f"{job.key}.jsonl"),
        }
        spec_path = tmp / f"{job.key}.spec.json"
        spec_path.write_text(json.dumps(spec))
        run = JobRun(job.key)
        with open(tmp / f"{job.key}.stderr", "w+") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "job.py"), str(spec_path)],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=err,
                cwd=tmp,
                env=CHILD_ENV,
            )
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read()
        run.cpu = usage.ru_utime + usage.ru_stime
        run.rss_mb = usage.ru_maxrss / 1024
        if proc.returncode != 0:
            run.error = f"exit {proc.returncode}: {stderr.strip()[-300:]}"
            return run
        res = json.loads(result.read_text())
        run.setup = res["ready"] - spawned
        run.wall = res["wall"]
        run.trace = res.get("trace")
        run.outputs = json.dumps(json.loads(record.read_text())["outputs"], sort_keys=True)
        return run

    def run_pass(self, traced: bool) -> list[JobRun]:
        return [self.run_job(job, traced) for job in self.inputs.jobs]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def job_medians(passes: list[list[JobRun]], attr: str) -> list[float]:
    """For each job, the median of one field over the passes."""
    return [statistics.median(getattr(run, attr) for run in runs) for runs in zip(*passes)]


def layer_metrics(runs: list[JobRun]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its jobs."""
    layer_self = {layer: 0.0 for layer in LAYERS}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    for run in runs:
        t = run.trace
        for layer, v in t["layer_self_s"].items():
            layer_self[layer] += v
        for src, dst in ((t["calls"], calls), (t["self_s"], self_s), (t["counts"], counts)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    def n(name):
        return counts.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    uni_points, uni_dropped = n("unipotent_sieve.points"), n("unipotent_sieve.dropped")
    m = {
        "matgroup.ball.calls": c("matgroup.ball"),
        "matgroup.ball.self_s": s("matgroup.ball"),
        "matgroup.ball.elements": n("matgroup.ball.elements"),
        "matgroup.ball.elements_per_s": ratio(n("matgroup.ball.elements"), s("matgroup.ball")),
        "matgroup.orbit.self_s": s("matgroup.orbit"),
        "matgroup.orbit.points": n("matgroup.orbit.points"),
        "matgroup.cap_errors": n("matgroup.cap_errors"),
        "polyalg.eval.calls": c("polyalg.eval"),
        "polyalg.eval.self_s": s("polyalg.eval"),
        "polyalg.density_test.calls": c("polyalg.density_test"),
        "polyalg.density_test.self_s": s("polyalg.density_test"),
        "polyalg.density_test.points": n("polyalg.density_test.points"),
        "polyalg.lattice_point.calls": c("polyalg.lattice_point"),
        "polyalg.lattice_point.self_s": s("polyalg.lattice_point"),
        "modp.image.calls": c("modp.image"),
        "modp.image.self_s": s("modp.image"),
        "modp.image.elements": n("modp.image.elements"),
        "modp.image.distinct_share": ratio(n("modp.image.distinct"), c("modp.image")),
        "modp.count_nf.self_s": s("modp.count_nf"),
        "modp.count_nf.points": n("modp.count_nf.points"),
        "modp.variety.calls": c("modp.variety"),
        "modp.variety.self_s": s("modp.variety"),
        "modp.variety.budget_errors": n("modp.variety.budget_errors"),
        "core_arith.factorize.calls": c("core_arith.factorize"),
        "core_arith.factorize.self_s": s("core_arith.factorize"),
        "core_arith.factorize.input_bits": n("core_arith.factorize.input_bits"),
        "core_arith.factorize.incomplete": n("core_arith.factorize.incomplete"),
        "core_arith.primes_upto.calls": c("core_arith.primes_upto"),
        "core_arith.primes_upto.self_s": s("core_arith.primes_upto"),
        "core_arith.is_prime.calls": c("core_arith.is_prime"),
        "orbit_sieve.brun.self_s": s("orbit_sieve.brun"),
        "orbit_sieve.brun.moduli": n("orbit_sieve.brun.moduli"),
        "orbit_sieve.census.self_s": s("orbit_sieve.census"),
        "orbit_sieve.census.incomplete": n("orbit_sieve.census.incomplete"),
        "orbit_sieve.decompose.self_s": s("orbit_sieve.decompose"),
        "orbit_sieve.saturation.self_s": s("orbit_sieve.saturation"),
        "unipotent_sieve.points": uni_points,
        "unipotent_sieve.dropped": uni_dropped,
        "unipotent_sieve.kept_share": ratio(uni_points, uni_points + uni_dropped),
        "heuristics.trend.rows": n("heuristics.trend.rows"),
        "heuristics.trend.incomplete": n("heuristics.trend.incomplete"),
        "scenario.load.self_s": s("scenario.load"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.root_s"] = sum(run.trace["root_s"] for run in runs)
    return m


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "affsieve" / "__init__.py").is_file():
        print(f"error: no affsieve sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import affsieve

    if Path(affsieve.__file__).resolve().parent != SRC / "affsieve":
        print(f"error: imported affsieve from {affsieve.__file__}, not {SRC}", file=sys.stderr)
        return 2

    inputs = workloads.build(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    spans_dir = WORK / "spans" / args.workload
    if args.trace:
        spans_dir.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        for stem, scenario in inputs.scenarios.items():
            path = tmp / f"{stem}.json"
            path.write_bytes(workloads.scenario_bytes(scenario))
            try:
                affsieve.load_scenario(str(path))
            except (ValueError, KeyError, OSError) as exc:
                print(f"error: affsieve rejects generated scenario {stem}: {exc}", file=sys.stderr)
                return 1
        return measure(args, inputs, Runner(inputs, tmp, spans_dir), spans_dir)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, inputs: workloads.Inputs, runner: Runner, spans_dir: Path) -> int:
    untraced: list[list[JobRun]] = []
    traced: list[list[JobRun]] = []
    start = time.monotonic()
    min_passes = MIN_TRACED_PASSES if args.trace else MIN_PASSES
    while True:
        begun = time.monotonic()
        untraced.append(runner.run_pass(False))
        if args.trace:
            traced.append(runner.run_pass(True))
        now = time.monotonic()
        if now - start >= args.seconds and len(untraced) >= min_passes:
            break
        if now - start + (now - begun) > PASS_LIMIT_S:
            break  # a further pass would not end in time

    # correctness: every execution succeeds, the first pass passes the
    # independent checks, and every pass repeats the first pass's outputs
    checker = workloads.Checker(inputs)
    failures: list[str] = []
    all_passes = untraced + traced
    first = {run.key: run for run in untraced[0]}
    for job in inputs.jobs:
        run = first[job.key]
        if run.error is None:
            problems = checker.check(job, json.loads(run.outputs))
            if problems:
                run.error = "; ".join(problems)
    attempted = failed = 0
    for runs in all_passes:
        for run in runs:
            attempted += 1
            if run.error is None and run.outputs != first[run.key].outputs:
                run.error = "outputs differ from the first pass"
            if run.error is None and first[run.key].error is not None:
                run.error = "first pass failed"
            if run.error is not None:
                failed += 1
                failures.append(f"{run.key}: {run.error}")
    digest = hashlib.sha256(
        json.dumps([[run.key, run.outputs] for run in untraced[0]]).encode()
    ).hexdigest()

    # A burst of contention from other tenants slows whatever runs during
    # it, so each job's time is its median over passes, and a pass's time is
    # the sum of those: one slow stretch of one pass does not move it.
    e2e = {
        "wall_s": sum(job_medians(untraced, "wall")),
        "cpu_s": sum(job_medians(untraced, "cpu")),
        "setup_s": statistics.median(r.setup for runs in untraced for r in runs),
        "peak_rss_mb": max(job_medians(untraced, "rss_mb")),
    }
    spread = {
        "wall_s": [sum(r.wall for r in runs) for runs in untraced],
        "cpu_s": [sum(r.cpu for r in runs) for runs in untraced],
        "setup_s": [r.setup for runs in untraced for r in runs],
        "peak_rss_mb": [max(r.rss_mb for r in runs) for runs in untraced],
    }

    out = sys.stdout
    print(
        f"affsieve benchmark: workload {args.workload}, seed {args.seed}, "
        f"{len(inputs.jobs)} jobs x {len(untraced)} untraced + {len(traced)} traced passes; "
        f"python {platform.python_version()}, {os.cpu_count()} cpus, one client, "
        f"threads pinned ({', '.join(f'{k}=1' for k in PINNED_THREADS)})",
        file=out,
    )
    for name, value in e2e.items():
        q1, med, q3 = quartiles(spread[name])
        what = "jobs" if name == "setup_s" else "passes"
        print(
            f"  {name:<12} {value:.4f} {END_TO_END_UNITS[name]}   over {len(spread[name])} {what}: "
            f"q1 {q1:.4f}  median {med:.4f}  q3 {q3:.4f}",
            file=out,
        )
    for job, wall, cpu in zip(inputs.jobs, job_medians(untraced, "wall"), job_medians(untraced, "cpu")):
        print(f"    {job.key:<22} wall {wall:.4f} s  cpu {cpu:.4f} s  {' '.join(job.args)}", file=out)
    print(f"  failed_share {failed}/{attempted} = {failed / attempted:.4f}", file=out)
    print(f"  outputs digest sha256:{digest}", file=out)
    for line in failures:
        print(f"  FAILED {line}", file=out)

    correct = failed == 0
    if args.trace:
        units = per_layer_units()
        per_pass = [layer_metrics(runs) for runs in traced if all(r.trace for r in runs)]
        metrics = {}
        if per_pass:
            for name in per_pass[0]:
                metrics[name] = statistics.median(p[name] for p in per_pass)
            traced_walls = [sum(r.wall for r in runs) for runs in traced]
            metrics["trace.overhead_s"] = sum(job_medians(traced, "wall")) - e2e["wall_s"]
            # self times partition the root spans, and the root spans are
            # the timed calls, so the layers must add up to the traced wall
            for p, wall in zip(per_pass, traced_walls):
                layer_sum = sum(p[f"{layer}.self_s"] for layer in LAYERS)
                if abs(layer_sum - p["trace.root_s"]) > 1e-6 * wall or abs(layer_sum - wall) > 0.01 * wall:
                    correct = False
                    print(f"  FAILED layer self times sum to {layer_sum:.6f} s, traced wall {wall:.6f} s", file=out)
        else:
            correct = False
        print(f"  traced spans written to {spans_dir}", file=out)
        for name in sorted(metrics):
            print(f"  {name:<36} {metrics[name]:.6g} {units.get(name, '')}", file=out)
        result = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics}
        missing = sorted(set(units) - set(result))
        if missing:
            correct = False
            print(f"  FAILED per-layer metrics missing: {missing}", file=out)
    else:
        result = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in e2e.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
