"""Span tracer that times affsieve's layers from outside the program.

``install`` wraps a fixed list of public functions and methods and rebinds
each wrapper in every ``affsieve`` module namespace that holds the original
by name (``cli.ball``, ``orbit_sieve.omega_outside``, ...), so calls made
inside the package are timed too.  Spans stay in memory; ``summarize`` turns
them into per-layer self times and counters, ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Layer names are the module names of src/affsieve.
LAYERS = (
    "cli",
    "scenario",
    "matgroup",
    "polyalg",
    "modp",
    "core_arith",
    "orbit_sieve",
    "unipotent_sieve",
    "heuristics",
)


def _ball_counts(args, kwargs, out):
    return {"matgroup.ball.elements": len(out)}


def _orbit_counts(args, kwargs, out):
    return {"matgroup.orbit.points": len(out)}


def _density_counts(args, kwargs, out):
    points = args[0] if args else kwargs["points"]
    return {"polyalg.density_test.points": len(points)}


def _image_counts(args, kwargs, out):
    key = (out.q, tuple(g.entries for g in out.generators))
    return {"modp.image.elements": len(out), "modp.image.key": key}


def _count_nf_counts(args, kwargs, out):
    image = args[0] if args else kwargs["image"]
    return {"modp.count_nf.points": len(image)}


def _factorize_counts(args, kwargs, out):
    n = args[0] if args else kwargs["n"]
    return {
        "core_arith.factorize.input_bits": abs(n).bit_length(),
        "core_arith.factorize.incomplete": int(not out.complete),
    }


def _brun_counts(args, kwargs, out):
    return {"orbit_sieve.brun.moduli": out.moduli_used}


def _census_counts(args, kwargs, out):
    return {"orbit_sieve.census.incomplete": out.incomplete}


def _uni_counts(args, kwargs, out):
    return {"unipotent_sieve.points": len(out.points), "unipotent_sieve.dropped": out.dropped}


def _trend_counts(args, kwargs, out):
    return {"heuristics.trend.rows": len(out.rows), "heuristics.trend.incomplete": out.incomplete}


# (layer, module, attribute, span name, counter function).  The span name is
# the metric prefix; a dotted attribute is a method on a class.
TARGETS = (
    ("cli", "cli", "main", "cli.main", None),
    ("scenario", "scenario", "load_scenario", "scenario.load", None),
    ("matgroup", "matgroup", "ball", "matgroup.ball", _ball_counts),
    ("matgroup", "matgroup", "orbit", "matgroup.orbit", _orbit_counts),
    ("polyalg", "polyalg", "MultiPoly.eval", "polyalg.eval", None),
    ("polyalg", "polyalg", "zariski_density_test", "polyalg.density_test", _density_counts),
    ("polyalg", "polyalg", "NilpotentLog.lattice_point", "polyalg.lattice_point", None),
    ("polyalg", "polyalg", "malcev_lattice", "polyalg.malcev_lattice", None),
    ("modp", "modp", "generate_image", "modp.image", _image_counts),
    ("modp", "modp", "count_Nf", "modp.count_nf", _count_nf_counts),
    ("modp", "modp", "enumerate_variety_mod_p", "modp.variety", None),
    ("modp", "modp", "local_density", "modp.local_density", None),
    ("modp", "modp", "beta_squarefree", "modp.beta_squarefree", None),
    ("modp", "modp", "verify_strong_approx", "modp.strong_approx", None),
    ("modp", "modp", "detect_ramified", "modp.ramified", None),
    ("modp", "modp", "splitting_census", "modp.splitting_census", None),
    ("core_arith", "core_arith", "factorize", "core_arith.factorize", _factorize_counts),
    ("core_arith", "core_arith", "primes_upto", "core_arith.primes_upto", None),
    ("core_arith", "core_arith", "is_prime", "core_arith.is_prime", None),
    ("core_arith", "core_arith", "omega_outside", "core_arith.omega_outside", None),
    ("core_arith", "core_arith", "s_integer_part", "core_arith.s_integer_part", None),
    ("orbit_sieve", "orbit_sieve", "build_sequence", "orbit_sieve.sequence", None),
    ("orbit_sieve", "orbit_sieve", "moduli_decomposition", "orbit_sieve.decompose", None),
    ("orbit_sieve", "orbit_sieve", "level_distribution_report", "orbit_sieve.level_report", None),
    ("orbit_sieve", "orbit_sieve", "sieve_dimension_fit", "orbit_sieve.dimension_fit", None),
    ("orbit_sieve", "orbit_sieve", "brun_bound", "orbit_sieve.brun", _brun_counts),
    ("orbit_sieve", "orbit_sieve", "almost_prime_census", "orbit_sieve.census", _census_counts),
    ("orbit_sieve", "orbit_sieve", "saturation_estimate", "orbit_sieve.saturation", None),
    ("unipotent_sieve", "unipotent_sieve", "unipotent_group_sieve", "unipotent_sieve.group_sieve", _uni_counts),
    ("heuristics", "heuristics", "prime_factor_trend", "heuristics.trend", _trend_counts),
    ("heuristics", "heuristics", "norm_growth_check", "heuristics.norm_growth", None),
    ("heuristics", "heuristics", "borel_cantelli_sum", "heuristics.borel_cantelli", None),
)

# Exceptions counted where they leave a span: span name -> (exception class
# name, counter).
ERROR_COUNTERS = {
    "matgroup.ball": ("ResourceCapError", "matgroup.cap_errors"),
    "matgroup.orbit": ("ResourceCapError", "matgroup.cap_errors"),
    "modp.variety": ("EnumerationBudgetError", "modp.variety.budget_errors"),
}

# span fields: layer, name, start, end, parent index, job id, counters, error
LAYER, NAME, START, END, PARENT, JOB, COUNTS, ERROR = range(8)


class Tracer:
    """Collects one span per call of a wrapped function."""

    def __init__(self, job: str = "", clock=time.perf_counter):
        self.job = job
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, name: str, fn, counter=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                stack.pop()
                span[ERROR] = type(exc).__name__
                raise
            span[END] = clock()
            stack.pop()
            if counter is not None:
                span[COUNTS] = counter(args, kwargs, out)
            return out

        return traced

    def install(self, package: str = "affsieve") -> None:
        """Wrap every target and rebind it wherever the package imported it
        by name."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == package or k.startswith(package + ".")]
        for layer, module, attr, name, counter in TARGETS:
            owner = sys.modules[f"{package}.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(layer, name, getattr(cls, meth), counter))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(layer, name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "layer": s[LAYER],
                            "name": s[NAME],
                            "start": s[START],
                            "end": s[END],
                            "parent": s[PARENT],
                            "job": s[JOB],
                            "error": s[ERROR],
                        }
                    )
                    + "\n"
                )


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [
        (s[END] - s[START]) - _covered(kids, s[START], s[END]) if kids else s[END] - s[START]
        for s, kids in zip(spans, children)
    ]


def summarize(spans: list[list]) -> dict:
    """Per-layer and per-span-name self time, call counts and counters."""
    selfs = self_times(spans)
    layer_self = {layer: 0.0 for layer in LAYERS}
    calls: dict[str, int] = {}
    name_self: dict[str, float] = {}
    counts: dict[str, int] = {}
    image_keys = set()
    roots = 0.0
    for s, st in zip(spans, selfs):
        layer_self[s[LAYER]] += st
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        name_self[name] = name_self.get(name, 0.0) + st
        if s[PARENT] < 0:
            roots += s[END] - s[START]
        if s[COUNTS]:
            for key, value in s[COUNTS].items():
                if key == "modp.image.key":
                    image_keys.add(value)
                else:
                    counts[key] = counts.get(key, 0) + value
        if s[ERROR] and name in ERROR_COUNTERS and ERROR_COUNTERS[name][0] == s[ERROR]:
            key = ERROR_COUNTERS[name][1]
            counts[key] = counts.get(key, 0) + 1
    counts["modp.image.distinct"] = len(image_keys)
    return {
        "layer_self_s": layer_self,
        "calls": calls,
        "self_s": name_self,
        "counts": counts,
        "root_s": roots,
    }
