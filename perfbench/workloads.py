"""Seeded inputs, job lists and independent output checks for each workload.

Every workload is a list of jobs.  A job is one ``affsieve`` CLI invocation
on a generated scenario file, or (``trend``) one call of the library entry
point ``affsieve.prime_factor_trend``, which no CLI command exposes.  The
program sees only the scenario files and the flags.

The checks recompute what they can without affsieve: word-metric ball and
orbit sizes of a free group, point counts of {det = 1, f = 0} over F_p by
brute force, orders of SL2(F_p), and factorizations through sympy.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

# Each workload: the reason it exists (copied into BENCHMARK.json).
WHY = {
    "ball-sieve": "word-metric BFS and MultiPoly.eval over free-group balls; stresses matgroup, bypasses modp",
    "finite-images": "finite images mod p and F_p point counts; stresses modp, where a modp cache would act",
    "large-values": "few big values: census of degree-3/4 f (to 1e16), 150-bit trend rows, unipotent sieve, torus heuristics",
}

SL2_VARS = ("x11", "x12", "x21", "x22")
DET = "x11*x22 - x12*x21 - 1"


@dataclass
class Job:
    key: str
    command: str  # CLI subcommand, or "trend"
    scenario: str | None = None
    args: list[str] = field(default_factory=list)
    families: list[list[int]] = field(default_factory=list)  # trend: [a, M] pairs


@dataclass
class Inputs:
    workload: str
    scenarios: dict[str, dict]  # file stem -> scenario JSON
    facts: dict[str, dict]  # SL2 file stem -> a, b and the terms of f
    jobs: list[Job]


def scenario_bytes(scenario: dict) -> bytes:
    return (json.dumps(scenario, sort_keys=True, indent=1) + "\n").encode()


# ---------------------------------------------------------------------------
# polynomials over the SL2 entry variables, as [coefficient, exponents] terms


# Fixed monomials per degree; the seed draws the coefficients.  Every shape
# has a variable that occurs only linearly (x21, or x22 in degree 3), which
# keeps the F_p point counter on elimination, away from its brute-force
# budget; the monomials are fixed because which ones occur, unlike their
# coefficients, moves value sizes and with them the census cost.
SHAPES = {
    1: [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)],
    2: [(1, 1, 0, 0), (0, 0, 0, 2), (0, 0, 1, 0)],
    3: [(3, 0, 0, 0), (0, 1, 1, 0), (0, 0, 0, 1)],
    4: [(4, 0, 0, 0), (0, 1, 2, 0), (0, 1, 0, 1), (0, 0, 1, 0)],
}


def _at_identity(exps) -> int:
    return 1 if exps[1] == 0 and exps[2] == 0 else 0


def random_poly(rng: random.Random, degree: int) -> list[list]:
    """f with the monomials of SHAPES[degree], seeded coefficients, and the
    constant that makes f(I) = 1, so that no prime divides f on the whole
    group."""
    terms = [[rng.choice((1, 2))] + [list(SHAPES[degree][0])]]
    terms += [[rng.choice((-3, -2, -1, 1, 2, 3)), list(m)] for m in SHAPES[degree][1:]]
    const = 1 - sum(c * _at_identity(e) for c, e in terms)
    if const:
        terms.append([const, [0, 0, 0, 0]])
    return terms


def poly_text(terms: list[list]) -> str:
    parts = []
    for coef, exps in terms:
        factors = [v if e == 1 else f"{v}**{e}" for v, e in zip(SL2_VARS, exps) if e]
        body = "*".join(factors)
        mag = abs(coef)
        text = body if mag == 1 and body else (f"{mag}*{body}" if body else str(mag))
        parts.append(("- " if coef < 0 else "+ ") + text)
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]


def poly_eval_mod(terms, point, p) -> int:
    total = 0
    for coef, exps in terms:
        t = coef
        for x, e in zip(point, exps):
            if e:
                t *= pow(x, e, p)
        total += t
    return total % p


def count_sl2_zeros(terms, p: int) -> int:
    """#{x in F_p^4 : x11 x22 - x12 x21 = 1, f(x) = 0} by enumeration."""
    count = 0
    for x11 in range(p):
        if x11:
            inv = pow(x11, -1, p)
            for x12 in range(p):
                for x21 in range(p):
                    x22 = (1 + x12 * x21) * inv % p
                    if poly_eval_mod(terms, (x11, x12, x21, x22), p) == 0:
                        count += 1
        else:
            for x12 in range(1, p):
                x21 = -pow(x12, -1, p) % p
                for x22 in range(p):
                    if poly_eval_mod(terms, (0, x12, x21, x22), p) == 0:
                        count += 1
    return count


def primes_upto(n: int) -> list[int]:
    return [k for k in range(2, n + 1) if all(k % d for d in range(2, int(k**0.5) + 1))]


def sl2_order(p: int) -> int:
    return p * (p * p - 1)


# ---------------------------------------------------------------------------
# scenario generators


def _sl2_scenario(name: str, a: int, b: int, terms, S0) -> dict:
    return {
        "name": name,
        "ambient": {"n": 2, "kind": "SL"},
        "generators": [[[1, a], [0, 1]], [[1, 0], [b, 1]]],
        "orbit_vector": [1, 0],
        "f": poly_text(terms),
        "S0": list(S0),
        "ambient_ideal": [DET],
        "dim_V": 2,
        "dim_G": 3,
        "params": {"D": 1, "L_schedule": [5, 6], "r_max": 8},
    }


def _add_sl2(inputs: Inputs, stem: str, rng, ab_choices, degree, S0=()):
    a, b = rng.sample(ab_choices, 2)
    terms = random_poly(rng, degree)
    inputs.scenarios[stem] = _sl2_scenario(f"{inputs.workload}-{stem}", a, b, terms, S0)
    inputs.facts[stem] = {"a": a, "b": b, "terms": terms}


def _balanced_prime_pairs(lo: int, hi: int, tolerance: Fraction = Fraction(7, 100)):
    """Pairs of primes in [lo, hi] whose SL2 orders sum to within the
    tolerance of the pair (17, 29), so every seed enumerates about the same
    number of image elements: (11, 31), (17, 29) and (19, 29)."""
    ps = [p for p in primes_upto(hi) if p >= lo]
    target = sl2_order(17) + sl2_order(29)
    return [
        (p, q)
        for i, p in enumerate(ps)
        for q in ps[i + 1 :]
        if abs(sl2_order(p) + sl2_order(q) - target) <= tolerance * target
    ]


def build(workload: str, seed: int) -> Inputs:
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    inputs = Inputs(workload, {}, {}, [])
    jobs = inputs.jobs

    def job(command, scenario=None, *args, **extra):
        jobs.append(Job(f"{len(jobs):02d}-{command}", command, scenario, [str(x) for x in args], **extra))

    if workload == "ball-sieve":
        # a, b >= 2: ping-pong makes the group free, so ball sizes are exact.
        # Value sizes, and with them the census cost, grow with ab, so each
        # scenario takes its two parameters from a fixed pair in seeded order.
        _add_sl2(inputs, "A", rng, (2, 3), 1, [2])
        _add_sl2(inputs, "B", rng, (3, 4), 2, [2])
        job("ball", "A", "--L", 8)
        job("orbit", "B", "--L", 9)
        job("sequence", "A", "--L", 8)
        job("census", "A", "--L", 8)
        job("brun-bound", "B", "--L", 7, "--z", 30, "--b", 2)
        job("saturate", "B", "--Lmax", 6, "--D", 1)
    elif workload == "finite-images":
        # a, b are 3-smooth multiples of 6: no prime in [5, 47] divides ab,
        # so every image mod those primes is all of SL2(F_p), and the images
        # mod 2 and 3 are trivial for every seed
        smooth = (6, 12, 18, 24, 36)
        _add_sl2(inputs, "A", rng, smooth, 2)
        _add_sl2(inputs, "B", rng, smooth, 1)
        pair = list(rng.choice(_balanced_prime_pairs(11, 47)))
        rng.shuffle(pair)
        job("local-density", "A", "--p", pair[0])
        job("local-density", "B", "--p", pair[1])
        job("beta-table", "A", "--pmax", 19)
        job("strong-approx", "B", "--q", 35)
        job("decompose", "A", "--L", 4, "--D", 30)
        job("level-report", "A", "--L", 4, "--D", 22)
        job("sieve-dim", "B", "--pmax", 2000)
        job("splitting-census", "B", "--pmax", 200)
        job("variety-count", "A", "--p", rng.choice([p for p in primes_upto(47) if p >= 11]))
    else:
        _add_sl2(inputs, "C", rng, (3, 4), 3)
        _add_sl2(inputs, "D", rng, (4, 5), 4)
        inputs.scenarios["H"] = _heisenberg(rng)
        inputs.scenarios["T"] = _torus(rng)
        job("census", "C", "--L", 7)
        job("census", "D", "--L", 6)
        job("trend", None, families=_trend_families(rng))
        job("uni-sieve", "H", "--want", 10, "--prefixes", 150)
        job("torus-heuristic", "T")
    return inputs


def _heisenberg(rng):
    a, b = rng.choice((1, 2, 3)), rng.choice((1, 2, 3))
    c = rng.choice((1, 2, 3, 4, 5))
    target = f"x13 + {c}"
    return {
        "name": "large-values-H",
        "ambient": {"n": 3, "kind": "unipotent"},
        "generators": [
            [[1, a, 0], [0, 1, 0], [0, 0, 1]],
            [[1, 0, 0], [0, 1, b], [0, 0, 1]],
        ],
        "unipotent": {"p": target, "families": [["x12", "x23"]]},
        "dim_G": 3,
    }


def _torus(rng):
    k1, k2 = rng.sample((2, 3, 5), 2)
    rank = rng.choice((1, 2))
    gens = [[[k1, 0, 0], [0, 1, 0], [0, 0, f"1/{k1}"]]]
    if rank == 2:
        gens.append([[1, 0, 0], [0, k2, 0], [0, 0, f"1/{k2}"]])
    # r = 2 on a rank-1 torus exposes an open defect (the Borel-Cantelli
    # integral bound omits one shell and falls below the partial sums), so
    # rank-1 tori take r = 1 until it is fixed; the check stays in place
    M, nu = rng.choice((3, 4)), rank + rng.choice((1, 2))
    r = rng.choice((1, 2)) if rank == 2 else 1
    return {
        "name": "large-values-T",
        "ambient": {"n": 3, "kind": "SL"},
        "generators": gens,
        "torus": {"M": M, "nu": nu, "r": r},
        "dim_G": rank,
    }


TREND_BITS = 150  # every row below this many bits factors well inside FactorBudget()


def _trend_families(rng) -> list[list[int]]:
    # a = 2 has the most rows and sets the cost; the second base is seeded
    out = []
    for a in (2, rng.choice((3, 5, 6, 7, 10))):
        M = 2
        while trend_value(a, M + 1).bit_length() <= TREND_BITS:
            M += 1
        out.append([a, M])
    return out


def trend_value(a: int, m: int) -> int:
    """(a^m - a)(a^m - 1): the orbit value of the rank-1 torus example."""
    return (a**m - a) * (a**m - 1)


# ---------------------------------------------------------------------------
# independent checks; each returns a list of problems (empty when correct)


class Checker:
    """Checks one workload's job outputs; caches brute-force point counts."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self._counts: dict[tuple[str, int], int] = {}
        self.outputs: dict[str, dict] = {}

    def zeros(self, stem: str, p: int) -> int:
        key = (stem, p)
        if key not in self._counts:
            self._counts[key] = count_sl2_zeros(self.inputs.facts[stem]["terms"], p)
        return self._counts[key]

    def check(self, job: Job, out: dict) -> list[str]:
        self.outputs[job.key] = out
        handler = getattr(self, "_" + job.command.replace("-", "_"))
        problems: list[str] = []
        try:
            handler(job, out, _args(job), problems)
        except Exception as exc:  # outputs of an unexpected shape fail the job
            problems.append(f"check raised {type(exc).__name__}: {exc}")
        return problems

    def _unramified(self, stem: str, p: int) -> bool:
        facts = self.inputs.facts[stem]
        return (facts["a"] * facts["b"]) % p != 0 and p >= 5

    # ball-sieve ----------------------------------------------------------

    def _ball(self, job, out, args, bad):
        L = args["L"]
        _expect(bad, "size", out["size"], 2 * 3**L - 1)
        want = {str(l): (4 * 3 ** (l - 1) if l else 1) for l in range(L + 1)}
        _expect(bad, "by_length", out["by_length"], want)

    def _orbit(self, job, out, args, bad):
        # the stabilizer of e1 is generated by the upper generator, so the
        # points are the reduced words not ending in it: 3^L of them
        _expect(bad, "points", out["points"], 3 ** args["L"])

    def _sequence(self, job, out, args, bad):
        _expect(bad, "X + skipped", out["X"] + out["skipped"], 2 * 3 ** args["L"] - 1)
        if out["distinct_values"] > out["X"]:
            bad.append("more distinct values than values")
        for n in out["entries"]:
            if any(int(n) % p == 0 for p in out["S"]):
                bad.append(f"entry {n} is not S-free")

    def _census(self, job, out, args, bad):
        counts = [out["counts"][str(r)] for r in range(len(out["counts"]))]
        if any(x > y for x, y in zip(counts, counts[1:])):
            bad.append(f"census counts decrease in r: {counts}")
        limit = 2 * 3 ** args["L"] - 1 - out["skipped"] - out["incomplete"]
        if counts[-1] > limit:
            bad.append(f"census count {counts[-1]} exceeds {limit}")
        seq = self._twin("sequence", job)
        if seq is not None:
            _expect(bad, "skipped (vs sequence)", out["skipped"], seq["skipped"])

    def _twin(self, command, job, same_args=True):
        """Outputs of an earlier job with this command on the same scenario
        and flags (or only the same L), if there is one."""
        for other in self.inputs.jobs:
            a, b = _args(other), _args(job)
            if (
                other.command == command
                and other.scenario == job.scenario
                and (a == b if same_args else a.get("L") == b.get("L"))
                and other.key in self.outputs
            ):
                return self.outputs[other.key]
        return None

    def _brun_bound(self, job, out, args, bad):
        if not out["bracketing_holds"] or not out["lower"] <= out["exact"] <= out["upper"]:
            bad.append(f"Brun bracket fails: {out['lower']} <= {out['exact']} <= {out['upper']}")

    def _saturate(self, job, out, args, bad):
        _expect(bad, "L_schedule", out["L_schedule"], [args["Lmax"] - 1, args["Lmax"]])
        if out["r_hat"] is not None and not 0 <= out["r_hat"] <= 8:
            bad.append(f"r_hat {out['r_hat']} outside [0, 8]")

    # finite-images --------------------------------------------------------

    def _local_density(self, job, out, args, bad):
        p = args["p"]
        if not self._unramified(job.scenario, p):
            return
        _expect(bad, "order", out["order"], sl2_order(p))
        _expect(bad, "N_f", out["N_f"], self.zeros(job.scenario, p))
        _expect(bad, "beta", Fraction(out["beta"]), Fraction(out["N_f"], sl2_order(p)))
        _expect(bad, "ramified", out["ramified"], False)

    def _beta_table(self, job, out, args, bad):
        _expect(bad, "ramified", out["ramified"], [])
        _expect(bad, "primes", sorted(int(p) for p in out["beta"]), primes_upto(args["pmax"]))
        for p_text, beta in out["beta"].items():
            p = int(p_text)
            if self._unramified(job.scenario, p):
                want = Fraction(self.zeros(job.scenario, p), sl2_order(p))
                _expect(bad, f"beta({p})", Fraction(beta), want)

    def _strong_approx(self, job, out, args, bad):
        q = args["q"]
        ps = [p for p in primes_upto(q) if q % p == 0]
        _expect(bad, "holds", out["holds"], True)
        order = 1
        for p in ps:
            order *= sl2_order(p)
        _expect(bad, "image_order", out["image_order"], order)
        _expect(bad, "per_prime", out["per_prime"], [[p, sl2_order(p), sl2_order(p)] for p in ps])

    def _decompose(self, job, out, args, bad):
        D, X = args["D"], out["X"]
        squarefree = [d for d in range(1, D + 1) if all(d % (k * k) for k in range(2, D + 1))]
        _expect(bad, "moduli", sorted(int(d) for d in out["rows"]), squarefree)
        if X > 2 * 3 ** args["L"] - 1:
            bad.append("X exceeds the ball size")
        for d_text, row in out["rows"].items():
            d = int(d_text)
            A, pred, rem = row["A_d"], Fraction(row["prediction"]), Fraction(row["remainder"])
            _expect(bad, f"r_{d}", rem, A - pred)
            if d == 1:
                _expect(bad, "A_1", A, X)
            elif d in primes_upto(D) and self._unramified(job.scenario, d):
                want = Fraction(self.zeros(job.scenario, d), sl2_order(d)) * X
                _expect(bad, f"prediction({d})", pred, want)

    def _level_report(self, job, out, args, bad):
        abs_sum, abs_max = Fraction(out["abs_sum"]), Fraction(out["abs_max"])
        if not 0 <= abs_max <= abs_sum:
            bad.append("need 0 <= abs_max <= abs_sum")
        if out["least_tau"] is not None and out["least_tau"] not in out["tau_grid"]:
            bad.append("least_tau is not on the grid")
        # a decompose job on the same ball with D' >= D has the same r_d
        dec = self._twin("decompose", job, same_args=False)
        if dec is not None and dec["D"] >= args["D"]:
            rems = [abs(Fraction(r["remainder"])) for d, r in dec["rows"].items() if int(d) <= args["D"]]
            _expect(bad, "abs_sum (vs decompose)", abs_sum, sum(rems, Fraction(0)))
            _expect(bad, "abs_max (vs decompose)", abs_max, max(rems))

    def _sieve_dim(self, job, out, args, bad):
        _expect(bad, "n_primes", out["n_primes"], len([p for p in primes_upto(args["pmax"]) if p >= 3]))
        _expect(bad, "conclusive", out["conclusive"], True)

    def _splitting_census(self, job, out, args, bad):
        ps = [p for p in primes_upto(args["pmax"]) if p >= 3]
        _expect(bad, "primes", [r[0] for r in out["rows"]], ps)
        freq = sum((Fraction(v) for v in out["frequencies"].values()), Fraction(0))
        if out["frequencies"] and freq != 1:
            bad.append(f"frequencies sum to {freq}")
        for p, count, *_ in out["rows"]:
            if p <= 31:
                _expect(bad, f"count({p})", count, self.zeros(job.scenario, p))

    def _variety_count(self, job, out, args, bad):
        _expect(bad, "count", out["count"], self.zeros(job.scenario, args["p"]))

    # large-values ---------------------------------------------------------

    def _trend(self, job, out, args, bad):
        import sympy

        _expect(bad, "tables", [[t["a"], t["M"]] for t in out["tables"]], job.families)
        for table in out["tables"]:
            a = table["a"]
            _expect(bad, f"incomplete(a={a})", table["incomplete"], 0)
            _expect(bad, f"rows(a={a})", [r[0] for r in table["rows"]], list(range(2, table["M"] + 1)))
            for m, value, distinct, mult, _running in table["rows"]:
                _expect(bad, f"value(a={a}, m={m})", value, trend_value(a, m))
                if distinct is None or mult is None or mult < distinct:
                    bad.append(f"a={a} m={m}: multiplicity count {mult} < distinct {distinct}")
                    continue
                if value.bit_length() <= 64:
                    odd = {p: e for p, e in sympy.factorint(value).items() if p != 2}
                    _expect(bad, f"omega(a={a}, m={m})", (distinct, mult), (len(odd), sum(odd.values())))

    def _uni_sieve(self, job, out, args, bad):
        import sympy

        _expect(bad, "dropped", out["dropped"], 0)
        if out["points"] < 1:
            bad.append("no points emitted")
        for v in out["sample_values"]:
            rest = {p: e for p, e in sympy.factorint(abs(int(v))).items() if p not in out["S"]}
            if sum(rest.values()) > out["r"]:
                bad.append(f"value {v} has more than r={out['r']} prime factors outside S")

    def _torus_heuristic(self, job, out, args, bad):
        _expect(bad, "envelope_verified", out["envelope_verified"], True)
        sums = [float(x) for x in out["bc_partial_sums"]]
        if any(x > y for x, y in zip(sums, sums[1:])):
            bad.append("Borel-Cantelli partial sums decrease")
        if sums[-1] > float(out["bc_integral_bound"]):
            bad.append("partial sum exceeds the integral bound")


def _args(job: Job) -> dict:
    it = iter(job.args)
    return {flag.lstrip("-").replace("-", "_"): int(value) for flag, value in zip(it, it)}


def _expect(bad: list[str], what: str, got, want) -> None:
    if got != want:
        bad.append(f"{what}: got {got!r}, want {want!r}")
