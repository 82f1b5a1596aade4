"""Scenario-driven command-line front end.

Every command prints a human-readable summary and, with --record, writes a
deterministic machine-readable JSON record (no timestamps, sorted keys) so
that replaying the same scenario hash and flags is byte-identical.

Exit codes: 0 success, 2 invalid input, 3 resource/budget exhaustion,
4 a certificate or exact cross-check failed to verify.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import partial

from . import __version__
from .core_arith import primes_upto
from .heuristics import TorusSpec, borel_cantelli_sum, norm_growth_check
from .matgroup import ResourceCapError, ball, orbit
from .modp import (
    EnumerationBudgetError,
    beta_squarefree,
    detect_ramified,
    enumerate_variety_mod_p,
    local_density,
    root_search,
    splitting_census,
    verify_strong_approx,
)
from .orbit_sieve import (
    almost_prime_census,
    brun_bound,
    build_sequence,
    level_distribution_report,
    moduli_decomposition,
    r_formula,
    saturation_estimate,
    sieve_dimension_fit,
)
from .polyalg import CertificateError, MultiPoly
from .scenario import Scenario, encode_value, load_scenario, parse_rational
from .unipotent_sieve import (
    CoprimalityError,
    SieveBudget,
    unipotent_group_sieve,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_CERTIFICATE = 4


def _emit(args, command: str, scenario, flags: dict, outputs: dict) -> None:
    record = {
        "command": command,
        "scenario": scenario.name if scenario else None,
        "scenario_hash": scenario.hash() if scenario else None,
        "flags": encode_value(flags),
        "outputs": encode_value(outputs),
        "versions": {"affsieve": __version__},
    }
    payload = json.dumps(record, sort_keys=True, indent=2)
    for key, value in outputs.items():
        print(f"{key}: {encode_value(value)}")
    if getattr(args, "record", None):
        with open(args.record, "w") as fh:
            fh.write(payload + "\n")
        print(f"record written to {args.record}")


def _ramified_set(sc: Scenario, f: MultiPoly, L_sample: int = 3, p_max: int = 100):
    sample = ball(sc.generators, L_sample, cap=sc.ball_cap)
    return detect_ramified(sc.generators, f, sample, p_max=p_max, cap=sc.image_cap)


def _need(sc: Scenario, attr: str, what: str):
    value = getattr(sc, attr)
    if value is None:
        raise ValueError(f"scenario {sc.name!r} does not declare {what}")
    return value


def _need_SL(sc: Scenario, command: str) -> None:
    if sc.kind != "SL":
        raise ValueError(f"{command} needs ambient.kind 'SL', not {sc.kind!r}")


# ---------------------------------------------------------------------------
# command handlers


def cmd_ball(sc: Scenario, args):
    B = ball(sc.generators, args.L, cap=sc.ball_cap)
    by_length: dict[int, int] = {}
    for _, l in B.length.items():
        by_length[l] = by_length.get(l, 0) + 1
    return {"L": args.L, "size": len(B), "by_length": dict(sorted(by_length.items()))}


def cmd_orbit(sc: Scenario, args):
    v = _need(sc, "orbit_vector", "an orbit_vector")
    O = orbit(sc.generators, v, args.L, cap=sc.ball_cap)
    return {"L": args.L, "points": len(O)}


def cmd_local_density(sc: Scenario, args):
    f = _need(sc, "f", "a regular function f")
    ram = _ramified_set(sc, f, p_max=max(args.p, 100))
    d = local_density(sc.generators, f, args.p, ramified=ram.confirmed, cap=sc.image_cap)
    return {
        "p": args.p,
        "N_f": d.N_f,
        "order": d.order,
        "beta": d.beta,
        "ramified": d.ramified,
    }


def cmd_beta_table(sc: Scenario, args):
    f = _need(sc, "f", "a regular function f")
    ram = _ramified_set(sc, f, p_max=max(args.pmax, 100))
    table = {}
    for p in primes_upto(args.pmax):
        d = local_density(sc.generators, f, p, ramified=ram.confirmed, cap=sc.image_cap)
        table[p] = d.beta
    return {"pmax": args.pmax, "ramified": list(ram.confirmed), "beta": table}


def cmd_strong_approx(sc: Scenario, args):
    # the expected order is prod |SL_n(F_p)|, which says nothing off SL
    _need_SL(sc, "strong-approx")
    v = verify_strong_approx(sc.generators, args.q, cap=sc.image_cap)
    return {
        "q": args.q,
        "holds": v.holds,
        "image_order": v.image_order,
        "expected_order": v.expected_order,
        "per_prime": [list(row) for row in v.per_prime],
    }


def cmd_ramified(sc: Scenario, args):
    f = _need(sc, "f", "a regular function f")
    rep = _ramified_set(sc, f, L_sample=args.Lsample, p_max=args.pmax)
    return {
        "confirmed": list(rep.confirmed),
        "unresolved": list(rep.unresolved),
        "sample_gcd": rep.sample_gcd,
    }


def cmd_variety_count(sc: Scenario, args):
    f = _need(sc, "f", "a regular function f")
    count = enumerate_variety_mod_p(
        [f, *sc.ambient_ideal], args.p, variables=sc.variables
    )
    return {"p": args.p, "count": count}


def cmd_splitting_census(sc: Scenario, args):
    f = _need(sc, "f", "a regular function f")
    dim_V = args.dim if args.dim is not None else _need(sc, "dim_V", "dim_V")
    ps = [p for p in primes_upto(args.pmax) if p >= args.pmin]
    cen = splitting_census([f, *sc.ambient_ideal], dim_V, ps, variables=sc.variables)
    return {
        "dim_V": dim_V,
        "rows": [list(r) for r in cen.rows],
        "frequencies": {str(k): v for k, v in sorted(cen.frequencies.items())},
        "unclassified": list(cen.unclassified),
        "degree_sum_estimate": cen.degree_sum_estimate,
    }


def cmd_sequence(sc: Scenario, args):
    f = _need(sc, "f", "a regular function f")
    if args.head < 0:
        raise ValueError("--head must be >= 0")
    seq = build_sequence(sc.generators, f, args.L, sc.S0, cap=sc.ball_cap)
    return {
        "L": args.L,
        "S": list(seq.S_used),
        "X": seq.X,
        "skipped": seq.skipped,
        "entries": {str(n): a for n, a in sorted(seq.entries.items())[: args.head]},
        "distinct_values": len(seq.entries),
    }


def _decomposition(sc: Scenario, args):
    """Moduli decomposition of the scenario's sequence at L up to D.  It asks
    beta_squarefree once for each squarefree d: the product of the local
    densities beta(p), p | d (certified ones from the variety counter), which
    beta_squarefree cross-checks by enumerating the image mod d when d is
    composite and at most 50.  Ramified primes are confirmed up to D.  The
    modp memo computes each beta(p) once."""
    f = _need(sc, "f", "a regular function f")
    ram = _ramified_set(sc, f, p_max=max(args.D, 100)).confirmed
    seq = build_sequence(sc.generators, f, args.L, sc.S0, cap=sc.ball_cap)
    beta = partial(beta_squarefree, sc.generators, f, ramified=ram, cap=sc.image_cap)
    return moduli_decomposition(seq, beta, args.D)


def cmd_decompose(sc: Scenario, args):
    decomp = _decomposition(sc, args)
    return {
        "L": args.L,
        "D": args.D,
        "X": decomp.X,
        "rows": {
            str(d): {"A_d": row[0], "prediction": row[1], "remainder": row[2]}
            for d, row in sorted(decomp.rows.items())
        },
    }


def cmd_level_report(sc: Scenario, args):
    decomp = _decomposition(sc, args)
    taus = [parse_rational(t) for t in args.taus.split(",")]
    dim = _need(sc, "dim_G", "dim_G")
    rep = level_distribution_report(decomp, taus, dim)
    return {
        "L": args.L,
        "D": args.D,
        "abs_sum": rep.abs_sum,
        "abs_max": rep.abs_max,
        "least_tau": rep.least_tau,
        "tau_grid": list(rep.tau_grid),
    }


def cmd_sieve_dim(sc: Scenario, args):
    f = _need(sc, "f", "a regular function f")
    # beta(p) is certified only as N_f / |SL_n(F_p)|; off SL every prime
    # would enumerate its image
    _need_SL(sc, "sieve-dim")
    ram = _ramified_set(sc, f, p_max=max(args.pmax, 100)).confirmed
    # Gamma or f has no reduction mod a prime dividing a denominator
    denominators = math.lcm(root_search(sc.generators).denominators, f.denominator_lcm())
    table: dict[int, Fraction] = {}
    uncertified = []
    for p in primes_upto(args.pmax):
        if denominators % p == 0:
            uncertified.append(p)
            continue
        d = local_density(sc.generators, f, p, ramified=ram, cap=sc.image_cap)
        table[p] = d.beta
        if not d.ramified and d.certificate is None:
            uncertified.append(p)
    fit = sieve_dimension_fit(table, args.w, args.pmax)
    return {
        "window": list(fit.window),
        "slope": fit.slope,
        "intercept": fit.intercept,
        "residual": fit.residual,
        "n_primes": fit.n_primes,
        "conclusive": fit.conclusive,
        "uncertified": uncertified,
    }


def cmd_brun_bound(sc: Scenario, args):
    f = _need(sc, "f", "a regular function f")
    seq = build_sequence(sc.generators, f, args.L, sc.S0, cap=sc.ball_cap)
    br = brun_bound(seq, args.z, args.b)
    exact = seq.sifted_count(args.z)
    return {
        "L": args.L,
        "z": args.z,
        "b": args.b,
        "lower": br.lower,
        "exact": exact,
        "upper": br.upper,
        "moduli_used": br.moduli_used,
        "bracketing_holds": br.lower <= exact <= br.upper,
    }


def cmd_census(sc: Scenario, args):
    f = _need(sc, "f", "a regular function f")
    cen = almost_prime_census(
        sc.generators, f, args.L, sc.S0, r_max=args.rmax, cap=sc.ball_cap
    )
    return {
        "L": args.L,
        "S": list(cen.S_used),
        "counts": {str(r): c for r, c in sorted(cen.counts.items())},
        "incomplete": cen.incomplete,
        "skipped": cen.skipped,
    }


def cmd_saturate(sc: Scenario, args):
    f = _need(sc, "f", "a regular function f")
    if args.Lmax is not None:
        schedule = (max(1, args.Lmax - 1), args.Lmax)
    else:
        schedule = sc.L_schedule
    D = args.D if args.D is not None else sc.D
    est = saturation_estimate(
        sc.generators,
        f,
        sc.S0,
        D,
        schedule,
        ambient_ideal_basis=sc.ambient_ideal,
        r_max=sc.r_max,
        cap=sc.ball_cap,
    )
    return {
        "r_hat": est.r_hat,
        "S": list(est.S_used),
        "D": est.D,
        "L_schedule": list(est.L_schedule),
        "stable": est.stable,
        "per_L": {str(L): r for L, r in sorted(est.per_L.items())},
        "failure_mode": {str(L): m for L, m in sorted(est.failure_mode.items())},
        "note": "empirical lower-confidence estimate from finite data",
    }


def cmd_uni_sieve(sc: Scenario, args):
    p = _need(sc, "unipotent_p", "a unipotent block")
    if args.head < 0:
        raise ValueError("--head must be >= 0")
    budget = SieveBudget(
        value_want=args.want,
        prefix_want=args.prefixes,
        search_bound=args.bound,
    )
    res = unipotent_group_sieve(list(sc.generator_matrices), p, sc.unipotent_families, budget)
    return {
        "r": res.r,
        "S": list(res.S),
        "points": len(res.points),
        "dropped": res.dropped,
        "exhausted": res.exhausted,
        "span_stable": res.span_stable,
        "sample_points": [list(pt.x) for pt in res.points[: args.head]],
        "sample_values": [pt.value for pt in res.points[: args.head]],
    }


def cmd_torus_heuristic(sc: Scenario, args):
    M = _need(sc, "torus_M", "a torus block")
    nu = sc.torus_nu
    spec = TorusSpec(sc.generator_matrices, M)
    env = norm_growth_check(spec)
    tenth = [args.bc_M // 10] if args.bc_M >= 10 else []
    rep = borel_cantelli_sum(spec.rank, nu, sc.torus_r, args.bc_M, checkpoints=tenth)
    return {
        "A1": env.A1,
        "A2": env.A2,
        "K": env.K,
        "envelope_verified": env.verified,
        "degenerate_directions": [list(d) for d in env.degenerate_directions],
        "bc_partial_sums": list(rep.partial_sums),
        "bc_partial_sums_lo": list(rep.partial_sums_lo),
        "bc_increments": list(rep.increments),
        "bc_integral_bound": rep.integral_bound,
    }


def cmd_r_formula(_sc, args):
    value = r_formula(
        args.deg,
        args.s,
        args.dim,
        parse_rational(args.tau),
        args.omega,
        parse_rational(args.T),
        parse_rational(args.logM0),
    )
    return {
        "deg": args.deg,
        "s": args.s,
        "dim": args.dim,
        "tau": parse_rational(args.tau),
        "omega": args.omega,
        "T": parse_rational(args.T),
        "logM0": parse_rational(args.logM0),
        "r": value,
    }


# ---------------------------------------------------------------------------
# argument wiring


REQUIRED = object()  # the default of a flag that must be given

# name -> (handler, needs_scenario, flags); a flag is (name, type, default)
COMMANDS = {
    "ball": (cmd_ball, True, (("--L", int, REQUIRED),)),
    "orbit": (cmd_orbit, True, (("--L", int, REQUIRED),)),
    "local-density": (cmd_local_density, True, (("--p", int, REQUIRED),)),
    "beta-table": (cmd_beta_table, True, (("--pmax", int, REQUIRED),)),
    "strong-approx": (cmd_strong_approx, True, (("--q", int, REQUIRED),)),
    "ramified": (cmd_ramified, True, (("--Lsample", int, 3), ("--pmax", int, 100))),
    "variety-count": (cmd_variety_count, True, (("--p", int, REQUIRED),)),
    "splitting-census": (cmd_splitting_census, True, (
        ("--pmin", int, 3), ("--pmax", int, REQUIRED), ("--dim", int, None),
    )),
    "sequence": (cmd_sequence, True, (("--L", int, REQUIRED), ("--head", int, 20))),
    "decompose": (cmd_decompose, True, (("--L", int, REQUIRED), ("--D", int, REQUIRED))),
    "level-report": (cmd_level_report, True, (
        ("--L", int, REQUIRED), ("--D", int, REQUIRED), ("--taus", str, "1/10,1/4,1/2,3/4,9/10"),
    )),
    "sieve-dim": (cmd_sieve_dim, True, (("--pmax", int, REQUIRED), ("--w", int, 3))),
    "brun-bound": (cmd_brun_bound, True, (
        ("--L", int, REQUIRED), ("--z", int, REQUIRED), ("--b", int, REQUIRED),
    )),
    "census": (cmd_census, True, (("--L", int, REQUIRED), ("--rmax", int, 8))),
    "saturate": (cmd_saturate, True, (("--D", int, None), ("--Lmax", int, None))),
    "uni-sieve": (cmd_uni_sieve, True, (
        ("--want", int, 5), ("--prefixes", int, 60), ("--bound", int, 100_000), ("--head", int, 10),
    )),
    "torus-heuristic": (cmd_torus_heuristic, True, (("--bc-M", int, 1_000_000),)),
    "r-formula": (cmd_r_formula, False, (
        ("--deg", int, REQUIRED), ("--s", int, REQUIRED), ("--dim", int, REQUIRED), ("--tau", str, REQUIRED),
        ("--omega", int, REQUIRED), ("--T", str, "1"), ("--logM0", str, "1"),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser: the command's name, and its flags unparsed."""
    parser = argparse.ArgumentParser(
        prog="affsieve",
        description="Exact sieve experiments on orbits of rational matrix groups",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("args", nargs=argparse.REMAINDER, help="the command's flags (see COMMAND --help)")
    return parser


def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command's flags, built from its COMMANDS entry."""
    _, needs_scenario, flags = COMMANDS[name]
    parser = argparse.ArgumentParser(prog=f"affsieve {name}")
    if needs_scenario:
        parser.add_argument("--scenario", required=True)
    parser.add_argument("--record", help="write the machine-readable record here")
    for flag, type_, default in flags:
        parser.add_argument(flag, type=type_, default=default, required=default is REQUIRED)
    return parser


def main(argv=None) -> int:
    top = build_parser().parse_args(argv)
    handler, needs_scenario, _ = COMMANDS[top.command]
    args = _command_parser(top.command).parse_args(top.args)
    scenario = None
    try:
        if needs_scenario:
            scenario = load_scenario(args.scenario)
        outputs = handler(scenario, args)
        flags = {k: v for k, v in vars(args).items() if k not in ("record", "scenario") and v is not None}
        _emit(args, top.command, scenario, flags, outputs)
        return EXIT_OK
    except (ResourceCapError, EnumerationBudgetError) as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CertificateError as exc:
        print(f"certificate check failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except (ValueError, CoprimalityError, OSError, KeyError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
