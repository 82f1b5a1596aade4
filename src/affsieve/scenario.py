"""Declarative experiment descriptions: strict JSON scenario files with exact
rational literals ("3/4"), schema validation that rejects unknown keys, and a
deterministic content hash recorded in every report.

The schema holds only what some command reads.  The paper's r-formula inputs
(tau, T, log M0, the degree of f~, #S) are flags of ``r-formula``, and the
Levi-semisimple hypothesis is not declared here.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any, NamedTuple, Optional

from .matgroup import GeneratorSet, MatrixQ, entry_variable_names
from .polyalg import MultiPoly


def parse_rational(value) -> Fraction:
    """Exact rational from an int or a string like "-3/4"; floats rejected."""
    if isinstance(value, bool):
        raise ValueError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise ValueError(f"rational literal expected (int or 'a/b' string), got {value!r}")


def rational_str(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _int(value, where: str) -> int:
    """An integer literal; strings, floats and booleans are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where} must be an integer, got {value!r}")
    return value


def _rational(value, where: str) -> Fraction:
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _object(value, allowed: set[str], where: str) -> dict:
    """A JSON object with no keys outside ``allowed``."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be an object, got {value!r}")
    unknown = set(value) - allowed
    if unknown:
        raise ValueError(f"unknown keys in {where}: {sorted(unknown)}")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{where} must be a list, got {value!r}")
    return value


def _poly(text, variables: tuple[str, ...], where: str) -> MultiPoly:
    if not isinstance(text, str):
        raise ValueError(f"{where} must be a polynomial string, got {text!r}")
    return MultiPoly.parse(text, variables)


_TOP_KEYS = {
    "name",
    "ambient",
    "generators",
    "orbit_vector",
    "f",
    "S0",
    "ambient_ideal",
    "dim_V",
    "dim_G",
    "params",
    "unipotent",
    "torus",
}
_AMBIENT_KEYS = {"n", "kind"}
_PARAM_KEYS = {"D", "L_schedule", "ball_cap", "image_cap", "r_max"}
_UNI_KEYS = {"p", "families"}
_TORUS_KEYS = {"M", "nu", "r"}
_KINDS = {"SL", "affine", "unipotent"}


class Scenario(NamedTuple):
    name: str
    n: int
    kind: str
    generators: GeneratorSet
    generator_matrices: tuple[MatrixQ, ...]  # as written, no symmetrization
    raw: dict
    f: Optional[MultiPoly]
    orbit_vector: Optional[tuple[Fraction, ...]]
    S0: tuple[int, ...]
    ambient_ideal: tuple[MultiPoly, ...]
    dim_V: Optional[int]
    dim_G: Optional[int]
    D: int
    L_schedule: tuple[int, ...]
    ball_cap: int
    image_cap: int
    r_max: int
    unipotent_p: Optional[MultiPoly]
    unipotent_families: tuple[tuple[MultiPoly, ...], ...]
    torus_M: Optional[int]
    torus_nu: Optional[int]
    torus_r: int

    @property
    def variables(self) -> tuple[str, ...]:
        return entry_variable_names(self.n)

    def hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def _parse_matrix(rows, n: int, where: str) -> MatrixQ:
    square = isinstance(rows, list) and len(rows) == n
    if not (square and all(isinstance(r, list) and len(r) == n for r in rows)):
        raise ValueError(f"{where} must be a {n}x{n} matrix (a list of rows), got {rows!r}")
    return MatrixQ([[_rational(x, where) for x in row] for row in rows])


def load_scenario(path: str) -> Scenario:
    with open(path, "r") as fh:
        try:
            raw = json.load(fh, parse_float=_reject_float)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON in {path}: {exc}") from exc
    return scenario_from_dict(raw)


def _reject_float(s):
    raise ValueError(f"float literal {s!r} not allowed; use 'a/b' rational strings")


def scenario_from_dict(raw: dict) -> Scenario:
    _object(raw, _TOP_KEYS, "scenario")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError("scenario needs a nonempty string 'name'")
    ambient = _object(raw.get("ambient"), _AMBIENT_KEYS, "ambient")
    n = ambient.get("n")
    kind = ambient.get("kind")
    if _int(n, "ambient.n") < 1:
        raise ValueError("ambient.n must be a positive integer")
    if n > 10:
        # entry names x{i}{j} collide from n = 11 on (x1,11 and x11,1)
        raise ValueError("ambient.n must be at most 10")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"ambient.kind must be one of {sorted(_KINDS)}")

    gen_rows = raw.get("generators")
    if not isinstance(gen_rows, list) or not gen_rows:
        raise ValueError("scenario needs a nonempty 'generators' list")
    mats = [_parse_matrix(g, n, "generators entry") for g in gen_rows]
    if kind == "SL":
        for m in mats:
            if m.det() != 1:
                raise ValueError("SL scenario requires determinant 1 generators")
    gens = GeneratorSet(mats)

    variables = entry_variable_names(n)
    f = _poly(raw["f"], variables, "f") if "f" in raw else None

    vec = None
    if "orbit_vector" in raw:
        vals = _list(raw["orbit_vector"], "orbit_vector")
        if len(vals) != n:
            raise ValueError("orbit_vector dimension mismatch")
        vec = tuple(_rational(x, "orbit_vector entry") for x in vals)

    S0 = tuple(_int(p, "S0 entry") for p in _list(raw.get("S0", []), "S0"))
    ideal = tuple(
        _poly(s, variables, "ambient_ideal entry")
        for s in _list(raw.get("ambient_ideal", []), "ambient_ideal")
    )

    params = _object(raw.get("params", {}), _PARAM_KEYS, "params")
    D = _int(params.get("D", 1), "params.D")
    L_schedule = tuple(
        _int(x, "params.L_schedule entry")
        for x in _list(params.get("L_schedule", [4, 6, 8]), "params.L_schedule")
    )
    ball_cap = _int(params.get("ball_cap", 5_000_000), "params.ball_cap")
    image_cap = _int(params.get("image_cap", 5_000_000), "params.image_cap")
    r_max = _int(params.get("r_max", 8), "params.r_max")

    uni_p = None
    uni_fams: tuple[tuple[MultiPoly, ...], ...] = ()
    if "unipotent" in raw:
        block = _object(raw["unipotent"], _UNI_KEYS, "unipotent")
        uni_p = _poly(block.get("p"), variables, "unipotent.p")
        member = "unipotent.families member"
        uni_fams = tuple(
            tuple(_poly(s, variables, member) for s in _list(fam, "unipotent.families entry"))
            for fam in _list(block.get("families", []), "unipotent.families")
        )

    torus_M = torus_nu = None
    torus_r = 1
    if "torus" in raw:
        block = _object(raw["torus"], _TORUS_KEYS, "torus")
        torus_M = _int(block.get("M"), "torus.M")
        torus_nu = _int(block.get("nu"), "torus.nu")
        torus_r = _int(block.get("r", 1), "torus.r")

    dim_V = _int(raw["dim_V"], "dim_V") if "dim_V" in raw else None
    dim_G = _int(raw["dim_G"], "dim_G") if "dim_G" in raw else None

    return Scenario(
        name=name,
        n=n,
        kind=kind,
        generators=gens,
        generator_matrices=tuple(mats),
        raw=raw,
        f=f,
        orbit_vector=vec,
        S0=S0,
        ambient_ideal=ideal,
        dim_V=dim_V,
        dim_G=dim_G,
        D=D,
        L_schedule=L_schedule,
        ball_cap=ball_cap,
        image_cap=image_cap,
        r_max=r_max,
        unipotent_p=uni_p,
        unipotent_families=uni_fams,
        torus_M=torus_M,
        torus_nu=torus_nu,
        torus_r=torus_r,
    )


def encode_value(obj) -> Any:
    """JSON-safe encoding: Fractions as 'a/b' strings, tuples as lists,
    dict keys as strings, deterministic ordering left to json sort_keys."""
    if isinstance(obj, Fraction):
        return rational_str(obj)
    if isinstance(obj, dict):
        return {str(k): encode_value(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode_value(v) for v in obj]
    if isinstance(obj, (int, str, bool)) or obj is None:
        return obj
    if isinstance(obj, float):
        return repr(obj)  # floats appear only in fitted/report numbers
    return str(obj)
