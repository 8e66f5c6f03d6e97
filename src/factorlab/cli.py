"""Command-line front end.

Subcommands: `factor` runs one method on one integer, `bench` generates
seeded semiprime populations and streams per-instance reports, `grid`
prints the balanced-ratio table, `lattice` reduces a basis, and `demo`
walks through the 2599 example.  Output is human text or json-lines; all
big integers in JSON are decimal strings.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass, fields
from fractions import Fraction

from . import arith, coppersmith, fermat, lattice
from .errors import Exhausted, FactorlabError, NoRoot, TrivialOnly
from .residue import default_t_bound, landry_pepin, residue_driver


def _landry_pepin(config, params, stats):
    t_bound = config.t_bound
    if t_bound is None:
        t_bound = default_t_bound(config.n, config.mod, config.mod2, config.c, config.d)
    params["t_bound"] = t_bound
    return landry_pepin(config.n, config.mod, config.mod2, config.c, config.d, t_bound)


def _trivariate(config, params, stats):
    bound = coppersmith.default_box_bound(config.n)
    prob = coppersmith.TrivariateProblem(
        N=config.n, P0=config.p0, M=config.mult, a_max=config.a_max,
        z_max=config.z_max, X=bound, Y=bound,
    )
    result = coppersmith.solve_trivariate(prob, stats)
    params["z0"] = result[0].z0
    return result


# Each method's required flags, in the order its report's params record them,
# and its call (config, params, stats) -> result.  The calls look each solver
# up when they run, so a wrapper set on its module after import sees them.
_METHOD_TABLE = {
    "standard": ((), lambda c, _, s: fermat.fermat_standard(c.n, c.budget)),
    "triangular": ((), lambda c, _, s: fermat.fermat_triangular(c.n, c.budget)),
    "ratio": (("r",), lambda c, _, s: fermat.fermat_ratio(c.n, c.r, c.budget)),
    "residue": (("mod",), lambda c, _, s: residue_driver(c.n, c.mod, c.t_bound)),
    "landry-pepin": (("mod", "mod2", "c", "d"), _landry_pepin),
    "coppersmith-msb": (("p0",), lambda c, _, s: coppersmith.solve_msb_known(c.n, c.p0, s)),
    "coppersmith-lsb": (
        ("lsb_value", "lsb_bits"),
        lambda c, _, s: coppersmith.solve_lsb_known(c.n, c.lsb_value, c.lsb_bits, s),
    ),
    "trivariate": (("p0", "mult"), _trivariate),
    "theorem4": (("mod",), lambda c, _, s: coppersmith.theorem4_driver(c.n, c.mod, s)),
}
METHOD_FLAGS = {method: flags for method, (flags, _) in _METHOD_TABLE.items()}
METHODS = tuple(METHOD_FLAGS)

# The hints `bench` plants from the generated p, given ell = N.bit_length() // 4:
# p's leading bits for coppersmith-msb and its ell low bits for coppersmith-lsb.
PLANTED_HINTS = {
    "p0": lambda p, ell: (p >> ell) << ell,
    "lsb_value": lambda p, ell: p % (1 << ell),
    "lsb_bits": lambda p, ell: ell,
}
# `bench` passes --r and --mod on as given and plants the hints, so it can run
# only the methods that require no other flag.
BENCH_METHODS = tuple(
    method for method, flags in METHOD_FLAGS.items()
    if set(flags) <= {"r", "mod", *PLANTED_HINTS}
)


@dataclass
class RunConfig:
    command: str
    method: str | None = None
    n: int | None = None
    r: str | None = None
    mod: int | None = None
    mod2: int | None = None
    c: int | None = None
    d: int | None = None
    p0: int | None = None
    lsb_value: int | None = None
    lsb_bits: int | None = None
    mult: int | None = None
    z_max: int = 32
    a_max: int = 9
    t_bound: int | None = None
    budget: int | None = None
    lower: str = "0.707"
    upper: str = "1"
    count: int = 21
    rows: str | None = None
    delta: str = "3/4"
    profile: str = "gap"
    bits: int = 32
    instances: int = 20
    seed: int = 1
    fmt: str = "text"


@dataclass
class RunReport:
    n: int | None
    method: str | None
    params: dict
    outcome: str  # factored, or an _OUTCOMES value: exhausted | no-root | trivial-only
    factors: tuple[int, ...] | None
    steps: int | None
    lattice_dim: int | None
    certified: bool | None
    time_ms: float = 0.0

    def to_json_obj(self) -> dict:
        """The fields in JSON_KEYS order; the integers in DECIMAL_FIELDS are
        decimal strings, which any JSON reader keeps exact."""
        obj = {key: getattr(self, key) for key in JSON_KEYS}
        for key in DECIMAL_FIELDS:
            obj[key] = _decimal(obj[key])
        return obj

    def to_text(self) -> str:
        if self.factors:
            facs = "*".join(str(f) for f in self.factors)
            extra = f" steps={self.steps}" if self.steps is not None else ""
            if self.certified is not None:
                extra += f" certified={self.certified}"
            return f"{self.n} = {facs}{extra} ({self.time_ms:.2f} ms)"
        return f"{self.n}: {self.outcome} ({self.time_ms:.2f} ms)"


JSON_KEYS = tuple(field.name for field in fields(RunReport))
DECIMAL_FIELDS = ("n", "params", "factors")


def _decimal(value):
    """An int, or each int in a dict or tuple, as a decimal string."""
    if isinstance(value, dict):
        return {k: _decimal(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_decimal(v) for v in value]
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return value


class _Parser(argparse.ArgumentParser):
    """Parser errors are usage errors (one `error:` line, exit 1); argparse
    would exit 2, the code of an unfactored N."""

    def error(self, message):
        raise ValueError(message)


# Each outcome type a method raises, and the report outcome it stands for.
_OUTCOMES = {Exhausted: "exhausted", NoRoot: "no-root", TrivialOnly: "trivial-only"}


def run(config: RunConfig) -> RunReport:
    """Dispatch one factoring run and wrap the outcome in a RunReport."""
    method = config.method
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if config.n is None:
        raise ValueError("--n is required")
    n = config.n
    params: dict = {}
    flags, call = _METHOD_TABLE[method]
    for name in flags:
        if getattr(config, name) is None:
            raise ValueError(f"method {method!r} requires --{name.replace('_', '-')}")
        params[name] = getattr(config, name)
    if n < 2:
        raise ValueError("N must be >= 2")
    factors = steps = None
    outcome = "factored"
    stats: dict = {}
    started = time.perf_counter()
    try:
        factors, steps = _factors(n, call(config, params, stats))
    except tuple(_OUTCOMES) as exc:
        outcome = _OUTCOMES[type(exc)]
    elapsed = (time.perf_counter() - started) * 1000.0
    if factors is not None:
        product = 1
        for f in factors:
            product *= f
        if product != n:  # re-verified at the boundary, never printed unchecked
            raise FactorlabError(f"internal error: {factors} does not multiply to {n}")
    return RunReport(
        n=n,
        method=method,
        params=params,
        outcome=outcome,
        factors=factors,
        steps=steps,
        lattice_dim=stats.get("lattice_dim"),
        certified=stats.get("certified"),
        time_ms=elapsed,
    )


def _factors(n: int, result) -> tuple[tuple[int, ...], int | None]:
    """(factors, steps) of a method's result: a Split's pair and step
    count, or, for a solver's root list, the split at its first proper
    factor p."""
    if not isinstance(result, arith.Split):
        p = next((sol.p for sol in result if 1 < sol.p < n), None)
        if p is None:
            raise NoRoot(f"only trivial roots found for {n}")
        result = arith.Split.of(n, p)
    return (result.p, result.q), result.steps


# Draws a bench generator makes before it gives up: at some sizes no draw
# can pass (a 4- or 5-bit gap semiprime has p = 3 and no q close enough).
MAX_DRAWS = 10_000


def gap_semiprime(rng: random.Random, bits: int) -> tuple[int, int, int]:
    """Semiprime N = p*q with q - p <= N**(1/4)."""
    for _ in range(MAX_DRAWS):
        p = arith.random_prime(rng, bits // 2)
        cap = max(4, 1 << max(2, bits // 4 - 2))
        q = arith.next_prime(p + rng.randrange(1, cap))
        n = p * q
        if q - p <= arith.isqrt(arith.isqrt(n)):
            return n, p, q
    raise ValueError(f"no gap-profile semiprime of {bits} bits in {MAX_DRAWS} draws")


def ratio_semiprime(
    rng: random.Random, bits: int, ratio: Fraction
) -> tuple[int, int, int]:
    """Semiprime N = p*q with |b*q - a*p| <= b * N**(1/4) for ratio a/b >= 1."""
    if ratio < 1:
        raise ValueError("ratio must be >= 1")
    a, b = ratio.numerator, ratio.denominator
    for _ in range(MAX_DRAWS):
        p = arith.random_prime(rng, bits // 2)
        q = arith.next_prime(a * p // b + rng.randrange(0, 16))
        n = p * q
        if q > p and abs(b * q - a * p) <= b * arith.isqrt(arith.isqrt(n)):
            return n, p, q
    raise ValueError(f"no ratio-profile semiprime of {bits} bits in {MAX_DRAWS} draws")


def bench(config: RunConfig):
    """Return one RunReport per generated instance, and a summary dict.

    Instances are generated from the seed alone, so two runs with the same
    seed emit identical reports apart from the wall-time fields.
    """
    if config.instances < 0:
        raise ValueError("--instances must be >= 0")
    if config.bits < 4:
        raise ValueError("--bits must be >= 4")
    rng = random.Random(config.seed)
    ratio = arith.as_fraction(config.r or 2)
    reports = []
    for idx in range(config.instances):
        if config.profile == "gap":
            n, p, q = gap_semiprime(rng, config.bits)
        elif config.profile == "ratio":
            n, p, q = ratio_semiprime(rng, config.bits, ratio)
        else:
            raise ValueError(f"unknown profile {config.profile!r}")
        sub = RunConfig(
            command="factor",
            method=config.method,
            n=n,
            r=config.r or str(ratio),
            budget=config.budget,
            mod=config.mod,
        )
        for name in METHOD_FLAGS.get(config.method, ()):  # run rejects an unknown method
            if name in PLANTED_HINTS:
                setattr(sub, name, PLANTED_HINTS[name](p, n.bit_length() // 4))
        report = run(sub)
        report.params.update(
            profile=config.profile, bits=config.bits, seed=config.seed,
            index=idx, p=p, q=q,
        )
        reports.append(report)

    step_values = sorted(r.steps for r in reports if r.steps is not None)
    factored = sum(1 for r in reports if r.outcome == "factored")
    summary = {
        "summary": True,
        "method": config.method,
        "profile": config.profile,
        "count": len(reports),
        "factored": factored,
        "median_steps": step_values[len(step_values) // 2] if step_values else None,
        "mean_steps": (
            round(sum(step_values) / len(step_values), 2) if step_values else None
        ),
    }
    return reports, summary


def grid_lines(config: RunConfig) -> list[str]:
    entries = fermat.ratio_grid(config.lower, config.upper, config.count)
    lines = []
    for e in entries:
        if config.fmt == "json-lines":
            lines.append(
                json.dumps(
                    {
                        "index": e.index,
                        "r": fermat.render_ratio(e.r),
                        "s": fermat.render_ratio(e.s),
                    }
                )
            )
        else:
            lines.append(
                f"{e.index:>3}  {fermat.render_ratio(e.r):<10} {fermat.render_ratio(e.s)}"
            )
    return lines


def lattice_lines(config: RunConfig) -> list[str]:
    if not config.rows:
        raise ValueError("lattice requires --rows like '4,1;7,2'")
    try:
        rows = [
            [int(x) for x in row.split(",")]
            for row in config.rows.split(";")
            if row.strip()
        ]
        basis = lattice.Basis.from_rows(rows)
    except ValueError as exc:
        raise ValueError(f"bad --rows: {exc}") from exc
    reduced, transform = lattice.lll_reduce_with_transform(basis, config.delta)
    det = lattice.determinant(basis)
    first_norm_sq = sum(x * x for x in reduced.vectors[0])
    if config.fmt == "json-lines":
        return [
            json.dumps(
                {
                    "reduced": [[str(x) for x in row] for row in reduced.vectors],
                    "transform": [[str(x) for x in row] for row in transform],
                    "det": str(det),
                    "first_vector_norm_sq": str(first_norm_sq),
                    "hadamard_ok": lattice.hadamard_check(basis),
                }
            )
        ]
    lines = [f"det = {det}   ||b1||^2 = {first_norm_sq}"]
    lines += ["reduced basis:"] + [
        "  " + " ".join(f"{x:>8}" for x in row) for row in reduced.vectors
    ]
    return lines


def demo_lines() -> list[str]:
    """The 2599 walkthrough: triangular scan beats the consecutive scan."""
    n = 2599
    lines = [f"N = {n}"]
    m, x0 = fermat.triangular_start(n)
    lines.append(f"triangular start: m = {m}, x0 = m(m+1)/2 = {x0}")
    for i, x, x_sq in fermat.triangular_squares(n):
        diff = x_sq - 4 * n
        root = arith.is_perfect_square(diff)
        status = f"{diff} = {root}^2" if root is not None else f"{diff} not a square"
        lines.append(f"  x{i} = {x:>4}  x{i}^2 = {x_sq:>6}  x{i}^2 - 4N: {status}")
        if root is not None:
            break
    tri = fermat.fermat_triangular(n)
    std = fermat.fermat_standard(n)
    lines.append(
        f"triangular: x = {tri.x}, y = {tri.y} -> {tri.p} * {tri.q} in {tri.steps} steps"
    )
    lines.append(f"consecutive scan needs {std.steps} steps for the same split")
    lines.append(f"predicted scan length for p = {tri.p}: {fermat.predict_steps(tri.p, n)}")
    return lines


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="factorlab",
        description="Deterministic integer-factorization toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_factor = sub.add_parser("factor", help="factor one integer")
    p_factor.add_argument("--method", required=True, choices=METHODS)
    p_factor.add_argument("--n", required=True, type=int)
    p_factor.add_argument("--r", help="ratio a/b for the ratio method")
    p_factor.add_argument("--mod", type=int, help="modulus m")
    p_factor.add_argument("--mod2", type=int, help="second modulus")
    p_factor.add_argument("--c", type=int, help="residue of p")
    p_factor.add_argument("--d", type=int, help="residue of q")
    p_factor.add_argument("--p0", type=int, help="leading-bits hint for p")
    p_factor.add_argument("--lsb-value", type=int, dest="lsb_value")
    p_factor.add_argument("--lsb-bits", type=int, dest="lsb_bits")
    p_factor.add_argument("--mult", type=int, help="transform modulus M")
    p_factor.add_argument("--z-max", type=int, dest="z_max")
    p_factor.add_argument("--a-max", type=int, dest="a_max")
    p_factor.add_argument("--t-bound", type=int, dest="t_bound")
    p_factor.add_argument("--budget", type=int)

    p_bench = sub.add_parser("bench", help="seeded semiprime benchmark")
    p_bench.add_argument("--method", required=True, choices=BENCH_METHODS)
    p_bench.add_argument("--profile", choices=("gap", "ratio"))
    p_bench.add_argument("--bits", type=int)
    p_bench.add_argument("--instances", type=int)
    p_bench.add_argument("--seed", type=int, required=True)
    p_bench.add_argument("--r", help="target ratio for the ratio profile")
    p_bench.add_argument("--mod", type=int)
    p_bench.add_argument("--budget", type=int)

    p_grid = sub.add_parser("grid", help="balanced-ratio grid table")
    p_grid.add_argument("--lower")
    p_grid.add_argument("--upper")
    p_grid.add_argument("--count", type=int)

    p_lat = sub.add_parser("lattice", help="LLL-reduce an integer basis")
    p_lat.add_argument("--rows", required=True, help="rows like '4,1;7,2'")
    p_lat.add_argument("--delta")

    for subparser, default in (
        (p_factor, "text"), (p_bench, "json-lines"), (p_grid, "text"), (p_lat, "text")
    ):
        subparser.add_argument("--format", choices=("text", "json-lines"),
                               default=default, dest="fmt")

    sub.add_parser("demo", help="walk through the 2599 example")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    names = {field.name for field in fields(RunConfig)}
    values = {k: v for k, v in vars(args).items() if k in names and v is not None}
    return RunConfig(**values)


def main(argv=None) -> int:
    try:
        config = _config_from_args(build_parser().parse_args(argv))
        as_json = config.fmt == "json-lines"
        if config.command in ("factor", "bench"):
            if config.command == "factor":
                reports, summary = [run(config)], None
            else:
                reports, summary = bench(config)
            for report in reports:
                print(json.dumps(report.to_json_obj()) if as_json else report.to_text())
            if summary is not None:
                print(json.dumps(summary) if as_json else (
                    f"summary: {summary['factored']}/{summary['count']} factored,"
                    f" median steps {summary['median_steps']},"
                    f" mean steps {summary['mean_steps']}"
                ))
            return 0 if all(r.outcome == "factored" for r in reports) else 2
        if config.command == "grid":
            lines = grid_lines(config)
        elif config.command == "lattice":
            lines = lattice_lines(config)
        else:
            lines = demo_lines()
        for line in lines:
            print(line)
        return 0
    except (ValueError, FactorlabError) as exc:
        # bad input, or a FactorlabError that run reports no outcome for
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
