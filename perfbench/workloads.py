"""Seeded inputs, CLI configurations and correctness checks for each workload.

Every input is a pure function of (workload, seed, index), drawn with a
string-seeded `random.Random`, so the same seed gives the same semiprimes on
every machine and in every process.  Primes come from this file's own
Miller-Rabin, not from factorlab, so a change to the library cannot change
the inputs it is measured on.  The checks are independent of the solver too:
an exhaustive box scan, plain multiplication, and closed-form step counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd, isqrt

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases (exact below 3.3e24)."""
    if n < 2:
        return False
    for b in _SMALL_PRIMES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, bits: int) -> int:
    while True:
        cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(cand):
            return cand


def next_prime(n: int) -> int:
    n = max(n, 2)
    while not is_prime(n):
        n += 1
    return n


def balanced_pair(rng: random.Random, bits: int) -> tuple[int, int]:
    """Primes p < q < 1.9 p whose product has exactly `bits` bits."""
    while True:
        p = random_prime(rng, bits // 2)
        q = random_prime(rng, bits - bits // 2)
        p, q = min(p, q), max(p, q)
        if p < q and 10 * q < 19 * p and (p * q).bit_length() == bits:
            return p, q


@dataclass(frozen=True)
class Instance:
    """One solve: the CLI method and fields, the planted factors, and what the
    check expects beyond them (`steps` for Fermat scans, `t` for Landry-Pepin)."""

    method: str
    n: int
    p: int
    q: int
    fields: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)


def config(cli, inst: Instance):
    """The RunConfig the `bench` subcommand builds for this method and N."""
    return cli.RunConfig(command="factor", method=inst.method, n=inst.n, **inst.fields)


def _rng(workload: str, seed: int, index) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _stratum(workload: str, seed: int, index: int, strata: list) -> object:
    """Strata are dealt in seeded shuffles of the whole list, so every run
    that completes a block has each stratum in equal share."""
    block, pos = divmod(index, len(strata))
    order = list(strata)
    _rng(workload, seed, f"block{block}").shuffle(order)
    return order[pos]


# --- hint-lsb -------------------------------------------------------------

LSB_BITS = list(range(56, 65))


def _lsb_instance(rng: random.Random, bits: int) -> Instance:
    p, q = balanced_pair(rng, bits)
    n = p * q
    ell = n.bit_length() // 4  # the hint `bench` gives: low N.bit_length()//4 bits of p
    return Instance(
        "coppersmith-lsb", n, p, q,
        fields={"lsb_bits": ell, "lsb_value": p % (1 << ell)},
    )


def lsb_box_roots(inst: Instance) -> list[tuple[int, int]]:
    """Every (x, y) in the solver's box with (M x + c)(M y + d) = N, M = 2^ell,
    found by scanning all x columns."""
    n, ell, c = inst.n, inst.fields["lsb_bits"], inst.fields["lsb_value"]
    mod = 1 << ell
    d = n * pow(c, -1, mod) % mod
    x_bound = isqrt(n) // mod + 1
    y_bound = 2 * isqrt(n) // mod + 1
    roots = []
    for x in range(-x_bound, x_bound + 1):
        p = mod * x + c
        if p == 0 or n % p:
            continue
        q = n // p
        if (q - d) % mod == 0 and abs((q - d) // mod) <= y_bound:
            roots.append((x, (q - d) // mod))
    return roots


# --- residue-t4 -----------------------------------------------------------


def _prime_in_class(rng: random.Random, bits: int, c: int, m: int) -> int:
    lo = -(-((1 << (bits - 1)) - c) // m)
    hi = ((1 << bits) - 1 - c) // m
    while True:
        p = m * rng.randint(lo, hi) + c
        if is_prime(p):
            return p


# theorem4 tries the divisor pairs of c*d in order and stops at the first
# that holds a root, so (c, d) sets the number of solve_bivariate calls, and
# the box a call searches shrinks as m grows.  Each block of instances has
# every unordered pair below 8 once, and m once in each of as many equal
# slices of [2^11, 2^12).
T4_RESIDUES = [(c, d) for c in range(1, 8) for d in range(c, 8)]
T4_MODULI = list(range(len(T4_RESIDUES)))


def _t4_instance(rng: random.Random, c: int, d: int, m_slice: int) -> Instance:
    """48-bit N = p q with p = c, q = d (mod m) (or swapped), m of 12 bits.
    c * d < 2 m is what puts (c, d) among the pairs theorem4 tries."""
    width = (1 << 11) // len(T4_MODULI)
    while True:
        m = (1 << 11) + width * m_slice + rng.randrange(width)
        if c * d >= 2 * m or gcd(c, m) != 1 or gcd(d, m) != 1:
            continue
        p, q = _prime_in_class(rng, 24, c, m), _prime_in_class(rng, 24, d, m)
        p, q = min(p, q), max(p, q)
        if p < q and 10 * q < 19 * p and (p * q).bit_length() == 48:
            return Instance("theorem4", p * q, p, q, fields={"mod": m})


# --- scan -----------------------------------------------------------------

SCAN_METHODS = ("standard", "ratio", "landry-pepin")
SCAN_STRATA = [(method, s) for method in SCAN_METHODS for s in range(3)]


def _target_steps(rng: random.Random, stratum: int) -> int:
    """The middle of the stratum's third of [1e5, 1e6] on a log scale, give
    or take 5%: close targets keep the run's mix of work the same from seed
    to seed, while the factors still come from the seed."""
    return int(10 ** (5 + (stratum + 0.5) / 3) * rng.uniform(0.95, 1.05))


def _standard_instance(rng: random.Random, steps: int) -> Instance:
    # A scan from ceil(2 sqrt N) to p + q takes about gap^2 / (4 p) steps.
    p = random_prime(rng, 32)
    q = next_prime(p + 2 * isqrt(steps * p))
    n = p * q
    return Instance("standard", n, p, q, expect={"steps": p + q - isqrt(4 * n)})


def _ratio_instance(rng: random.Random, steps: int) -> Instance:
    # r = 3/2: the scan runs on 6 N, whose balanced divisor pair is (3 p, 2 q).
    p = random_prime(rng, 32)
    q = next_prime((3 * p + 2 * isqrt(3 * steps * p)) // 2)
    n = p * q
    return Instance(
        "ratio", n, p, q, fields={"r": "3/2"},
        expect={"steps": 3 * p + 2 * q - isqrt(24 * n)},
    )


def landry_pepin_t(n: int, m: int, c: int, d: int, p: int, q: int) -> int:
    """The t at which z0 + m^2 t equals the scaled factor sum d p + c q."""
    z0 = (n + c * d) % (m * m)
    t, rem = divmod(d * p + c * q - z0, m * m)
    if rem:
        raise ValueError("d p + c q is not congruent to N + c d mod m^2")
    return t


def _landry_pepin_instance(rng: random.Random, steps: int) -> Instance:
    # t is about (c + d) sqrt(N) / m^2 with c, d below m: try moduli near
    # sqrt(N) / steps until t lands within 5% of the target.
    p, q = balanced_pair(rng, 64)
    n = p * q
    m0 = isqrt(n) // steps
    while True:
        m = rng.randrange(max(3, m0 // 2), 2 * m0 + 3)
        c, d = p % m, q % m
        t = landry_pepin_t(n, m, c, d, p, q)
        if 19 * steps <= 20 * t <= 21 * steps:
            return Instance(
                "landry-pepin", n, p, q,
                fields={"mod": m, "mod2": m, "c": c, "d": d, "t_bound": t},
                expect={"t": t},
            )


_SCAN_BUILDERS = {
    "standard": _standard_instance,
    "ratio": _ratio_instance,
    "landry-pepin": _landry_pepin_instance,
}


# --- registry -------------------------------------------------------------


def make_instance(workload: str, seed: int, index) -> Instance:
    """Instance `index` of the workload.  Index "warmup" is the untimed
    warm-up solve; it is the same for every seed, so set-up time does not
    depend on the seed."""
    warm = index == "warmup"
    rng = _rng(workload, 0 if warm else seed, index)
    if workload == "hint-lsb":
        bits = LSB_BITS[0] if warm else _stratum(workload, seed, index, LSB_BITS)
        return _lsb_instance(rng, bits)
    if workload == "residue-t4":
        if warm:
            return _t4_instance(rng, 3, 5, 0)
        c, d = _stratum(workload, seed, index, T4_RESIDUES)
        return _t4_instance(rng, c, d, _stratum(workload + "-m", seed, index, T4_MODULI))
    if workload == "scan":
        method, stratum = (
            ("standard", 0) if warm else _stratum(workload, seed, index, SCAN_STRATA)
        )
        return _SCAN_BUILDERS[method](rng, _target_steps(rng, stratum))
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("hint-lsb", "residue-t4", "scan")


class Instances:
    """Instances of one workload, generated on first use and kept."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self._made: list[Instance] = []

    def __getitem__(self, index: int) -> Instance:
        while len(self._made) <= index:
            self._made.append(make_instance(self.workload, self.seed, len(self._made)))
        return self._made[index]


def check(lib, inst: Instance, report, roots) -> str | None:
    """None when the solve is right, else why it is wrong.

    `roots` is the root list solve_lsb_known returned to the CLI (hint-lsb
    only).  For Landry-Pepin the CLI ran with t_bound = t, so it reached at
    most t; here the scan must exhaust at t - 1, so it reached exactly t.
    """
    if report.outcome != "factored":
        return f"outcome {report.outcome}"
    if tuple(report.factors) != (inst.p, inst.q):
        return f"factors {report.factors} != {(inst.p, inst.q)}"
    if inst.method == "coppersmith-lsb":
        got = sorted((s.x0, s.y0) for s in roots)
        want = lsb_box_roots(inst)
        if got != want:
            return f"root set {got} != box scan {want}"
    elif "steps" in inst.expect:
        if report.steps != inst.expect["steps"]:
            return f"steps {report.steps} != predicted {inst.expect['steps']}"
    elif inst.method == "landry-pepin":
        t = inst.expect["t"]
        if t > 0:
            f = inst.fields
            try:
                lib.residue.landry_pepin(inst.n, f["mod"], f["mod2"], f["c"], f["d"], t - 1)
            except lib.errors.Exhausted:
                return None
            except Exception as exc:  # a failed check, not a benchmark crash
                return f"landry-pepin with t_bound {t - 1} raised {exc!r}"
            return f"landry-pepin factored before t = {t}"
    return None
