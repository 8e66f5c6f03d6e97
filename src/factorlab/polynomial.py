"""Sparse multivariate integer polynomials with exact norms, Sylvester-matrix
resultants and discriminants.  A resultant is lattice.bareiss run on the
Sylvester matrix; MultiPoly's // is the exact division its elimination steps
need."""

from __future__ import annotations

import re
from dataclasses import dataclass

from .lattice import bareiss

__all__ = [
    "MultiPoly",
    "PolyNorms",
    "discriminant",
    "format_poly",
    "howgrave_predicate",
    "norms",
    "parse_poly",
    "resultant",
    "scale_vars",
    "sylvester_matrix",
]


class MultiPoly:
    """Sparse polynomial over Z: exponent tuple -> nonzero coefficient."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        self.nvars = nvars
        acc: dict[tuple[int, ...], int] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for exps, coeff in items:
                exps = tuple(int(e) for e in exps)
                if len(exps) != nvars or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent tuple {exps} for {nvars} vars")
                acc[exps] = acc.get(exps, 0) + int(coeff)
        self.terms = {e: c for e, c in acc.items() if c != 0}

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, value: int) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self, var: int) -> int:
        """Maximum exponent of the variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(e[var] for e in self.terms)

    def map_coeffs(self, fn) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: fn(c) for e, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc.get(e, 0) + c
        return MultiPoly(self.nvars, acc)

    def __sub__(self, other) -> "MultiPoly":
        return self + (-self._coerce(other))

    def __neg__(self) -> "MultiPoly":
        return self.map_coeffs(lambda c: -c)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            if other == 0:
                return MultiPoly.zero(self.nvars)
            return self.map_coeffs(lambda c: c * other)
        other = self._coerce(other)
        acc: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                acc[key] = acc.get(key, 0) + c1 * c2
        return MultiPoly(self.nvars, acc)

    __rmul__ = __mul__

    def __floordiv__(self, other) -> "MultiPoly":
        """Exact division (other must divide self); lex-leading-term loop."""
        den = self._coerce(other)
        if not den:
            raise ZeroDivisionError("division by the zero polynomial")
        quot: dict[tuple[int, ...], int] = {}
        lead_e, lead_c = _lead(den)
        rem = self
        while rem:
            re_, rc = _lead(rem)
            qe = tuple(a - b for a, b in zip(re_, lead_e))
            if any(e < 0 for e in qe) or rc % lead_c:
                raise ArithmeticError("inexact polynomial division")
            qc = rc // lead_c
            quot[qe] = quot.get(qe, 0) + qc
            rem = rem - den * MultiPoly(self.nvars, {qe: qc})
        return MultiPoly(self.nvars, quot)

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError("mixed variable counts")
            return other
        if isinstance(other, int):
            return MultiPoly.const(self.nvars, other)
        raise TypeError(f"cannot combine MultiPoly with {type(other).__name__}")

    def derivative(self, var: int) -> "MultiPoly":
        acc = {}
        for e, c in self.terms.items():
            if e[var] == 0:
                continue
            key = list(e)
            key[var] -= 1
            acc[tuple(key)] = acc.get(tuple(key), 0) + c * e[var]
        return MultiPoly(self.nvars, acc)

    def evaluate(self, point) -> int:
        point = tuple(point)
        if len(point) != self.nvars:
            raise ValueError("point length must match nvars")
        total = 0
        for e, c in self.terms.items():
            term = c
            for p, ex in zip(point, e):
                if ex:
                    term *= p**ex
            total += term
        return total

    def coeffs_in(self, var: int) -> list["MultiPoly"]:
        """Coefficients of var^0 .. var^deg as polynomials in the other
        variables (kept in the same variable count with exponent 0)."""
        deg = self.degree(var)
        if deg < 0:
            return []
        buckets: list[dict] = [{} for _ in range(deg + 1)]
        for e, c in self.terms.items():
            key = list(e)
            d = key[var]
            key[var] = 0
            buckets[d][tuple(key)] = c
        return [MultiPoly(self.nvars, b) for b in buckets]

    def __repr__(self):
        return f"MultiPoly({self.nvars}, {format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


@dataclass(frozen=True)
class PolyNorms:
    """height = max |coeff|, l2_sq = sum of squared coeffs, weight = #terms."""

    height: int
    l2_sq: int
    weight: int


def norms(f: MultiPoly) -> PolyNorms:
    if f.is_zero:
        raise ValueError("the zero polynomial has no norms")
    coeffs = f.terms.values()
    return PolyNorms(
        height=max(abs(c) for c in coeffs),
        l2_sq=sum(c * c for c in coeffs),
        weight=len(f.terms),
    )


def scale_vars(f: MultiPoly, bounds) -> MultiPoly:
    """f(x1*X1, ..., xn*Xn): multiply each coefficient by prod X_i^e_i."""
    bounds = tuple(int(b) for b in bounds)
    if len(bounds) != f.nvars:
        raise ValueError("one bound per variable")
    if any(b < 1 for b in bounds):
        raise ValueError("bounds must be >= 1")
    acc = {}
    for e, c in f.terms.items():
        scale = 1
        for b, ex in zip(bounds, e):
            if ex:
                scale *= b**ex
        acc[e] = c * scale
    return MultiPoly(f.nvars, acc)


def _lead(f: MultiPoly) -> tuple[tuple[int, ...], int]:
    exps = max(f.terms)  # lex order on exponent tuples
    return exps, f.terms[exps]


def sylvester_matrix(f: MultiPoly, g: MultiPoly, var: int) -> list[list[MultiPoly]]:
    """(k+m) x (k+m) semi-circulant matrix for eliminating `var`: deg(g)
    shifted coefficient columns of f followed by deg(f) columns of g,
    highest-degree coefficient at the top of each column."""
    if f.is_zero or g.is_zero:
        raise ValueError("resultant needs nonzero polynomials")
    k, m = f.degree(var), g.degree(var)
    if k < 1 or m < 1:
        raise ValueError(f"both polynomials must be nonconstant in variable {var}")
    fc = f.coeffs_in(var)
    gc = g.coeffs_in(var)
    size = k + m
    zero = MultiPoly.zero(f.nvars)
    matrix = [[zero] * size for _ in range(size)]
    for j in range(m):  # columns of f coefficients
        for t in range(k + 1):
            matrix[j + t][j] = fc[k - t]
    for j in range(k):  # columns of g coefficients
        for t in range(m + 1):
            matrix[j + t][m + j] = gc[m - t]
    return matrix


def resultant(f: MultiPoly, g: MultiPoly, var: int) -> MultiPoly:
    """Sylvester-matrix resultant eliminating `var`.

    The column layout makes the determinant agree with the classical
    resultant: vanishing iff a shared factor, Res(g, f) = (-1)^(k*m)
    Res(f, g), and multiplicativity in each argument.
    """
    return bareiss(sylvester_matrix(f, g, var))


def discriminant(f: MultiPoly, var: int) -> MultiPoly:
    """(-1)^(k(k-1)/2) * Res(f, df/dvar, var) for f monic of degree k >= 2."""
    k = f.degree(var)
    if k < 2:
        raise ValueError("discriminant needs degree >= 2")
    lead = f.coeffs_in(var)[k]
    if lead.terms != {(0,) * f.nvars: 1}:
        raise ValueError("discriminant is defined here for monic polynomials")
    sign = -1 if (k * (k - 1) // 2) % 2 else 1
    return resultant(f, f.derivative(var), var) * sign


def howgrave_predicate(f: MultiPoly, modulus: int, bounds) -> bool:
    """True iff ||f(x1*X1, ..., xn*Xn)||_2 < modulus / sqrt(weight), compared
    exactly on squares.  Under this bound a root of f modulo `modulus` inside
    the box is a root over the integers."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    scaled = norms(scale_vars(f, bounds))
    return scaled.l2_sq * scaled.weight < modulus * modulus


_TERM_RE = re.compile(r"^([+-])?(\d+)?((?:\*?x\d+(?:\^\d+)?)+)?$")
_VAR_RE = re.compile(r"x(\d+)(?:\^(\d+))?")


def parse_poly(text: str, nvars: int | None = None) -> MultiPoly:
    """Parse the textual format: sum of terms c*x1^e1*...*xn^en.

    Coefficients are integers; '*' and '^' are literal; whitespace is
    ignored.  Bare variables and signs are tolerated ('-x1*x2^2 + 3').
    """
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise ValueError("empty polynomial text")
    chunks = re.findall(r"[+-]?[^+-]+", compact)
    parsed: list[tuple[int, dict[int, int]]] = []
    max_var = 0
    for chunk in chunks:
        match = _TERM_RE.match(chunk)
        if not match or (match.group(2) is None and match.group(3) is None):
            raise ValueError(f"bad term {chunk!r}")
        sign_text, coeff_text, var_text = match.groups()
        coeff = int(coeff_text) if coeff_text is not None else 1
        if sign_text == "-":
            coeff = -coeff
        exps: dict[int, int] = {}
        if var_text:
            for idx_text, exp_text in _VAR_RE.findall(var_text):
                idx = int(idx_text)
                if idx < 1:
                    raise ValueError("variables are numbered from x1")
                exps[idx - 1] = exps.get(idx - 1, 0) + (int(exp_text) if exp_text else 1)
                max_var = max(max_var, idx)
        parsed.append((coeff, exps))
    n = nvars if nvars is not None else max(max_var, 1)
    if max_var > n:
        raise ValueError(f"term uses x{max_var} but nvars = {n}")
    terms = []
    for coeff, exps in parsed:
        key = tuple(exps.get(i, 0) for i in range(n))
        terms.append((key, coeff))
    return MultiPoly(n, terms)


def format_poly(f: MultiPoly) -> str:
    """Canonical rendering in the parse_poly format."""
    if f.is_zero:
        return "0"
    pieces = []
    for exps in sorted(f.terms, reverse=True):
        coeff = f.terms[exps]
        factors = [
            f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
            for i, e in enumerate(exps)
            if e > 0
        ]
        if not factors:
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(coeff))] + factors)
        pieces.append(("- " if coeff < 0 else "+ ") + body)
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]
