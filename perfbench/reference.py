"""Fixed reference kernels that gauge how fast the host runs right now.

The benchmark runs on a few cores of a shared host whose speed drifts by a
fifth or more within seconds, and by more over minutes, as neighbours load
it.  Wall-clock time of a solve then measures the neighbours as much as
factorlab.  So the run loop times one of these kernels next to every solve
and set-up and reports their times rescaled to the kernel's nominal speed
(run.py: HostSpeed).

The kernels do the same kind of work as the workloads they gauge, in plain
Python that does not import factorlab: a change to the library cannot change
them, so a faster or slower library still shows in full.

  lattice  integer LLL on 640 fixed dim-4 bases shaped like the coppersmith
           level-1 lattice of a 60-bit N (hint-lsb, residue-t4).
  scan     a difference-of-squares scan with a residue filter and isqrt
           over 140 000 positions (scan).

NOMINAL_S is each kernel's median time on the host the baseline was taken
on (Python 3.11.7, 2 vCPUs of an Intel Xeon); it only sets the scale of the
reported numbers, not their spread.
"""

from __future__ import annotations

import random
import time
from math import gcd, isqrt

NOMINAL_S = {"lattice": 0.045, "scan": 0.040}


def _lll(rows: list[list[int]]) -> list[list[int]]:
    """Integer LLL at delta 3/4 (Gram determinants d and scaled mu in Z)."""
    n = len(rows)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = sum(a * b for a, b in zip(rows[i], rows[j]))
            for t in range(j):
                s = (d[t + 1] * s - lam[i][t] * lam[j][t]) // d[t]
            if j < i:
                lam[i][j] = s
            else:
                d[i + 1] = s

    def size_reduce(k: int, j: int) -> None:
        dj = d[j + 1]
        if 2 * abs(lam[k][j]) > dj:
            q = (2 * lam[k][j] + dj) // (2 * dj)
            rows[k] = [a - q * c for a, c in zip(rows[k], rows[j])]
            lam[k][j] -= q * dj
            for t in range(j):
                lam[k][t] -= q * lam[j][t]

    k = 1
    while k < n:
        size_reduce(k, k - 1)
        lk = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] * d[k] - 4 * lk * lk:
            for j in range(k - 2, -1, -1):
                size_reduce(k, j)
            k += 1
        else:
            rows[k - 1], rows[k] = rows[k], rows[k - 1]
            for j in range(k - 1):
                lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
            d_new = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
            for i in range(k + 1, n):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
                lam[i][k - 1] = (d_new * t + lk * lam[i][k]) // d[k + 1]
            d[k] = d_new
            k = max(k - 1, 1)
    return rows


def _lattice_bases(count: int) -> list[list[list[int]]]:
    """Bases [[W,0,0,0],[0,W X,0,0],[0,0,W Y,0],[c00,c10 X,c01 Y,c11 X Y]]
    for the linear family (m x + p0)(n y + q0) - N of a fixed 60-bit N."""
    rng = random.Random("perfbench-reference-lattice")
    bases = []
    while len(bases) < count:
        big_n = rng.getrandbits(60) | (1 << 59) | 1
        mod = 1 << rng.randrange(12, 18)
        p0, q0 = rng.randrange(mod) | 1, rng.randrange(mod) | 1
        x_bound = max(1, isqrt(big_n) // mod >> rng.randrange(0, 6))
        y_bound = 2 * x_bound
        c11, c10, c01, c00 = mod * mod, mod * q0, mod * p0, p0 * q0 - big_n
        g = gcd(gcd(c11, c10), gcd(c01, abs(c00)))
        c11, c10, c01, c00 = c11 // g, c10 // g, c01 // g, c00 // g
        a11, a10, a01 = c11 * x_bound * y_bound, c10 * x_bound, c01 * y_bound
        w = max(2, max(abs(a11), abs(a10), abs(a01), abs(c00)) // 4)
        bases.append([[w, 0, 0, 0], [0, w * x_bound, 0, 0], [0, 0, w * y_bound, 0],
                      [c00, a10, a01, a11]])
    return bases


_SQUARES_64 = frozenset(i * i % 64 for i in range(64))
_SQUARES_63 = frozenset(i * i % 63 for i in range(63))
_LATTICE_BASES = _lattice_bases(640)
_SCAN_N = 0xC5A1_93E7_0F2B_6D49
_SCAN_STEPS = 140_000


def lattice() -> None:
    """Reduce every fixed basis once."""
    for basis in _LATTICE_BASES:
        _lll([list(r) for r in basis])


def scan() -> None:
    """_SCAN_STEPS positions of the scan x^2 - 4N for a fixed 64-bit N."""
    four_n = 4 * _SCAN_N
    x = isqrt(four_n) + 1
    for _ in range(_SCAN_STEPS):
        v = x * x - four_n
        if v & 63 in _SQUARES_64 and v % 63 in _SQUARES_63:
            r = isqrt(v)
            if r * r == v:
                break
        x += 1


KERNELS = {"lattice": lattice, "scan": scan}


def timed(kind: str) -> float:
    """Seconds one call of the kernel takes."""
    fn = KERNELS[kind]
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
