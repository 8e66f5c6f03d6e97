"""Spans recorded from outside factorlab.

Each traced function is wrapped under the name its caller looks it up by:
`coppersmith` does `from .lattice import lll_rows`, so the wrapper replaces
`factorlab.coppersmith.lll_rows`, not `factorlab.lattice.lll_rows`.  A span
is (name, start, end, parent); spans live in flat arrays and are written out
once, when the benchmark ends.

`is_perfect_square` runs once per scan position, up to millions of times a
second, so its calls are folded into the enclosing span as a count and a
summed time instead of becoming spans of their own.

Wrappers record only while a root span is open, so the correctness checks,
which call the library outside the timed solves, leave no trace.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.folded_s = array("d")  # time of folded leaf calls inside the span
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.boxes: list[int] = []  # coppersmith sub-boxes per lattice solve
        self.pairs: list[int] = []  # theorem4 candidate pairs, one per instance
        self._stats: dict | None = None
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.folded_s.append(0.0)
        self.stack.append(idx)
        self.start.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _clock()
        self.stack.pop()

    # --- wrapping ---------------------------------------------------------

    def _replace(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def span(self, module, attr: str, name: str, on_exit=None) -> None:
        """Wrap module.attr in a span; on_exit(args, kwargs, result, exc) sees
        each call once it has returned or raised."""
        fn = getattr(module, attr)
        stack = self.stack

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.close(idx)
                if on_exit:
                    on_exit(args, kwargs, None, exc)
                raise
            self.close(idx)
            if on_exit:
                on_exit(args, kwargs, result, None)
            return result

        self._replace(module, attr, wrapper)

    def fold(self, module, attr: str, name: str) -> None:
        """Wrap a hot leaf function: count calls and add their time to the
        enclosing span."""
        fn = getattr(module, attr)
        stack, folded_s, counts = self.stack, self.folded_s, self.counts
        calls_key, time_key = name + "_calls", name + "_s"

        def wrapper(*args):
            if not stack:
                return fn(*args)
            t0 = _clock()
            result = fn(*args)
            dt = _clock() - t0
            folded_s[stack[-1]] += dt
            counts[calls_key] += 1
            counts[time_key] += dt
            return result

        self._replace(module, attr, wrapper)

    def install(self, lib) -> None:
        """Wrap every layer boundary a solve crosses below `cli.run`."""
        counts = self.counts
        cop = lib.coppersmith

        def lll_dim(key):
            def on_exit(args, kwargs, result, exc):
                rows = args[0].vectors if key == "lll_reduce" else args[0]
                counts[f"{key}_calls.dim{len(rows)}"] += 1
            return on_exit

        def bivariate(args, kwargs, result, exc):
            stats = args[1] if len(args) > 1 else kwargs.get("stats")
            self._stats = stats  # cli.run passes one dict per solve
            counts["solve_bivariate_calls"] += 1
            counts["uncertified"] += not stats["certified"]
            counts["noroot"] += isinstance(exc, lib.errors.NoRoot)

        def pairs(args, kwargs, result, exc):
            self.pairs.append(len(result))

        def scan_steps(key):
            def on_exit(args, kwargs, result, exc):
                if result is not None:
                    counts[key] += result.steps
            return on_exit

        self.span(cop, "lll_rows", "lattice.lll_rows", lll_dim("lll_rows"))
        self.span(cop, "lll_reduce", "lattice.lll_reduce", lll_dim("lll_reduce"))
        self.span(cop, "resultant", "polynomial.resultant")
        self.span(cop, "theorem4_pairs", "residue.theorem4_pairs", pairs)
        self.span(cop, "solve_bivariate", "coppersmith.solve_bivariate", bivariate)
        self.span(cop, "solve_lsb_known", "coppersmith.solve_lsb_known")
        self.span(cop, "theorem4_driver", "coppersmith.theorem4_driver")
        self.span(lib.fermat, "fermat_standard", "fermat.fermat_standard",
                  scan_steps("fermat_steps"))
        self.span(lib.fermat, "fermat_ratio", "fermat.fermat_ratio",
                  scan_steps("fermat_steps"))
        self.span(lib.cli, "landry_pepin", "residue.landry_pepin")
        for module in (cop, lib.fermat, lib.residue):
            self.fold(module, "is_perfect_square", "arith.is_perfect_square")

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # --- one solve --------------------------------------------------------

    def solve(self, run, config):
        """Call run(config) under a root span; return (seconds, result, error).

        The stats dict that cli.run hands to every solve_bivariate call of
        one solve accumulates `boxes` and `column_scans`, so its final state
        holds the solve's totals."""
        self._stats = None
        idx = self.open("cli.run")
        t0 = _clock()
        try:
            result, error = run(config), None
        except Exception as exc:  # counted as a failed solve by the caller
            result, error = None, repr(exc)
        dt = _clock() - t0
        self.close(idx)
        if self._stats is not None:
            self.boxes.append(self._stats.get("boxes", 0))
            self.counts["column_scans"] += self._stats.get("column_scans", 0)
        return dt, result, error

    # --- summary ----------------------------------------------------------

    def layer_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """(total time per span name, self time per layer).  Self time is a
        span's duration minus its child spans and folded leaf calls; the
        folded time is the `arith` layer's."""
        total: Counter = Counter()
        child: list[float] = [0.0] * len(self.names)
        for i, name in enumerate(self.names):
            dur = self.end[i] - self.start[i]
            total[name] += dur
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur
        layer_self: Counter = Counter()
        for i, name in enumerate(self.names):
            own = self.end[i] - self.start[i] - child[i] - self.folded_s[i]
            layer_self[name.split(".", 1)[0]] += own
        layer_self["arith"] += sum(self.folded_s)
        return dict(total), dict(layer_self)

    def write(self, path, meta: dict) -> None:
        ids = {name: i for i, name in enumerate(dict.fromkeys(self.names))}
        spans = [
            [ids[self.names[i]], self.start[i], self.end[i], self.parent[i],
             self.folded_s[i]]
            for i in range(len(self.names))
        ]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "names": list(ids), "span_fields":
                       ["name", "start", "end", "parent", "folded_s"],
                       "spans": spans, "counts": dict(self.counts)}, fh)
