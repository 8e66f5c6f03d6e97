"""The cli.run reports, apart from time_ms, pinned as SHA-256 digests in
golden/reports.json: one per perfbench workload, over the reports of its
first 300 seed-1 instances, and one over theorem4 and residue on every
N in 2..499 at each modulus of SWEEP_MODULI.

A change that keeps every report leaves the file as it is.  A change that
alters reports on purpose rewrites it with

    PYTHONPATH=src python tests/test_golden.py > tests/golden/reports.json

and says which digest moved and why.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from factorlab import cli
from factorlab.errors import FactorlabError

from conftest import perfbench_workloads

GOLDEN = Path(__file__).resolve().parent / "golden" / "reports.json"
PREFIX = 300
SWEEP_N = range(2, 500)
SWEEP_MODULI = (2, 3, 4, 6, 7, 10, 12, 30, 97)


def _digest(configs) -> str:
    """SHA-256 over one JSON line per config: its report without time_ms,
    or the error a run raises instead of reporting."""
    sha = hashlib.sha256()
    for config in configs:
        try:
            obj = cli.run(config).to_json_obj()
            del obj["time_ms"]
        except (ValueError, FactorlabError) as exc:
            obj = {"n": str(config.n), "method": config.method, "error": repr(exc)}
        sha.update(json.dumps(obj).encode() + b"\n")
    return sha.hexdigest()


def report_digests() -> dict[str, str]:
    workloads = perfbench_workloads()
    digests = {}
    for name in workloads.WORKLOADS:
        instances = workloads.Instances(name, 1)
        digests[name] = _digest(
            workloads.config(cli, instances[i]) for i in range(PREFIX)
        )
    digests["theorem4-residue-sweep"] = _digest(
        cli.RunConfig(command="factor", method=method, n=n, mod=m)
        for n in SWEEP_N
        for m in SWEEP_MODULI
        for method in ("theorem4", "residue")
    )
    return digests


def test_reports_match_the_golden_digests():
    assert report_digests() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    print(json.dumps(report_digests(), indent=2))
