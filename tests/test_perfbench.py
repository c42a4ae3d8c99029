"""The per-layer benchmark still sees the package's layers.

`perfbench/tracer.py` wraps package functions by the names the modules
look them up under (and `Requirement.in_active_family` on its class),
and counts separation verdicts by their type.  A change to `src/` that
breaks either leaves the traced run working while its per-layer metrics
read 0, so this runs the separation and the certification workloads once.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced_run(workload: str) -> dict:
    """The report of one traced run of the workload's seed-1 prefix."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["correct"] is True
    return report


def test_traced_benchmark_run_counts_violated_verdicts():
    metrics = traced_run("hub-separation")["metrics"]
    assert metrics["separation.separate_fast.violated_frac"]["value"] > 0
    # the tracer wraps these by name where they are looked up; a caller
    # that reached them another way would zero these counts
    assert metrics["graphs.cuts_below.calls"]["value"] > 0
    assert metrics["requirements.in_active_family.calls"]["value"] > 0


def test_traced_benchmark_run_counts_the_certification_layer():
    # certified-small runs certification by default; a check reached
    # other than by the names the tracer wraps would zero these counts
    metrics = traced_run("certified-small")["metrics"]
    for name in ("certify.tight_sets.calls", "certify.uncross_witness.calls",
                 "graphs.cuts_below.calls"):
        assert metrics[name]["value"] > 0, name
