"""The library names the benchmark reads.

`bench/` lies outside the test paths, so only `python -m pytest bench`
would notice a renamed kernel there.  This smoke test imports the bench
harness without writing bytecode beside it and runs its spot table at
tiny primes.
"""

import importlib
import sys
from pathlib import Path

import residue_lab
from residue_lab import claims, modarith, stats

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_reads_only_existing_library_names(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    harness = importlib.import_module("harness")
    cases = list(harness.spot_cases(residue_lab, k3_primes=(13,), graph_primes=(29,),
                                    trace_bound=100))
    assert [name for name, _, _ in cases] == [
        "count_Mp.p13", "count_S.p13", "_xprime_scan.p13", "_locus_X_count.p13",
        "count_graph_classes.p29", "collect_traces.e.p100"]
    for _, fn, arg in cases:
        harness.kernel_digest(fn(arg))
    # every claim a workload verifies is one `verify` can run
    commands = [c for w in harness.WORKLOADS.values() for c in w.all_commands()]
    assert {c.argv[1] for c in commands if c.argv[0] == "verify"} <= set(claims.CLAIMS)
    # bench/test_bench.py builds contexts through these two modules
    assert claims.build_context is modarith.build_context
    assert stats.build_context is modarith.build_context
