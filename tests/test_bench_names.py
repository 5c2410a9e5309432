"""The library names the benchmark reads.

`bench/` lies outside the test paths, so only `python -m pytest bench`
would notice a renamed kernel there.  This smoke test imports the bench
harness without writing bytecode beside it and runs its spot table at
tiny primes, and runs every workload command at its benchmark size
against the benchmark's recorded exit codes and stdout digests.
"""

import importlib
import sys
from pathlib import Path

import residue_lab
from residue_lab import claims, cli, modarith, stats

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _harness(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("harness")


def test_bench_reads_only_existing_library_names(monkeypatch):
    harness = _harness(monkeypatch)
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


def test_bench_commands_match_the_reference(monkeypatch):
    # the same check a benchmark pass makes, so a changed byte shows here
    # and not only when the benchmark runs
    harness = _harness(monkeypatch)
    reference = harness.load_reference()
    bad = [cmd.key for w in harness.WORKLOADS.values() for cmd in w.all_commands()
           if not harness.command_ok(cmd, *harness.run_command(cli, cmd.with_jobs(w.jobs)),
                                     reference)]
    assert bad == []
