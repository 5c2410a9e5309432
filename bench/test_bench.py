"""Tests of the benchmark itself, at tiny sizes.

    python -m pytest bench -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

import harness
from record_reference import record
from spans import Span, Tracer, self_times, summarize

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _tiny(w: harness.Workload) -> harness.Workload:
    """The same workload with every --max-p cut to 50 (100 for satotate,
    its least bound) and the spot window moved to [40, 60]."""
    def cut(argv):
        argv = list(argv)
        i = argv.index("--max-p") + 1
        argv[i] = "100" if argv[0] == "satotate" else "50"
        return tuple(argv)
    return dataclasses.replace(
        w, fixed=tuple(cut(a) for a in w.fixed),
        spot_window=(40, 60) if w.spot_claims else w.spot_window)


TINY = {name: _tiny(w) for name, w in harness.WORKLOADS.items()}
TINY_SPOT = dict(k3_primes=(13,), graph_primes=(29,), trace_bound=100)


@pytest.fixture(scope="module")
def lib():
    return harness.load_library()


@pytest.fixture(scope="module")
def reference(lib):
    return record(lib, TINY.values(), harness.spot_cases(lib, **TINY_SPOT))


def _declared(kind: str) -> set[str]:
    return {m["name"] for m in json.loads(BENCHMARK_JSON.read_text())[kind]}


def _spot(names) -> set[str]:
    return {n for n in names if n.startswith("spot.")}


def test_declared_spot_table_matches_harness(lib):
    names = {f"spot.{name}.s" for name, _, _ in harness.spot_cases(lib)}
    assert names == _spot(_declared("per_layer"))


def test_declared_workloads_match_harness():
    declared = json.loads(BENCHMARK_JSON.read_text())["workloads"]
    assert [w["name"] for w in declared] == list(harness.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_of_every_workload(lib, reference, name):
    result = harness.untraced_run(lib, TINY[name], seed=3, seconds=0, reference=reference)
    assert result.failed == []
    assert set(result.metrics) == _declared("end_to_end")
    assert all(value > 0 for value, _ in result.metrics.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_of_every_workload(lib, reference, name):
    cases = harness.spot_cases(lib, **TINY_SPOT)
    result = harness.traced_run(lib, TINY[name], seed=3, reference=reference, cases=cases)
    assert result.failed == []
    assert set(result.metrics) - _spot(result.metrics) == _declared("per_layer") - _spot(
        _declared("per_layer"))
    assert result.metrics["error_ratio"][0] == 0
    assert result.metrics["cli.main.calls"][0] == len(TINY[name].commands(3))
    # the tracer put every original function back
    assert not hasattr(lib.cli.main, "__wrapped__")
    assert not hasattr(lib.claims.build_context, "__wrapped__")


def test_seed_picks_spot_prime_only():
    w = harness.WORKLOADS["k3-campaign"]
    a, b = w.commands(1), w.commands(1)
    assert a == b
    assert [c for c in a if not c.spot] == [harness.Command(x) for x in w.fixed]
    spot_p = {int(c.argv[-1]) for c in a if c.spot}
    assert len(spot_p) == 1 and spot_p <= set(w.spot_candidates())
    assert all(p % 4 == 1 for p in w.spot_candidates())


def test_changed_stdout_byte_counts_as_error(lib, reference, monkeypatch):
    w = TINY["prime-sweep"]
    commands = w.commands(0)
    main = lib.cli.main

    def main_with_extra_byte(argv):
        code = main(argv)
        if argv[:2] == ["verify", "tables"]:
            sys.stdout.write(" ")
        return code

    monkeypatch.setattr(lib.cli, "main", main_with_extra_byte)
    result = harness.run_pass(lib.cli, commands, 1, reference)
    assert result.failed == ["verify tables --max-p 50"]
    monkeypatch.undo()
    assert harness.run_pass(lib.cli, commands, 1, reference).failed == []


def test_failing_spot_record_counts_as_error(reference):
    cmd = harness.Command(("verify", "formula2", "--min-p", "41", "--max-p", "41"), spot=True)
    out = '{"p":41,"claim":"formula2","pass":false}\n'
    ref = {"commands": {cmd.key: {"exit": 0, "sha256": harness.sha256(out)}}}
    assert not harness.command_ok(cmd, 0, out, ref)
    assert harness.command_ok(dataclasses.replace(cmd, spot=False), 0, out, ref)


def test_self_time_on_hand_built_tree():
    # cli.main [0, 10]
    #   claims.run_claim [1, 6]
    #     modarith.build_context [1.5, 2]
    #     k3.count_Mp [2, 5.5]
    #   claims.run_claim [7, 9]
    spans = [
        Span("cli.main", 0.0, 10.0, -1),
        Span("claims.run_claim", 1.0, 6.0, 0),
        Span("modarith.build_context", 1.5, 2.0, 1),
        Span("k3.count_Mp", 2.0, 5.5, 1, p=13),
        Span("claims.run_claim", 7.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.0, 0.5, 3.5, 2.0])
    calls, inclusive, module_self = summarize(spans)
    assert calls["claims.run_claim"] == 2
    assert inclusive["claims.run_claim"] == pytest.approx(7.0)
    assert module_self == pytest.approx(
        {"cli": 3.0, "claims": 3.0, "modarith": 0.5, "k3": 3.5})
    assert sum(module_self.values()) == pytest.approx(10.0)


def test_tracer_patches_every_importing_module(lib):
    with Tracer() as tracer:
        lib.claims.build_context(13)
        lib.stats.build_context(17)
        lib.modarith.build_context(19)
    roots = [s.name for s in tracer.spans if s.parent == -1]
    assert roots == ["modarith.build_context"] * 3
    assert {s.name for s in tracer.spans if s.parent != -1} == {"modarith.is_prime"}
    assert lib.claims.build_context is lib.modarith.build_context
    assert not hasattr(lib.modarith.build_context, "__wrapped__")
