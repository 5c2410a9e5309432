"""Workloads, reference checks and the untraced and traced runs of the
residue-lab benchmark.

Every workload is a fixed list of `residue-lab` command lines.  Each one
runs in this process through `residue_lab.cli.main(argv)` with stdout
captured, and its exit code and stdout sha256 are compared with
`reference.json`, recorded from code whose records are trusted.  The
workload seed only picks the spot prime of the workloads that have one.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, is_dataclass
from enum import Enum
from pathlib import Path

from spans import Tracer, summarize

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
REFERENCE_PATH = BENCH_DIR / "reference.json"


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]    # without --jobs: records do not depend on it
    spot: bool = False       # every record of a spot command must pass

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    def with_jobs(self, jobs: int) -> list[str]:
        if self.argv[0] == "verify":
            return [*self.argv, "--jobs", str(jobs)]
        return list(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    fixed: tuple[tuple[str, ...], ...]
    spot_claims: tuple[str, ...] = ()
    spot_window: tuple[int, int] = (0, 0)

    def spot_candidates(self) -> list[int]:
        """Primes p = 1 mod 4 in the spot window."""
        lo, hi = self.spot_window
        return [n for n in range(max(lo, 5), hi + 1)
                if n % 4 == 1 and all(n % d for d in range(2, math.isqrt(n) + 1))]

    def _with_spots(self, primes) -> list[Command]:
        cmds = [Command(argv) for argv in self.fixed]
        for p in map(str, primes):
            cmds += [Command(("verify", claim, "--min-p", p, "--max-p", p), spot=True)
                     for claim in self.spot_claims]
        return cmds

    def commands(self, seed: int) -> list[Command]:
        """The fixed commands, then the spot commands at one seeded prime."""
        if not self.spot_claims:
            return self._with_spots([])
        return self._with_spots([random.Random(seed).choice(self.spot_candidates())])

    def all_commands(self) -> list[Command]:
        """Fixed commands plus the spot commands of every candidate prime."""
        return self._with_spots(self.spot_candidates())


def _verify(claims, max_p):
    return tuple(("verify", c, "--max-p", str(max_p)) for c in claims)


# Why each workload is here: see README.md beside this file.
WORKLOADS = {w.name: w for w in [
    # O(p^2) k3 scans at short rows (p <= 1000) and long rows (p near 1e4);
    # the only workload that runs the cli process pool.
    Workload(
        "k3-campaign",
        jobs=2,
        fixed=_verify(("identity5", "formula2", "fibration", "bookkeeping"), 1000),
        spot_claims=("identity5", "formula2"),
        spot_window=(10000, 10100)),
    # O(p^3) quadruple-graph enumeration with m x m temporaries; no k3 work.
    Workload(
        "graph-classes",
        jobs=1,
        fixed=_verify(("goncharova1",), 400),
        spot_claims=("goncharova1",),
        spot_window=(600, 640)),
    # Thousands of primes with O(p) work each, so per-prime fixed costs
    # dominate; no k3 or quadgraphs work.
    Workload(
        "prime-sweep",
        jobs=1,
        fixed=(("satotate", "e", "--max-p", "30000"),
               ("satotate", "weierstrass", "--max-p", "30000"),
               *_verify(("cm_traces", "gauss_edwards", "j_relations", "genus2",
                         "tables", "weil_bound"), 10000),
               *_verify(("charsum_consistency",), 300))),
]}

LAYER_FUNCTIONS = {
    "modarith": ("build_context", "primes_in", "cm_decompose"),
    "patterns": ("count_pattern", "count_pattern_charsum", "char_sum", "jacobsthal"),
    "quadgraphs": ("count_graph_classes", "goncharova_K4"),
    "curves": ("affine_count", "_poly_eval_all", "quartic_rows", "named_curve_traces",
               "edwards_affine", "genus2_involution_check"),
    "k3": ("count_Mp", "count_S", "_xprime_scan", "_locus_X_count", "_locus_S_count"),
    "stats": ("collect_traces", "ks_distance"),
    "claims": ("run_claim",),
    "cli": ("main",),
}
SETUP_SAMPLES = 15

# Timed in a fresh interpreter: import of the CLI plus the first context.
_SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import residue_lab.cli
from residue_lab.modarith import build_context
build_context(10009)
print(time.perf_counter() - t0)
"""


def load_library():
    """Import residue_lab from the sources beside this benchmark."""
    pkg = SRC / "residue_lab"
    if not (pkg / "cli.py").is_file():
        raise SystemExit(f"bench: no residue_lab sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import residue_lab.cli
    if Path(residue_lab.cli.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"bench: residue_lab imported from {residue_lab.cli.__file__}, "
                         f"not from {pkg}")
    return residue_lab


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def run_command(cli, argv: list[str]) -> tuple[int, str]:
    """Run one command line through cli.main; (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def command_ok(cmd: Command, code: int, out: str, reference: dict) -> bool:
    ref = reference["commands"].get(cmd.key)
    ok = ref is not None and ref == {"exit": code, "sha256": sha256(out)}
    if ok and cmd.spot:
        ok = all(json.loads(line)["pass"] is True for line in out.splitlines())
    return ok


def primes_done(cmd: Command, out: str) -> int:
    """Records emitted, or primes processed by satotate."""
    if cmd.argv[0] == "satotate":
        report = json.loads(out)
        return report["sample_count"] + len(report["skipped"])
    return out.count("\n")


def _cpu_seconds() -> float:
    return sum(r.ru_utime + r.ru_stime
               for r in (resource.getrusage(resource.RUSAGE_SELF),
                         resource.getrusage(resource.RUSAGE_CHILDREN)))


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    primes: int
    commands: int
    failed: list[str]


def run_pass(cli, commands: list[Command], jobs: int, reference: dict) -> PassResult:
    """Run the command list once; check every output after the clock stops."""
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    outputs = [run_command(cli, cmd.with_jobs(jobs)) for cmd in commands]
    wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
    failed, primes = [], 0
    for cmd, (code, out) in zip(commands, outputs):
        if command_ok(cmd, code, out, reference):
            primes += primes_done(cmd, out)
        else:
            failed.append(cmd.key)
    return PassResult(wall, cpu, primes, len(commands), failed)


def setup_seconds() -> float:
    """Median time to import residue_lab.cli and build the first context in
    a fresh interpreter, after one untimed start that fills the bytecode
    cache."""
    def once():
        done = subprocess.run([sys.executable, "-c", _SETUP_SNIPPET, str(SRC)],
                              capture_output=True, text=True, check=True, timeout=120)
        return float(done.stdout)
    once()
    return statistics.median(once() for _ in range(SETUP_SAMPLES))


@dataclass
class RunResult:
    attempted: int
    failed: list[str]
    metrics: dict[str, tuple[float, str]]

    def to_json(self) -> str:
        return json.dumps({
            "correct": not self.failed,
            "attempted": self.attempted,
            "failed": len(self.failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        })


def untraced_run(lib, workload: Workload, seed: int, seconds: float,
                 reference: dict) -> RunResult:
    """End-to-end metrics: set-up samples, then passes over the command
    list until `seconds` have gone since the start; medians of each."""
    start = time.perf_counter()
    setup = setup_seconds()
    commands = workload.commands(seed)
    passes = []
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(lib.cli, commands, workload.jobs, reference))
    med = lambda f: statistics.median(f(r) for r in passes)
    return RunResult(
        attempted=sum(r.commands for r in passes),
        failed=[k for r in passes for k in r.failed],
        metrics={
            "wall_s": (med(lambda r: r.wall_s), "s"),
            "primes_per_s": (med(lambda r: r.primes / r.wall_s), "1/s"),
            "cpu_s": (med(lambda r: r.cpu_s), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "setup_s": (setup, "s"),
        })


def _plain(obj):
    """JSON-ready form of a kernel result, for its reference digest."""
    if is_dataclass(obj):
        return _plain(asdict(obj))
    if isinstance(obj, dict):
        return {str(_plain(k)): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, Enum):
        return obj.value
    if hasattr(obj, "tolist"):
        return obj.tolist()
    return obj


def kernel_digest(result) -> str:
    return sha256(json.dumps(_plain(result), sort_keys=True))


def spot_cases(lib, k3_primes=(1997, 10009, 19997), graph_primes=(313, 613),
               trace_bound=20000):
    """(name, function, argument) for each kernel of the spot table."""
    build = lib.modarith.build_context
    for p in k3_primes:
        for kernel in ("count_Mp", "count_S", "_xprime_scan", "_locus_X_count"):
            yield f"{kernel}.p{p}", getattr(lib.k3, kernel), build(p)
    for p in graph_primes:
        yield f"count_graph_classes.p{p}", lib.quadgraphs.count_graph_classes, build(p)
    yield (f"collect_traces.e.p{trace_bound}",
           lambda bound: lib.stats.collect_traces("e", bound), trace_bound)


def spot_table(cases, reference: dict) -> tuple[dict, list[str]]:
    """Time each spot kernel once and check its result digest."""
    metrics, failed = {}, []
    for name, fn, arg in cases:
        t0 = time.perf_counter()
        result = fn(arg)
        metrics[f"spot.{name}.s"] = (time.perf_counter() - t0, "s")
        if reference["kernels"].get(name) != kernel_digest(result):
            failed.append(f"spot {name}")
    return metrics, failed


def _tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples
    beyond it; the maximum when there are ten samples or fewer."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def layer_metrics(spans, jobs: int, wall_s: float, serial_wall_s: float,
                  traced_wall_s: float) -> dict:
    """Per-layer metrics from the spans of one traced pass."""
    calls, inclusive, module_self = summarize(spans)
    m = {}
    for module, fns in LAYER_FUNCTIONS.items():
        for fn in fns:
            m[f"{module}.{fn}.calls"] = (calls.get(f"{module}.{fn}", 0), "count")
            m[f"{module}.{fn}.s"] = (inclusive.get(f"{module}.{fn}", 0.0), "s")
    for module in LAYER_FUNCTIONS:
        m[f"{module}.self_s"] = (module_self.get(module, 0.0), "s")

    k3_kernels = {f"k3.{fn}" for fn in LAYER_FUNCTIONS["k3"]}
    kernels = [s for s in spans if s.name in k3_kernels]
    cells = sum(s.p * s.p for s in kernels)
    m["k3.ns_per_cell"] = (sum(s.duration for s in kernels) / cells * 1e9 if cells else 0.0, "ns")
    graphs = [s for s in spans if s.name == "quadgraphs.count_graph_classes"]
    quads = sum(math.comb(s.p - 1, 3) for s in graphs)
    m["quadgraphs.ns_per_quad"] = (sum(s.duration for s in graphs) / quads * 1e9 if quads else 0.0, "ns")
    m_scans = [s.p for s in spans if s.name in ("k3.count_Mp", "k3._locus_X_count") and s.p % 4 == 1]
    m["k3.m_scans_per_prime"] = (len(m_scans) / len(set(m_scans)) if m_scans else 0.0, "scans/prime")

    claim_times = [s.duration for s in spans if s.name == "claims.run_claim"]
    tail, pct = _tail(claim_times)
    m["claims.run_claim.p50_ms"] = (statistics.median(claim_times) * 1e3, "ms")
    m["claims.run_claim.tail_ms"] = (tail * 1e3, "ms")
    m["claims.run_claim.tail_pct"] = (pct, "%")
    m["claims.run_claim.samples"] = (len(claim_times), "count")
    m["cli.parallel_efficiency"] = (sum(claim_times) / (jobs * wall_s), "ratio")

    m["trace.wall_s"] = (traced_wall_s, "s")
    m["trace.untraced_wall_s"] = (serial_wall_s, "s")
    m["trace.overhead_ratio"] = (traced_wall_s / serial_wall_s, "ratio")
    m["trace.self_coverage"] = (sum(module_self.values()) / traced_wall_s, "ratio")
    return m


def traced_run(lib, workload: Workload, seed: int, reference: dict, cases) -> RunResult:
    """Per-layer metrics: one untraced pass at the workload's --jobs, one at
    --jobs 1 when that differs, one traced pass at --jobs 1 so that every
    span stays in this process, then the spot table."""
    commands = workload.commands(seed)
    base = run_pass(lib.cli, commands, workload.jobs, reference)
    serial = base if workload.jobs == 1 else run_pass(lib.cli, commands, 1, reference)
    with Tracer() as tracer:
        traced = run_pass(lib.cli, commands, 1, reference)
    passes = [base, traced] if serial is base else [base, serial, traced]
    failed = [k for r in passes for k in r.failed]
    attempted = sum(r.commands for r in passes)
    metrics = layer_metrics(tracer.spans, workload.jobs, base.wall_s,
                            serial.wall_s, traced.wall_s)
    spot, spot_failed = spot_table(cases, reference)
    metrics.update(spot)
    failed += spot_failed
    attempted += len(spot)
    metrics["error_ratio"] = (len(failed) / attempted, "ratio")
    return RunResult(attempted, failed, metrics)


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"l{level}"] = size
    return sizes


def machine_info(seed: int) -> dict:
    import numpy
    model = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.partition(":")[2].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        **_cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }
