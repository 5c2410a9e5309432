"""Command-line front end.

Subcommands: word, count, verify, satotate, cm, quartic-tables.
Exit codes: 0 all passed, 1 some verification failed, 2 usage or domain
error (an unwritable --out and running out of memory among them), 3
internal invariant violated (an ArithmeticError from a consistency check
such as the Hasse bound or a divisibility test, or a read of a stale
context: a defect in the library, not a failing claim).  Arguments are
checked before --out is opened, so a usage error leaves it untouched.
Verification streams are JSONL (default) or CSV with fixed key order, in
ascending p whatever --jobs, written and flushed task by task: a run
stopped by exit 2 or 3 leaves the complete records written before it.
`verify` cuts its primes into at most 16 contiguous tasks of about equal
cost, each prime costing p**e with the claim's cost exponent e.  With
w = min(--jobs, usable CPUs, tasks), task i runs in process i mod w:
process 0 is this one, and the other w - 1 are started once each and send
their records back over a pipe.  A started process's exception is raised
here at its task's turn, so the exit codes do not depend on --jobs, and a
process that ends without replying is exit 2.  Every JSON line is written
by `compact_json`, without spaces.
Nothing time-dependent goes to stdout, so outputs are byte-identical
across runs.  The run manifest goes to stderr: one JSON object with the
keys command, claim, min_p, max_p, jobs, started, finished, total, passed
and failed, then a FAILED line naming the failing primes if there are any.
`count` refuses -S on any object but pattern, and --class on any object
but graph.  `satotate` composes its line from `stats.collect_traces` and
`stats.ks_distance`, and its --out CSV from `stats.histogram`.
"""

import argparse
import contextlib
import csv
import json
import multiprocessing
import os
import sys
from bisect import bisect_left
from datetime import datetime, timezone
from itertools import accumulate
from multiprocessing.connection import Connection

from .errors import ResidueLabError
from .modarith import build_context, cm_decompose
from .patterns import count_pattern, jacobsthal, residue_word
from .quadgraphs import GraphClass, count_graph_classes
from .claims import CLAIMS, _verify_worker, eligible_primes
from . import curves, k3, stats

# The one encoder of every JSON line the package writes, without spaces.
compact_json = json.JSONEncoder(separators=(",", ":")).encode

_FILTERS = {"1mod4": (1, 4), "3mod4": (3, 4), "none": None}

# `verify` cuts its primes into this many tasks (one a prime below that),
# whatever --jobs, and writes each task's records as it comes in.
_TASKS = 16

# The least --max-p `satotate` accepts, checked before it opens --out.
_SATOTATE_MIN_P = 100

# The kernel behind each `count` object but `pattern` and `graph`, which
# take an argument of their own.
_COUNT_KERNELS = {
    "k3-M": k3.count_Mp,
    "k3-N": k3.count_Np,
    "k3-S": k3.count_S,
    "k3-Xprime": lambda ctx: k3.count_Xprime(ctx)[0],
    "k3-Xprime0": lambda ctx: k3.count_Xprime(ctx)[1],
    "edwards": curves.edwards_affine,
    "jacobsthal": jacobsthal,
}


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # no affinity interface on this platform
        return os.cpu_count() or 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"need at least 1, got {value}")
    return value


def _open_out(path: str | None, default):
    """The --out file, opened before any work so that an unwritable path
    fails at once; `default` in a null context without one."""
    return open(path, "w") if path else contextlib.nullcontext(default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="residue-lab",
        description="Quadratic-residue pattern counts and their verification "
                    "against brute-force point counting.")
    sub = parser.add_subparsers(dest="command", required=True)

    w = sub.add_parser("word", help="print the residue word for p")
    w.add_argument("-p", type=int, required=True)

    c = sub.add_parser("count", help="one counting query, JSON output")
    c.add_argument("object", choices=("pattern", "graph", *_COUNT_KERNELS))
    c.add_argument("-p", type=int, required=True)
    c.add_argument("-S", "--pattern", help="pattern over X/Y for object=pattern")
    c.add_argument("--class", dest="graph_class",
                   choices=[g.value for g in GraphClass],
                   help="class name for object=graph")

    v = sub.add_parser("verify", help="run one claim over a prime range")
    v.add_argument("claim", choices=sorted(CLAIMS))
    v.add_argument("--min-p", type=int, default=3)
    v.add_argument("--max-p", type=int, required=True)
    v.add_argument("--jobs", type=_positive_int, default=1,
                   help="processes that share the work, this one included "
                        "(default 1); no more than there are tasks or CPUs")
    v.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    v.add_argument("--out", help="write records here instead of stdout")
    v.add_argument("--filter", choices=sorted(_FILTERS), default="none",
                   help="extra residue-class restriction on top of the claim's own")
    v.add_argument("--oracle", action="store_true",
                   help="rebuild root-count tables by enumeration instead of "
                        "the character table")

    s = sub.add_parser("satotate", help="normalized-trace distribution report")
    s.add_argument("curve", choices=stats.curve_ids())
    s.add_argument("--max-p", type=int, required=True)
    s.add_argument("--filter", choices=sorted(_FILTERS), default="none")
    s.add_argument("--out", help="write the 40-bin histogram CSV here")

    g = sub.add_parser("cm", help="both normalized a^2 + b^2 = p decompositions")
    g.add_argument("-p", type=int, required=True)

    q = sub.add_parser("quartic-tables", help="the four quartic twist rows at p")
    q.add_argument("-p", type=int, required=True)
    return parser


def _cmd_word(args) -> int:
    ctx = build_context(args.p)
    print(residue_word(ctx))
    return 0


def _cmd_count(args) -> int:
    if args.pattern is not None and args.object != "pattern":
        raise ValueError(f"-S is for object=pattern, not {args.object}")
    if args.graph_class is not None and args.object != "graph":
        raise ValueError(f"--class is for object=graph, not {args.object}")
    ctx = build_context(args.p)
    obj = {"p": args.p, "object": args.object}
    if args.object == "pattern":
        if not args.pattern:
            raise ValueError("object=pattern needs -S")
        obj["pattern"] = args.pattern.upper()
        obj["count"] = count_pattern(ctx, args.pattern)
    elif args.object == "graph":
        if not args.graph_class:
            raise ValueError("object=graph needs --class")
        counts = count_graph_classes(ctx)
        obj["class"] = args.graph_class
        obj["count"] = counts[GraphClass(args.graph_class)]
    else:
        obj["count"] = _COUNT_KERNELS[args.object](ctx)
    print(compact_json(obj))
    return 0


def _record_writer(fmt: str, fh):
    """A function that writes one record to fh as a line of `fmt`; the CSV
    header is written at once."""
    if fmt == "jsonl":
        return lambda r: fh.write(compact_json(r) + "\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["p", "claim", "expected", "actual", "pass", "detail"])
    return lambda r: writer.writerow([
        r["p"], r["claim"], compact_json(r["expected"]), compact_json(r["actual"]),
        str(r["pass"]).lower(), compact_json(r.get("detail"))])


def _cut(primes: list[int], exponent: int) -> list[list[int]]:
    """Ascending primes cut into min(_TASKS, len(primes)) contiguous tasks
    at about equal shares of the sum of p**exponent.

    Cut k falls just after the prime at which the running cost first
    reaches k shares, so no task costs more than one share plus the cost
    of its largest prime.  Where that would leave a task empty, the cuts
    move so that it gets one prime."""
    if not primes:
        return []
    tasks = min(_TASKS, len(primes))
    prefix = list(accumulate((p ** exponent for p in primes), initial=0))
    cuts = [0]
    for k in range(1, tasks):
        at = bisect_left(prefix, prefix[-1] * k, key=lambda s: s * tasks)
        cuts.append(min(max(at, cuts[-1] + 1), len(primes) - (tasks - k)))
    cuts.append(len(primes))
    return [primes[a:b] for a, b in zip(cuts, cuts[1:])]


def _serve(tasks: list, conn: Connection) -> None:
    """The body of a started process: sends the records of each task in
    turn over `conn`, or the exception that stopped one, and ends."""
    try:
        for task in tasks:
            conn.send(_verify_worker(task))
    except Exception as exc:  # raised by the reader at its task's turn
        conn.send(exc)
    finally:
        conn.close()


def _start(tasks: list) -> tuple[multiprocessing.Process, Connection]:
    """Starts one process that runs `tasks`; returns it and the end of its
    pipe that receives each task's records in task order."""
    recv_end, send_end = multiprocessing.Pipe(duplex=False)
    proc = multiprocessing.Process(target=_serve, args=(tasks, send_end), daemon=True)
    proc.start()
    send_end.close()
    return proc, recv_end


def _task_records(tasks: list, workers: int):
    """Yields each task's records, in task order.

    Task i runs in process i mod `workers`: process 0 is this one, and each
    of the others is started once, at the first step, and sends its tasks'
    records back over its own pipe.  A started process's exception is
    raised here when its task's turn comes; one that ends without replying
    is a ChildProcessError.  Every started process is terminated if still
    alive, and joined, when the generator finishes or is closed."""
    started = []
    try:
        for r in range(1, workers):
            started.append(_start(tasks[r::workers]))
        for i, task in enumerate(tasks):
            if i % workers == 0:
                yield _verify_worker(task)
                continue
            proc, conn = started[i % workers - 1]
            try:
                reply = conn.recv()
            except EOFError:
                proc.join()
                raise ChildProcessError(
                    f"worker process ended with exit code {proc.exitcode} "
                    f"before sending task {i}") from None
            if isinstance(reply, Exception):
                raise reply
            yield reply
    finally:
        for proc, conn in started:
            if proc.is_alive():
                proc.terminate()
            proc.join()
            conn.close()


def _cmd_verify(args) -> int:
    claim = CLAIMS[args.claim]
    if args.min_p > args.max_p:
        raise ValueError(f"empty range [{args.min_p}, {args.max_p}]")
    primes = eligible_primes(claim, args.min_p, args.max_p, _FILTERS[args.filter])
    started = datetime.now(timezone.utc).isoformat()
    tasks = [(args.claim, task, args.oracle)
             for task in _cut(primes, claim.cost_exponent)]
    # no more processes share the work than can run at once; the manifest
    # keeps the requested count
    workers = min(args.jobs, _usable_cpus(), len(tasks))
    total, failures = 0, []
    with (_open_out(args.out, sys.stdout) as fh,
          contextlib.closing(_task_records(tasks, workers)) as replies):
        write = _record_writer(args.format, fh)
        for records in replies:
            for r in records:
                write(r)
                if not r["pass"]:
                    failures.append(r["p"])
            total += len(records)
            fh.flush()
    manifest = {
        "command": " ".join(args.argv), "claim": args.claim,
        "min_p": args.min_p, "max_p": args.max_p, "jobs": args.jobs,
        "started": started, "finished": datetime.now(timezone.utc).isoformat(),
        "total": total, "passed": total - len(failures), "failed": len(failures)}
    print(compact_json(manifest), file=sys.stderr)
    if failures:
        print(f"FAILED {args.claim} at p = {failures}", file=sys.stderr)
        return 1
    return 0


def _cmd_satotate(args) -> int:
    if args.max_p < _SATOTATE_MIN_P:
        raise ValueError(f"need --max-p >= {_SATOTATE_MIN_P}")
    with _open_out(args.out, None) as fh:
        coll = stats.collect_traces(args.curve, args.max_p, _FILTERS[args.filter])
        ts = [s.t for s in coll.samples]
        if fh is not None:
            total = max(len(ts), 1)
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["bin_lo", "bin_hi", "count", "density"])
            for lo, hi, count in stats.histogram(ts):
                writer.writerow([f"{lo:.6f}", f"{hi:.6f}", count,
                                 f"{count / (total * (hi - lo)):.8f}"])
    obj = {
        "curve": args.curve,
        "max_p": args.max_p,
        "filter": args.filter,
        "sample_count": len(ts),
        "skipped": coll.skipped,
        "ks_uniform": stats.ks_distance(ts, "uniform"),
        "ks_semicircle": stats.ks_distance(ts, "semicircle"),
    }
    print(compact_json(obj))
    return 0


def _cmd_cm(args) -> int:
    gauss, mod4 = cm_decompose(build_context(args.p))
    obj = {"p": args.p, "gauss": {"a": gauss.a, "b": gauss.b},
           "jacobsthal": {"a": mod4.a, "b": mod4.b}}
    print(compact_json(obj))
    return 0


def _cmd_quartic_tables(args) -> int:
    ctx = build_context(args.p)
    for variant, rec in enumerate(curves.quartic_rows(ctx), start=1):
        obj = {"p": rec.p, "variant": variant, "curve": rec.curve,
               "affine": rec.affine_count, "infinity": rec.infinity_count,
               "zero_locus": rec.zero_locus_count,
               "sum": rec.infinity_count + rec.zero_locus_count,
               "trace": rec.trace}
        print(compact_json(obj))
    return 0


_DISPATCH = {
    "word": _cmd_word,
    "count": _cmd_count,
    "verify": _cmd_verify,
    "satotate": _cmd_satotate,
    "cm": _cmd_cm,
    "quartic-tables": _cmd_quartic_tables,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv
    try:
        return _DISPATCH[args.command](args)
    except (ResidueLabError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
