import contextlib
import dataclasses
import hashlib
import io
import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from residue_lab import claims, cli, curves, k3, modarith, stats

CLI = [sys.executable, "-m", "residue_lab.cli"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


def test_word():
    res = run_cli("word", "-p", "17")
    assert res.returncode == 0
    assert res.stdout.strip() == "XXYXYYYXXYYYXYXX"


def test_word_bad_prime_exits_2():
    res = run_cli("word", "-p", "4")
    assert res.returncode == 2
    assert "NotOddPrime" in res.stderr


def test_count_k3M():
    res = run_cli("count", "k3-M", "-p", "5")
    assert res.returncode == 0
    assert res.stdout.strip() == '{"p":5,"object":"k3-M","count":41}'


@pytest.mark.parametrize("obj, count", [
    # S, the chart total and boundary (M - p and 7p - 15), the Edwards count
    # and J at p = 13, as the unit tests pin them against tests/brute.py
    ("k3-N", 7), ("k3-S", 184), ("k3-Xprime", 220), ("k3-Xprime0", 76),
    ("edwards", 4), ("jacobsthal", -6),
])
def test_count_object_stdout(capsys, obj, count):
    assert cli.main(["count", obj, "-p", "13"]) == 0
    assert capsys.readouterr().out == f'{{"p":13,"object":"{obj}","count":{count}}}\n'


def test_count_pattern_case_insensitive():
    res = run_cli("count", "pattern", "-p", "17", "-S", "xxx")
    assert res.returncode == 0
    assert json.loads(res.stdout)["count"] == 0


def test_count_pattern_bad_letter_exits_2(capsys):
    assert cli.main(["count", "pattern", "-p", "17", "-S", "XZ"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ValueError: pattern letters must be X or Y, got ['Z']\n"


@pytest.mark.parametrize("argv, err", [
    (["count", "k3-M", "-p", "13", "-S", "XZ", "--class", "K4"],
     "-S is for object=pattern, not k3-M"),
    (["count", "graph", "-p", "13", "-S", "XY", "--class", "K4"],
     "-S is for object=pattern, not graph"),
    (["count", "pattern", "-p", "13", "-S", "XY", "--class", "K4"],
     "--class is for object=graph, not pattern"),
    (["count", "jacobsthal", "-p", "13", "--class", "K4"],
     "--class is for object=graph, not jacobsthal"),
])
def test_count_stray_option_is_a_usage_error(capsys, argv, err):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ValueError: {err}\n"


def test_count_pattern_requires_S():
    res = run_cli("count", "pattern", "-p", "17")
    assert res.returncode == 2


def test_count_graph_K4():
    res = run_cli("count", "graph", "-p", "29", "--class", "K4")
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    assert obj == {"p": 29, "object": "graph", "class": "K4", "count": 7}


def test_count_graph_wrong_residue_class_exits_2():
    res = run_cli("count", "graph", "-p", "11", "--class", "K4")
    assert res.returncode == 2
    assert "WrongResidueClass" in res.stderr
    assert "Traceback" not in res.stderr


def test_count_unknown_object_exits_2():
    res = run_cli("count", "zeta", "-p", "5")
    assert res.returncode == 2


def test_cm():
    res = run_cli("cm", "-p", "13")
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    assert obj == {"p": 13, "gauss": {"a": 3, "b": 2},
                   "jacobsthal": {"a": -3, "b": 2}}
    res5 = run_cli("cm", "-p", "5")
    assert json.loads(res5.stdout)["gauss"]["a"] == -1
    assert run_cli("cm", "-p", "7").returncode == 2


def test_verify_identity5_small():
    res = run_cli("verify", "identity5", "--max-p", "7")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert len(lines) == 3
    objs = [json.loads(line) for line in lines]
    assert [o["p"] for o in objs] == [3, 5, 7]
    assert [o["actual"] for o in objs] == [17, 41, 65]
    assert all(o["pass"] for o in objs)
    assert list(objs[0]) == ["p", "claim", "expected", "actual", "pass"]


def test_verify_goncharova_filters_to_1_mod_4():
    res = run_cli("verify", "goncharova1", "--max-p", "30")
    assert res.returncode == 0
    assert [json.loads(l)["p"] for l in res.stdout.splitlines()] == [5, 13, 17, 29]


def test_verify_tables_reports_failures_with_exit_1():
    # the split-prime table does not hold at p = 3 mod 4, so a run over all
    # odd p must flag those primes and exit 1
    res = run_cli("verify", "tables", "--max-p", "40")
    assert res.returncode == 1
    objs = [json.loads(l) for l in res.stdout.splitlines()]
    failed = [o["p"] for o in objs if not o["pass"]]
    assert failed == [p for p in (7, 11, 19, 23, 31) if p <= 40]
    passed = [o["p"] for o in objs if o["pass"]]
    assert passed == [5, 13, 17, 29, 37]
    assert "FAILED" in res.stderr


def test_verify_user_filter_restricts():
    res = run_cli("verify", "tables", "--max-p", "40", "--filter", "1mod4")
    assert res.returncode == 0
    assert [json.loads(l)["p"] for l in res.stdout.splitlines()] == [5, 13, 17, 29, 37]


def test_verify_jobs_determinism():
    from residue_lab import primes_in

    a = run_cli("verify", "formula2", "--max-p", "300", "--jobs", "1")
    b = run_cli("verify", "formula2", "--max-p", "300", "--jobs", "4")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert len(a.stdout.splitlines()) == len(primes_in(5, 300, (1, 4)))
    manifest = json.loads(a.stderr.splitlines()[0])
    assert manifest["failed"] == 0


class InlineProcess:
    """Stands in for a started process and the pipe it replies on: runs its
    tasks here, one at each receive, so that no process is ever started."""

    def __init__(self, tasks):
        self.replies = map(cli._verify_worker, tasks)

    def recv(self):
        return next(self.replies)

    def is_alive(self):
        return False

    def join(self):
        pass

    def close(self):
        pass


@pytest.fixture
def inline_starts(monkeypatch):
    """The task lists of each process `verify` would start, none started."""
    started = []

    def start(tasks):
        started.append(tasks)
        proc = InlineProcess(tasks)
        return proc, proc

    monkeypatch.setattr(cli, "_start", start)
    return started


@pytest.mark.parametrize("jobs, min_p, cpus, max_p, workers", [
    ("5000", None, 2, 20, 2),     # capped by the CPUs
    ("5000", None, 64, 20, 7),    # capped by the tasks: 7 primes, one per task
    ("5000", "15", 64, 20, 2),    # capped alike when --min-p leaves 17 and 19
    ("3", None, 64, 300, 3),      # as requested
    ("5000", None, 1, 300, None),  # one CPU: this process alone
])
def test_verify_starts_no_more_workers_than_usable(monkeypatch, capsys, inline_starts, jobs,
                                                   min_p, cpus, max_p, workers):
    # this process is one of the workers, so one fewer is started
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    argv = ["verify", "identity5", "--max-p", str(max_p)]
    if min_p is not None:
        argv += ["--min-p", min_p]
    assert cli.main([*argv, "--jobs", jobs]) == 0
    captured = capsys.readouterr()
    assert len(inline_starts) == (0 if workers is None else workers - 1)
    assert json.loads(captured.err.splitlines()[0])["jobs"] == int(jobs)
    assert cli.main([*argv, "--jobs", "1"]) == 0
    assert capsys.readouterr().out == captured.out
    assert len(inline_starts) == (0 if workers is None else workers - 1)


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_jobs_below_one_is_a_usage_error(capsys, inline_starts, jobs):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "identity5", "--max-p", "30", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert inline_starts == []


def test_verify_csv_format():
    res = run_cli("verify", "identity5", "--max-p", "7", "--format", "csv")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "p,claim,expected,actual,pass,detail"
    assert len(lines) == 4
    assert lines[1].startswith("3,identity5,17,17,true")


def test_verify_out_file(tmp_path):
    out = tmp_path / "records.jsonl"
    res = run_cli("verify", "identity5", "--max-p", "7", "--out", str(out))
    assert res.returncode == 0
    assert res.stdout == ""
    assert len(out.read_text().splitlines()) == 3


@pytest.mark.parametrize("argv", [
    ["verify", "identity5", "--max-p", "7"],
    ["satotate", "e", "--max-p", "200"],
])
def test_unwritable_out_is_a_usage_error(monkeypatch, capsys, tmp_path, argv):
    # exit 1 would say a claim failed; a path that cannot be written is exit 2,
    # found before any record is computed or any trace collected
    def no_work(*args):
        raise AssertionError("work started before --out was opened")

    monkeypatch.setattr(cli, "_verify_worker", no_work)
    monkeypatch.setattr(stats, "collect_traces", no_work)
    code = cli.main([*argv, "--out", str(tmp_path / "missing" / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: FileNotFoundError: ")
    assert captured.err.count("\n") == 1


def test_verify_oracle_flag():
    res = run_cli("verify", "formula2", "--max-p", "100", "--oracle")
    assert res.returncode == 0


def test_verify_goncharova_oracle_same_bytes():
    plain = run_cli("verify", "goncharova1", "--max-p", "200")
    oracle = run_cli("verify", "goncharova1", "--max-p", "200", "--oracle")
    assert plain.returncode == oracle.returncode == 0
    assert plain.stdout and oracle.stdout == plain.stdout


def test_verify_manifest_records_main_argv(capsys):
    argv = ["verify", "identity5", "--max-p", "7", "--jobs", "1"]
    assert cli.main(argv) == 0
    manifest = json.loads(capsys.readouterr().err.splitlines()[0])
    assert manifest["command"] == " ".join(argv)


def test_verify_manifest_keys_and_tallies(capsys):
    # the tables claim fails at p = 3 mod 4: 7, 11 and 19 of the six primes
    assert cli.main(["verify", "tables", "--max-p", "20"]) == 1
    manifest_line, failed_line = capsys.readouterr().err.splitlines()
    manifest = json.loads(manifest_line)
    assert list(manifest) == ["command", "claim", "min_p", "max_p", "jobs",
                              "started", "finished", "total", "passed", "failed"]
    assert manifest["total"] == manifest["passed"] + manifest["failed"] == 6
    assert manifest["jobs"] == 1  # the default without --jobs
    assert failed_line == "FAILED tables at p = [7, 11, 19]"
    assert manifest["failed"] == 3


@pytest.fixture
def two_cpus(monkeypatch):
    # `--jobs 2` must take the process-pool path on a one-CPU runner too
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)


def test_usable_cpus_follows_the_affinity_set(monkeypatch):
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 3, 5},
                        raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    assert cli._usable_cpus() == 3
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    assert cli._usable_cpus() == 64
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._usable_cpus() == 1


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_invariant_violation_exits_3(monkeypatch, capsys, two_cpus, jobs):
    def broken(ctx):
        raise ArithmeticError(f"Hasse bound violated at p={ctx.p}")

    monkeypatch.setattr(k3, "count_S", broken)
    code = cli.main(["verify", "formula2", "--max-p", "30", "--jobs", jobs])
    err = capsys.readouterr().err
    assert code == 3
    assert "internal invariant violated: Hasse bound violated at p=" in err
    assert "Traceback" not in err


def test_broken_quartic_count_violates_hasse(monkeypatch, capsys):
    # a quartic row's trace obeys the same law and bound as curve_trace, so
    # a broken count is a broken invariant, not a failing tables record
    monkeypatch.setattr(curves, "_infinity_count", lambda ctx, spec: 4 * ctx.p)
    code = cli.main(["verify", "tables", "--max-p", "13"])
    err = capsys.readouterr().err
    assert code == 3
    assert "internal invariant violated: Hasse bound violated" in err
    assert "Traceback" not in err


def test_importing_the_cli_leaves_numpy_fft_unloaded():
    # the convolution reaches np.fft only when called, so a command that
    # counts no S and no graph pays nothing for it at startup
    code = "import sys, residue_lab.cli; print('numpy.fft' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


@pytest.fixture
def irfft_off_by_three_tenths(monkeypatch):
    """np.fft.irfft with 0.3 added to every entry: a fault in the transform."""
    irfft = np.fft.irfft

    def off_by_three_tenths(*args, **kwargs):
        out = irfft(*args, **kwargs)
        out += 0.3
        return out

    monkeypatch.setattr(np.fft, "irfft", off_by_three_tenths)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_fft_rounding_residue_exits_3(irfft_off_by_three_tenths, capsys, two_cpus, jobs):
    # a convolution entry a quarter or more off an integer is a fault in
    # the transform, not rounding: count_S must not round it away
    code = cli.main(["verify", "formula2", "--max-p", "30", "--jobs", jobs])
    err = capsys.readouterr().err
    assert code == 3
    assert "internal invariant violated: FFT convolution off an integer by" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_graph_tally_rounding_residue_exits_3(irfft_off_by_three_tenths, capsys, two_cpus,
                                              jobs):
    # the same fault in the pair tally of count_graph_classes, which the
    # K4 count of goncharova1 reads
    code = cli.main(["verify", "goncharova1", "--max-p", "30", "--jobs", jobs])
    err = capsys.readouterr().err
    assert code == 3
    assert "internal invariant violated: FFT convolution off an integer by" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_failed_divisibility_exits_3(monkeypatch, capsys, two_cpus, jobs):
    # with J = 3, (J^2 - 4) / 32 is no integer: a broken invariant, not a
    # usage error
    monkeypatch.setattr(claims, "jacobsthal", lambda ctx: 3)
    code = cli.main(["verify", "goncharova1", "--max-p", "13", "--jobs", jobs])
    err = capsys.readouterr().err
    assert code == 3
    assert "internal invariant violated: (3^2 - 4) is not divisible by 32" in err
    assert "Traceback" not in err


def test_out_of_memory_is_a_usage_error(monkeypatch, capsys):
    # the tables of this prime would take terabytes; the allocation is
    # stubbed, because a real request can exhaust an overcommitting host
    p = 1000000000039
    assert modarith.is_prime(p)

    def refuse(self, size):
        raise MemoryError(f"Unable to allocate tables for p={size}")

    monkeypatch.setattr(modarith.ContextArena, "_allocate", refuse)
    assert cli.main(["word", "-p", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: MemoryError: Unable to allocate tables for p={p}\n"


@pytest.mark.parametrize("argv,err", [
    (["count", "pattern", "-p", "13"], "object=pattern needs -S"),
    (["count", "graph", "-p", "13"], "object=graph needs --class"),
])
def test_count_checks_its_options_before_it_builds_tables(monkeypatch, capsys, argv, err):
    def refuse(self, size):
        raise MemoryError(f"Unable to allocate tables for p={size}")

    monkeypatch.setattr(modarith.ContextArena, "_allocate", refuse)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ValueError: {err}\n"


def test_usage_error_leaves_out_untouched(monkeypatch, capsys, tmp_path):
    def no_work(*args):
        raise AssertionError("traces collected for a bound below the minimum")

    monkeypatch.setattr(stats, "collect_traces", no_work)
    out = tmp_path / "keep.csv"
    out.write_bytes(b"bin_lo,bin_hi,count,density\n")
    code = cli.main(["satotate", "e", "--max-p", "50", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: ValueError: need --max-p >= 100\n"
    assert out.read_bytes() == b"bin_lo,bin_hi,count,density\n"


@pytest.mark.parametrize("command", [["verify", "identity5"], ["satotate", "e"]])
def test_max_p_past_the_index_range_exits_2(capsys, tmp_path, command):
    # a prime above 2^63: its sieve cannot be indexed, a usage error and
    # not a broken invariant, found before --out is opened
    out = tmp_path / "keep.csv"
    out.write_bytes(b"keep\n")
    assert cli.main([*command, "--max-p", "9223372036854775837", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ValueError: need hi < ")
    assert captured.err.count("\n") == 1
    assert out.read_bytes() == b"keep\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_stale_context_read_exits_3(monkeypatch, capsys, two_cpus, jobs):
    # a kernel that keeps a context past its prime would read overwritten
    # tables; at --max-p 500 every --jobs 2 task holds several primes
    kept = []

    def caching(ctx):
        kept.append(ctx)
        return k3.count_S.__wrapped__(kept[0])

    caching.__wrapped__ = k3.count_S
    monkeypatch.setattr(k3, "count_S", caching)
    code = cli.main(["verify", "formula2", "--max-p", "500", "--jobs", jobs])
    err = capsys.readouterr().err
    assert code == 3
    assert "internal invariant violated: tables of the context for p=5" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("to_file", [False, True])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_fault_keeps_the_records_written_before_it(monkeypatch, capsys, tmp_path,
                                                   two_cpus, jobs, to_file):
    # records are written as each task of primes returns, so a fault at the
    # last eligible prime leaves the complete records of every task before it
    argv = ["verify", "identity5", "--max-p", "200"]
    assert cli.main([*argv, "--jobs", "1"]) == 0
    full = capsys.readouterr().out
    claim = claims.CLAIMS["identity5"]
    last = claims.eligible_primes(claim, 3, 200, None)[-1]

    def faulty(ctx):
        if ctx.p == last:
            raise ArithmeticError(f"planted fault at p={ctx.p}")
        return claim.run(ctx)

    monkeypatch.setitem(claims.CLAIMS, "identity5", dataclasses.replace(claim, run=faulty))
    out = tmp_path / "records.jsonl"
    extra = ["--out", str(out)] if to_file else []
    assert cli.main([*argv, "--jobs", jobs, *extra]) == 3
    captured = capsys.readouterr()
    assert f"internal invariant violated: planted fault at p={last}" in captured.err
    written = out.read_text() if to_file else captured.out
    assert written and full.startswith(written) and written.endswith("\n")
    primes = [json.loads(line)["p"] for line in written.splitlines()]
    assert primes == sorted(primes) and primes[-1] < last


def _plant(monkeypatch, claim_name, p, fault):
    """Replaces the claim's runner by one that calls fault(ctx) at p first."""
    claim = claims.CLAIMS[claim_name]

    def run(ctx):
        if ctx.p == p:
            fault(ctx)
        return claim.run(ctx)

    monkeypatch.setitem(claims.CLAIMS, claim_name, dataclasses.replace(claim, run=run))


# started processes are forked from this one, after this module is imported
_TEST_PID = os.getpid()


def _die_in_a_started_process(ctx):
    if os.getpid() != _TEST_PID:
        os._exit(9)


def _fault(ctx):
    raise ArithmeticError(f"planted fault at p={ctx.p}")


def _tasks(claim_name, max_p):
    claim = claims.CLAIMS[claim_name]
    return cli._cut(claims.eligible_primes(claim, 3, max_p, None), claim.cost_exponent)


def test_fault_in_a_started_process_is_raised_at_its_turn(monkeypatch, capsys, two_cpus):
    # task 1 is the first task of the one started process; its exception is
    # raised here after task 0's records, as at --jobs 1
    argv = ["verify", "identity5", "--max-p", "200"]
    assert cli.main([*argv, "--jobs", "1"]) == 0
    tasks = _tasks("identity5", 200)
    head = "".join(capsys.readouterr().out.splitlines(keepends=True)[:len(tasks[0])])
    _plant(monkeypatch, "identity5", tasks[1][0], _fault)
    errs = []
    for jobs in ("1", "2"):
        assert cli.main([*argv, "--jobs", jobs]) == 3
        captured = capsys.readouterr()
        assert captured.out == head, jobs
        errs.append(captured.err)
    assert errs[0] == errs[1] == (
        f"internal invariant violated: planted fault at p={tasks[1][0]}\n")




def test_a_started_process_that_dies_is_a_usage_error(monkeypatch, capsys, two_cpus):
    _plant(monkeypatch, "identity5", _tasks("identity5", 200)[1][0], _die_in_a_started_process)
    assert cli.main(["verify", "identity5", "--max-p", "200", "--jobs", "2"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: ChildProcessError: worker process ended with exit code 9 "
                   "before sending task 1\n")


@pytest.mark.parametrize("code", [0, 1, 2, 3])
def test_verify_leaves_no_process_running(monkeypatch, capsys, two_cpus, code):
    # exit 3 comes from task 0, in this process, while the started process
    # still works on its own tasks, so it is terminated
    claim = "tables" if code == 1 else "identity5"
    tasks = _tasks(claim, 300)
    if code == 2:
        _plant(monkeypatch, claim, tasks[1][0], _die_in_a_started_process)
    if code == 3:
        _plant(monkeypatch, claim, tasks[0][0], _fault)
    procs = []
    start = cli._start

    def recorded(tasks):
        proc, conn = start(tasks)
        procs.append(proc)
        return proc, conn

    monkeypatch.setattr(cli, "_start", recorded)
    assert cli.main(["verify", claim, "--max-p", "300", "--jobs", "2"]) == code
    capsys.readouterr()
    assert len(procs) == 1 and procs[0].exitcode is not None
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("claim", sorted(claims.CLAIMS))
def test_cut_covers_each_prime_once_in_order(claim):
    for max_p in (20, 1000):
        primes = claims.eligible_primes(claims.CLAIMS[claim], 3, max_p, None)
        tasks = _tasks(claim, max_p)
        assert len(tasks) == min(cli._TASKS, len(primes)) and all(tasks)
        assert [p for task in tasks for p in task] == primes


def test_cut_balances_p_squared():
    # no task costs more than 1/16 of the total and its own largest p^2; an
    # equal-count cut puts about 18 % of the cost in its last full task
    claim = claims.CLAIMS["identity5"]
    assert claim.cost_exponent == 2
    primes = claims.eligible_primes(claim, 3, 1000, None)
    total = sum(p * p for p in primes)
    tasks = cli._cut(primes, 2)
    assert len(tasks) == cli._TASKS
    for task in tasks:
        assert cli._TASKS * sum(p * p for p in task) <= total + cli._TASKS * task[-1] ** 2
    chunk = len(primes) // cli._TASKS
    last = primes[15 * chunk:16 * chunk]
    assert cli._TASKS * sum(p * p for p in last) > total + cli._TASKS * last[-1] ** 2


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.integers(1, 10**6), unique=True, max_size=60),
       exponent=st.sampled_from([1, 2]))
def test_cut_property(values, exponent):
    primes = sorted(values)
    tasks = cli._cut(primes, exponent)
    assert [p for task in tasks for p in task] == primes
    assert len(tasks) == min(cli._TASKS, len(primes)) and all(tasks)
    total = sum(p ** exponent for p in primes)
    for task in tasks:
        assert len(tasks) * sum(p ** exponent for p in task) <= (
            total + len(tasks) * task[-1] ** exponent)


@pytest.mark.parametrize("argv", [
    ["verify", "weil_bound", "--max-p", "13"],           # below the claim's minimum
    ["verify", "identity5", "--min-p", "1", "--max-p", "2"],  # no odd prime
])
@pytest.mark.parametrize("fmt, out", [
    ("jsonl", ""), ("csv", "p,claim,expected,actual,pass,detail\n")])
def test_verify_empty_eligible_set(capsys, argv, fmt, out):
    assert cli.main([*argv, "--format", fmt]) == 0
    captured = capsys.readouterr()
    assert captured.out == out
    manifest = json.loads(captured.err.splitlines()[0])
    assert manifest["total"] == manifest["failed"] == 0


@pytest.mark.parametrize("claim, code, digest", [
    ("bookkeeping", 0, "d5ba871863851ce5432fcefc33a2426ba33163b6fbddc05472b7479c9bba42e8"),
    ("charsum_consistency", 0, "59addee79ff90c68a06f165be315e5e1bc47e79910e49f1e234f5585b3cc8858"),
    ("cm_traces", 0, "1d6606bf0509f0c1f5e79e8282672fe45f1753fc020bdc33d7fd48d72916ca6b"),
    ("fibration", 0, "3dfed76204b0b2a97e92fa6212041b4e6631935dd686e52dcd904b3b181bc0a3"),
    ("formula2", 0, "609d578697678c94eeec47dbde91e7e126dec551f0467269498adf3643eed7a9"),
    ("gauss_edwards", 0, "19569f68b2026e04a0364d09c1294e234146c5705f3d52389e163380987d1b88"),
    ("genus2", 0, "d0184af9f1ff353d51f4c8d63bab534c9fda1de4ff22e85a9cb8554e46739439"),
    ("goncharova1", 0, "7d69358e3fe0ef58ef68d2a0a5b7fd9a795941dd40abd98a5ada116becc79529"),
    ("identity5", 0, "7ff8fae8d2652d420fc70a7476cf7b1b6c61714c21a8d3af01e71922f4d0bebc"),
    ("j_relations", 0, "7178b90c4bcf912f8390ab9890227fbab96b9e3ecb4368a441f45e2d8e0d90e3"),
    ("tables", 1, "30b76cfc6d274a0c757415304ff8354e2239e41600b15206096e4b376389ac53"),
    ("weil_bound", 0, "b32a0742f38a3040215e5172516163d032b333667ad2aec3f36236d55621431a"),
])
def test_verify_every_claim_frozen_bytes(capsys, two_cpus, claim, code, digest):
    # sha256 of each claim's records at p <= 300 as written by fresh
    # contexts and `%` reductions; jobs and --oracle must not change them
    for extra in (["--jobs", "1"], ["--jobs", "2"], ["--jobs", "1", "--oracle"]):
        assert cli.main(["verify", claim, "--max-p", "300", *extra]) == code, extra
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, extra


@pytest.mark.parametrize("argv, digest, csv_digest", [
    (("quartic-tables", "-p", "17"),
     "f20e1147dbe1c1f06475cf63358ff1d3be2c3b46232986316626471bb26c5d98", None),
    (("quartic-tables", "-p", "19"),
     "6e01e4e54d717aba07acac0dfa79a3d0a5aaa271ac56e05c0694e3d520992c0d", None),
    (("quartic-tables", "-p", "10007"),
     "3cab286af838d4b059eebec4ba976e59f029d99675945ce55a00b64d51004870", None),
    (("satotate", "a", "--max-p", "2000"),
     "06a3d2fd0a158fc615603e42e9df69d69c139e6ba84feaa7f83ffe33e356dd7a",
     "2255119597dcedf676139b6e72b01bb599ce197b073e95e8851055611608446a"),
    (("satotate", "b", "--max-p", "2000"),
     "75801e7dfae3b37a8e5f117cb49cbc2e731e2150ea57a589da322e7f05c6f2a6",
     "378069ccb68176a1597c7a40e9068b9d7084f35ad2480a77a3d057b7f087492e"),
    (("satotate", "c", "--max-p", "2000"),
     "dceebad20b323b2e02598c62c05fb3d82b73740e496726a25c5a449835f671ab",
     "09b4d0e41cf3fadb562bd3cae88827cb9a2f46438d532ee663ff4e796cc901ec"),
    (("satotate", "d", "--max-p", "2000"),
     "0f899e80ba2259e158e8b122b40372bd720055a07d250acba887ade6fcced307",
     "2255119597dcedf676139b6e72b01bb599ce197b073e95e8851055611608446a"),
    (("satotate", "e", "--max-p", "2000"),
     "616184f230cfe3ff4eb49efb507b05b6f17c08a73f67e46d0fe0b33f5827da18",
     "8bd4f607b52fc473cdc84deadfea5cf034776bf03148ec815932b86e8b2144ce"),
    (("satotate", "weierstrass", "--max-p", "2000"),
     "f52f962abc947872f1d6ec8428ad0013beb12512d31ff0ee25ab42e5184cdbdd",
     "2255119597dcedf676139b6e72b01bb599ce197b073e95e8851055611608446a"),
])
def test_command_frozen_bytes(capsys, tmp_path, argv, digest, csv_digest):
    # sha256 of stdout and of the --out histogram CSV, recorded while the
    # cubic and quartic traces had separate laws and each quartic row its
    # own evaluation
    out = tmp_path / "hist.csv"
    extra = ["--out", str(out)] if csv_digest else []
    assert cli.main([*argv, *extra]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
    if csv_digest:
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_digest


def test_verify_unknown_claim_exits_2():
    assert run_cli("verify", "nonsense", "--max-p", "100").returncode == 2


def test_verify_empty_range_exits_2():
    assert run_cli("verify", "identity5", "--min-p", "50", "--max-p", "10").returncode == 2


def test_satotate_json_and_csv(tmp_path):
    out = tmp_path / "hist.csv"
    res = run_cli("satotate", "weierstrass", "--max-p", "2000",
                  "--filter", "1mod4", "--out", str(out))
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    assert {"curve", "max_p", "filter", "sample_count", "skipped",
            "ks_uniform", "ks_semicircle"} <= set(obj)
    lines = out.read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count,density"
    assert len(lines) == 41
    assert sum(int(l.split(",")[2]) for l in lines[1:]) == obj["sample_count"]


def test_satotate_unknown_curve_exits_2():
    assert run_cli("satotate", "zeta", "--max-p", "2000").returncode == 2


def test_quartic_tables():
    res = run_cli("quartic-tables", "-p", "17")
    assert res.returncode == 0
    objs = [json.loads(l) for l in res.stdout.splitlines()]
    assert [o["variant"] for o in objs] == [1, 2, 3, 4]
    assert [(o["infinity"], o["zero_locus"], o["sum"]) for o in objs] == [
        (2, 6, 8), (0, 4, 4), (2, 2, 4), (0, 0, 0)]
    traces = [o["trace"] for o in objs]
    assert traces == [traces[0], -traces[0], -traces[0], traces[0]]


@pytest.mark.parametrize("claim, digest", [
    ("weil_bound", "dd79bd48b34e6070a888f343c4c8ae4666ae63f4a6ef2e1bbbf8b12692683064"),
    ("charsum_consistency",
     "845eb55ad3f62b0eaa98298d64d860529be149ddaefc576087d436453a0b4c84"),
])
def test_verify_pattern_claims_frozen_bytes(claim, digest):
    # sha256 of the records as one window scan per pattern wrote them, down
    # to the tie order of weil_bound's worst_pattern
    res = run_cli("verify", claim, "--max-p", "2000", "--jobs", "1")
    assert res.returncode == 0
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest


# Random argv: each value from its real choices plus one bad value, every
# prime bound small enough that no table or sieve grows large, and --jobs at
# most 2, so that no more than two workers start.  Half the bounds are
# primes, so that most commands get past the prime check.
_P = (st.integers(-10, 600) | st.sampled_from(modarith.primes_in(3, 600))).map(str)
_FILTER = st.sampled_from([*sorted(cli._FILTERS), "2mod4"])


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(cli._DISPATCH)))
    if command == "count":
        objects = ["pattern", "graph", *cli._COUNT_KERNELS, "zeta"]
        argv = ["count", draw(st.sampled_from(objects)), "-p", draw(_P)]
        pattern = draw(st.none() | st.text("XYxyZ", max_size=12))
        if pattern is not None:
            argv += ["-S", pattern]
        graph_class = draw(st.none() | st.sampled_from(
            [*(g.value for g in cli.GraphClass), "K5"]))
        if graph_class is not None:
            argv += ["--class", graph_class]
    elif command == "verify":
        argv = ["verify", draw(st.sampled_from([*claims.CLAIMS, "nonsense"])),
                "--min-p", draw(_P), "--max-p", draw(_P),
                "--jobs", draw(st.sampled_from(["1", "2", "0", "x"])),
                "--filter", draw(_FILTER)]
    elif command == "satotate":
        argv = ["satotate", draw(st.sampled_from([*stats.curve_ids(), "zeta"])),
                "--max-p", draw(_P), "--filter", draw(_FILTER)]
    else:
        argv = [command, "-p", draw(_P)]
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=_argv())
def test_random_argv_exits_with_a_documented_code(argv):
    # any other exception escaping main would print a traceback
    with (contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(io.StringIO()) as err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if argv[0] == "count" and (("-S" in argv and argv[1] != "pattern")
                               or ("--class" in argv and argv[1] != "graph")):
        assert code == 2, argv
