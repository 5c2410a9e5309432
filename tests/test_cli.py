import hashlib
import json
import os
import subprocess
import sys

import pytest

from residue_lab import cli, k3

CLI = [sys.executable, "-m", "residue_lab.cli"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=env)


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


def test_count_pattern_case_insensitive():
    res = run_cli("count", "pattern", "-p", "17", "-S", "xxx")
    assert res.returncode == 0
    assert json.loads(res.stdout)["count"] == 0


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


def test_verify_env_jobs_default():
    res = run_cli("verify", "identity5", "--max-p", "30",
                  env_extra={"RESIDUE_LAB_JOBS": "2"})
    assert res.returncode == 0
    assert json.loads(res.stderr.splitlines()[0])["jobs"] == 2


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


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_invariant_violation_exits_3(monkeypatch, capsys, jobs):
    def broken(ctx):
        raise ArithmeticError(f"Hasse bound violated at p={ctx.p}")

    monkeypatch.setattr(k3, "count_S", broken)
    code = cli.main(["verify", "formula2", "--max-p", "30", "--jobs", jobs])
    err = capsys.readouterr().err
    assert code == 3
    assert "internal invariant violated: Hasse bound violated at p=" in err
    assert "Traceback" not in err


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
