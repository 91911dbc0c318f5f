import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mixedchain.cli import main, parse_label
from mixedchain.labels import R, Z, ZLabel, bar


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_label():
    assert parse_label("Z[1,-1;3,2]") == Z(1, -1, 3, 2)
    assert parse_label("R[1,1;2,0]") == R(1, 1, 2, 0)
    with pytest.raises(ValueError):
        parse_label("Q[1,1;2,0]")


def _old_label_str(x):
    # the text that fusion.label_str wrote before the labels' own str took over
    kind = "Z" if isinstance(x, ZLabel) else "R"
    return f"{kind}[{x.alpha},{x.beta};{x.s},{x.r}]"


def _old_bar_str(z):
    # the text that cli._bar_str wrote before the labels' own str took over
    return f"{z.kind}bar[{z.p};{z.t},{z.r}]"


def test_label_text_round_trips():
    signs = [(a, b) for a in (1, -1) for b in (1, -1)]
    labels = [Z(a, b, s, r) for a, b in signs for s in range(7)
              for r in (range(-8, 15) if s else (0,))]
    labels += [R(a, b, s, r) for a, b in signs for s in range(1, 7) for r in (0, s)]
    for x in labels:
        assert str(x) == _old_label_str(x), x
        assert parse_label(str(x)) == x, x
    bars = [bar(kind, p, t, r) for kind in ("Z", "R") for p in range(-1, 3)
            for t in range(-3, 8) for r in range(-3, 8) if kind == "Z" or not t * r]
    for z in bars:
        assert str(z) == _old_bar_str(z), z


def test_decompose_golden(capsys):
    code, out, _ = run(capsys, "decompose", "2", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["total_dim"] == 27
    assert payload["summands"] == [
        {"label": "Z[1,-1;1,1]", "mult": 1, "dim": 3},
        {"label": "Z[1,-1;3,2]", "mult": 1, "dim": 12},
        {"label": "R[1,-1;1,1]", "mult": 1, "dim": 12},
    ]


def test_decompose_deterministic(capsys):
    _, out1, _ = run(capsys, "decompose", "3", "2")
    _, out2, _ = run(capsys, "decompose", "3", "2")
    assert out1 == out2


def test_decompose_usage_error(capsys):
    code, _, err = run(capsys, "decompose", "0", "0")
    assert code == 2
    assert "error" in json.loads(err)


def test_table_output(capsys):
    code, out, _ = run(capsys, "table", "5", "3")
    assert code == 0
    assert out.startswith(",t=-2,t=-1,t=0,t=1,t=2,t=3\n")
    assert "[3,2 | 1^3]" in out


def test_bimodule_audits(capsys):
    code, out, _ = run(capsys, "bimodule", "2", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["audits"] == {"dim": True, "identity1": True, "identity2": True}
    assert len(payload["atypical"]["vertices"]) == 5


def test_dump_rep(capsys):
    code, out, _ = run(capsys, "dump-rep", "Z[1,-1;1,1]")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 3
    assert payload["generators"]["B"] == [[1, 0, "1"]]
    assert payload["generators"]["K"][1] == [1, 1, "q"]


def test_verify_identities_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "identities", "--max-mn", "4")
    assert code == 0
    assert "FAIL" not in out


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "dims", "--max-mn", "3", "--json")
    assert code == 0
    report = json.loads(out)
    assert all(r["ok"] for r in report)


def test_verify_relations_eval_backend(capsys):
    code, out, _ = run(capsys, "verify", "relations", "--max-mn", "3",
                       "--backend", "eval", "--seed", "5")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("verify", "--max-mn", "0"),
    ("verify", "identities", "--max-mn", "0"),
    ("verify", "dims", "--max-mn", "-3"),
    ("verify", "relations", "--max-mn", "1"),
    ("verify", "centralizer", "--max-mn", "-3", "--json"),
])
def test_verify_bound_without_contexts_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "admits no context" in json.loads(err)["error"]


@pytest.mark.parametrize("argv", [
    ("verify", "identities", "--max-mn", "2", "--jobs", "0"),
    ("decompose", "2", "1", "--jobs", "-1"),
    ("bimodule", "0", "0"),
    ("table", "0", "0"),
    ("table", "0", "0", "--json"),
    ("decompose", "x", "1"),
    ("verify", "bogus"),
])
def test_invalid_jobs_or_context_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)


def test_help_exits_zero(capsys):
    for argv in (("--help",), ("verify", "--help")):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.startswith("usage: mixedchain")


@pytest.mark.parametrize("backend", ["symbolic", "eval"])
def test_verify_worker_pool_matches_serial(capsys, backend):
    argv = ("verify", "relations", "--max-mn", "3", "--json", "--backend", backend)
    code1, out1, _ = run(capsys, *argv, "--jobs", "1")
    code2, out2, _ = run(capsys, *argv, "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2 and json.loads(out1)


def test_worker_pool_is_bounded_by_tasks_and_cpus(capsys, monkeypatch):
    import concurrent.futures

    import mixedchain.cli as cli

    started = []

    class FakePool:
        """Records the pool size and runs the tasks in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    argv = ("verify", "relations", "--max-mn", "2", "--json")
    _, serial, _ = run(capsys, *argv, "--jobs", "1")
    # --max-mn 2 has three contexts: (0,2), (1,1) and (2,0)
    for jobs, cpus, expect in (("5000", 8, [3]), ("2", 8, [2]), ("5000", 2, [2]),
                               ("5000", 1, [])):
        monkeypatch.setattr(cli, "_usable_cpus", lambda cpus=cpus: cpus)
        started.clear()
        code, out, _ = run(capsys, *argv, "--jobs", jobs)
        assert code == 0 and out == serial, (jobs, cpus)
        assert started == expect, (jobs, cpus)


def test_verify_smallest_bounds_run_checks(capsys):
    for suite, bound in (("relations", "2"), ("identities", "1"), ("dims", "1")):
        code, out, _ = run(capsys, "verify", suite, "--max-mn", bound, "--json")
        assert code == 0
        assert json.loads(out), suite


def test_unknown_label_errors(capsys):
    code, _, err = run(capsys, "dump-rep", "Z[2,1;1,1]")
    assert code == 2


def test_verify_failure_exit_code(capsys, monkeypatch):
    import mixedchain.cli as cli

    def broken(max_mn):
        return [{"relation": "induction-tensor", "m": 1, "n": 0,
                 "backend": "labels", "ok": False}]

    monkeypatch.setattr(cli, "_verify_identities", broken)
    code, out, err = run(capsys, "verify", "identities")
    assert code == 1
    assert "FAIL" in out
    assert json.loads(err)["error"] == "verification failed"


def test_internal_error_exit_code(capsys, monkeypatch):
    import mixedchain.fusion as fusion

    def broken(m, n):
        raise AssertionError("library guard tripped")

    monkeypatch.setattr(fusion, "chain_decompose", broken)
    code, out, err = run(capsys, "decompose", "2", "1")
    assert code == 3
    assert out == ""
    assert json.loads(err) == {"error": "internal error", "type": "AssertionError",
                               "detail": "library guard tripped"}


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("argv", [("decompose", "2", "1"),
                                  ("verify", "centralizer", "--max-mn", "4", "--json"),
                                  ("--help",), ("verify", "--help")])
def test_closed_stdout_exits_141_silently(argv, unbuffered):
    # unbuffered, the first print meets the closed pipe; buffered, the final flush does
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes anything
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
           "PYTHONUNBUFFERED": unbuffered}
    try:
        proc = subprocess.run([sys.executable, "-m", "mixedchain.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""
