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


def test_decompose_prints_summands_in_label_order(capsys):
    # the chain content is unordered; the renderer is the one place that sorts
    from mixedchain.fusion import _label_sort_key

    for m in range(21):
        for n in range(max(1 - m, 0), 21 - m):
            code, out, _ = run(capsys, "decompose", str(m), str(n))
            assert code == 0, (m, n)
            summands = json.loads(out)["summands"]
            keys = [_label_sort_key(parse_label(s["label"])) for s in summands]
            assert keys == sorted(keys) and len(set(keys)) == len(keys), (m, n)
            assert sum(s["mult"] * s["dim"] for s in summands) == 3 ** (m + n), (m, n)


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


_JOBS_RUN = """
import contextlib, io, json, sys
from mixedchain.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main({argv!r})
print(json.dumps([code, out.getvalue(), sorted(sys.modules)]))
"""


@pytest.mark.parametrize("argv", [("relations", "--max-mn", "3"),
                                  ("centralizer", "--max-mn", "3", "--backend", "eval")],
                         ids=["symbolic", "eval"])
def test_jobs_starts_no_worker_pool(argv):
    # every N prints the same report from one process, in a fresh interpreter
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    outputs = []
    for jobs in ("1", "2", "5000"):
        statement = _JOBS_RUN.format(argv=["verify", *argv, "--json", "--jobs", jobs])
        proc = subprocess.run([sys.executable, "-c", statement], env=env,
                              capture_output=True, text=True, check=True)
        code, out, modules = json.loads(proc.stdout)
        assert code == 0 and json.loads(out), jobs
        assert "concurrent.futures.process" not in modules, jobs
        assert "multiprocessing" not in modules, jobs
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def _relation_names(m, n):
    """The walled-Brauer relations checked on (m,n), in report order."""
    g, h = range(1, m), range(1, n)
    names = [f"quad_g{j}" for j in g] + [f"quad_h{i}" for i in h]
    names += [f"comm_g{j}_h{i}" for j in g for i in h]
    names += [f"comm_g{a}_g{b}" for a in g for b in g if b - a > 1]
    names += [f"comm_h{a}_h{b}" for a in h for b in h if b - a > 1]
    names += [f"braid_g{j}" for j in range(1, m - 1)]
    names += [f"braid_h{i}" for i in range(1, n - 1)]
    if m >= 1 and n >= 1:
        names += ["ee"] + ["ege"] * (m >= 2) + ["ehe"] * (n >= 2)
        names += [f"comm_e_g{j}" for j in range(2, m)]
        names += [f"comm_e_h{i}" for i in range(2, n)]
        names += ["eghinv_right", "eghinv_left"] * (m >= 2 and n >= 2)
    return names


def _centralizer_names(m, n):
    """Each chain operator against each coproduct generator, in report order."""
    ops = [f"g{j}" for j in range(1, m)] + [f"h{i}" for i in range(1, n)]
    ops += ["e"] * (m >= 1 and n >= 1)
    return [f"[{op},{gen}]" for op in ops for gen in ("E", "F", "K", "k", "B", "C")]


# suite -> (first m+n, first m, backend, the check names of one context)
_DOCUMENTED = {
    "relations": (2, 0, "symbolic", _relation_names),
    "centralizer": (2, 0, "symbolic", _centralizer_names),
    "identities": (1, 1, "labels", lambda m, n: ["induction-tensor", "induction-proj"]),
    "dims": (1, 0, "labels", lambda m, n: ["bimodule-audit"]),
}


@pytest.mark.parametrize("suite", sorted(_DOCUMENTED))
def test_suite_rows_cover_exactly_the_documented_contexts(capsys, suite):
    first_total, first_m, backend, names = _DOCUMENTED[suite]
    bound = 5
    code, out, _ = run(capsys, "verify", suite, "--max-mn", str(bound), "--json")
    assert code == 0
    want = [{"relation": name, "m": m, "n": total - m, "backend": backend, "ok": True}
            for total in range(first_total, bound + 1) for m in range(first_m, total + 1)
            for name in names(m, total - m)]
    assert json.loads(out) == want


def _diagonal_sweep(suite, max_mn, backend="symbolic", seed=20177):
    """The sweep loop as it was before the contexts were computed column by
    column: diagonal by diagonal, already in report order."""
    from mixedchain.cli import _SUITES

    _, first_total, first_m, checks = _SUITES[suite]
    return [{"relation": relation, "m": m, "n": total - m, "backend": label, "ok": ok}
            for total in range(first_total, max_mn + 1) for m in range(first_m, total + 1)
            for relation, label, ok in checks(m, total - m, backend, seed)]


@pytest.mark.parametrize("suite", ["relations", "centralizer", "identities", "dims"])
def test_sweep_rows_match_the_diagonal_order(suite):
    from mixedchain.cli import _sweep

    assert _sweep(suite, 9) == _diagonal_sweep(suite, 9)


def test_verify_smallest_bounds_run_checks(capsys):
    for suite, bound in (("relations", "2"), ("identities", "1"), ("dims", "1")):
        code, out, _ = run(capsys, "verify", suite, "--max-mn", bound, "--json")
        assert code == 0
        assert json.loads(out), suite


def test_unknown_label_errors(capsys):
    code, _, err = run(capsys, "dump-rep", "Z[2,1;1,1]")
    assert code == 2


def test_verify_failure_exit_code(capsys, monkeypatch):
    import mixedchain.bimod as bimod

    def broken(m, n):
        return (m, n) != (1, 0), True

    monkeypatch.setattr(bimod, "verify_identities", broken)
    code, out, err = run(capsys, "verify", "identities")
    assert code == 1
    assert "FAIL" in out
    assert json.loads(err) == {"error": "verification failed", "failures": [
        {"relation": "induction-tensor", "m": 1, "n": 0, "backend": "labels", "ok": False}]}


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
