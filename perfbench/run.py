"""Benchmark for mixedchain: chain verification, module builders, label layer.

    python3 perfbench/run.py                        # all four workloads, untraced
    python3 perfbench/run.py --workload labels --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload modules --trace 1   # per-layer metrics
    python3 perfbench/run.py --steadiness                   # two sets of runs

Each operation runs in a fresh interpreter that imports ``mixedchain`` from
this checkout's ``src/``, one at a time, and every output is checked (see
workloads.py).  A run repeats whole rounds of its workload's operations
until ``--seconds`` have passed (by default ``run_seconds`` of
BENCHMARK.json, for each workload), and reports per-round medians.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads
from workloads import FAILED, OK, WRONG

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

OP_TIMEOUT_S = 120
STEADY_RUNS = 5  # runs in each of the two steadiness sets

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_SELF = ("qarith", "sparse", "uqmod", "chainrep", "fusion", "partitions", "xcat", "bimod",
              "cli")
LAYER_COUNTS = {
    "qarith.scalar_ops": [f"qarith.QScalar.{m}" for m in
                          ("__add__", "__sub__", "__mul__", "__truediv__", "invert")],
    "qarith.gcd_calls": ["qarith.lp_gcd"],
    "qarith.evals": ["qarith.QScalar.eval_at"],
    "sparse.matmuls": ["sparse.SparseMatrix.__mul__"],
    "uqmod.modules_built": ["uqmod.build_simple", "uqmod.build_projective"],
    "fusion.fuse_calls": ["fusion.fuse_with_f", "fusion.fuse_with_v"],
    "partitions.atypical_set_calls": ["partitions.atypical_set"],
    "partitions.cross_tests": ["partitions.is_cross"],
    "xcat.restriction_calls": ["xcat.res_right_d", "xcat.res_right_k", "xcat.res_right_s"],
    "bimod.identity_calls": ["bimod.verify_identity_tensor", "bimod.verify_identity_proj"],
}
LAYER_EXTRA = {"sparse.matmul_terms": "matmul_terms", "sparse.max_nnz": "max_nnz",
               "chainrep.contexts": "contexts", "chainrep.checks": "checks",
               "chainrep.max_dim": "max_dim"}
LAYER_GROUPS = ("sparse.embed_s", "uqmod.build_s", "uqmod.residual_s", "chainrep.operator_s",
                "chainrep.coproduct_s")
CHECK_FUNCTIONS = ("chainrep.check_qwb_relations", "chainrep.check_centralizer")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("PYTHONSTARTUP", None)
    return env


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap proc and return its own resource usage, killing it after timeout."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def spawn(argv: list[str]):
    """Run argv from the checkout root; return (seconds, maxrss_kb, rc, stdout, stderr)."""
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        usage = _wait(proc, OP_TIMEOUT_S)
        seconds = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        return (seconds, usage.ru_maxrss, proc.returncode,
                out.read().decode(errors="replace"), err.read().decode(errors="replace"))


def op_argv(op: workloads.Op, trace_file: Path | None) -> list[str]:
    if trace_file is not None:
        return [sys.executable, str(BENCH / "tracer.py"), str(trace_file), op.mode, *op.args]
    if op.mode == "cli":
        return [sys.executable, "-m", "mixedchain.cli", *op.args]
    return [sys.executable, str(BENCH / "ops.py"), *op.args]


# ---------------------------------------------------------------------------
# set-up time and the import guard
# ---------------------------------------------------------------------------

_READY = ("import time, mixedchain.cli as cli; "
          "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC), cli.__file__)")


def _setup_once() -> float:
    """Seconds from spawning an interpreter until mixedchain.cli is imported."""
    with tempfile.TemporaryFile(dir=OUT) as out:
        start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen([sys.executable, "-c", _READY], cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.DEVNULL)
        _wait(proc, 60)
        out.seek(0)
        text = out.read().decode().split(maxsplit=1)
    if proc.returncode != 0 or len(text) != 2:
        raise BenchError(f"cannot import mixedchain.cli from {SRC}")
    ready, origin = int(text[0]), Path(text[1].strip()).resolve()
    if not origin.is_relative_to(SRC.resolve()):
        raise BenchError(f"mixedchain would be imported from {origin}, not from {SRC}")
    return (ready - start) / 1e9


def guard() -> None:
    """Refuse to run unless mixedchain is imported from this checkout's src/."""
    if not (SRC / "mixedchain" / "cli.py").is_file():
        raise BenchError(f"no mixedchain package under {SRC}")
    _setup_once()  # also fills the bytecode cache before any timing


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

def run_round(ops: list[workloads.Op], traced: bool) -> dict:
    """Run every operation once; untraced rounds also time one set-up before each."""
    wall, peak_kb, statuses, traces, setups = 0.0, 0, [], [], []
    for index, op in enumerate(ops):
        if not traced:
            setups.append(_setup_once())
        trace_file = OUT / f"trace-{os.getpid()}-{index}.json" if traced else None
        seconds, rss_kb, rc, out, err = spawn(op_argv(op, trace_file))
        wall += seconds
        peak_kb = max(peak_kb, rss_kb)
        try:
            status, detail = op.check(rc, out, err)
        except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
            status, detail = WRONG, f"unreadable output ({exc!r}); exit code {rc}"
        statuses.append((op.name, status, detail))
        if trace_file is not None:
            if trace_file.exists():
                trace = json.loads(trace_file.read_text())
                trace_file.unlink()
            else:
                trace = None
            traces.append((op.name, trace))
    return {"wall": wall, "peak_kb": peak_kb, "statuses": statuses, "traces": traces,
            "setups": setups}


def layer_metrics(traces) -> dict[str, float]:
    """Per-layer metrics of one traced round, summed over its operations."""
    metrics = {f"{layer}.self_s": 0.0 for layer in LAYER_SELF}
    metrics.update({name: 0 for name in LAYER_COUNTS})
    metrics.update({name: 0.0 for name in LAYER_GROUPS})
    metrics.update({name: 0 for name in LAYER_EXTRA})
    metrics["chainrep.check_s"] = 0.0
    for _name, trace in traces:
        if trace is None:
            continue
        functions = trace["functions"]
        for fname, (_calls, self_s) in functions.items():
            metrics[f"{fname.split('.', 1)[0]}.self_s"] += self_s
        for metric, members in LAYER_COUNTS.items():
            metrics[metric] += sum(functions.get(f, (0, 0.0))[0] for f in members)
        for metric in LAYER_GROUPS:
            metrics[metric] += trace["groups"][metric]
        metrics["chainrep.check_s"] += sum(functions.get(f, (0, 0.0))[1]
                                           for f in CHECK_FUNCTIONS)
        for metric, key in LAYER_EXTRA.items():
            if metric.endswith(("max_nnz", "max_dim")):
                metrics[metric] = max(metrics[metric], trace["extra"][key])
            else:
                metrics[metric] += trace["extra"][key]
    return metrics


PER_LAYER_UNITS = {**{f"{layer}.self_s": "s" for layer in LAYER_SELF},
                   **{name: "count" for name in LAYER_COUNTS},
                   **{name: "s" for name in LAYER_GROUPS},
                   **{name: "count" for name in LAYER_EXTRA},
                   "chainrep.check_s": "s", "trace.overhead_s": "s"}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = workloads.make_ops(name, seed)
    start = time.perf_counter()
    plain, traced = [], []
    while True:
        plain.append(run_round(ops, traced=False))
        if trace:
            traced.append(run_round(ops, traced=True))
        if time.perf_counter() - start >= seconds:
            break
    rounds = plain + traced
    statuses = [s for rnd in rounds for s in rnd["statuses"]]
    result = {
        "workload": name,
        "rounds": len(plain),
        "correct": all(status != WRONG for _n, status, _d in statuses),
        "attempted": len(statuses),
        "failed": sum(status == FAILED for _n, status, _d in statuses),
        "problems": sorted({(n, status, d) for n, status, d in statuses if status != OK}),
    }
    if trace:
        per_round = [layer_metrics(rnd["traces"]) for rnd in traced]
        metrics = {key: statistics.median_low(r[key] for r in per_round) for key in per_round[0]}
        metrics["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                       - statistics.median(r["wall"] for r in plain))
        result["metrics"] = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                             for k, v in sorted(metrics.items())}
        write_spans(name, seed, traced[-1]["traces"])
    else:
        metrics = {"wall_s": statistics.median(r["wall"] for r in plain),
                   "setup_s": statistics.median(s for r in plain for s in r["setups"]),
                   "peak_rss_mb": statistics.median(r["peak_kb"] for r in plain) / 1024}
        result["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    return result


def write_spans(workload: str, seed: int, traces) -> None:
    path = OUT / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"provenance": provenance(seed),
                                "operations": [{"name": n, **(t or {})} for n, t in traces]}))


# ---------------------------------------------------------------------------
# provenance and reporting
# ---------------------------------------------------------------------------

def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "workload_seed": seed, "eval_seed": workloads.EVAL_SEED}


def print_workload(result: dict) -> None:
    print(f"workload {result['workload']}: {result['rounds']} rounds, "
          f"{result['attempted']} operations attempted, {result['failed']} failed, "
          f"correct={str(result['correct']).lower()}")
    for key, metric in result["metrics"].items():
        print(f"  {key:32s} {metric['value']:.6g} {metric['unit']}")
    for name, status, detail in result["problems"]:
        print(f"  {status}: {name}: {detail}")


def run_many(names: list[str], seed: int, seconds: float, trace: bool) -> dict:
    print("provenance " + json.dumps(provenance(seed), sort_keys=True), flush=True)
    results = [run_workload(name, seed, seconds, trace) for name in names]
    for result in results:
        print_workload(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


# ---------------------------------------------------------------------------
# steadiness: two sets of runs per workload
# ---------------------------------------------------------------------------

def spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def steadiness(names: list[str], seed: int, seconds: int) -> bool:
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    steady = True
    for name in names:
        sets = []
        for first in (seed, seed + STEADY_RUNS):
            sets.append([run_workload(name, run_seed, seconds, False)
                         for run_seed in range(first, first + STEADY_RUNS)])
        (OUT / f"steadiness-{name}.json").write_text(json.dumps(sets))
        shares = {(r["failed"], r["attempted"]) for s in sets for r in s}
        share_ok = len({f / a for f, a in shares}) == 1
        print(f"workload {name}: failed share {sorted(shares)} "
              f"{'equal' if share_ok else 'DIFFERS'}")
        steady &= share_ok and all(r["correct"] for s in sets for r in s)
        for metric, bound in bounds.items():
            rows = []
            for results in sets:
                q1, med, q3 = statistics.quantiles(
                    [r["metrics"][metric]["value"] for r in results], n=4)
                rows.append((med, q1, q3, (q3 - q1) / med))
            q1, med, q3 = statistics.quantiles(
                [r["metrics"][metric]["value"] for s in sets for r in s], n=4)
            change = rows[1][0] / rows[0][0] - 1
            ok = abs(change) <= bound and all(row[3] <= bound for row in rows)
            steady &= ok
            cells = "  ".join(f"set{i + 1} median {m:.5g} q1 {a:.5g} q3 {b:.5g} spread {s:.3f}"
                              for i, (m, a, b, s) in enumerate(rows))
            print(f"  {metric:12s} {cells}  all {2 * STEADY_RUNS} spread {(q3 - q1) / med:.3f}  "
                  f"second/first {change:+.3f} bound {bound} {'agree' if ok else 'DISAGREE'}",
                  flush=True)
    return steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        help="length of each workload's run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true",
                        help=f"two sets of {STEADY_RUNS} untraced runs per workload")
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        OUT.mkdir(exist_ok=True)
        guard()
        seconds = spec()["run_seconds"] if args.seconds is None else args.seconds
        if args.steadiness:
            steady = steadiness(names, args.seed, seconds)
            print(json.dumps({"steady": steady}))
            return 0 if steady else 1
        print(json.dumps(run_many(names, args.seed, seconds, bool(args.trace))))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
