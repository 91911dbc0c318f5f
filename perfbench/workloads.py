"""The four benchmark workloads: their seeded inputs and their output checks.

Every expected value is computed here, apart from the program: the
walled-Brauer presentation is enumerated from its definition, module
dimensions come from the paper's closed forms, and chain dimensions are
``3^(m+n)``.  Nothing is compared with a stored copy of earlier output.

A check returns ``(status, detail)``.  ``ok``: the output is complete and
correct.  ``failed``: the operation did not do what it was asked (an
unexpected exit code, a vacuous run, a negative control that did not
trip).  ``wrong``: the operation completed but its output is incorrect.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from typing import Callable

OK, FAILED, WRONG = "ok", "failed", "wrong"
EVAL_SEED = 20177
GENERATORS = ("E", "F", "K", "k", "B", "C")


@dataclass(frozen=True)
class Op:
    """One operation: a CLI call (``cli``) or an ops.py library call (``lib``)."""

    name: str
    mode: str
    args: tuple[str, ...]
    check: Callable[[int, str, str], tuple[str, str]]


# ---------------------------------------------------------------------------
# independent expectations
# ---------------------------------------------------------------------------

def qwb_relation_names(m: int, n: int) -> set[str]:
    """The walled-Brauer presentation on generators g_1..g_{m-1}, h_1..h_{n-1}, e."""
    g, h = range(1, m), range(1, n)
    names = {f"quad_g{j}" for j in g} | {f"quad_h{i}" for i in h}
    names |= {f"comm_g{j}_h{i}" for j in g for i in h}
    names |= {f"comm_g{a}_g{b}" for a in g for b in g if b - a > 1}
    names |= {f"comm_h{a}_h{b}" for a in h for b in h if b - a > 1}
    names |= {f"braid_g{j}" for j in range(1, m - 1)}
    names |= {f"braid_h{i}" for i in range(1, n - 1)}
    if m >= 1 and n >= 1:
        names.add("ee")
        if m >= 2:
            names.add("ege")
        if n >= 2:
            names.add("ehe")
        names |= {f"comm_e_g{j}" for j in g if j >= 2}
        names |= {f"comm_e_h{i}" for i in h if i >= 2}
        if m >= 2 and n >= 2:
            names |= {"eghinv_right", "eghinv_left"}
    return names


def chain_operator_names(m: int, n: int) -> list[str]:
    ops = [f"g{j}" for j in range(1, m)] + [f"h{i}" for i in range(1, n)]
    return ops + (["e"] if m >= 1 and n >= 1 else [])


def centralizer_names(m: int, n: int) -> set[str]:
    return {f"[{op},{gen}]" for op in chain_operator_names(m, n) for gen in GENERATORS}


def chain_contexts(max_mn: int) -> set[tuple[int, int]]:
    return {(m, total - m) for total in range(2, max_mn + 1) for m in range(total + 1)}


def module_dim(kind: str, s: int, r: int) -> int:
    """Closed-form dimensions: simples 2s-1, 2s+1, 4s; covers 8, 8s-4, 8s+4."""
    if kind == "Z":
        return 2 * s - 1 if r == 0 else 2 * s + 1 if r == s else 4 * s
    if r == 0:
        return 8 if s == 1 else 8 * s - 4
    return 8 * s + 4


_LABEL = re.compile(r"^([ZR])\[(-?1),(-?1);(\d+),(-?\d+)\]$")


def label_dim(text: str) -> int:
    kind, _a, _b, s, r = _LABEL.match(text).groups()
    return module_dim(kind, int(s), int(r))


def label_text(spec) -> str:
    kind, a, b, s, r = spec
    return f"{kind}[{a},{b};{s},{r}]"


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _exit_status(rc: int, err: str) -> tuple[str, str] | None:
    if rc == 0:
        return None
    if rc == 1 and "verification failed" in err:
        return WRONG, f"verification failure reported: {err.strip()[:300]}"
    return FAILED, f"exit code {rc}: {err.strip()[-300:]}"


def _json(out: str):
    return json.loads(out.strip().splitlines()[-1])


def check_chain_report(kind: str, max_mn: int, backend: str):
    """Every context, every eval point, exactly the expected checks, all ok."""
    expected = qwb_relation_names if kind == "relations" else centralizer_names

    def check(rc, out, err):
        bad = _exit_status(rc, err)
        if bad:
            return bad
        by_ctx: dict[tuple[int, int], dict[str, list[str]]] = {}
        for row in _json(out):
            if not row["ok"]:
                return WRONG, f"{row['relation']} fails at ({row['m']},{row['n']})"
            by_ctx.setdefault((row["m"], row["n"]), {}).setdefault(
                row["backend"], []).append(row["relation"])
        if set(by_ctx) != chain_contexts(max_mn):
            return WRONG, f"contexts {sorted(set(by_ctx) ^ chain_contexts(max_mn))} differ"
        points = None
        for (m, n), per_backend in by_ctx.items():
            backends = set(per_backend)
            if backend == "symbolic":
                if backends != {"symbolic"}:
                    return WRONG, f"backends {backends} at ({m},{n})"
            else:
                if len(backends) != 3 or not all(b.startswith("eval(q=") for b in backends):
                    return WRONG, f"expected three eval points at ({m},{n}), got {backends}"
                if points not in (None, backends):
                    return WRONG, f"eval points differ between contexts at ({m},{n})"
                points = backends
            want = expected(m, n)
            for b, names in per_backend.items():
                if len(names) != len(set(names)) or set(names) != want:
                    return WRONG, f"checks at ({m},{n}) [{b}] differ: {sorted(set(names) ^ want)}"
        return OK, ""

    return check


def check_nonvacuous(rc, out, err):
    """A sweep whose bound admits no context must be refused as a usage error."""
    if rc == 2:
        return OK, ""
    if rc == 0 and not _json(out):
        return FAILED, "exit 0 with zero checks; a vacuous run should be a usage error (exit 2)"
    return FAILED, f"exit code {rc}, expected 2"


def check_control(must_include: set[str]):
    def check(rc, out, err):
        bad = _exit_status(rc, err)
        if bad:
            return bad
        failures = set(_json(out)["failures"])
        if not failures:
            return FAILED, "negative control passed: the check cannot see the planted fault"
        if not must_include <= failures:
            return FAILED, f"negative control missed {sorted(must_include - failures)}"
        return OK, ""

    return check


def check_module_control(rc, out, err):
    bad = _exit_status(rc, err)
    if bad:
        return bad
    report = _json(out)
    if report["original"]:
        return WRONG, f"unmodified module fails {report['original']}"
    if "EF" not in report["failures"]:
        return FAILED, f"negative control missed EF, reported {report['failures']}"
    return OK, ""


def check_modules(labels):
    def check(rc, out, err):
        bad = _exit_status(rc, err)
        if bad:
            return bad
        rows = _json(out)
        if [row["label"] for row in rows] != [list(x) for x in labels]:
            return WRONG, "report does not cover the requested labels in order"
        for row in rows:
            kind, _a, _b, s, r = row["label"]
            want = module_dim(kind, s, r)
            if row["failures"]:
                return WRONG, f"{label_text(row['label'])} fails {row['failures']}"
            if (row["dim"], row["basis"]) != (want, want) or not row["square"]:
                return WRONG, f"{label_text(row['label'])} has dim {row['dim']}, want {want}"
        return OK, ""

    return check


def check_dump_rep(spec):
    want = module_dim(spec[0], spec[3], spec[4])

    def check(rc, out, err):
        bad = _exit_status(rc, err)
        if bad:
            return bad
        rep = _json(out)
        if rep["label"] != label_text(spec):
            return WRONG, f"label {rep['label']} for {label_text(spec)}"
        if rep["dim"] != want or len(rep["basis"]) != want:
            return WRONG, f"{rep['label']}: dim {rep['dim']}, basis {len(rep['basis'])}, want {want}"
        for gen, entries in rep["generators"].items():
            if any(not (0 <= r < want and 0 <= c < want) for r, c, _v in entries):
                return WRONG, f"{rep['label']}: {gen} has an entry outside {want}x{want}"
        return OK, ""

    return check


def check_label_sweep(relations: tuple[str, ...], max_mn: int, m_min: int):
    """Exactly one row per relation for each (m,n) with 1 <= m+n <= max_mn, m >= m_min."""
    want = {(rel, m, total - m) for total in range(1, max_mn + 1)
            for m in range(m_min, total + 1) for rel in relations}

    def check(rc, out, err):
        bad = _exit_status(rc, err)
        if bad:
            return bad
        rows = _json(out)
        got = [(r["relation"], r["m"], r["n"]) for r in rows]
        if len(got) != len(set(got)) or set(got) != want:
            return WRONG, f"{len(got)} rows, want {len(want)} distinct"
        bad_rows = [r for r in rows if not r["ok"]]
        if bad_rows:
            return WRONG, f"{bad_rows[0]['relation']} fails at ({bad_rows[0]['m']},{bad_rows[0]['n']})"
        return OK, ""

    return check


def check_decompose(m: int, n: int):
    def check(rc, out, err):
        bad = _exit_status(rc, err)
        if bad:
            return bad
        payload = _json(out)
        total = 3 ** (m + n)
        for item in payload["summands"]:
            if item["dim"] != label_dim(item["label"]):
                return WRONG, f"{item['label']} reported with dim {item['dim']}"
        dims = sum(item["mult"] * label_dim(item["label"]) for item in payload["summands"])
        if (payload["m"], payload["n"]) != (m, n) or dims != total or payload["total_dim"] != total:
            return WRONG, f"sum of mult*dim is {dims}, want 3^{m + n}"
        return OK, ""

    return check


def check_bimodule(m: int, n: int, semisimple: dict):
    def check(rc, out, err):
        bad = _exit_status(rc, err)
        if bad:
            return bad
        payload = _json(out)
        semisimple[(m, n)] = len(payload["semisimple"])
        if payload["audits"] != {"dim": True, "identity1": True, "identity2": True}:
            return WRONG, f"audits {payload['audits']} at ({m},{n})"
        return OK, ""

    return check


def check_table(m: int, n: int, semisimple: dict):
    """The (t,r) table has one cell per semisimple entry of the bimodule at (m,n)."""

    def check(rc, out, err):
        bad = _exit_status(rc, err)
        if bad:
            return bad
        cells = len(_json(out)["cells"])
        if cells != semisimple.pop((m, n), None):
            return WRONG, f"{cells} table cells at ({m},{n}), bimodule has a different count"
        return OK, ""

    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _cli(name, check, *args) -> Op:
    return Op(name, "cli", tuple(str(a) for a in args), check)


def _lib(name, check, kind, payload) -> Op:
    return Op(name, "lib", (kind, json.dumps(payload, sort_keys=True)), check)


def _chain_controls(rng: random.Random, point) -> list[Op]:
    delta_exp = rng.choice((-4, -3, -1, 1, 2))
    m, n = rng.choice(((2, 1), (1, 2)))
    gen = rng.choice(("E", "F", "B", "C"))
    common = {"eval_seed": EVAL_SEED, "point": point}
    return [
        _lib(f"qwb-control-delta-q^{delta_exp}", check_control({"quad_g1", "quad_h1"}),
             "qwb-control", dict(common, m=2, n=2, delta_exp=delta_exp)),
        _lib(f"centralizer-control-{gen}-({m},{n})", check_control(set()),
             "centralizer-control", dict(common, m=m, n=n, gen=gen)),
    ]


def chain_symbolic(rng: random.Random) -> list[Op]:
    ops = [
        _cli("verify-relations-6", check_chain_report("relations", 6, "symbolic"),
             "verify", "relations", "--max-mn", 6, "--jobs", 1, "--json"),
        _cli("verify-centralizer-6", check_chain_report("centralizer", 6, "symbolic"),
             "verify", "centralizer", "--max-mn", 6, "--jobs", 1, "--json"),
        _cli("verify-relations-1", check_nonvacuous,
             "verify", "relations", "--max-mn", 1, "--jobs", 1, "--json"),
    ]
    return ops + _chain_controls(rng, None)


def chain_eval(rng: random.Random) -> list[Op]:
    ops = [
        _cli("verify-relations-eval-6", check_chain_report("relations", 6, "eval"),
             "verify", "relations", "--backend", "eval", "--seed", EVAL_SEED,
             "--max-mn", 6, "--jobs", 1, "--json"),
        _cli("verify-centralizer-eval-5", check_chain_report("centralizer", 5, "eval"),
             "verify", "centralizer", "--backend", "eval", "--seed", EVAL_SEED,
             "--max-mn", 5, "--jobs", 1, "--json"),
    ]
    return ops + _chain_controls(rng, rng.randrange(3))


SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def modules(rng: random.Random) -> list[Op]:
    """Acceptance criterion 3's label set in seeded order, plus larger dump-reps."""
    labels = [("Z", a, b, s, r) for a, b in SIGNS for s in range(1, 6) for r in range(-3, s + 4)]
    labels += [("R", a, b, s, r) for a, b in SIGNS for s in range(1, 5) for r in (0, s)]
    rng.shuffle(labels)
    a, b = rng.choice(SIGNS)
    control = ("Z", a, b, 4, rng.randrange(1, 4))  # a typical simple; the cost hardly varies
    ops = [
        _lib("build-and-check", check_modules(labels), "modules", {"labels": labels}),
        _lib(f"module-control-{label_text(control)}", check_module_control,
             "module-control", {"label": control}),
    ]
    for kind, s in (("Z", 15), ("Z", 20), ("R", 12), ("R", 16)):
        a, b = rng.choice(SIGNS)
        r = rng.randrange(1, s) if kind == "Z" else rng.choice((0, s))
        spec = (kind, a, b, s, r)
        ops.append(_cli(f"dump-rep-{label_text(spec)}", check_dump_rep(spec),
                        "dump-rep", label_text(spec)))
    return ops


def _split(rng: random.Random, total: int) -> tuple[int, int]:
    m = rng.randrange(total // 3, 2 * total // 3 + 1)
    return m, total - m


def labels(rng: random.Random) -> list[Op]:
    ops = [
        _cli("verify-identities-25",
             check_label_sweep(("induction-tensor", "induction-proj"), 25, 1),
             "verify", "identities", "--max-mn", 25, "--json"),
        _cli("verify-dims-25", check_label_sweep(("bimodule-audit",), 25, 0),
             "verify", "dims", "--max-mn", 25, "--json"),
    ]
    for total in (40, 50, 60):
        m, n = _split(rng, total)
        ops.append(_cli(f"decompose-{m}-{n}", check_decompose(m, n), "decompose", m, n))
    semisimple: dict[tuple[int, int], int] = {}  # filled by each bimodule check
    for total in (24, 30, 36):
        m, n = _split(rng, total)
        ops.append(_cli(f"bimodule-{m}-{n}", check_bimodule(m, n, semisimple), "bimodule", m, n))
        ops.append(_cli(f"table-{m}-{n}", check_table(m, n, semisimple),
                        "table", m, n, "--json"))
    return ops


WORKLOADS = {
    "chain-symbolic": chain_symbolic,
    "chain-eval": chain_eval,
    "modules": modules,
    "labels": labels,
}


def make_ops(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
