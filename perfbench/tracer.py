"""Span tracer for one benchmark operation, applied from outside the package.

    python3 perfbench/tracer.py OUT_JSON cli ARG...     # one mixedchain CLI call
    python3 perfbench/tracer.py OUT_JSON lib KIND PAYLOAD  # one operation of ops.py

Before the operation runs, the public functions and methods of every layer
module (``LAYERS``) are replaced by timing wrappers; nothing under ``src/``
is edited.  A call opens a span when it crosses into a layer from another
layer (or from the benchmark); calls inside one layer are only counted,
which keeps the overhead on hot inner helpers low without changing any
layer's self time.  Functions named in ``ALWAYS_SPAN`` open a span on
every call, because a per-layer metric times them.

Spans are kept in memory, up to ``SPAN_CAP`` per operation, and written to
OUT_JSON with per-function counts and self times when the operation ends.
A span is ``[id, parent_id, name, start, end]``; parent 0 is the
operation itself.  A span's self time is its duration minus that of its
child spans, and a layer's self time is the sum over its functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("qarith", "sparse", "uqmod", "chainrep", "fusion", "partitions", "xcat", "bimod", "cli")

# Arithmetic dunders that are layer entry points.
DUNDERS = {
    "QScalar": ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__"),
    "SparseMatrix": ("__add__", "__sub__", "__mul__", "__neg__"),
}

# Inclusive times: the outermost call of any member counts, nested ones do not.
GROUPS = {
    "sparse.embed_s": ("sparse.embed_factor", "sparse.embed_with_diags",
                       "sparse.SparseMatrix.kron", "sparse.SparseMatrix.map_values"),
    "uqmod.build_s": ("uqmod.build_simple", "uqmod.build_projective"),
    "uqmod.residual_s": ("uqmod.relation_residuals", "uqmod.check_relations"),
    "chainrep.operator_s": ("chainrep.ChainContext.chain_operator",),
    "chainrep.coproduct_s": ("chainrep.ChainContext.quantum_group_action",),
}

ALWAYS_SPAN = frozenset(
    {name for members in GROUPS.values() for name in members}
    | {"sparse.SparseMatrix.__mul__", "chainrep.check_qwb_relations",
       "chainrep.check_centralizer"})

SPAN_CAP = 20000


def _nnz(mat) -> int:
    return sum(len(row) for row in mat.rows.values())


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [id, layer, child_seconds]
        self.spans = []
        self.dropped = 0
        self.next_id = 0
        self.stats = {}  # qualified name -> [calls, self_seconds]
        self.groups = {g: 0.0 for g in GROUPS}
        self.depth = {g: 0 for g in GROUPS}
        self.extra = {"matmul_terms": 0, "max_nnz": 0, "checks": 0, "max_dim": 0}
        self.checked = set()  # distinct (m, n) handed to the check functions
        self.sparse_class = None
        self.probes = {
            "sparse.SparseMatrix.__mul__": self._probe_matmul,
            "chainrep.check_qwb_relations": self._probe_check,
            "chainrep.check_centralizer": self._probe_check,
        }

    # -- probes run after the span closes; their cost is kept out of every layer

    def _probe_matmul(self, args, result):
        left, right = args
        orows = right.rows
        self.extra["matmul_terms"] += sum(len(orows.get(k, ())) for row in left.rows.values()
                                          for k in row)
        self._probe_sparse(args, result)

    def _probe_sparse(self, args, result):
        if isinstance(result, self.sparse_class):
            self.extra["max_nnz"] = max(self.extra["max_nnz"], _nnz(result))

    def _probe_check(self, args, result):
        self.extra["checks"] += len(result)
        self.checked.add((args[0].m, args[0].n))
        self.extra["max_dim"] = max(self.extra["max_dim"], args[0].dim)

    def wrap(self, fn, name: str, layer: str):
        st = self.stats.setdefault(name, [0, 0.0])
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        always = name in ALWAYS_SPAN
        group = next((g for g, members in GROUPS.items() if name in members), None)
        probe = self.probes.get(name, self._probe_sparse if layer == "sparse" else None)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st[0] += 1
            if not always and stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            tracer.next_id += 1
            frame = [tracer.next_id, layer, 0.0]
            if group is not None:
                tracer.depth[group] += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                st[1] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if group is not None:
                    tracer.depth[group] -= 1
                    if not tracer.depth[group]:
                        tracer.groups[group] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((frame[0], stack[-1][0] if stack else 0, name, start, end))
                else:
                    tracer.dropped += 1
            if probe is not None:
                t0 = clock()
                probe(args, result)
                if stack:
                    stack[-1][2] += clock() - t0
            return result

        return traced

    def install(self):
        """Wrap every layer module and repoint all references to the originals."""
        modules = {layer: importlib.import_module(f"mixedchain.{layer}") for layer in LAYERS}
        self.sparse_class = modules["sparse"].SparseMatrix
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, layer)
                elif attr == "main" or not attr.startswith("_"):
                    new = self._wrap_function(obj, f"{layer}.{attr}", layer)
                    if new is not None:
                        replaced[id(obj)] = new  # the originals stay alive, so ids are unique
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("mixedchain"):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])

    def _wrap_function(self, obj, name, layer):
        if hasattr(obj, "cache_info") and hasattr(obj, "__wrapped__"):
            # an lru_cache: time the computations, i.e. the misses
            maxsize = obj.cache_parameters()["maxsize"]
            return functools.lru_cache(maxsize=maxsize)(self.wrap(obj.__wrapped__, name, layer))
        if inspect.isfunction(obj):
            return self.wrap(obj, name, layer)
        return None

    def _wrap_class(self, cls, layer):
        wanted = DUNDERS.get(cls.__name__, ())
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in wanted:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(raw.__func__, name, layer)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(raw, name, layer))

    def dump(self, path: Path, returncode: int):
        path.write_text(json.dumps({
            "returncode": returncode,
            "spans": self.spans,
            "dropped": self.dropped,
            "functions": self.stats,
            "groups": self.groups,
            "extra": {**self.extra, "contexts": len(self.checked)},
        }))


def main(argv) -> int:
    out, mode, *rest = argv
    tracer = Tracer()
    tracer.install()
    rc = 1
    try:
        if mode == "cli":
            import mixedchain.cli

            rc = mixedchain.cli.main(rest)
        else:
            import ops  # the script's own directory is on sys.path

            rc = ops.main(rest)
    finally:
        sys.stdout.flush()
        tracer.dump(Path(out), rc)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
