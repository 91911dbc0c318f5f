"""Library-level benchmark operations, each run in a fresh interpreter.

    python3 perfbench/ops.py KIND PAYLOAD_JSON

KIND is one of ``modules``, ``qwb-control``, ``centralizer-control`` and
``module-control``.  The payload holds the generated inputs; the operation
prints one JSON object on stdout and leaves every verdict to the caller.
The three controls feed the checks deliberately wrong data, so their
reports must contain failures.
"""

from __future__ import annotations

import dataclasses
import json
import sys

from mixedchain.chainrep import ChainContext, chain_params, check_centralizer, check_qwb_relations
from mixedchain.qarith import QScalar, eval_points, qpow
from mixedchain.uqmod import ExplicitRep, R, Z, build_rep, check_relations


def _label(spec):
    kind, alpha, beta, s, r = spec
    return (Z if kind == "Z" else R)(alpha, beta, s, r)


def _point(payload):
    index = payload.get("point")
    return None if index is None else eval_points(payload["eval_seed"])[index]


def _failures(results) -> list[str]:
    return [r.relation for r in results if not r.ok]


def modules(payload):
    """Build every label of the payload and check all its defining relations."""
    out = []
    for spec in payload["labels"]:
        rep = build_rep(_label(spec))
        out.append({"label": spec, "dim": rep.dim, "basis": len(rep.basis),
                    "square": all(mat.nrows == mat.ncols == rep.dim
                                  for mat in rep.mats.values()),
                    "failures": check_relations(rep)})
    return out


def qwb_control(payload):
    """Walled-Brauer relations checked against a wrong delta = q^delta_exp."""
    ctx = ChainContext(payload["m"], payload["n"])
    params = dataclasses.replace(chain_params(), delta=qpow(payload["delta_exp"]))
    return {"failures": _failures(check_qwb_relations(ctx, params, _point(payload)))}


def centralizer_control(payload):
    """Centralizer check with the chain operators replaced by a coproduct generator."""
    ctx = ChainContext(payload["m"], payload["n"])
    gen = payload["gen"]
    ctx.operators = lambda: [(gen, ctx.quantum_group_action(gen))]
    return {"failures": _failures(check_centralizer(ctx, _point(payload)))}


def module_control(payload):
    """Defining relations of a module whose E matrix has been doubled."""
    rep = build_rep(_label(payload["label"]))
    mats = dict(rep.mats, E=rep.mats["E"].scale(QScalar.const(2)))
    doubled = ExplicitRep(rep.label, rep.dim, rep.basis, mats, rep.gl2)
    return {"failures": check_relations(doubled), "original": check_relations(rep)}


KINDS = {
    "modules": modules,
    "qwb-control": qwb_control,
    "centralizer-control": centralizer_control,
    "module-control": module_control,
}


def main(argv) -> int:
    kind, payload = argv
    print(json.dumps(KINDS[kind](json.loads(payload)), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
