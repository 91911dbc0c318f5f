"""Import boundaries: the package loads lazily, and each command loads only
the layers it runs; and every top-level function and class of the package
is reached by something other than a test.

The layering tests read the package's own imports, module-level and
function-local, from the source of every module.  The boundary tests start
a fresh interpreter with `PYTHONPATH=src` and read the `mixedchain.*`
entries of `sys.modules` after the statement or command.  The reach test
reads the names that each top-level definition refers to, from the source.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mixedchain

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "mixedchain"
PERFBENCH = SRC.parent / "perfbench"
ORACLES = Path(__file__).resolve().parent / "oracles.py"

# the layers that hold Q(q) scalars and matrices, which the label layer never needs
MATRIX_LAYERS = {"qarith", "sparse", "uqmod", "chainrep"}

# the public names and the submodule that defines each
PUBLIC = {
    "fusion": ("GrothVector", "chain_decompose", "fuse_with_f", "fuse_with_v"),
    "labels": ("R", "RLabel", "Z", "ZLabel", "dim_bar", "dim_r", "dim_z", "gl2_decomposition"),
    "qarith": ("EvalPoint", "LaurentPoly", "QScalar", "eval_points", "qint"),
    "uqmod": ("build_projective", "build_simple", "weight_multiset"),
}

_REPORT = "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n"


def package_imports(path: Path) -> set:
    """The package modules that the source at `path` imports, at module level
    or inside a function."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:  # from .x import y
            names = [f"mixedchain.{node.module or alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        found |= {name.split(".")[1] for name in names if name.startswith("mixedchain.")}
    return found


IMPORTS = {path.stem: package_imports(path) for path in PACKAGE.glob("*.py")}


def reachable(module: str) -> set:
    """Every package module that `module` imports, directly or through others."""
    seen, todo = set(), [module]
    while todo:
        for dep in IMPORTS[todo.pop()] - seen:
            seen.add(dep)
            todo.append(dep)
    return seen


def test_labels_import_only_tagged():
    assert IMPORTS["labels"] == {"tagged"}
    assert IMPORTS["tagged"] == set()


def test_label_record_imports_no_layer():
    # each field is built by the function its layer declared with `field`
    assert IMPORTS["labelctx"] == set()
    assert loaded_after("import mixedchain.labelctx") == {"labelctx"}


@pytest.mark.parametrize("module", ["partitions", "fusion", "xcat", "bimod"])
def test_label_layer_never_imports_the_matrix_layers(module):
    assert not IMPORTS[module] & MATRIX_LAYERS, IMPORTS[module]
    assert not reachable(module) & MATRIX_LAYERS, reachable(module)


def modules_after(statement: str) -> set:
    """Every module a fresh interpreter holds after `statement`."""
    proc = subprocess.run([sys.executable, "-c", statement + "\n" + _REPORT],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def loaded_after(statement: str) -> set:
    """The mixedchain submodules a fresh interpreter holds after `statement`."""
    return {name[len("mixedchain."):] for name in modules_after(statement)
            if name.startswith("mixedchain.")}


def _command(argv) -> str:
    """A statement that runs one CLI command, which must exit 0."""
    return ("import contextlib, io, sys\n"
            "from mixedchain.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({list(argv)!r})\n"
            "if code:\n"
            "    sys.exit(code)")


def loaded_by_command(*argv: str) -> set:
    """The submodules loaded by one CLI command, which must exit 0."""
    return loaded_after(_command(argv))


def test_package_import_loads_no_submodule():
    assert loaded_after("import mixedchain") == set()


def test_cli_import_loads_only_cli():
    assert loaded_after("import mixedchain.cli") == {"cli"}


def test_labels_import_loads_only_labels_and_tagged():
    assert loaded_after("import mixedchain.labels") == {"labels", "tagged"}


@pytest.mark.parametrize("suite", ["relations", "centralizer"])
def test_chain_sweeps_skip_the_label_layer(suite):
    loaded = loaded_by_command("verify", suite, "--max-mn", "2")
    assert "chainrep" in loaded
    assert not loaded & {"bimod", "xcat", "fusion", "partitions", "labelctx"}, loaded
    if suite == "relations":  # only the coproduct reads the fundamental modules
        assert not loaded & {"uqmod", "labels"}, loaded
    else:
        assert "uqmod" in loaded


@pytest.mark.parametrize("argv", [("decompose", "2", "1"), ("dump-rep", "Z[1,1;3,1]")])
def test_fusion_commands_skip_the_chain_and_bimodule_layers(argv):
    loaded = loaded_by_command(*argv)
    assert not loaded & {"chainrep", "bimod", "xcat"}, loaded
    if argv[0] == "decompose":
        assert "fusion" in loaded
        assert not loaded & MATRIX_LAYERS, loaded
        # reading a chain content builds no other field of its context's record
        assert "partitions" not in loaded, loaded
    else:  # dump-rep builds the module's matrices and prints its label, without fusion
        assert "uqmod" in loaded


@pytest.mark.parametrize("argv", [("verify", "identities", "--max-mn", "2"),
                                  ("verify", "dims", "--max-mn", "2"),
                                  ("bimodule", "2", "1"), ("table", "2", "1")])
def test_label_commands_skip_the_chain_layer(argv):
    loaded = loaded_by_command(*argv)
    assert "bimod" in loaded
    assert not loaded & MATRIX_LAYERS, loaded


@pytest.mark.parametrize("argv", [("decompose", "3", "2"), ("bimodule", "3", "2"),
                                  ("table", "3", "2"),
                                  ("verify", "identities", "--max-mn", "3"),
                                  ("verify", "dims", "--max-mn", "3")])
def test_label_commands_load_no_dataclasses(argv):
    # the label layer stores its records as tagged tuples; dataclasses would
    # also load inspect, which the label commands never need
    loaded = modules_after(_command(argv))
    assert "mixedchain.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}, loaded & {"dataclasses", "inspect"}


def test_every_public_name_resolves_to_its_submodule_object():
    assert sorted(mixedchain.__all__) == sorted(n for names in PUBLIC.values() for n in names)
    listed = dir(mixedchain)
    for module, names in PUBLIC.items():
        sub = importlib.import_module(f"mixedchain.{module}")
        for name in names:
            assert getattr(mixedchain, name) is getattr(sub, name), name
            assert name in listed, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from mixedchain import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(mixedchain.__all__)
    for name, value in namespace.items():
        assert value is getattr(mixedchain, name), name


def test_unknown_attribute_is_named_in_the_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mixedchain.no_such_name
    assert not hasattr(mixedchain, "no_such_name")


# ---------------------------------------------------------------------------
# static reach: no definition in src/ that only the tests read
# ---------------------------------------------------------------------------

# top-level names that no command, suite or benchmark reaches yet, each kept
# for the ROADMAP item that will read it
REACH_ALLOWED = {
    "res_right_d": "items 11 and 13: the restriction functors and the dimension ledger",
    "res_right_k": "items 11 and 13: the restriction functors and the dimension ledger",
    "endomorphism_algebra_dimension": "items 3 and 4: the GF(p) path and Schur-Weyl completeness",
}


def _names(node) -> set:
    """Every name and attribute that the code of `node` refers to."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def unreached(sources: dict) -> list:
    """The top-level functions and classes of the package sources ({module:
    text}) that nothing reaches, as "module.name".

    The roots are the names that module-level code refers to, the exports
    of `__init__._EXPORTS`, every name that `perfbench/*.py` spells and the
    allowlist.  A definition that a reached definition refers to is reached.
    Names are matched by spelling alone, so two definitions of one name in
    two modules are reached together.  A dunder is a hook that Python calls.
    """
    defined, refers = {}, {}
    roots = set(mixedchain._EXPORTS) | set(REACH_ALLOWED)
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, []).append(module)
                refers.setdefault(node.name, set()).update(_names(node))
            else:
                roots |= _names(node)
    bench = "\n".join(path.read_text() for path in sorted(PERFBENCH.glob("*.py")))
    roots |= {name for name in defined if re.search(rf"\b{re.escape(name)}\b", bench)}
    reached, todo = set(), [name for name in roots if name in defined]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [ref for ref in refers[name] if ref in defined]
    return sorted(f"{module}.{name}" for name, modules in defined.items()
                  for module in modules if name not in reached and not name.startswith("__"))


def package_sources() -> dict:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_every_definition_is_reached():
    assert unreached(package_sources()) == []


def test_allowlisted_names_are_defined():
    defined = {node.name for text in package_sources().values()
               for node in ast.parse(text).body if hasattr(node, "name")}
    assert set(REACH_ALLOWED) <= defined, set(REACH_ALLOWED) - defined


def test_an_oracle_put_back_into_the_package_is_unreached():
    # every definition of the test oracles, and the deleted `dim_of_groth`,
    # planted at the end of a package module: each is flagged but
    # `res_right_s`, which the benchmark's counter table names
    oracles = [node for node in ast.parse(ORACLES.read_text()).body if hasattr(node, "name")]
    planted = "\n\n".join(ast.unparse(node) for node in oracles)
    planted += "\n\ndef dim_of_groth(v):\n    return v.total_dim()\n"
    sources = package_sources()
    sources["xcat"] += "\n\n" + planted
    want = sorted(f"xcat.{node.name}" for node in oracles
                  if node.name != "res_right_s")
    assert unreached(sources) == sorted(want + ["xcat.dim_of_groth"])
