"""Import boundaries: the package loads lazily, and each command loads only
the layers it runs.

The layering tests read the package's own imports, module-level and
function-local, from the source of every module.  The boundary tests start
a fresh interpreter with `PYTHONPATH=src` and read the `mixedchain.*`
entries of `sys.modules` after the statement or command.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mixedchain

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "mixedchain"

# the layers that hold Q(q) scalars and matrices, which the label layer never needs
MATRIX_LAYERS = {"qarith", "sparse", "uqmod", "chainrep"}

# the public names and the submodule that defines each
PUBLIC = {
    "fusion": ("GrothVector", "chain_decompose", "dim_of_groth", "fuse_with_f", "fuse_with_v"),
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
    assert not loaded & {"bimod", "xcat", "fusion", "partitions"}, loaded


@pytest.mark.parametrize("argv", [("decompose", "2", "1"), ("dump-rep", "Z[1,1;3,1]")])
def test_fusion_commands_skip_the_chain_and_bimodule_layers(argv):
    loaded = loaded_by_command(*argv)
    assert not loaded & {"chainrep", "bimod", "xcat"}, loaded
    if argv[0] == "decompose":
        assert "fusion" in loaded
        assert not loaded & MATRIX_LAYERS, loaded
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
