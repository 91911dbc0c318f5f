"""Import boundaries: the package loads lazily, and each command loads only
the layers it runs.

The boundary tests start a fresh interpreter with `PYTHONPATH=src` and read
the `mixedchain.*` entries of `sys.modules` after the statement or command.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mixedchain

SRC = Path(__file__).resolve().parent.parent / "src"

# the public names and the submodule each comes from, as the package
# exported them when it imported its submodules eagerly
PUBLIC = {
    "fusion": ("GrothVector", "chain_decompose", "dim_of_groth", "fuse_with_f", "fuse_with_v"),
    "qarith": ("EvalPoint", "LaurentPoly", "QScalar", "eval_points", "qint"),
    "uqmod": ("R", "RLabel", "Z", "ZLabel", "build_projective", "build_simple", "dim_bar",
              "dim_r", "dim_z", "gl2_decomposition", "weight_multiset"),
}

_REPORT = ("import json, sys\n"
           "print(json.dumps(sorted(m[len('mixedchain.'):] for m in sys.modules\n"
           "                        if m.startswith('mixedchain.'))))\n")


def loaded_after(statement: str) -> set:
    """The mixedchain submodules a fresh interpreter holds after `statement`."""
    proc = subprocess.run([sys.executable, "-c", statement + "\n" + _REPORT],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def loaded_by_command(*argv: str) -> set:
    """The submodules loaded by one CLI command, which must exit 0."""
    return loaded_after(
        "import contextlib, io, sys\n"
        "from mixedchain.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({list(argv)!r})\n"
        "if code:\n"
        "    sys.exit(code)")


def test_package_import_loads_no_submodule():
    assert loaded_after("import mixedchain") == set()


def test_cli_import_loads_only_cli():
    assert loaded_after("import mixedchain.cli") == {"cli"}


@pytest.mark.parametrize("suite", ["relations", "centralizer"])
def test_chain_sweeps_skip_the_label_layer(suite):
    loaded = loaded_by_command("verify", suite, "--max-mn", "2")
    assert "chainrep" in loaded
    assert not loaded & {"bimod", "xcat", "fusion", "partitions"}, loaded


@pytest.mark.parametrize("argv", [("decompose", "2", "1"), ("dump-rep", "Z[1,1;3,1]")])
def test_fusion_commands_skip_the_chain_and_bimodule_layers(argv):
    loaded = loaded_by_command(*argv)
    assert "fusion" in loaded
    assert not loaded & {"chainrep", "bimod", "xcat"}, loaded


@pytest.mark.parametrize("argv", [("verify", "identities", "--max-mn", "2"),
                                  ("verify", "dims", "--max-mn", "2"),
                                  ("bimodule", "2", "1"), ("table", "2", "1")])
def test_label_commands_skip_the_chain_layer(argv):
    loaded = loaded_by_command(*argv)
    assert "bimod" in loaded
    assert "chainrep" not in loaded, loaded


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
