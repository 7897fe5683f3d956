"""The package is its modules: each name is imported from the module that defines it."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qrepair
import qrepair.lp
import qrepair.repair

SUBMODULES = sorted(p.stem for p in Path(qrepair.__file__).parent.glob("*.py")
                    if p.stem != "__init__")


def test_qrepair_repair_is_the_module_not_the_function():
    assert isinstance(qrepair.repair, types.ModuleType)
    assert qrepair.repair.solve_lp is qrepair.lp.solve_lp


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_submodule_attribute_is_its_module(name):
    module = importlib.import_module(f"qrepair.{name}")
    assert getattr(qrepair, name) is module


def test_the_package_holds_only_its_version_and_loads_no_submodule():
    code = ("import sys, qrepair; "
            "print(sorted(m for m in sys.modules if m.startswith('qrepair.'))); "
            "print(sorted(n for n in vars(qrepair) if not n.startswith('__')))")
    src = str(Path(qrepair.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.splitlines() == ["[]", "[]"]
