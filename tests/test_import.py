"""What ``import groversvm`` loads, checked in a fresh interpreter, and which of its
modules apply the integer and bit-string rules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import groversvm


def test_import_leaves_numpy_random_unloaded():
    # numpy loads numpy.random lazily; the package must not pull it in at
    # import time, since every command pays for its import.
    src = str(Path(groversvm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, groversvm; print('numpy' in sys.modules, 'numpy.random' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["True", "False"]


def test_only_sim_applies_the_integer_rule():
    # Integer arguments are checked by sim._check_int, so the rule that an
    # integer is a Python or numpy int and not a bool, and the power-of-two
    # test, have one derivation each.
    package = Path(groversvm.__file__).resolve().parent
    users = []
    for path in sorted(package.glob("*.py")):
        if path.name == "sim.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in ("_is_int", "_is_power_of_two"):
                users.append(f"{path.name}:{node.lineno}")
    assert users == []


def test_only_sim_reads_dtype_kinds():
    # Index, key, bit and label arrays are checked by sim._int_array, so the
    # rule that an array holds integers has one derivation.
    package = Path(groversvm.__file__).resolve().parent
    readers = []
    for path in sorted(package.glob("*.py")):
        if path.name == "sim.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "kind"
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "dtype"):
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


def test_only_pattern_holds_the_bit_characters():
    # A text or pattern written as characters is checked by
    # pattern._check_bit_string, so the rule of which characters are bits has
    # one derivation: no other module spells "01" or {"0", "1"}.
    package = Path(groversvm.__file__).resolve().parent
    spellings = []
    for path in sorted(package.glob("*.py")):
        if path.name == "pattern.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and node.value == "01" or (
                    isinstance(node, ast.Set)
                    and {getattr(e, "value", None) for e in node.elts} == {"0", "1"}):
                spellings.append(f"{path.name}:{node.lineno}")
    assert spellings == []
