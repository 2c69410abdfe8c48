"""Every public top-level function and class of the library is reached.

A name is reached when an `ast.Name` or `ast.Attribute` in `src/positroid`,
outside the name's own definition, refers to it, or when README's "Public
API" section lists it as `module.name`.  Docstrings and comments are not
references.  `cli.main` looks a `cmd_*` function up by its subcommand's
name, so `cmd_x_y` is reached when `cli.COMMANDS` has the subcommand `x-y`.
Second routes and brute-force checks with no caller belong in
`tests/oracles.py`.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

from positroid import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "positroid"


def _references(node):
    """How often each name is used as an ast.Name or ast.Attribute under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _public_api():
    """The (module, name) pairs listed in README's "Public API" section."""
    readme = (ROOT / "README.md").read_text()
    section = re.search(r"^## Public API\n(.*?)(?=^## |\Z)", readme, re.M | re.S)
    assert section, "README.md has no '## Public API' section"
    return set(re.findall(r"^- `(\w+)\.(\w+)`", section.group(1), re.M))


def _subcommand_functions():
    return {"cmd_" + name.replace("-", "_") for name in cli.COMMANDS}


def test_every_public_name_is_reached():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    reached = _public_api() | {("cli", name) for name in _subcommand_functions()}
    unreached = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
                    and (module, node.name) not in reached
                    and used[node.name] == _references(node)[node.name]):
                unreached.append(f"{module}.{node.name}")
    assert not unreached, (f"no caller in src/positroid and not in README's Public API: {unreached}; "
                           "list them there or move them to tests/oracles.py")


def test_public_api_names_exist():
    for module, name in sorted(_public_api()):
        assert hasattr(importlib.import_module(f"positroid.{module}"), name), f"{module}.{name}"
