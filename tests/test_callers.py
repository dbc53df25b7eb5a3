"""Every function, method and class under ``src/ncscatter`` has a caller there.

A definition counts as used when some module of the package refers to
its name outside the definition itself: as a name, as an attribute or
as an import alias.  Names are matched by spelling, so a method shares
its references with anything else of the same name.  Dunder methods are
called by Python itself and are not scanned.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ncscatter"

# used only from outside src/, each with its reason
ALLOWED = {
    "words.reverse": "ncbench/workloads.py imports it (ROADMAP item 10)",
    "words.splits": "ncbench/workloads.py imports it (ROADMAP item 10)",
    "transfer.transfer_coefficient": "ncbench/workloads.py imports it (ROADMAP item 10)",
    "serialize.trajectory_from_json": "the public reader of the simulate file",
}

DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name


def definitions(node, prefix):
    """``(qualified name, node)`` of every definition below ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFINITION):
            name = f"{prefix}.{child.name}"
            yield name, child
            yield from definitions(child, name)
        else:
            yield from definitions(child, prefix)


def unreferenced(package):
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    counts = {}
    for tree in trees.values():
        for name in referenced_names(tree):
            counts[name] = counts.get(name, 0) + 1
    for module, tree in trees.items():
        for qualified, node in definitions(tree, module):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            own = sum(name == node.name for name in referenced_names(node))
            if counts.get(node.name, 0) == own:
                yield qualified


def test_every_definition_has_a_caller_in_src():
    found = set(unreferenced(PACKAGE))
    assert sorted(found - ALLOWED.keys()) == []
    # an entry that gained a caller, or is gone, leaves the list
    assert sorted(ALLOWED.keys() - found) == []


def test_a_definition_without_caller_is_found(tmp_path):
    # a call from its own body does not count
    (tmp_path / "mod.py").write_text(
        "class Box:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    def loop(self):\n"
        "        return self.loop()\n"
        "def helper():\n"
        "    return Box()\n"
        "def main():\n"
        "    return helper()\n"
    )
    (tmp_path / "run.py").write_text("from .mod import main\n")
    assert set(unreferenced(tmp_path)) == {"mod.Box.loop"}
