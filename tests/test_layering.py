"""The module layering that keeps the reference evaluator apart from
refinement: shared array kernels live in graph.py."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gnncompress"
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def imported(module: str, source: str) -> set[str]:
    """The names ``module`` imports from ``source``, a relative module as '.refine'."""
    return {alias.name for node in ast.walk(TREES[module]) if isinstance(node, ast.ImportFrom)
            and "." * node.level + (node.module or "") == source for alias in node.names}


def binds(tree: ast.Module, name: str) -> bool:
    return any(isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id == name
               or isinstance(node, ast.alias) and (node.asname or node.name) == name
               for node in ast.walk(tree))


def test_module_layering():
    assert not imported("gnn", ".refine")
    assert imported("reduction", ".refine") and not {
        name for name in imported("reduction", ".refine") if name.startswith("_")}
    binders = {module for module, tree in TREES.items() if binds(tree, "_HASH_MULTIPLIERS")}
    assert binders == {"graph"}
