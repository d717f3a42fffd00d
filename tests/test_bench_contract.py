"""The traced benchmark replay imports public names from spinrev; a refactor
that drops one breaks only `--trace 1` runs, so pin them here."""

import ast
import importlib
from pathlib import Path

REPLAY = Path(__file__).resolve().parents[1] / "spinbench" / "replay.py"


def test_replay_imports_exist():
    tree = ast.parse(REPLAY.read_text(encoding="utf-8"))
    imports = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "spinrev"
        for alias in node.names
    ]
    assert imports, "replay.py imports nothing from spinrev"
    missing = [f"{module}.{name}" for module, name in imports if not hasattr(importlib.import_module(module), name)]
    assert missing == []
