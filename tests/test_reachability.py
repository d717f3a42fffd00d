"""Every top-level function and class in `src/spinrev` is reachable from
what runs it: a CLI job, the acceptance gate, the benchmark's replay, or a
construction the paper states.

The call graph is name-level: a definition reaches every top-level
definition, in any module, whose name its body uses as a name or an
attribute; importing a name is no use of it.  Module-level statements
run on import, so the names they use are reached, and so are a module's
dunder hooks (`__getattr__`, `__dir__`), which the interpreter calls.

Every public name of `spinrev.__all__` is surface that some user needs:
a CLI job reaches it, or the gate, the replay or the paper's list names
it.

Run as a script, it prints the definitions kept although `cli.main` and
`cli.run` never reach them, each with the roots that keep it.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "spinrev"
GATE = ROOT / "tests" / "test_acceptance.py"
REPLAY = ROOT / "spinbench" / "replay.py"

# constructions the paper states that no job runs on their own: the
# Hadamard sign fragment that the class-2 scheme is built from
PAPER = ("selective_decoupling",)


def _names(node):
    """The names and attributes used anywhere in `node`."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def top_level():
    """({(module, name): names its body uses} for each top-level function
    and class of `src/spinrev/*.py`, the names reached on import)."""
    definitions, on_import = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions[(path.stem, node.name)] = _names(node)
                if node.name.startswith("__"):
                    on_import.add(node.name)
            else:
                on_import |= _names(node)
    return definitions, on_import


def roots():
    """{reason: root names}: the CLI's entry points, the names the acceptance
    gate calls as `sr.<name>`, the names the replay imports from spinrev,
    and the paper's constructions."""
    gate = {
        node.attr
        for node in ast.walk(ast.parse(GATE.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "sr"
    }
    replay = {
        alias.name
        for node in ast.walk(ast.parse(REPLAY.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spinrev"
        for alias in node.names
    }
    return {"cli": {"main", "run"}, "gate": gate, "replay": replay, "paper": set(PAPER)}


def reached(names, definitions, on_import):
    """The definitions reached from those called `names`, and from import."""
    by_name = defaultdict(list)
    for key in definitions:
        by_name[key[1]].append(key)
    seen, todo = set(), [key for name in set(names) | on_import for key in by_name[name]]
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            todo.extend(k for name in definitions[key] for k in by_name[name])
    return seen


def kept_beyond_cli():
    """{(module, name): reasons} for each definition that a gate, replay or
    paper root reaches and `cli.main`/`cli.run` do not."""
    definitions, on_import = top_level()
    named = roots()
    cli = reached(named.pop("cli"), definitions, on_import)
    kept = defaultdict(list)
    for reason, names in named.items():
        for key in sorted(reached(names, definitions, on_import) - cli):
            kept[key].append(reason)
    return dict(kept)


def test_every_definition_is_reachable_from_a_root():
    definitions, on_import = top_level()
    every_root = set().union(*roots().values())
    unreached = sorted(set(definitions) - reached(every_root, definitions, on_import))
    assert not unreached, f"no job, gate line, replay import or paper construction reaches {unreached}"


def test_every_public_name_is_reached_by_a_job_or_named_by_a_root():
    import spinrev  # here, so that the script runs without spinrev on the path

    definitions, on_import = top_level()
    named = roots()
    cli = {name for _, name in reached(named.pop("cli"), definitions, on_import)}
    unused = sorted(set(spinrev.__all__) - cli - set().union(*named.values()))
    assert not unused, f"no job reaches, and no gate line, replay import or paper construction names, {unused}"


if __name__ == "__main__":
    for (module, name), reasons in sorted(kept_beyond_cli().items()):
        print(f"{module}.{name}: {', '.join(reasons)}")
