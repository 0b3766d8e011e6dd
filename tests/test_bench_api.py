"""Every ``entrolab`` name the benchmark imports still exists.

The benchmark in ``entrobench/`` runs from outside the package, so a
deletion in ``src/entrolab`` can break its imports without breaking any
other test. This parses its scripts (without running them) and resolves
each ``from entrolab... import name`` and ``import entrolab...``.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "entrobench"


def _imports():
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "entrolab":
                yield from ((path.name, node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "entrolab":
                        yield path.name, alias.name, None


def test_bench_imports_resolve():
    found = list(_imports())
    names = {name for _, _, name in found}
    # the names a deletion is most likely to take away
    assert {"check_lp_bound", "NotAchievable", "Feasible", "Infeasible"} <= names
    missing = []
    for script, module, name in found:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            missing.append(f"{script}: {module}.{name}")
    assert not missing, missing
