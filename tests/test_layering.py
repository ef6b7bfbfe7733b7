"""The package's import layering, read from its source with ``ast``: no
``dse`` module imports another inside a function, and the module-level
imports among them form no cycle, so every module can be imported on its
own. Imports under ``if TYPE_CHECKING:`` never run and are left out."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dse"
MODULES = {path.stem: path for path in sorted(PACKAGE.glob("*.py"))}


def dse_modules(node: ast.Import | ast.ImportFrom) -> set[str]:
    """The package modules an import statement names; ``__init__`` for the
    package itself."""
    if isinstance(node, ast.Import):
        return {alias.name.partition(".")[2].partition(".")[0] or "__init__"
                for alias in node.names if alias.name.partition(".")[0] == "dse"}
    module = node.module or ""
    if node.level == 0:
        if module.partition(".")[0] != "dse":
            return set()
        module = module.partition(".")[2]
    if module:
        return {module.partition(".")[0]}
    return {alias.name if alias.name in MODULES else "__init__" for alias in node.names}


def imports(path: Path) -> tuple[set[str], list[str]]:
    """The package modules ``path`` imports at module level, and a
    "line N imports M" entry for each package import inside a function."""
    top, nested = set(), []

    def visit(node: ast.AST, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and ast.unparse(child.test) in (
                    "TYPE_CHECKING", "typing.TYPE_CHECKING"):
                for other in child.orelse:
                    visit(other, in_function)
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                found = dse_modules(child)
                if in_function:
                    nested.extend(f"line {child.lineno} imports {name}" for name in sorted(found))
                else:
                    top.update(found)
            else:
                visit(child, in_function or isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    visit(ast.parse(path.read_text(encoding="utf-8")), False)
    return top, nested


def test_no_function_imports_a_dse_module():
    nested = {name: found for name, path in MODULES.items() if (found := imports(path)[1])}
    assert nested == {}


def test_module_level_dse_imports_form_no_cycle():
    graph = {name: imports(path)[0] for name, path in MODULES.items()}
    assert set().union(*graph.values()) <= set(MODULES)
    assert graph["scenario"] >= {"evaluators", "forest", "space"}
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as e:
        raise AssertionError(f"import cycle: {' -> '.join(e.args[1])}") from None

