"""Every name a module of the package imports is used there."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "g0bound"

# imported but unused on purpose: perfbench/tracing.py patches these names
# on the importing module to count their calls, and a hook without a target
# fails the benchmark contract
TRACER_TARGETS = {
    ("bound", "integrate_singular"),
    ("bound", "minimize_scalar"),
    ("verify", "integrate_singular"),
}


def _imported(tree):
    """{bound name: line} for every import of the module, __future__ aside."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _referenced(tree):
    """Every Name the module loads, string annotations and __all__ included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= _referenced(ast.parse(annotation.value, mode="eval"))
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _referenced(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported(tree).items()
                    if name not in used and (path.stem, name) not in TRACER_TARGETS)
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"
