"""One module owns the packed q-form layout.

`forms.anti_keys` fixes the order of the q-subsets and `forms.compound` the
minors taken in that order; every frame change and every packed array reads
them from `forms`.  A second copy of either fails here.  Every definition in
the package must also have a reader.  Reads the source with `ast` only.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hlkernels"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _uses_combinations(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module == "itertools"
                and any(a.name == "combinations" for a in node.names)):
            return True
        if (isinstance(node, ast.Attribute) and node.attr == "combinations"
                and isinstance(node.value, ast.Name) and node.value.id == "itertools"):
            return True
    return False


def test_only_forms_imports_combinations():
    modules = sorted(SRC.glob("*.py"))
    assert [p.name for p in modules if _uses_combinations(_tree(p))] == ["forms.py"]


def test_forms_takes_minors_from_compound():
    calls = {ast.unparse(node.func) for node in ast.walk(_tree(SRC / "forms.py"))
             if isinstance(node, ast.Call)}
    assert calls & {"np.linalg.det", "np.ix_"} == set()
    assert "compound" in calls


# -- every definition has a reader -----------------------------------------------

READERS = [SRC.parent.parent / d for d in ("src", "tests", "bench")]


def _definitions(tree: ast.Module):
    """(qualified name, bare name, node) of every top-level function, class,
    class method and module constant; dunder names are read by Python."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name, item
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, target.id, node


def _reads(tree: ast.Module):
    """(name, line) of every name read: loaded names, attributes, imported
    names and string constants such as the bench tracer's name tables."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def test_every_definition_is_read():
    """A definition in the package that nothing in src, tests or bench reads,
    apart from its own body, is dead code."""
    reads = {}
    for path in sorted(p for d in READERS for p in d.rglob("*.py")):
        for name, line in _reads(_tree(path)):
            reads.setdefault(name, []).append((path, line))
    dead = []
    for path in sorted(SRC.glob("*.py")):
        for qual, name, node in _definitions(_tree(path)):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(p != path or line not in own for p, line in reads.get(name, [])):
                dead.append(f"{path.name}:{qual}")
    assert dead == []
