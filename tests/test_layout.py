"""One module owns the packed q-form layout.

`forms.anti_keys` fixes the order of the q-subsets and `forms.compound` the
minors taken in that order; every frame change and every packed array reads
them from `forms`.  A second copy of either fails here.  Reads the package
source with `ast` only.
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
