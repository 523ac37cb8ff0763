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


def _unread(readers) -> list[str]:
    """Definitions in the package that no file under `readers` reads, apart
    from the definition's own body."""
    reads = {}
    for path in sorted(p for d in readers for p in d.rglob("*.py")):
        for name, line in _reads(_tree(path)):
            reads.setdefault(name, []).append((path, line))
    dead = []
    for path in sorted(SRC.glob("*.py")):
        for qual, name, node in _definitions(_tree(path)):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(p != path or line not in own for p, line in reads.get(name, [])):
                dead.append(f"{path.name}:{qual}")
    return dead


def test_every_definition_is_read():
    """A definition in the package that nothing in src, tests or bench reads,
    apart from its own body, is dead code."""
    assert _unread(READERS) == []


# Definitions that no module of the package reads, each with the reader that
# keeps it.  The list may only shrink.
READ_OUTSIDE_SRC = [
    # named in bench/tracer.py's tables and read by tests
    "forms.py:DoubleForm.bidegree",     # tracer DOUBLEFORM_METHODS; tests/test_forms.py
    "forms.py:DoubleForm.z_degree",     # tracer DOUBLEFORM_METHODS; tests/test_kernels.py
    "forms.py:swap_variables",          # tracer FORMS_FUNCTIONS; tests/test_forms.py
    "forms.py:pair_pointwise",          # tracer FORMS_FUNCTIONS; tests/test_forms.py, test_quad.py
    "kernels.py:tau_nu_split",          # tracer KERNELS_HELPERS; tests/test_kernels.py
    "quad.py:field_from_function",      # tracer QUAD_FUNCTIONS; tests/test_quad.py
    "quad.py:weighted_lp_norm",         # tracer QUAD_FUNCTIONS; tests/test_quad.py
    "quad.py:pair_operator",            # tracer QUAD_FUNCTIONS; tests/test_quad.py
    "quad.py:batch_frames",             # tracer QUAD_FUNCTIONS
    # paper checks of the acceptance tests
    "typecalc.py:lq_main_terms",        # acceptance 1
    "typecalc.py:gamma0q_descriptor",   # acceptance 1
    "typecalc.py:tq_main_descriptors",  # acceptance 1
    "zalg.py:ZExpr.set_gamma_one",      # acceptance 5
    "zalg.py:principal_part_type",      # acceptance 5
    # read by a unit test only
    "zalg.py:map_exponent",             # tests/test_zalg.py
]


def test_every_definition_is_read_in_src_or_allowed():
    """The stricter scan: only readers under src count, and what they leave
    unread is exactly the allow-list above."""
    assert _unread([SRC]) == READ_OUTSIDE_SRC
