"""Every public name of the package is reached by the package itself or by
an acceptance test: code that only its own unit tests call is dead weight."""

import ast
from pathlib import Path

import shiftlab

PACKAGE = Path(shiftlab.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")

# Names kept although nothing above reaches them, one reason each.
EXEMPT = (
    # the exact Q_n that the h_evals byte tests compare the grid values against
    "h_derivative",
    # the dense V and V* that the simpson_adjoint_apply byte tests compare against
    "volterra",
    # planned: salas on T and its dual T' for the dyadic weight family
    "WeightSequence.dual",
    # planned: its verdict and relation witness go into the grading report
    "t_independent",
    # planned: the whole-block approach pair beside the exact optimum; the
    # float twin of discrete_pair_errors_exact
    "discrete_pair",
)


def _definitions(tree):
    """(qualified name, node) of each public top-level def or class and of
    each public method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def _mentions(tree):
    """(name, line) of every identifier, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def _trees() -> dict:
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def unreached_names() -> list:
    trees = _trees()
    mentions = {path: list(_mentions(tree)) for path, tree in trees.items()}
    mentions[ACCEPTANCE] = list(_mentions(ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))))
    out = []
    for path, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            reached = any(
                mention == name and not (where == path and node.lineno <= line <= node.end_lineno)
                for where, found in mentions.items()
                for mention, line in found
            )
            if not reached and qualname not in EXEMPT:
                out.append(f"{path.stem}.{qualname}")
    return out


def test_every_public_name_is_reached():
    assert unreached_names() == []


def test_exempt_names_exist():
    defined = {qualname for tree in _trees().values() for qualname, _ in _definitions(tree)}
    assert set(EXEMPT) <= defined
