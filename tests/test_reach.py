"""Every public name of the package is reached by the package itself or by
an acceptance test, a method only through an attribute (``x.b``): code
that only its own unit tests call is dead weight.
Every defaulted parameter is passed by some call there too: a knob that only
unit tests turn is dead weight as well.  And the package's defaulted
parameters do not grow past a reviewed bound."""

import ast
from pathlib import Path

import shiftlab

PACKAGE = Path(shiftlab.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")

# Names kept although nothing above reaches them, one reason each.
EXEMPT = (
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
    """(name, line, is_attribute) of every identifier, attribute and
    imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno, False


def _trees() -> dict:
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def unreached_names(exempt=EXEMPT) -> list:
    trees = _trees()
    mentions = {path: list(_mentions(tree)) for path, tree in trees.items()}
    mentions[ACCEPTANCE] = list(_mentions(ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))))
    out = []
    for path, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            # a method is reached only as an attribute (x.b), never through
            # a bare local that shares its name
            method = "." in qualname
            reached = any(
                mention == name
                and (is_attribute or not method)
                and not (where == path and node.lineno <= line <= node.end_lineno)
                for where, found in mentions.items()
                for mention, line, is_attribute in found
            )
            if not reached and qualname not in exempt:
                out.append(f"{path.stem}.{qualname}")
    return out


def test_every_public_name_is_reached():
    assert unreached_names() == []


def test_exempt_names_exist():
    defined = {qualname for tree in _trees().values() for qualname, _ in _definitions(tree)}
    assert set(EXEMPT) <= defined


def test_exempt_names_are_unreached():
    # a planned name that gets wired must leave EXEMPT with it
    unreached = {name.split(".", 1)[1] for name in unreached_names(exempt=())}
    assert set(EXEMPT) <= unreached


# Defaulted parameters (``function.parameter``) that no call in the package or
# the acceptance tests passes, one reason each.
UNSET_DEFAULTS = (
    # the console script calls main() with no argument
    "main.argv",
    # cmd_salas passes it through ``fn``, the criterion of the chosen variant
    "salas_hypercyclic.tol",
    "salas_supercyclic.tol",
)


def _functions(tree):
    """(class name or None, node) of every def, methods and nested defs too."""
    owners = {
        member: node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for member in node.body
        if isinstance(member, ast.FunctionDef)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield owners.get(node), node


def _calls(trees) -> dict:
    """Called name (``f(..)`` or ``x.f(..)``) -> its call nodes."""
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                out.setdefault(name, []).append(node)
    return out


def _passes(call, index, name) -> bool:
    """Whether ``call`` sets parameter ``name``, at positional ``index`` (None
    if keyword-only), by keyword, position or a ``*``/``**`` splat."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


def unset_defaults() -> list:
    """``function.parameter`` of each defaulted parameter that no call in the
    package or the acceptance tests passes."""
    trees = _trees()
    calls = _calls([*trees.values(), ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))])
    out = []
    for tree in trees.values():
        for owner, node in _functions(tree):
            args = node.args
            # a method's first parameter is bound, never passed; a class is
            # called by its own name to run __init__
            bound = owner is not None and not any(
                getattr(d, "id", None) == "staticmethod" for d in node.decorator_list
            )
            callee = owner if node.name == "__init__" else node.name
            found = calls.get(callee, [])
            positional = args.posonlyargs + args.args
            defaulted = [(i - bound, a) for i, a in enumerate(positional) if i >= len(positional) - len(args.defaults)]
            defaulted += [(None, a) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for index, arg in defaulted:
                if not any(_passes(call, index, arg.arg) for call in found):
                    out.append(f"{node.name}.{arg.arg}")
            if args.kwarg is not None:
                named = {a.arg for a in positional + args.kwonlyargs}
                if not any(kw.arg not in named for call in found for kw in call.keywords):
                    out.append(f"{node.name}.{args.kwarg.arg}")
    return out


def test_every_default_is_set_by_a_caller():
    # equality: an exemption that a caller now sets must leave UNSET_DEFAULTS
    assert sorted(unset_defaults()) == sorted(UNSET_DEFAULTS)


# Defaulted parameters of every def in the package: defaults, keyword-only
# defaults and ``**kwargs``.  A new knob raises this bound in its own diff.
MAX_DEFAULTED_PARAMETERS = 33


def defaulted_parameters() -> int:
    count = 0
    for tree in _trees().values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                count += len(args.defaults) + (args.kwarg is not None)
                count += sum(d is not None for d in args.kw_defaults)
    return count


def test_defaulted_parameters_do_not_grow():
    assert defaulted_parameters() <= MAX_DEFAULTED_PARAMETERS
