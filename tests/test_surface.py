import ast
from pathlib import Path

import latticecode

SRC = Path(latticecode.__file__).parent

# Names that nothing in the package calls, kept on purpose; a method is
# named as Class.method.  A private name with no caller is a helper that
# only tests call: it belongs in the tests.
KEEP = {
    # reproduce a claim of the paper in the acceptance tests
    "abs_encode_step", "chain_entropy_bits", "description_bounds",
    "entropy_estimate", "thermalize_chain_matrix", "centered_square",
    # one-draw references that the block draws are tested against
    "SplitMix64.uniform", "SplitMix64.randbelow",
    # console entry point
    "main",
}

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _bound_names(fn) -> set:
    """Parameters and locals of a function: names it binds in its own
    scope, not those it declares global or nonlocal."""
    a = fn.args
    names = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
    names |= {p.arg for p in (a.vararg, a.kwarg) if p}
    declared = set()
    todo = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        if isinstance(node, (*_FUNCS, ast.ClassDef)):
            if not isinstance(node, ast.Lambda):
                names.add(node.name)
            continue  # its body is a scope of its own
        todo.extend(ast.iter_child_nodes(node))
    return names - declared


def _references(node, owners: tuple, hidden: frozenset, modules: set,
                used: dict) -> None:
    """Collect what `node` reads outside the body of the definition it
    names: in used["names"], each name that reaches a module-level binding,
    not hidden by a parameter or local of an enclosing function, and each
    attribute of a package module (one of `modules`); in used["attrs"],
    each attribute of anything."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        if node.id not in hidden and node.id not in owners:
            used["names"].add(node.id)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        if node.attr not in owners:
            used["attrs"].add(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                used["names"].add(node.attr)
    body = []
    if isinstance(node, (*_FUNCS, ast.ClassDef)):
        body = node.body if isinstance(node.body, list) else [node.body]
        inner = owners + (getattr(node, "name", None),)
        if not isinstance(node, ast.ClassDef):  # a class body hides nothing
            hidden = hidden | _bound_names(node)
        for sub in body:
            _references(sub, inner, hidden, modules, used)
    # decorators, defaults, annotations and bases: the enclosing scope's
    for sub in ast.iter_child_nodes(node):
        if sub not in body:
            _references(sub, owners, hidden, modules, used)


def _package_modules(tree) -> set:
    """Names that `from . import module [as name]` binds."""
    return {a.asname or a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level and not node.module
            for a in node.names}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _defs_and_references():
    """(module, name) of every top-level function and class and of every
    method, as Class.method, public or private but not a dunder, and the
    names and attributes the package reads (`_references`)."""
    defs, used = [], {"names": set(), "attrs": set()}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not _dunder(node.name)):
                defs.append((path.stem, node.name))
            if isinstance(node, ast.ClassDef):
                defs += [(path.stem, "%s.%s" % (node.name, sub.name))
                         for sub in node.body
                         if isinstance(sub, ast.FunctionDef)
                         and not _dunder(sub.name)]
        _references(tree, (), frozenset(), _package_modules(tree), used)
    return defs, used


def _called(name: str, used: dict) -> bool:
    """A function or class is read by name or as a module's attribute, a
    method as an attribute."""
    if "." in name:
        return name.split(".")[1] in used["attrs"]
    return name in used["names"]


def test_no_public_name_without_a_caller():
    defs, used = _defs_and_references()
    orphans = [d for d in defs if not _called(d[1], used) and d[1] not in KEEP]
    assert orphans == [], (
        "names with no caller in the package; give each a caller, "
        "delete it, or justify it in KEEP: %r" % orphans)
    # a kept name that no longer exists is a stale entry
    assert KEEP <= {name for _, name in defs}


def test_a_parameter_or_local_is_not_a_caller():
    tree = ast.parse(
        "from . import lattice as lat\n"
        "def f(g, *, h=k):\n"
        "    m = g + h\n"
        "    return m.t + u + f(m) + lat.w\n"
        "def p() -> v:\n"
        "    global q\n"
        "    q = 1\n"
        "    return q + r.s(f)\n")
    used = {"names": set(), "attrs": set()}
    _references(tree, (), frozenset(), _package_modules(tree), used)
    assert used == {"names": {"lat", "k", "u", "w", "v", "q", "r", "f"},
                    "attrs": {"t", "w", "s"}}
