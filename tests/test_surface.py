import ast
from pathlib import Path

import latticecode

SRC = Path(latticecode.__file__).parent

# Public names that nothing in the package calls, kept on purpose.
KEEP = {
    # reproduce a claim of the paper in the acceptance tests
    "abs_encode_step", "chain_entropy_bits", "description_bounds",
    "entropy_estimate", "thermalize_chain_matrix", "centered_square",
    # console entry point
    "main",
}


def _defs_and_references():
    """(module, name) of every public top-level function and class, and
    every Name or attribute the package mentions outside the body of the
    definition it names."""
    defs, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defs.append((path.stem, node.name))
                for sub in ast.walk(node):
                    owner[id(sub)] = node.name
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            else:
                continue
            if owner.get(id(sub)) != name:
                used.add(name)
    return defs, used


def test_no_public_name_without_a_caller():
    defs, used = _defs_and_references()
    orphans = [d for d in defs if d[1] not in used and d[1] not in KEEP]
    assert orphans == [], (
        "public names with no caller in the package; give each a caller, "
        "delete it, or justify it in KEEP: %r" % orphans)
    # a kept name that no longer exists is a stale entry
    assert KEEP <= {name for _, name in defs}
