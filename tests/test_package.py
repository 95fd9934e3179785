import ast
from pathlib import Path

import meandre

SOURCE = Path(meandre.__file__).resolve().parent

# Public names that nothing in the package uses, kept on purpose.
KEPT_UNREFERENCED = {
    "seaweed_pairs": "the brute-force enumeration of all descriptors of a rank, "
    "the reference the census and the oracle tests compare against",
    "clear_census_cache": "frees the census memo, which nothing else can drop",
}


def _top_level_names(tree):
    """The public names a module binds at its top level: its functions,
    classes and assigned (or annotated) names, not what it imports."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def _references(tree):
    """Every name a module reads, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_public_name_is_used_exported_or_kept_on_purpose():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCE.glob("*.py")}
    defined = {(module, name) for module, tree in trees.items() for name in _top_level_names(tree)}
    referenced = {name for tree in trees.values() for name in _references(tree)}
    unused = sorted(
        f"{module}:{name}"
        for module, name in defined
        if not name.startswith("_")
        and name not in referenced
        and name not in meandre.__all__
        and name not in KEPT_UNREFERENCED
    )
    assert unused == []
    # an exception the package has come to use, or that is gone, leaves the list
    assert set(KEPT_UNREFERENCED) <= {name for _, name in defined} - referenced
