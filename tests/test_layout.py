"""The layout rule that helpers only tests use live in `tests/`: every
top-level function and class in `src/xorcert/`, and every method but the
dunders, must be named somewhere in the product (`src/`, `perfbench/`
outside its tests, `tools/`) outside its own definition, or be an entry
point of `[project.scripts]`."""

import ast
import os
import re
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "xorcert")
PRODUCT = ("src", "perfbench", "tools")

# The conjunction chain: no command reaches it, but perfbench/layers.py
# wraps these methods by name, as strings, for its trace spans.  They leave
# `src/` with those spans (ROADMAP item 7, after item 5).
ALLOWED = {"TbddEngine.tbdd_from_clause", "TbddEngine.tbdd_and", "TbddEngine.tbdd_upgrade"}


def mentions(tree) -> Counter:
    """How often each name is read as a Name, an Attribute, a keyword or an
    import in `tree`."""
    seen = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            seen[node.id] += 1
        elif isinstance(node, ast.Attribute):
            seen[node.attr] += 1
        elif isinstance(node, ast.keyword) and node.arg:
            seen[node.arg] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                seen.update(alias.name.split("."))
    return seen


def product_files():
    for top in PRODUCT:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = [d for d in dirnames if d not in ("tests", "__pycache__")]
            yield from (os.path.join(dirpath, f) for f in filenames if f.endswith(".py"))


def parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def definitions(tree):
    """(qualified name, node) of the top-level functions and classes and of
    the classes' methods other than dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item


def entry_points():
    with open(os.path.join(ROOT, "pyproject.toml")) as fh:
        scripts = fh.read().split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r":(\w+)\"", scripts))


def unused_definitions():
    used = Counter()
    for path in product_files():
        used += mentions(parse(path))
    unused = set()
    for fname in sorted(os.listdir(PACKAGE)):
        if fname.endswith(".py"):
            for qualname, node in definitions(parse(os.path.join(PACKAGE, fname))):
                if used[node.name] - mentions(node)[node.name] <= 0:
                    unused.add(qualname)
    return unused - entry_points()


def test_src_defines_nothing_only_tests_use():
    assert unused_definitions() == ALLOWED

