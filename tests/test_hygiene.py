"""Static checks on the package sources: no dead imports, no dead private or public
definitions, one function that decides a train/test split, and no training history
computed only to be thrown away."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tsfo"
MODULES = sorted(SRC.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def used_names(tree):
    """Every name a module reads: bare names and the heads of dotted ones."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def imported_names(tree):
    """(bound name, line) for every import except ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    tree = parse(path)
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_no_unreferenced_private_definitions():
    trees = {path.name: parse(path) for path in MODULES}
    referenced = set()
    for tree in trees.values():
        referenced |= used_names(tree)
        referenced |= {name for name, _ in imported_names(tree)}
    dead = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert not dead, f"private definitions nothing in src/ refers to: {dead}"


# run by TestQuantizeRule as the one-call form of compile_linear + compiled_linear
PUBLIC_WITHOUT_CALLERS = {"quantized_linear"}


def test_no_public_orphans():
    """Every public top-level function or class is used by the package itself,
    the benchmark or an acceptance criterion, not only by its own unit tests.

    A use inside the definition's own body or a re-export in ``__init__`` does
    not count.
    """
    users = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]:
        tree = parse(path)
        users |= used_names(tree) | {name for name, _ in imported_names(tree)}
    defined = {}
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        for top in parse(path).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
                defined[top.name] = path.name
            for name in used_names(top) | {name for name, _ in imported_names(top)}:
                if name != getattr(top, "name", None) or path.name != defined.get(name):
                    users.add(name)
    orphans = sorted(f"{module}:{name}" for name, module in defined.items() if name not in users)
    assert orphans == sorted(
        f"{defined[name]}:{name}" for name in PUBLIC_WITHOUT_CALLERS
    ), "public definitions only their own unit tests use"


def callers_of(trees, name):
    """(module, top-level definition) of every call to ``name``."""
    found = set()
    for module, tree in trees.items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)
                ):
                    found.add((module, getattr(top, "name", None)))
    return found


def test_one_function_decides_the_split():
    trees = {path.name: parse(path) for path in MODULES}
    assert callers_of(trees, "stratified_split") == {("data.py", "subject_wise_split")}
    readers = {
        module
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "predefined_split"
    }
    assert readers <= {"data.py", "serialize.py"}, f"modules that read a split: {readers}"
    loaders = {
        (module, node.name): node.args
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and (module, node.name) in {("data.py", "load_ucr"), ("cli.py", "load_any_dataset")}
    }
    assert len(loaders) == 2
    for loader, args in loaders.items():
        params = args.posonlyargs + args.args + args.kwonlyargs
        assert len(params) == 1 and not (args.vararg or args.kwarg), f"{loader} takes more than a path"


def test_no_caller_discards_a_training_history():
    # train scores the whole train set after every epoch to fill its history;
    # a caller that reads no history calls fit, which evaluates nothing
    discarded = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and "train" in {getattr(node.value.func, a, None) for a in ("id", "attr")}
        and any(
            isinstance(target, ast.Tuple) and getattr(target.elts[-1], "id", None) == "_"
            for target in node.targets
        )
    ]
    assert not discarded, f"train() called only to drop its history: {discarded}"
