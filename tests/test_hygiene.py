"""Static checks on the package sources: no dead imports, no dead private or public
definitions, one function that decides a train/test split, and no training history
computed only to be thrown away."""

import ast
import os
import pathlib
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from tsfo import errors

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


# public definitions allowed to have only unit-test callers
PUBLIC_WITHOUT_CALLERS: set[str] = set()


def name_uses(tree):
    """How often a module reads each name, as ``used_names`` and ``imported_names`` see it."""
    uses = Counter(name for name, _ in imported_names(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
    return uses


def public_definitions(tree):
    """(qualified name, node) of each public top-level function or class and of
    each public method or property of a top-level class."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
            yield top.name, top
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    yield f"{top.name}.{node.name}", node


def test_no_module_imports_a_private_name():
    """A ``_`` name belongs to its module: another module calls a public one."""
    imported = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in MODULES
        for node in ast.walk(parse(path))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert not imported, f"private names imported from another module: {imported}"


def test_no_public_orphans():
    """Every public function, class, method or property is used by the package
    itself, the benchmark or an acceptance criterion, not only by its own unit
    tests. A use inside the definition's own body does not count.
    """
    users = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    trees = {path: parse(path) for path in users + MODULES}
    uses = sum((name_uses(tree) for tree in trees.values()), Counter())
    orphans = sorted(
        f"{path.name}:{qualname}"
        for path in MODULES
        for qualname, node in public_definitions(trees[path])
        if uses[node.name] == name_uses(node)[node.name]
    )
    assert orphans == sorted(PUBLIC_WITHOUT_CALLERS), "public definitions only their own unit tests use"


def test_package_binds_only_its_version_and_modules_import_alone():
    """``tsfo/__init__.py`` re-exports nothing, and each module imports in a
    fresh interpreter on its own, so no import cycle can hide behind the
    order in which a package namespace imports them."""
    tree = parse(SRC / "__init__.py")
    bound = [
        ast.unparse(target)
        for node in tree.body
        if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))
        for target in getattr(node, "targets", [node])
    ]
    assert bound == ["__version__"], f"tsfo/__init__.py binds more than __version__: {bound}"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    for path in MODULES:
        module = "tsfo" if path.stem == "__init__" else f"tsfo.{path.stem}"
        done = subprocess.run(
            [sys.executable, "-c", f"import {module}"], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, f"import {module} alone fails:\n{done.stderr}"


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
        and (module, node.name) in {("data.py", "load_ucr"), ("serialize.py", "load_any_dataset")}
    }
    assert len(loaders) == 2
    for loader, args in loaders.items():
        params = args.posonlyargs + args.args + args.kwonlyargs
        assert len(params) == 1 and not (args.vararg or args.kwarg), f"{loader} takes more than a path"


def test_one_module_knows_the_ucr_archive_layout():
    """Only ``data.py`` names the archive's ``<name>_TRAIN`` and ``<name>_TEST``
    files, so a folder, a pair and its split are resolved in one place."""
    holders = {
        path.name
        for path in MODULES
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and ("_TRAIN" in node.value or "_TEST" in node.value)
    }
    assert holders == {"data.py"}, f"modules that name UCR archive files: {holders}"


def test_no_handler_turns_one_toolkit_error_into_another():
    """The home of each rule raises its error class, so no ``except`` in src/
    catches one ``TsfoError`` subclass and raises another. ``serialize.load``
    alone does: its docstring makes content that fails any check a ParseError."""
    toolkit = {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.TsfoError)
    }
    converted = []
    for path in MODULES:
        for top in parse(path).body:
            if (path.name, getattr(top, "name", None)) == ("serialize.py", "load"):
                continue
            for handler in ast.walk(top):
                if not isinstance(handler, ast.ExceptHandler) or handler.type is None:
                    continue
                types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
                caught = {ast.unparse(t) for t in types} & toolkit
                raised = {
                    ast.unparse(getattr(node.exc, "func", node.exc))
                    for node in ast.walk(handler)
                    if isinstance(node, ast.Raise) and node.exc is not None
                } & toolkit
                if caught and raised - caught:
                    converted.append(f"{path.name}:{handler.lineno} {sorted(caught)} -> "
                                     f"{sorted(raised - caught)}")
    assert not converted, f"handlers that change a toolkit error's class: {converted}"


def test_one_module_pins_blas():
    """Only ``metrics.py`` reads the process's memory map to find the loaded
    OpenBLAS and binds its thread-count setter, and no module imports
    threadpoolctl, so every timed region pins BLAS through ``metrics.single_thread``."""
    pinners, importers = set(), set()
    for path in MODULES:
        for node in ast.walk(parse(path)):
            text = node.value if isinstance(node, ast.Constant) else getattr(node, "attr", None)
            if isinstance(text, str) and ("/proc/self/maps" in text or "set_num_threads" in text):
                pinners.add(path.name)
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:  # a name given to ``find_spec`` or ``import_module``
                names = [text] if isinstance(text, str) else []
            if any(name.split(".")[0] == "threadpoolctl" for name in names):
                importers.add(path.name)
    assert pinners == {"metrics.py"}, f"modules that find or set BLAS threads: {pinners}"
    assert not importers, f"modules that import threadpoolctl: {importers}"


def test_study_rules_are_checked_before_data_is_built():
    """``ExperimentConfig`` holds every rule of a study, op order included, so the
    functions that run a study raise nothing of their own."""
    raising = [
        f"bench.py:{node.lineno}"
        for top in parse(SRC / "bench.py").body
        if getattr(top, "name", None) in ("_apply_pipeline", "run_experiment")
        for node in ast.walk(top)
        if isinstance(node, ast.Raise)
    ]
    assert not raising, f"study code that raises after the config is built: {raising}"


def numpy_paths(tree):
    """(line, dotted path) of every numpy module or attribute a module names:
    its imports from numpy and its ``np.a.b`` / ``numpy.a.b`` attribute chains."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                yield node.lineno, f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Attribute):
            parts = [node.attr]
            value = node.value
            while isinstance(value, ast.Attribute):
                parts.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name) and value.id in ("np", "numpy"):
                yield node.lineno, ".".join(["numpy", *reversed(parts)])


def test_no_private_numpy_api():
    """``pyproject.toml`` allows numpy 1.24: ``np._core`` does not exist before
    2.0, and ``numpy.core`` is private from 2.0 on, so src/ reads neither, nor
    any other ``_`` name of numpy's."""
    private = sorted({
        f"{path.name}:{line} {dotted}"
        for path in MODULES
        for line, dotted in numpy_paths(parse(path))
        if dotted.split(".")[0] == "numpy"
        and any(part == "core" or (part.startswith("_") and not part.startswith("__"))
                for part in dotted.split(".")[1:])
    })
    assert not private, f"private numpy names read by src/: {private}"


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


# The kernels a batch-1 forward calls per layer or per site, by module.
HOT_KERNELS = {
    "tensor.py": {"standardize", "relu", "_quantize_folded", "compiled_linear"},
    "model.py": {"attention_weights", "encode"},
}


def python_number(node):
    """Whether an expression is a numeric literal or arithmetic on one, such as
    ``0``, ``-1`` or ``1.0 / math.sqrt(dh)``: a Python scalar at run time."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) and not isinstance(node.value, bool)
    if isinstance(node, ast.UnaryOp):
        return python_number(node.operand)
    return isinstance(node, ast.BinOp) and (python_number(node.left) or python_number(node.right))


def test_hot_kernels_give_numpy_no_python_scalar():
    """A ufunc converts a Python-scalar operand on every call, about 0.3 µs at
    batch 1, where a 0-d array of the operand's dtype (``tensor.constant``)
    costs nothing more. So no hot kernel hands a numeric literal to a ufunc
    call or an augmented assignment."""
    found, seen = [], set()
    for module, names in HOT_KERNELS.items():
        for top in parse(SRC / module).body:
            if getattr(top, "name", None) not in names:
                continue
            seen.add(top.name)
            for node in ast.walk(top):
                if isinstance(node, ast.AugAssign):
                    operands = [node.value]
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and getattr(node.func.value, "id", None) == "np"
                      and isinstance(getattr(np, node.func.attr, None), np.ufunc)):
                    operands = node.args
                else:
                    continue
                found += [f"{module}:{node.lineno} {ast.unparse(node)}"
                          for operand in operands if python_number(operand)]
    assert seen == set().union(*HOT_KERNELS.values()), "a hot kernel was renamed or moved"
    assert not found, f"Python-scalar operands in hot kernels: {found}"


def own_nodes(func):
    """The nodes of a function's body, not those of the functions defined in it."""
    todo = list(func.body)
    while todo:
        node = todo.pop()
        yield node
        todo += [child for child in ast.iter_child_nodes(node)
                 if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))]


def writes_into_a_parameter(func):
    """Whether ``func`` writes into a parameter array in place: an augmented or
    a subscript assignment into ``params[...]`` or ``<obj>.params[...]``, or into
    a local bound to one, through any view of it (``arr.reshape(-1)[idx] *= 0``).
    Locals bound to a params dict and loop variables over its items or values
    count too. A write through a call, such as ``out=``, is not seen."""
    nodes = list(own_nodes(func))
    dicts, arrays = {"params"}, set()

    def is_dict(node):
        return getattr(node, "id", None) in dicts or getattr(node, "attr", None) == "params"

    def is_array(node):
        return (isinstance(node, ast.Subscript) and is_dict(node.value)
                or getattr(node, "id", None) in arrays)

    for _ in range(2):  # an alias of an alias
        for node in nodes:
            if isinstance(node, (ast.Assign, ast.NamedExpr)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and is_dict(node.value):
                        dicts.add(target.id)
                    elif isinstance(target, ast.Name) and is_array(node.value):
                        arrays.add(target.id)
            elif (isinstance(node, (ast.For, ast.comprehension))
                  and isinstance(node.iter, ast.Call)
                  and getattr(node.iter.func, "attr", None) in ("items", "values")
                  and is_dict(node.iter.func.value)):
                last = node.target.elts[-1] if isinstance(node.target, ast.Tuple) else node.target
                arrays.add(getattr(last, "id", None))

    def into_array(node):  # through subscripts, method calls and attributes
        while not is_array(node) and isinstance(node, (ast.Subscript, ast.Call, ast.Attribute)):
            node = node.func if isinstance(node, ast.Call) else node.value
        return is_array(node)

    for node in nodes:
        if isinstance(node, ast.AugAssign) and into_array(node.target):
            return True
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Subscript) and into_array(t.value) for t in node.targets
        ):
            return True
    return False


def test_every_in_place_parameter_writer_drops_the_float_layout():
    """A float model serves from ``TransformerModel.serving``, tiles of its vectors
    laid out on the first forward, so a function that writes into a parameter
    array in place must drop that layout first. These are the only writers:
    ``adam_step`` updates the params dict ``training._epochs`` hands it, and
    ``_epochs`` and ``apply_unstructured_mask`` each pop ``serving``."""
    writers = {
        f"{path.name}:{func.name}": func
        for path in MODULES
        for func in ast.walk(parse(path))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and writes_into_a_parameter(func)
    }
    assert sorted(writers) == [
        "pruning.py:apply_unstructured_mask", "training.py:_epochs", "training.py:adam_step",
    ], "a new in-place writer of a parameter array; it must drop TransformerModel.serving"
    for where in ("pruning.py:apply_unstructured_mask", "training.py:_epochs"):
        code = {ast.unparse(node) for node in ast.walk(writers[where])}
        assert "vars(model).pop('serving', None)" in code, f"{where} does not drop the layout"
