"""No package module imports another's private name, every private name
has a caller in the package, and only data.py's reader reads a file.

A `_`-prefixed name is its module's own: a module that imports one from
another has to know what lies behind it, which is where the code that
reads it belongs. A private function, class or constant that no package
module reads outside its own definition is kept only for tests, and the
tests should call what the program runs instead. Every input file is
opened and read by data.read_bytes, and every JSON object parsed by
data.json_object, so that all of them fail alike. The checks walk each module's syntax
tree, so they read the source and import nothing.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wavets"
MODULES = sorted(PACKAGE.glob("*.py"))


def private_imports(path: Path) -> list[str]:
    """`module.name` of every `_`-prefixed name that path imports from the
    package: relative imports and absolute ones from wavets."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "wavets":
            continue
        found += [f"{module}.{alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def private_definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """(name, statement) of every module-level `_`-prefixed function, class
    or assigned constant, dunders excepted."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        private = [name for name in names if name.startswith("_") and not name.endswith("__")]
        found += [(name, node) for name in private]
    return found


def read_names(node: ast.AST) -> set[str]:
    """Every name that node reads: loaded names, attributes and imported names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def unread_private_names() -> list[str]:
    """`module.name` of every private definition that no package module
    reads outside the statement that defines it."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    # Names read by each top-level statement of every module.
    reads = [(node, read_names(node)) for tree in trees.values() for node in tree.body]
    unread = []
    for module, tree in trees.items():
        for name, definition in private_definitions(tree):
            if not any(name in names for node, names in reads if node is not definition):
                unread.append(f"{module}.{name}")
    return unread


def test_the_package_has_modules():
    assert {"model.py", "train.py", "cli.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_module_imports_a_private_name(path):
    assert private_imports(path) == []


def test_every_private_name_has_a_caller_in_the_package():
    assert unread_private_names() == []


# The functions that may open a file to read it or parse JSON text.
READERS = {"data.py": {"read_bytes", "json_object"}}


def opens_to_read(call: ast.Call) -> bool:
    """Whether call is open(...) or x.open(...) in a mode that reads: a
    mode that is not a string constant counts as one."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        at = 1
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        at = 0
    else:
        return False
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[at : at + 1]
    if not modes:
        return True
    mode = modes[0]
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return "r" in mode.value or "+" in mode.value


def file_reads(path: Path) -> list[str]:
    """`line: call` of every call in path, outside the readers READERS
    allows it, that reads a file or parses JSON: json.load or json.loads,
    .read_text() or .read_bytes(), or an open() that reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in READERS.get(path.name, ()):
            allowed.update(map(id, ast.walk(node)))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in allowed:
            continue
        func = node.func
        json_load = (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "json"
            and func.attr in ("load", "loads")
        )
        reads_path = isinstance(func, ast.Attribute) and func.attr in ("read_text", "read_bytes")
        if json_load or reads_path or opens_to_read(node):
            found.append(f"{node.lineno}: {ast.unparse(func)}")
    return found


def test_the_readers_exist():
    for name, readers in READERS.items():
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        assert readers <= {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_only_the_reader_reads_a_file(path):
    assert file_reads(path) == []
