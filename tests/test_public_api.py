"""The package root exports what the CLI, the acceptance criteria and
the benchmark call, and the types those calls return or raise; every
public function and class of a module has a reader.  The callers are
read as source, so no benchmark code runs here."""

import ast
import sys
from pathlib import Path

import pytest

import rodtwin

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rodtwin"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
CALLERS = [PACKAGE / "cli.py", ROOT / "tests" / "test_acceptance.py"] + sorted(
    (ROOT / "perfbench").glob("*.py")
)
LIBRARY = sorted(PACKAGE.glob("*.py"))
# returned or raised by the calls above, and used through their values
RETURNED_TYPES = {
    "RodModel",
    "FourierModes",
    "QuadratureRule",
    "ParetoPoint",
    "QualityReport",
    "FitStageError",
    "LinalgError",
}


def _dotted(node):
    """'a.b.c' for a chain of names and attributes, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and head + "." + node.attr
    return None


def reached_names(path):
    """Names the file reaches on rodtwin or its modules: imported from
    them, or read as an attribute of a name bound to one of them."""
    tree = ast.parse(path.read_text(), str(path))
    packages, modules, reached = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "rodtwin":
                    bound = alias.asname or alias.name.split(".")[0]
                    (modules if alias.asname and "." in alias.name else packages).add(bound)
        elif isinstance(node, ast.ImportFrom):
            relative = node.level > 0 and path.parent == PACKAGE
            if not (relative or (node.module or "").split(".")[0] == "rodtwin"):
                continue
            from_root = node.module in (None, "rodtwin") if relative else node.module == "rodtwin"
            for alias in node.names:
                if from_root and alias.name in MODULES:
                    modules.add(alias.asname or alias.name)
                else:
                    reached.add(alias.name)
    modules |= {"%s.%s" % (package, module) for package in packages for module in MODULES}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _dotted(node.value) in packages | modules:
            reached.add(node.attr)
    return reached


def test_every_export_has_a_caller():
    reached = set().union(*(reached_names(path) for path in CALLERS))
    assert sorted(set(rodtwin.__all__) - reached - RETURNED_TYPES) == []


def test_returned_types_are_exported():
    assert RETURNED_TYPES <= set(rodtwin.__all__)


def test_plain_attributes_do_not_count(tmp_path):
    path = tmp_path / "caller.py"
    path.write_text(
        "import rodtwin as rt\n"
        "import rodtwin.cli\n"
        "from rodtwin import rod\n"
        "from rodtwin.metrics import quality_report\n"
        "model = rt.fit(snap, 10, 1)\n"
        "model.amplitudes, rod.reconstruct(model), rodtwin.cli.main, rodtwin.io.fmt\n"
    )
    assert reached_names(path) == {"fit", "quality_report", "reconstruct", "cli", "main", "io", "fmt"}


def defined_names(path):
    """The public functions and classes that path defines at module level."""
    tree = ast.parse(path.read_text(), str(path))
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def library_names(path):
    """Names the library file reads: reached on rodtwin's modules, or
    read as a plain name outside the module-level definition of that
    name, so a function calling itself is not its own reader."""
    tree = ast.parse(path.read_text(), str(path))
    read = reached_names(path)
    for top in tree.body:
        own = getattr(top, "name", None)
        read |= {
            node.id
            for node in ast.walk(top)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != own
        }
    return read


def traced_names():
    """The function names perfbench's tracer wraps, read from its TRACED
    literal without importing perfbench."""
    path = ROOT / "perfbench" / "tracer.py"
    tree = ast.parse(path.read_text(), str(path))
    (traced,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["TRACED"]
    ]
    return {name for names in ast.literal_eval(traced).values() for name in names}


def script_names():
    """The functions that pyproject.toml's [project.scripts] runs."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    return {value.rpartition(":")[2] for value in scripts.values()}


def test_every_public_name_has_a_reader():
    defined = set().union(*(defined_names(path) for path in LIBRARY))
    # TRACED alone reads rod.mode_gram_deviation and rank_select.objectives;
    # they go once perfbench takes its layers from a fit record instead of
    # wrapping names (ROADMAP items 24, then 23)
    read = set().union(
        *(library_names(path) for path in LIBRARY),
        *(reached_names(path) for path in CALLERS),
        traced_names(),
        script_names(),
    )
    assert sorted(defined - read) == []


def test_own_definition_does_not_count(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "def walk(n):\n"
        "    return walk(n - 1) if n else helper()\n"
        "class Node:\n"
        "    def copy(self):\n"
        "        return Node()\n"
        "class Leaf:\n"
        "    pass\n"
        "table = {'key': Leaf}\n"
    )
    assert defined_names(path) == {"walk", "Node", "Leaf"}
    assert library_names(path) == {"n", "helper", "Leaf"}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(path):
    """'module._name' for each private name that the library file takes
    from another rodtwin module: imported by `from .module import _name`
    or read as `module._name` on a name bound to that module."""
    tree = ast.parse(path.read_text(), str(path))
    bound, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            head, _, module = (node.module or "").partition(".")
            if node.level:
                module = node.module or ""
            elif head != "rodtwin":
                continue
            for alias in node.names:
                if not module and alias.name in MODULES:
                    bound[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    reads.add("%s.%s" % (module or "rodtwin", alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "rodtwin":
                    module = alias.name.partition(".")[2]
                    bound[alias.asname or alias.name] = module or "rodtwin"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            owner = _dotted(node.value)
            if owner in bound:
                reads.add("%s.%s" % (bound[owner], node.attr))
            elif owner and owner.startswith("rodtwin."):
                reads.add("%s.%s" % (owner.partition(".")[2], node.attr))
    return reads


def test_no_module_reads_another_modules_private_names():
    reads = {"%s: %s" % (path.stem, name) for path in LIBRARY for name in private_reads(path)}
    assert sorted(reads) == []


def test_private_reads_are_seen(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "from __future__ import annotations\n"
        "from . import metrics, rank_select as r\n"
        "from .rod import _scan, fit\n"
        "from rodtwin.empirical import _check_baseline\n"
        "import rodtwin.io\n"
        "metrics._scores, r.pareto_sweep, r._score, rodtwin.io._cell, rodtwin.__version__\n"
        "self._own\n"
    )
    assert private_reads(path) == {
        "rod._scan",
        "empirical._check_baseline",
        "metrics._scores",
        "rank_select._score",
        "io._cell",
    }


def calls_of(path, names):
    """(name, 'module.function') for each call of one of names, made
    through the bare name or as an attribute, by the function of the
    library file that holds it, or by the module outside any function."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = "%s.%s" % (path.stem, child.name)
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in names:
                    found.add((name, where))
            visit(child, inner)

    visit(ast.parse(path.read_text(), str(path)), path.stem)
    return found


def test_only_walk_walks_in_row_blocks():
    # the walk of the data in row blocks lives in walk; io writes the
    # parsed table of its memo a block of rows at a time
    names = {"row_blocks", "add_column_sums"}
    outside = set().union(*(calls_of(path, names) for path in LIBRARY if path.stem != "walk"))
    assert sorted(outside) == [("row_blocks", "io.write_snapshot_memo")]


def test_io_leaves_finiteness_to_the_constructors():
    # a non-finite cell is refused by SnapshotMatrix or RodModel, whose
    # SnapshotFault the readers place at its path:line
    assert sorted(calls_of(PACKAGE / "io.py", {"isfinite"})) == []


def test_calls_are_placed_by_function(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "from . import walk\n"
        "class Matrix:\n"
        "    def check(self):\n"
        "        return [walk.row_blocks(n) for n in (1, 2)]\n"
        "def total(x):\n"
        "    f = lambda: add_column_sums(x, x, x)\n"
        "    return f\n"
        "blocks = list(row_blocks(3))\n"
    )
    assert calls_of(path, {"row_blocks", "add_column_sums"}) == {
        ("row_blocks", "module.check"),
        ("add_column_sums", "module.total"),
        ("row_blocks", "module"),
    }
