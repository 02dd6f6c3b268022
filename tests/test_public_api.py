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
    # TRACED alone reads rod.mode_gram_deviation, empirical.mean_projection_norm
    # and rank_select.objectives; they go once perfbench takes its layers
    # from a fit record instead of wrapping names (ROADMAP items 24, then 23)
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
