"""The package root exports what the CLI, the acceptance criteria and
the benchmark call, and the types those calls return or raise.  The
callers are read as source, so no benchmark code runs here."""

import ast
from pathlib import Path

import rodtwin

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rodtwin"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
CALLERS = [PACKAGE / "cli.py", ROOT / "tests" / "test_acceptance.py"] + sorted(
    (ROOT / "perfbench").glob("*.py")
)
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
