"""The benchmark harness names library functions by hand; a name the
library drops must not go unnoticed."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# dropped from the library before this guard existed; the harness's own
# self-check still names it
KNOWN_ABSENT = {"linalg.eig_sym_tridiag"}


def test_traced_names_resolve_in_the_library():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    # Patch only resolves the names; apply() would install the wrappers
    absent = set(tracer.Patch(tracer.Recorder()).absent)
    assert absent <= KNOWN_ABSENT
    traced = {"%s.%s" % (m, n) for m, names in tracer.TRACED.items() for n in names}
    assert "rod.mode_gram_deviation" in traced - absent
