"""Every name the benchmark's tracer rebinds is still bound where it is called.

``perfbench/tracer.py`` wraps library functions at their call sites, listed
in ``CALL_SITES``; a refactor that drops one of those names would break the
traced benchmark run.  The table is read from the file's source, so the
benchmark itself is neither imported nor run.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _call_sites() -> dict[str, dict[str, str]]:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) \
                and node.target.id == "CALL_SITES":
            return ast.literal_eval(node.value)
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "CALL_SITES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no CALL_SITES table in {TRACER}")


def test_every_traced_call_site_is_bound():
    sites = _call_sites()
    assert sites
    missing = [f"{module}.{attr}" for module, attrs in sites.items()
               for attr in attrs if not callable(getattr(importlib.import_module(module),
                                                         attr, None))]
    assert missing == []
