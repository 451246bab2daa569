"""A cold ``reconfcheck check`` imports only what every check needs.

Digests load ``hashlib`` when a witness is shown, ``--json`` loads ``json``,
and the records are defined without ``dataclasses`` (which would bring in
``inspect``).  The modules are compared before and after the import, in a
fresh interpreter, so a module the interpreter's start-up loads does not
count.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_NEW_MODULES = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
before = set(sys.modules)
import reconfcheck.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_importing_the_cli_loads_no_dataclasses_inspect_hashlib_or_json():
    out = subprocess.run([sys.executable, "-c", _NEW_MODULES], capture_output=True,
                         text=True, check=True).stdout
    new = set(out.split())
    assert "reconfcheck.cli" in new
    assert new.isdisjoint({"dataclasses", "inspect", "hashlib", "json"}), sorted(new)
