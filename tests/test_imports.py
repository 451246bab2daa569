"""A cold ``reconfcheck check`` imports only what every check needs.

Digests load ``hashlib`` when a witness is shown, ``--json`` loads ``json``,
and the records are defined without ``dataclasses`` (which would bring in
``inspect``).  The modules are compared before and after the import, in a
fresh interpreter, so a module the interpreter's start-up loads does not
count.

The same interpreter runs with ``-W error`` and watches ``compile`` audit
events: ``record.py`` compiles its ``==`` and hash code once per process,
never once per class, and the generated text raises no warning.
"""

import ast
import functools
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# a compile of anything but a module's .py file is charged to the module whose
# body was running, and only the package's modules count: the standard
# library's own namedtuples compile text too, and differ by Python version
_NEW_MODULES = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
compiled = []

def watch(event, args):
    if event == "compile" and not str(args[1]).endswith(".py"):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name != "<module>":
            frame = frame.f_back
        if frame is not None and frame.f_globals["__name__"].startswith("reconfcheck"):
            compiled.append((frame.f_globals["__name__"], str(args[1])))

before = set(sys.modules)
sys.addaudithook(watch)
import reconfcheck.cli
print(" ".join(sorted(set(sys.modules) - before)))
print(repr(compiled))
"""


@functools.cache
def _fresh_import() -> tuple[set[str], list[tuple[str, str]]]:
    """The modules a fresh ``import reconfcheck.cli`` loads, and the compiles
    the package's modules ask for, with warnings raised as errors."""
    run = subprocess.run([sys.executable, "-W", "error", "-c", _NEW_MODULES],
                         capture_output=True, text=True)
    assert run.returncode == 0 and run.stderr == "", run.stderr
    modules, compiled = run.stdout.splitlines()
    return set(modules.split()), ast.literal_eval(compiled)


def test_importing_the_cli_loads_no_dataclasses_inspect_hashlib_or_json():
    new = _fresh_import()[0]
    assert "reconfcheck.cli" in new
    assert new.isdisjoint({"dataclasses", "inspect", "hashlib", "json"}), sorted(new)


def test_importing_the_cli_compiles_generated_code_once_and_warns_of_nothing():
    compiled = _fresh_import()[1]
    assert len(compiled) <= 1, compiled
