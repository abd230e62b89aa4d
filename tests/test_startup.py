"""What a cold start of the CLI loads.

Every `permdom` call is a fresh process, so every module that
`import permdom.cli` loads is paid on every request.  `dataclasses` (which
loads `inspect`) and `fractions` (which loads `decimal`) cost more at start-up
than permdom itself, so none of them may load there.  Every permdom module
must: the benchmark clears the `functools` caches of the permdom modules
loaded at start, and a module loaded later would carry its memos from one
request into the next.
"""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PRINT_MODULES = "import sys; print('\\n'.join(sys.modules))"
HEAVY = {"dataclasses", "inspect", "fractions", "decimal"}
LAYERS = {"errors", "perm", "graph", "domination", "constructions",
          "counting", "sequences", "oracle", "verify"}


def _modules(code: str) -> set[str]:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code + "; " + PRINT_MODULES],
                         capture_output=True, text=True, env=env, timeout=60,
                         check=True).stdout
    return set(out.split())


def test_a_cold_start_loads_every_layer_and_no_heavy_module():
    added = (_modules("import permdom.cli; permdom.cli.build_parser()")
             - _modules("pass"))
    assert not added & HEAVY
    assert {f"permdom.{layer}" for layer in LAYERS} <= added
