"""The benchmark's per-layer metric names are part of the program's API.

`perfbench/tracer.py` wraps permdom's public functions by name, and a
per-layer metric whose function was removed or renamed reads null in a
traced run while the run still exits 0.  This builds the tracer as
`perfbench/run.py --trace 1` does, in a fresh interpreter that has loaded
only what `permdom.cli` imports, and checks that no metric would read null.
The perfbench modules are imported, never changed.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

NULL_METRICS = """
import json, sys
from pathlib import Path
sys.path.insert(0, str(Path("perfbench").resolve()))
import harness, tracer
harness.load_permdom(Path(".").resolve())
modules = harness.permdom_modules()
t = tracer.Tracer(modules, harness.Isolation(modules).caches)
metrics = t.pass_metrics()
print(json.dumps({"names": sorted(metrics),
                  "null": sorted(k for k, v in metrics.items() if v is None)}))
"""


def test_traced_per_layer_metrics_are_not_null():
    out = subprocess.run([sys.executable, "-c", NULL_METRICS], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    report = json.loads(out)
    assert report["null"] == []
    assert "sequences.lift_families.self_s" in report["names"]
