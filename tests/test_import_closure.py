"""The import rule: ``import repro`` and the default paths load numpy only.

scipy (the online selectors' t-test), networkx (two graph tests) and the
process pool (the opt-in ``processes`` backend's training wave) are
imported where they run, never at module level.  Each case runs in a fresh interpreter: other
test modules import scipy at collection, so this process cannot tell.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

FORBIDDEN = ("scipy", "networkx", "concurrent.futures.process", "multiprocessing")

SRC = str(Path(repro.__file__).resolve().parents[1])

DEFAULT_PATHS = f"""
import json, sys

FORBIDDEN = {FORBIDDEN!r}
loaded = {{}}

def record(stage):
    loaded[stage] = [name for name in FORBIDDEN if name in sys.modules]

import repro
record("import repro")

from repro import AutoFeat, AutoFeatConfig
from repro.datasets import build_dataset, datalake_drg
from repro.service import DiscoveryService

bundle = build_dataset("credit")
AutoFeat(datalake_drg(bundle), AutoFeatConfig()).augment(
    bundle.base_name, bundle.label_column
)
record("augment")

with DiscoveryService(bundle.tables, n_workers=1) as service:
    service.discover(bundle.base_name, bundle.label_column)
    satellite = next(t for t in bundle.tables if t.name != bundle.base_name)
    service.update_table(satellite.head(satellite.n_rows // 2))
    service.discover(bundle.base_name, bundle.label_column)
record("service discover/update")
print(json.dumps(loaded))
"""

PROCESSES_DISCOVER = """
import json, sys
from repro import AutoFeat, AutoFeatConfig
from repro.datasets import build_dataset, datalake_drg

bundle = build_dataset("credit")
config = AutoFeatConfig(parallel_backend="processes")
AutoFeat(datalake_drg(bundle), config).discover(bundle.base_name, bundle.label_column)
print(json.dumps("concurrent.futures.process" in sys.modules))
"""

PVALUE = """
import json, sys
import numpy as np
from repro.selection import partial_correlation_pvalue

rng = np.random.default_rng(3)
y = rng.normal(size=200)
x = y + rng.normal(size=200)
before = "scipy.stats" in sys.modules
p = partial_correlation_pvalue(x, y, None)
after = "scipy.stats" in sys.modules

from scipy import stats

dof = len(x) - 2
rx, ry = x - x.mean(), y - y.mean()
r = float(np.clip(np.mean(rx * ry) / (rx.std() * ry.std()), -0.9999999, 0.9999999))
t = r * np.sqrt(dof / (1.0 - r * r))
expected = float(2.0 * stats.t.sf(abs(t), dof))
print(json.dumps({"before": before, "after": after, "p": p.hex(), "expected": expected.hex()}))
"""


def run_fresh(script: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_default_paths_load_numpy_only():
    loaded = run_fresh(DEFAULT_PATHS)
    assert loaded == {
        "import repro": [],
        "augment": [],
        "service discover/update": [],
    }


def test_discover_never_starts_the_pool():
    # Only the training wave pools: discovery runs in process on every backend.
    assert run_fresh(PROCESSES_DISCOVER) is False


def test_pvalue_loads_scipy_at_its_call_site():
    out = run_fresh(PVALUE)
    assert not out["before"]
    assert out["after"]
    assert out["p"] == out["expected"]
