"""The import rule: ``import repro`` and the default paths load numpy only.

scipy (the online selectors' t-test), networkx (two graph tests) and the
process pool (a pooled training run's fits) are imported where they run,
never at module level.  The pool rule is checked here too: a run that does
not pool — one CPU, a ``knn`` or ``linear_l1`` model, a memo-warm re-run
with one miss — never imports it.  The default paths start no thread
either: the service answers each request on its caller's thread.  Each
case runs in a fresh interpreter: other test modules import scipy at
collection, so this process cannot tell.
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
import json, sys, threading

FORBIDDEN = {FORBIDDEN!r}
loaded = {{}}

def record(stage):
    loaded[stage] = [name for name in FORBIDDEN if name in sys.modules]

import repro
record("import repro")

# On one CPU: on more, the default lightgbm augment pools its fits.
from repro.engine import parallel
parallel.resolve_max_workers = lambda: 1

from repro import AutoFeat, AutoFeatConfig
from repro.datasets import build_dataset, datalake_drg
from repro.service import DiscoveryService

bundle = build_dataset("credit")
AutoFeat(datalake_drg(bundle), AutoFeatConfig()).augment(
    bundle.base_name, bundle.label_column
)
record("augment")

with DiscoveryService(bundle.tables) as service:
    service.discover(bundle.base_name, bundle.label_column)
    satellite = next(t for t in bundle.tables if t.name != bundle.base_name)
    service.update_table(satellite.take(range(satellite.n_rows // 2)))
    service.discover(bundle.base_name, bundle.label_column)
    threads = threading.active_count()
record("service discover/update")
print(json.dumps({{"loaded": loaded, "threads": threads}}))
"""

PROCESSES_DISCOVER = """
import json, sys
from repro import AutoFeat, AutoFeatConfig
from repro.datasets import build_dataset, datalake_drg

bundle = build_dataset("credit")
AutoFeat(datalake_drg(bundle), AutoFeatConfig()).discover(
    bundle.base_name, bundle.label_column
)
print(json.dumps("concurrent.futures.process" in sys.modules))
"""

#: Runs that do not pool, each followed by the pool's import state, then
#: one that does (on a host that can fork).  The CPU count is pinned by
#: patching :func:`repro.engine.parallel.resolve_max_workers`.
POOL_RULE = """
import json, os, sys
from repro import AutoFeat, AutoFeatConfig
from repro.core import OutcomeMemo
from repro.datasets import build_dataset, datalake_drg
from repro.engine import parallel

bundle = build_dataset("credit")
drg = datalake_drg(bundle)
pooled = {}

def cpus(n):
    parallel.resolve_max_workers = lambda: n

def augment(model, config=AutoFeatConfig(), memo=None):
    AutoFeat(drg, config, memo=memo).augment(bundle.base_name, bundle.label_column, model)

def record(case):
    pooled[case] = "concurrent.futures.process" in sys.modules

cpus(1)
augment("lightgbm")
record("one cpu")
memo = OutcomeMemo()
augment("lightgbm", AutoFeatConfig(top_k=3), memo)
cpus(2)
augment("lightgbm", AutoFeatConfig(top_k=4), memo)
record("memo-warm re-run, one miss")
for model in ("knn", "linear_l1"):
    augment(model)
    record(model)
augment("lightgbm")
record("lightgbm")
print(json.dumps({"fork": hasattr(os, "fork"), "pooled": pooled}))
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
    out = run_fresh(DEFAULT_PATHS)
    assert out["loaded"] == {
        "import repro": [],
        "augment": [],
        "service discover/update": [],
    }
    # The service answers on the caller's thread: the library starts none.
    assert out["threads"] == 1


def test_discover_never_starts_the_pool():
    # Only training fits pool: discovery runs in process on every CPU count.
    assert run_fresh(PROCESSES_DISCOVER) is False


def test_only_a_pooling_run_imports_the_pool():
    out = run_fresh(POOL_RULE)
    assert out["pooled"] == {
        "one cpu": False,
        "memo-warm re-run, one miss": False,
        "knn": False,
        "linear_l1": False,
        "lightgbm": out["fork"],
    }


def test_pvalue_loads_scipy_at_its_call_site():
    out = run_fresh(PVALUE)
    assert not out["before"]
    assert out["after"]
    assert out["p"] == out["expected"]
