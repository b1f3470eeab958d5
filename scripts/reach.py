#!/usr/bin/env python
"""Which ``src/repro`` functions does no entry point call?

Runs the non-test entry points one at a time, each in its own interpreter
under a ``sys.setprofile`` / ``threading.setprofile`` call hook, and prints
every function defined under ``--root`` that none of them entered, with its
body lines (docstring included), then the totals.  A function named only in
a docstring counts as unreached: this measures calls, not mentions.

Entry points: every ``python -m repro.bench`` artefact at default size, the
examples, ``scripts/trace_smoke.py``, ``benchmarks/e2e/run.py --smoke``,
both legacy bench smokes and ``scripts/profile_op.py`` on ``dense_discover``
(it patches private names, so a deletion must not break it).  Fork-pool workers are not traced (they leave
through ``os._exit``, so the hook never writes what they saw);
``evaluate_accuracy`` and the model fits are reached inline by the
``linear_l1`` / ``knn`` runs.  Run from the repository root (≈ 8 min on 2 CPUs)::

    python scripts/reach.py
    python scripts/reach.py --root PKG --entry "python script.py"   # other code
"""

import argparse, ast, os, shlex, subprocess, sys, tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOOK = """import atexit, os, sys, threading
_seen = set()
def _hook(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)
@atexit.register
def _dump():
    sys.setprofile(None)
    with open(os.path.join({out!r}, f"{{os.getpid()}}.txt"), "w") as out:
        out.writelines(f"{{os.path.realpath(c.co_filename)}}:{{c.co_firstlineno}}\\n" for c in _seen)
sys.setprofile(_hook)
threading.setprofile(_hook)
"""


def entries() -> list:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.bench.__main__ import EXPERIMENTS
    py = sys.executable
    return ([f"{py} -m repro.bench {name}" for name in sorted(EXPERIMENTS)]
            + [f"{py} {path}" for path in sorted(ROOT.glob("examples/*.py"))]
            + [f"{py} scripts/trace_smoke.py", f"{py} benchmarks/e2e/run.py --smoke",
               f"{py} benchmarks/bench_service.py --smoke", f"{py} benchmarks/bench_anytime.py --smoke",
               f"{py} scripts/profile_op.py --workload dense_discover --top 1"])


def functions(node, path, prefix=""):
    """Yield ``((file, first line), qualname, body lines)`` for every def under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield (str(path), first), prefix + child.name, child.end_lineno - child.body[0].lineno + 1
        nested = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from functions(child, path, f"{prefix}{child.name}." if nested else prefix)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT / "src" / "repro")
    parser.add_argument("--entry", action="append", help="command to trace (repeatable)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as hook, tempfile.TemporaryDirectory() as out:
        Path(hook, "sitecustomize.py").write_text(HOOK.format(out=out))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [hook, str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        failed = [cmd for cmd in args.entry or entries()
                  if subprocess.run(shlex.split(cmd), cwd=ROOT, env=env, capture_output=True).returncode]
        seen = {(path, int(line)) for dump in Path(out).iterdir()
                for path, line in (row.rsplit(":", 1) for row in dump.read_text().splitlines())}
    defs = [d for path in sorted(args.root.resolve().rglob("*.py")) for d in functions(ast.parse(path.read_text()), path)]
    unreached = [(key, name, lines) for key, name, lines in defs if key not in seen]
    for (path, line), name, lines in unreached:
        print(f"{os.path.relpath(path, ROOT)}:{line}  {name}  {lines}")
    print(f"unreached: {len(unreached)} of {len(defs)} functions, {sum(n for *_, n in unreached)} body lines")
    for cmd in failed:
        print(f"entry failed (coverage incomplete): {cmd}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
