"""CLI for saved run manifests: ``python -m repro.obs MANIFEST.json``.

Pretty-prints a manifest as an aligned text report (default), re-emits it
as JSON, exports a Chrome-trace file loadable in ``chrome://tracing`` /
Perfetto, or just reports that it is valid.  Every mode validates against the
manifest schema first: a file that is not a manifest prints each problem
as ``INVALID …`` on stderr and exits 1::

    python -m repro.obs run_manifest.json
    python -m repro.obs run_manifest.json --format json
    python -m repro.obs run_manifest.json --chrome trace.json
    python -m repro.obs run_manifest.json --validate
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .export import chrome_trace_json, render_text_report
from .manifest import RunManifest
from .schema import validate_manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect, validate or export a saved run manifest.",
    )
    parser.add_argument("manifest", type=Path, help="path to a RunManifest JSON file")
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="stdout rendering (default: text report)",
    )
    parser.add_argument(
        "--chrome",
        type=Path,
        metavar="OUT",
        help="also write a Chrome-trace JSON to OUT (chrome://tracing / Perfetto)",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="print a validity line instead of the report (every mode exits 1 "
        "on schema problems)",
    )
    args = parser.parse_args(argv)

    try:
        data = json.loads(args.manifest.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read manifest: {exc}", file=sys.stderr)
        return 2

    # Every mode validates first: RunManifest.from_dict trusts its input.
    errors = validate_manifest(data)
    if errors:
        for error in errors:
            print(f"INVALID  {error}", file=sys.stderr)
        return 1
    if args.validate:
        print(f"{args.manifest}: valid (schema v{data['schema_version']})")

    manifest = RunManifest.from_dict(data)
    if not args.validate:
        if args.format == "json":
            print(manifest.to_json())
        else:
            print(render_text_report(manifest))

    if args.chrome is not None:
        args.chrome.write_text(chrome_trace_json(manifest, indent=2) + "\n")
        print(f"chrome trace -> {args.chrome}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
