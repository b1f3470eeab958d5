"""JSON-schema validation for saved run manifests.

The container ships no ``jsonschema`` package, so a minimal validator for
the subset of JSON Schema the manifest needs (type / required /
properties / items / minimum) lives here.  :func:`validate_manifest`
additionally walks the timing tree recursively (every node against
:data:`SPAN_SCHEMA`) and applies the semantic checks exporters and
benchmarks rely on: stage timings present, no negative durations, and
children fitting inside their parent.
"""

from __future__ import annotations

__all__ = ["MANIFEST_SCHEMA", "SPAN_SCHEMA", "validate", "validate_manifest"]

#: Schema of one timing-tree node (applied recursively to ``children``).
SPAN_SCHEMA = {
    "type": "object",
    "required": ["name", "start_ns", "duration_ns", "attrs", "events", "children"],
    "properties": {
        "name": {"type": "string"},
        "start_ns": {"type": "integer", "minimum": 0},
        "duration_ns": {"type": "integer", "minimum": 0},
        "attrs": {"type": "object"},
        "events": {"type": "array", "items": {"type": "object"}},
        "children": {"type": "array"},
    },
}

#: Schema of a serialised :class:`repro.obs.RunManifest`.
MANIFEST_SCHEMA = {
    "type": "object",
    "required": [
        "schema_version",
        "stage",
        "seed",
        "created_at",
        "git_rev",
        "dataset_fingerprint",
        "wall_seconds",
        "config",
        "timing",
        "metrics",
        "events",
    ],
    "properties": {
        "schema_version": {"type": "integer", "minimum": 1},
        "stage": {"type": "string"},
        "seed": {"type": "integer"},
        "created_at": {"type": "string"},
        "git_rev": {"type": "string"},
        "dataset_fingerprint": {"type": "string"},
        "wall_seconds": {"type": "number", "minimum": 0},
        "config": {"type": "object"},
        "timing": {"type": "object"},
        "metrics": {
            "type": "object",
            "required": ["counters", "gauges"],
            "properties": {
                "counters": {"type": "object"},
                "gauges": {"type": "object"},
            },
        },
        "events": {"type": "array", "items": {"type": "object"}},
    },
}

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "integer": int,
    "number": (int, float),
}


def validate(instance, schema: dict, path: str = "$") -> list[str]:
    """Validate ``instance`` against the supported schema subset.

    Returns a list of human-readable error strings (empty = valid);
    never raises on invalid input.
    """
    errors: list[str] = []
    expected = schema.get("type")
    if expected is not None:
        python_type = _TYPES[expected]
        ok = isinstance(instance, python_type)
        if expected in ("integer", "number") and isinstance(instance, bool):
            ok = False  # bool is an int subclass; schemas mean real numbers
        if not ok:
            errors.append(f"{path}: expected {expected}, got {type(instance).__name__}")
            return errors
    if expected == "object":
        for name in schema.get("required", ()):
            if name not in instance:
                errors.append(f"{path}: missing required property {name!r}")
        for name, subschema in schema.get("properties", {}).items():
            if name in instance:
                errors.extend(validate(instance[name], subschema, f"{path}.{name}"))
    elif expected == "array":
        item_schema = schema.get("items")
        if item_schema is not None:
            for i, item in enumerate(instance):
                errors.extend(validate(item, item_schema, f"{path}[{i}]"))
    minimum = schema.get("minimum")
    if minimum is not None and isinstance(instance, (int, float)):
        if instance < minimum:
            errors.append(f"{path}: {instance} is below the minimum of {minimum}")
    return errors


def _validate_span_tree(node: dict, path: str) -> list[str]:
    errors = validate(node, SPAN_SCHEMA, path)
    if errors:
        return errors
    child_total = 0
    child_max = 0
    for i, child in enumerate(node["children"]):
        errors.extend(_validate_span_tree(child, f"{path}.children[{i}]"))
        duration = child.get("duration_ns", 0) if isinstance(child, dict) else 0
        child_total += duration
        child_max = max(child_max, duration)
    if node["attrs"].get("traced") is False:
        # An untraced root's children are per-name totals of stages that
        # nest, so their durations legitimately sum past the parent's wall
        # time; each child must still fit individually.
        if child_max > node["duration_ns"] + 1_000_000:
            errors.append(
                f"{path}: child span of {child_max}ns exceeds the untraced "
                f"parent's {node['duration_ns']}ns"
            )
    elif child_total > node["duration_ns"] + 1_000_000:
        # Sequential children must fit inside their parent (1ms slack
        # absorbs clock granularity; synthetic roots are exact sums).
        errors.append(
            f"{path}: children sum to {child_total}ns, exceeding the "
            f"parent's {node['duration_ns']}ns"
        )
    return errors


def validate_manifest(data: dict) -> list[str]:
    """Structural plus semantic validation of a manifest dict.

    Returns all problems found (empty list = valid): schema violations,
    an empty/missing timing tree, negative stage timings, or child spans
    overrunning their parents.
    """
    errors = validate(data, MANIFEST_SCHEMA)
    if errors:
        return errors
    timing = data["timing"]
    if not timing:
        errors.append("$.timing: stage timings are missing (empty timing tree)")
        return errors
    errors.extend(_validate_span_tree(timing, "$.timing"))
    return errors
