"""Plain-text table rendering for the benchmark harness.

Every experiment prints the same rows/series the paper's figures plot, as
aligned ASCII tables — the reproduction artefact EXPERIMENTS.md records.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

__all__ = ["format_table", "print_table"]


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Sequence[str] | None = None,
    title: str = "",
) -> str:
    """Render dict rows as an aligned ASCII table.

    Rows need not be homogeneous: with ``columns=None`` the header is the
    union of every row's keys in first-seen order, missing cells render
    empty, and non-numeric cells are stringified.  An empty row list with
    explicit ``columns`` still renders the header (plus ``(no rows)``).
    """
    if not rows and columns is None:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    header = [str(c) for c in columns]
    body = [[_cell(row.get(c, "")) for c in columns] for row in rows]
    widths = [
        max([len(header[i])] + [len(r[i]) for r in body])
        for i in range(len(header))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    if not rows:
        lines.append("(no rows)")
    return "\n".join(lines)


def print_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Sequence[str] | None = None,
    title: str = "",
) -> None:
    """Print :func:`format_table` output."""
    print(format_table(rows, columns, title))

