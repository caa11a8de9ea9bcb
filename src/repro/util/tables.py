"""Minimal plain-text table rendering.

The benchmark harness regenerates each of the paper's tables and figures as
rows of numbers printed to stdout; this module provides the shared
formatting so that every bench produces consistently aligned, readable
output (and so that tests can parse it back if needed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence


def _format_cell(value: Any, precision: int) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value == 0.0:  # repro: noqa[RPR004] exact zero prints as "0"; near-zero must keep its magnitude
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{value:.{precision}e}"
        return f"{value:.{precision}f}"
    return str(value)


def format_markdown(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    *,
    precision: int = 4,
) -> str:
    """Render ``rows`` under ``headers`` as a GitHub-flavoured Markdown table.

    Cells are formatted with the same rules as :func:`format_table`, so the
    plain-text and Markdown views of a table agree digit for digit - the
    campaign report layer relies on this determinism for byte-identical
    re-renders.

    >>> print(format_markdown(["P", "time"], [[16, 2.5], [64, 1.25]]))
    | P | time |
    | --- | --- |
    | 16 | 2.5000 |
    | 64 | 1.2500 |
    """
    str_rows = [[_format_cell(cell, precision) for cell in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
    lines = ["| " + " | ".join(str(h) for h in headers) + " |"]
    lines.append("| " + " | ".join("---" for _ in headers) + " |")
    for row in str_rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    *,
    precision: int = 4,
    title: str | None = None,
) -> str:
    """Render ``rows`` under ``headers`` as an aligned plain-text table."""
    str_rows = [[_format_cell(cell, precision) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for idx, cell in enumerate(row):
            widths[idx] = max(widths[idx], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


@dataclass
class Table:
    """A small mutable table builder used by analyses and benches.

    Example
    -------
    >>> t = Table(["P", "time"], title="scaling")
    >>> t.add_row(1024, 10.0)
    >>> print(t.render())  # doctest: +SKIP
    """

    headers: Sequence[str]
    title: str | None = None
    precision: int = 4
    rows: list[list[Any]] = field(default_factory=list)

    def add_row(self, *cells: Any) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} cells, got {len(cells)}"
            )
        self.rows.append(list(cells))

    def column(self, name: str) -> list[Any]:
        """Return the values of column ``name`` in row order."""
        try:
            idx = list(self.headers).index(name)
        except ValueError as exc:
            raise KeyError(f"no column named {name!r}") from exc
        return [row[idx] for row in self.rows]

    def render(self) -> str:
        return format_table(
            self.headers, self.rows, precision=self.precision, title=self.title
        )

    def __len__(self) -> int:
        return len(self.rows)

    def to_dicts(self) -> list[dict[str, Any]]:
        """Return the table as a list of ``{header: value}`` dictionaries."""
        return [dict(zip(self.headers, row)) for row in self.rows]
