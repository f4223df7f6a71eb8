"""Plain-text table rendering for the benchmark harness.

Every experiment in :mod:`repro.bench.experiments` returns a
:class:`Table`; the CLI renders it as aligned ASCII (and optionally
markdown with ``--markdown``; README.md, "Benchmarks", lists the
experiments).  Values may be numbers, strings, or ``None``
(rendered as the paper's "-").
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Table", "fmt_ms", "fmt_mb", "fmt_us", "fmt_pct", "fmt_ratio"]


def fmt_ms(value: float | None) -> str:
    """Milliseconds with adaptive precision."""
    if value is None:
        return "-"
    if value >= 100:
        return f"{value:.0f}"
    if value >= 1:
        return f"{value:.2f}"
    return f"{value:.3f}"


def fmt_us(value: float | None) -> str:
    """Microseconds with adaptive precision."""
    return fmt_ms(value)


def fmt_mb(num_bytes: int | None) -> str:
    """Bytes rendered as MB (two decimals)."""
    if num_bytes is None:
        return "-"
    return f"{num_bytes / 1e6:.2f}"


def fmt_pct(fraction: float | None) -> str:
    """A [0,1] fraction rendered as a percentage."""
    if fraction is None:
        return "-"
    return f"{100 * fraction:.2f}"


def fmt_ratio(value: float | None) -> str:
    """A multiplicative ratio (e.g. speedups)."""
    if value is None:
        return "-"
    if value >= 100:
        return f"{value:.0f}x"
    return f"{value:.1f}x"


@dataclass
class Table:
    """An ordered collection of rows with aligned text rendering.

    >>> t = Table("demo", ["name", "value"])
    >>> t.add_row({"name": "a", "value": 1})
    >>> print(t.render())  # doctest: +NORMALIZE_WHITESPACE
    demo
    name | value
    -----+------
    a    | 1
    """

    title: str
    columns: list[str]
    caption: str | None = None
    rows: list[dict[str, object]] = field(default_factory=list)

    def add_row(self, row: dict[str, object]) -> None:
        """Append a row; missing columns render as '-'."""
        self.rows.append(row)

    def _cell(self, row: dict[str, object], col: str) -> str:
        value = row.get(col)
        if value is None:
            return "-"
        if isinstance(value, float):
            return fmt_ms(value)
        return str(value)

    def render(self) -> str:
        """Aligned ASCII rendering."""
        grid = [[self._cell(r, c) for c in self.columns] for r in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(row[i]) for row in grid))
            if grid
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [self.title]
        lines.append(
            " | ".join(c.ljust(w) for c, w in zip(self.columns, widths)).rstrip()
        )
        lines.append("-+-".join("-" * w for w in widths))
        for row in grid:
            lines.append(
                " | ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            )
        if self.caption:
            lines.append(f"\n{self.caption}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """GitHub-flavored markdown rendering."""
        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append(
                "| " + " | ".join(self._cell(row, c) for c in self.columns) + " |"
            )
        if self.caption:
            lines.extend(["", self.caption])
        return "\n".join(lines)

    def column_values(self, col: str) -> list[object]:
        """All values of one column (None for missing)."""
        return [row.get(col) for row in self.rows]

    def to_dict(self) -> dict:
        """JSON-friendly dict: title, columns, caption, and plain rows.

        Cell values are coerced to JSON-native types (numpy scalars via
        ``.item()``, everything else through ``str``) so the CLI's
        ``--json`` output round-trips without a custom encoder.
        """

        def plain(value: object) -> object:
            if value is None or isinstance(value, (bool, int, float, str)):
                return value
            if hasattr(value, "item"):  # numpy scalar
                return value.item()
            return str(value)

        return {
            "title": self.title,
            "columns": list(self.columns),
            "caption": self.caption,
            "rows": [
                {col: plain(row.get(col)) for col in self.columns}
                for row in self.rows
            ],
        }
