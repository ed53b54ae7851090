"""Plain-text rendering of figure data and experiment summaries."""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]], precision: int = 2) -> str:
    """Render a list of rows as an aligned plain-text table."""
    def fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.{precision}f}"
        return str(value)

    rendered_rows = [[fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_markdown_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                          precision: int = 2) -> str:
    """Render rows as a GitHub-flavoured markdown table.

    Used by the CI regression gate to append summaries to
    ``$GITHUB_STEP_SUMMARY``; cells are pipe-escaped so metric names and
    details cannot break the table.
    """
    def fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.{precision}f}"
        return str(value).replace("|", "\\|")

    lines = [
        "| " + " | ".join(fmt(h) for h in headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(fmt(cell) for cell in row) + " |")
    return "\n".join(lines)


def render_summary(summary: Mapping[str, Mapping[str, float]]) -> str:
    """Render the per-scheme savings summary of ``metrics.summarize_savings``."""
    if not summary:
        return "(no results)"
    metrics = list(next(iter(summary.values())).keys())
    rows = [[name] + [values[m] for m in metrics] for name, values in summary.items()]
    return format_table(["scheme"] + metrics, rows)


def format_bar(fraction: float, width: int = 24) -> str:
    """Render a unit-interval fraction as a fixed-width ASCII progress bar.

    Out-of-range inputs are clamped rather than rejected: live dashboards
    feed this from racy counters and must never crash the render loop.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def render_key_values(values: Mapping[str, object], title: str = "") -> str:
    """Render a flat key/value mapping."""
    lines = [title] if title else []
    width = max((len(k) for k in values), default=0)
    for key, value in values.items():
        if isinstance(value, float):
            lines.append(f"{key.ljust(width)} : {value:.3f}")
        else:
            lines.append(f"{key.ljust(width)} : {value}")
    return "\n".join(lines)
