"""Paper-format output: tables and figure series as aligned text.

Every benchmark prints a "paper vs measured" block through these helpers
so EXPERIMENTS.md and the benchmark logs read the same way.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


def fmt_table(title: str, headers: Sequence[str],
              rows: Sequence[Sequence], width: int = 12) -> str:
    """A text table, right-aligned; each column at least ``width`` wide
    and wide enough for its longest cell."""
    cells = [[f"{v:.2f}" if isinstance(v, float) else str(v) for v in row]
             for row in rows]
    widths = [max([width, len(h)] + [len(row[i]) for row in cells])
              for i, h in enumerate(headers)]
    out = [title, "=" * len(title),
           "  ".join(f"{h:>{w}}" for h, w in zip(headers, widths)),
           "  ".join("-" * w for w in widths)]
    out += ["  ".join(f"{c:>{w}}" for c, w in zip(row, widths))
            for row in cells]
    return "\n".join(out)


def fmt_series(title: str, series: Dict[str, Sequence[Tuple[int, float]]],
               ylabel: str = "MB/s") -> str:
    """A figure as columns: bytes then one column per named curve."""
    names = list(series)
    xs = sorted({x for s in series.values() for x, _ in s})
    lookup = {name: dict(s) for name, s in series.items()}
    headers = ["bytes"] + names
    rows = []
    for x in xs:
        row: List = [x]
        for name in names:
            v = lookup[name].get(x)
            row.append(v if v is not None else "-")
        rows.append(row)
    return fmt_table(f"{title}  ({ylabel})", headers, rows)


def paper_vs_measured(title: str,
                      entries: Sequence[Tuple],
                      unit: str = "",
                      extra: Sequence[str] = ()) -> str:
    """Rows of (quantity, paper value, measured value, deviation), each
    entry ``(quantity, paper, measured, *cells)`` with one trailing cell
    per ``extra`` header."""
    rows = []
    for label, paper, measured, *cells in entries:
        if isinstance(paper, (int, float)) and paper:
            dev = f"{(measured - paper) / paper * 100:+.1f}%"
        else:
            dev = "-"
        rows.append((label, paper if paper is not None else "-",
                     round(measured, 2), dev, *cells))
    return fmt_table(title, ["quantity", "paper", "measured", "dev", *extra],
                     rows, width=8) + (f"\n(units: {unit})" if unit else "")
