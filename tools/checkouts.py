"""The rules for comparing checkouts, shared by the tools in this directory.

Two copies of the same code read differently when one holds compiled
bytecode under src/ (peak_rss_mb moved by about 0.3 MB) or when their
resolved paths differ in length (synth-zipf wall_s read +8% in 4 of 4
pairs from the path length alone).  Compare sibling copies with paths
of equal length and no __pycache__ directory under src/.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence


def check_checkouts(checkouts: Sequence[Path]) -> None:
    """Exit with an error when a checkout holds a __pycache__ directory
    under src/ or when the resolved paths of the checkouts differ in
    length."""
    for checkout in checkouts:
        cached = next((checkout / "src").rglob("__pycache__"), None)
        if cached is not None:
            raise SystemExit(f"error: {cached}: compiled bytecode moves the measurements; remove it first")
    if len({len(str(checkout)) for checkout in checkouts}) > 1:
        lengths = ", ".join(f"{checkout} ({len(str(checkout))})" for checkout in checkouts)
        raise SystemExit(f"error: checkout paths differ in length: {lengths}; the path length alone "
                         "moves the timings, so compare sibling copies with paths of equal length")
