"""Pure helpers for turning pass results into metrics (no library imports)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# candidate tail percentiles, highest first
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


@dataclass
class PassResult:
    latencies: list[float]  # seconds per cell
    speed: list[float]  # per-cell factor to the reference host speed
    values: list  # what each cell returned (None if it raised)
    errors: list  # exception class name per cell, or None
    ok: list[bool]  # cell finished and matched its reference

    @property
    def scaled(self) -> list[float]:
        """Per-cell seconds at the reference host speed."""
        return [t * f for t, f in zip(self.latencies, self.speed)]


def tail_percentile(n_samples: int) -> float:
    """Highest ladder percentile that leaves at least MIN_BEYOND samples above
    its nearest-rank position."""
    for pct in TAIL_LADDER:
        if n_samples - math.ceil(pct / 100.0 * n_samples) >= MIN_BEYOND:
            return pct
    raise ValueError(f"{n_samples} samples leave fewer than {MIN_BEYOND} beyond any percentile")


def tail_latency(latencies: list[float], n_guaranteed: int) -> tuple[float, float, int]:
    """(percentile, nearest-rank value, samples beyond it).

    The percentile is chosen from the sample count every run is guaranteed
    (cells per pass times the minimum number of warm passes), so runs that
    fit a different number of passes still report the same percentile.
    """
    pct = tail_percentile(n_guaranteed)
    ordered = sorted(latencies)
    rank = math.ceil(pct / 100.0 * len(ordered))  # nearest rank, 1-based
    return pct, ordered[rank - 1], len(ordered) - rank


@dataclass
class FailureSummary:
    attempted: int = 0
    failed: int = 0
    unexpected: int = 0  # failed cells not marked as seed defects
    errors: dict[str, int] = field(default_factory=dict)  # exception name -> cells
    failed_names: list[str] = field(default_factory=list)
    seed_defects: set[str] = field(default_factory=set)
    reasons: dict[str, str] = field(default_factory=dict)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def failures(cells, passes) -> FailureSummary:
    """Count cells that raised or missed their reference, over all passes."""
    out = FailureSummary()
    for p in passes:
        for cell, ok, error, value in zip(cells, p.ok, p.errors, p.values):
            out.attempted += 1
            if ok:
                continue
            out.failed += 1
            if error is not None:
                out.errors[error] = out.errors.get(error, 0) + 1
            if cell.seed_defect:
                out.seed_defects.add(cell.name)
            else:
                out.unexpected += 1
            if cell.name not in out.reasons:
                out.failed_names.append(cell.name)
                out.reasons[cell.name] = f"raised {error}" if error else f"value {value!r}"
    return out


def cold_warm_mismatch(cold: PassResult, warm: PassResult) -> int:
    """Cells whose warm value differs bitwise from their cold value."""
    return sum(repr(a) != repr(b) for a, b in zip(cold.values, warm.values))


def top_span_frac(spans, wall: float) -> float:
    """Share of a pass's wall time covered by the library spans directly
    under a cell span."""
    cells = {sid for sid, _parent, name, _t0, _t1 in spans if name.startswith("cell:")}
    return sum(t1 - t0 for _sid, parent, _name, t0, t1 in spans if parent in cells) / wall
