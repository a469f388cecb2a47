"""Aligned-window time series over the simulated clock.

A `TimeSeries` snapshots a `MetricsRegistry` into fixed-width windows
aligned to multiples of `window_s` on *simulated* time: window *k* covers
``[k*window_s, (k+1)*window_s)``. `roll(now)` closes every window whose
end has passed — including empty gap windows, so the series is a dense
timeline, not a sparse event log — and keeps the most recent `retention`
windows in a ring.

Counters and histograms are cumulative at the instrument; a closed
window stores both the cumulative snapshot and the per-window *delta*
(what happened inside the window), which is what rate-based rules (error
rate per window, burn rate) consume. Because the clock is a `SimClock`,
two runs of the same seeded workload produce byte-identical series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.telemetry.instruments import MetricsRegistry, MonotonicCounter

DEFAULT_WINDOW_S = 1.0
DEFAULT_RETENTION = 240


@dataclass
class Window:
    """One closed window: cumulative snapshot + in-window deltas."""

    index: int
    start_s: float
    end_s: float
    #: cumulative instrument snapshot at close time
    values: dict = field(default_factory=dict)
    #: per-window change for counters and histogram counts/sums
    deltas: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "start_s": round(self.start_s, 9),
            "end_s": round(self.end_s, 9),
            "values": self.values,
            "deltas": self.deltas,
        }


class TimeSeries:
    """A ring buffer of aligned `Window`s over one registry."""

    def __init__(
        self,
        registry: MetricsRegistry,
        clock=None,
        window_s: float = DEFAULT_WINDOW_S,
        retention: int = DEFAULT_RETENTION,
    ):
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s!r}")
        self.registry = registry
        self.clock = clock
        self.window_s = float(window_s)
        self.retention = max(1, int(retention))
        self.windows: list[Window] = []
        self._next_index = 0  # the first un-closed window
        self._last_cumulative: dict = {}

    # -- rolling -----------------------------------------------------------------

    def window_index(self, at_s: float) -> int:
        """The window containing simulated time `at_s`."""
        return int(math.floor(at_s / self.window_s))

    def roll(self, now: Optional[float] = None) -> int:
        """Close every window ending at or before `now`; returns how many.

        Gap windows (nothing happened) still close, with empty deltas —
        the dashboard's timeline has no holes, and EWMA baselines see the
        quiet periods too.
        """
        if now is None:
            if self.clock is None:
                raise ValueError("roll() needs `now` when no clock is attached")
            now = self.clock() if callable(self.clock) else self.clock.now()
        # Fast-forward across huge idle gaps (e.g. a wall clock handing us
        # epoch seconds): only the trailing `retention` windows survive the
        # ring anyway, so skip straight to them instead of looping per window.
        target = self.window_index(now)
        if target - self._next_index > self.retention:
            self._next_index = target - self.retention
        closed = 0
        while (self._next_index + 1) * self.window_s <= now:
            self._close_one()
            closed += 1
        return closed

    def _close_one(self) -> None:
        index = self._next_index
        cumulative = self.registry.snapshot()
        deltas = self._deltas(cumulative)
        self.windows.append(
            Window(
                index=index,
                start_s=index * self.window_s,
                end_s=(index + 1) * self.window_s,
                values=cumulative,
                deltas=deltas,
            )
        )
        if len(self.windows) > self.retention:
            del self.windows[: len(self.windows) - self.retention]
        self._last_cumulative = cumulative
        self._next_index = index + 1

    def _deltas(self, cumulative: dict) -> dict:
        """Per-window change of every counter/histogram vs the last close."""
        counters = {
            instrument.name + instrument.label_string()
            for instrument in self.registry.instruments()
            if isinstance(instrument, MonotonicCounter)
        }
        deltas: dict = {}
        for key, value in cumulative.items():
            previous = self._last_cumulative.get(key)
            if isinstance(value, dict):  # histogram snapshot
                prev_count = previous.get("count", 0) if isinstance(previous, dict) else 0
                prev_sum = previous.get("sum", 0.0) if isinstance(previous, dict) else 0.0
                count = value.get("count", 0) - prev_count
                if count:
                    deltas[key] = {
                        "count": count,
                        "sum": round(value.get("sum", 0.0) - prev_sum, 9),
                    }
            elif isinstance(value, (int, float)):
                if key in counters:
                    change = value - (previous if isinstance(previous, (int, float)) else 0.0)
                    if change:
                        deltas[key] = round(change, 9)
                elif previous is None or value != previous:
                    deltas[key] = round(value, 9)  # gauges: record level changes
        return deltas

    # -- reading -----------------------------------------------------------------

    @property
    def closed(self) -> int:
        return self._next_index

    def series(self, name: str, field_name: str = "", **labels) -> list:
        """Per-window delta series for one instrument.

        For histograms pass ``field_name`` (``"count"`` or ``"sum"``).
        Windows with no delta report 0 — the series is dense.
        """
        instrument = self.registry.get(name, **labels)
        flat = name + (instrument.label_string() if instrument is not None else "")
        out = []
        for window in self.windows:
            delta = window.deltas.get(flat)
            if delta is None:
                out.append(0.0)
            elif isinstance(delta, dict):
                out.append(float(delta.get(field_name or "count", 0.0)))
            else:
                out.append(float(delta))
        return out

    def to_dicts(self) -> list:
        return [window.to_dict() for window in self.windows]


__all__ = ["DEFAULT_RETENTION", "DEFAULT_WINDOW_S", "TimeSeries", "Window"]
