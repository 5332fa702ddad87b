"""Order statistics shared by the harness and its worker."""

from __future__ import annotations

import statistics


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float | None:
    """Distance between the first and third quartile as a share of the
    median; None with fewer than two values."""
    if len(values) < 2:
        return None
    q1, _, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else None
