"""Sample summaries: median, quartiles, spread."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median with quartiles (as ``statistics.quantiles(values, n=4)``
    gives them; a single sample is its own), extremes, the sample count
    and the samples themselves beside it."""
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values),
            "samples": list(values)}
