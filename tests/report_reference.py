"""Comparison of experiment reports for the replay tests."""

import json


def reports_equal_ignoring_timings(a: dict, b: dict) -> bool:
    """Whether two report documents agree on everything but ``timings``."""
    a, b = dict(a), dict(b)
    a.pop("timings", None)
    b.pop("timings", None)
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
