"""The mixed synthetic space's objectives: a ZDT1-style pair with a constraint.

Pure Python (no numpy), so the same function serves the in-process builtin,
the child evaluator script and the benchmark's recomputation check.

Parameters: x1..x6 real in [0, 1], c categorical in {a, b, c}, k integer in
1..64. With g = 1 + mean(x2..x6) + penalty(c) + (k - 1) / 252:

    f1 = x1,  f2 = g * (1 - sqrt(x1 / g))

A point is feasible iff x1 <= 0.9 and not (c == "c" and x3 > 0.5). For a
fixed f1, f2 grows with g, so the constrained front is g = 1 (x2..x6 = 0,
c = "a", k = 1) cut at the constraint: f2 = 1 - sqrt(f1) for f1 in [0, 0.9].
"""

from __future__ import annotations

import math

OBJECTIVES = ("f1", "f2")
LEVEL_PENALTY = {"a": 0.0, "b": 0.125, "c": 0.25}
F1_MAX = 0.9


def evaluate(values) -> dict:
    """Objectives and feasibility of one configuration (a name -> value map)."""
    x = [float(values[f"x{i}"]) for i in range(1, 7)]
    c, k = values["c"], int(values["k"])
    g = 1.0 + sum(x[1:]) / 5.0 + LEVEL_PENALTY[c] + (k - 1) / 252.0
    f1 = x[0]
    f2 = g * (1.0 - math.sqrt(f1 / g))
    feasible = f1 <= F1_MAX and not (c == "c" and x[2] > 0.5)
    return {"f1": f1, "f2": f2, "feasible": feasible}


def true_front(points: int = 20001) -> list[tuple[float, float]]:
    """The closed-form constrained front, sampled at evenly spaced f1."""
    return [(t, 1.0 - math.sqrt(t))
            for t in (F1_MAX * i / (points - 1) for i in range(points))]
