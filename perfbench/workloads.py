"""Seeded candidate files for the benchmark workloads.

The pairs are enumerated here, not through hk4verify, so the program under
test only ever sees the generated file.  The seed shuffles row order; the
set of pairs is fixed per workload, which keeps every run's work identical
and the verdict checkable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


def admissible_region(b2_max: int) -> list[tuple[int, int]]:
    """Every (b2, b3) with b2 <= b2_max, b3 even and b4 = 46 + 10*b2 - b3 >= 0."""
    return [
        (b2, b3)
        for b2 in range(b2_max + 1)
        for b3 in range(0, 46 + 10 * b2 + 1, 2)
    ]


def c4_zero_line(count: int) -> list[tuple[int, int]]:
    """The first ``count`` admissible pairs on c4 = 48 + 12*b2 - 3*b3 = 0,
    i.e. (b2, 16 + 4*b2); all of them take the Table1Exclusion branch."""
    return [(b2, 16 + 4 * b2) for b2 in range(count)]


@dataclass(frozen=True)
class Workload:
    name: str
    fmt: str  # "json" or "md" for a prove report, "filter" for a filter report
    pairs: tuple[tuple[int, int], ...]

    def candidate_text(self, seed: int) -> str:
        rows = list(self.pairs)
        random.Random(seed).shuffle(rows)
        lines = [
            f"# perfbench workload {self.name}, seed {seed}",
            f"# {len(rows)} pairs, row order shuffled by the seed",
            "b2,b3",
        ]
        lines += [f"{b2},{b3}" for b2, b3 in rows]
        return "\n".join(lines) + "\n"

    def cli_args(self, candidates: str, out: str) -> list[str]:
        if self.fmt == "filter":
            return ["filter", "--candidates", candidates, "--out", out]
        return ["prove", "--candidates", candidates, "--out", out, "--format", self.fmt]


C4ZERO_PAIRS = 500

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # The north-star workload: 246,456 certificates, 237 MB of JSON; the
        # emitter dominates and almost every triple is LefschetzMismatch.
        Workload("region23-prove-json", "json", tuple(admissible_region(23))),
        # The same emitter-dominated prove on b2 <= 9 (465 pairs, 58,590
        # certificates, ~3 s a call): a 60 s run holds ~17 calls instead of
        # ~4, and the child's memory is a quarter of region23's, so the run's
        # median is steady enough for the regression gate.
        Workload("region9-prove-json", "json", tuple(admissible_region(9))),
        # Every triple takes the Table1Exclusion branch, so quotient transport,
        # delta, admits_zero_chi and the verify recheck all run.
        Workload("c4zero-prove-md", "md", tuple(c4_zero_line(C4ZERO_PAIRS))),
        # Parse, the Riemann-Roch filter and the filter report; no prove.
        Workload("region200-filter", "filter", tuple(admissible_region(200))),
    )
}
