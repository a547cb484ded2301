"""Approximate set cover (Blelloch et al.; Julienne; Section 6.1): a wrapper
over the ``SETCOVER`` DSL program.

:func:`setcover` checks the schedule and runs
:data:`repro.lang.programs.SETCOVER` through
:func:`repro.backend.program.cached_program` with
:func:`repro.backend.extern_library.setcover_externs`, where the round
body (re-bucketing by ``floor(log2(uncovered elements))`` and the
randomized claim round) lives.  Unit costs over a symmetric graph instance:
every vertex is a set covering its closed neighbourhood and an element.
The test suite checks full coverage and size against sequential greedy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..backend.extern_library import collect_setcover_result, setcover_externs
from ..backend.program import cached_program
from ..errors import GraphError, SchedulingError
from ..graph.csr import CSRGraph
from ..lang.programs import SETCOVER
from ..midend.schedule import Schedule
from ..runtime.stats import RuntimeStats

__all__ = [
    "setcover",
    "SetCoverResult",
    "DEFAULT_SETCOVER_SCHEDULE",
    "greedy_setcover_reference",
]

DEFAULT_SETCOVER_SCHEDULE = Schedule(priority_update="lazy", delta=1)


@dataclass
class SetCoverResult:
    """The chosen sets, the element coverage, and the execution profile."""

    cover: np.ndarray
    covered: np.ndarray
    stats: RuntimeStats
    schedule: Schedule | None

    @property
    def cover_size(self) -> int:
        return int(self.cover.size)

    @property
    def fully_covered(self) -> bool:
        return bool(self.covered.all())


def setcover(
    graph: CSRGraph,
    schedule: Schedule | None = None,
    seed: int = 0,
    retention: float = 0.5,
) -> SetCoverResult:
    """Approximate unweighted set cover over a symmetric graph instance.

    ``retention`` is the fraction of its uncovered elements a candidate must
    win in the conflict-resolution round to enter the cover (Blelloch et
    al.'s MaNIS uses a constant fraction; 1/2 pairs with the factor-2
    bucketing).
    """
    if schedule is None:
        schedule = DEFAULT_SETCOVER_SCHEDULE
    if schedule.delta != 1:
        raise SchedulingError(
            "SetCover requires strict bucket ordering; delta must be 1"
        )
    if schedule.is_eager:
        raise SchedulingError(
            "SetCover rebuckets sets many times per round; only the lazy "
            "bucket update strategies are supported (as in Julienne)"
        )
    if not 0 < retention <= 1:
        raise GraphError("retention must be in (0, 1]")
    result = cached_program(SETCOVER, schedule).run(
        ["setcover", "-"],
        graph=graph,
        extern_functions=setcover_externs(seed, retention),
    )
    cover, covered = collect_setcover_result(result)
    return SetCoverResult(
        cover=cover, covered=covered, stats=result.stats, schedule=schedule
    )


def greedy_setcover_reference(graph: CSRGraph) -> np.ndarray:
    """Sequential greedy set cover (the classical ln(n)-approximation oracle).

    Repeatedly picks the set covering the most uncovered elements (ties by
    smallest id).  Used to sanity-check the bucketed algorithm's cover size.
    """
    n = graph.num_vertices
    covered = np.zeros(n, dtype=bool)
    chosen: list[int] = []
    counts = graph.out_degrees().astype(np.int64) + 1
    while not covered.all():
        best = int(np.argmax(counts))
        if counts[best] <= 0:
            raise GraphError("greedy stalled; instance not coverable")
        chosen.append(best)
        members = np.append(graph.out_neighbors(best), best)
        newly = members[~covered[members]]
        covered[newly] = True
        counts[best] = 0
        # Recompute affected sets' uncovered counts: every set incident to a
        # newly covered element loses it.
        for element in newly.tolist():
            incident = np.append(graph.out_neighbors(element), element)
            counts[incident] -= 1
        counts[covered & (counts < 0)] = 0
        counts = np.maximum(counts, 0)
        counts[np.asarray(chosen, dtype=np.int64)] = 0
    return np.sort(np.asarray(chosen, dtype=np.int64))
