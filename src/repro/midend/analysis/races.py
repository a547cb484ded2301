"""Race/atomicity classification of apply UDFs (Section 5.1, Figure 9).

Every write to shared state — a vertex property vector, a shared scalar
global, or the priority queue itself — is classified under the schedule's
traversal direction into one of four :class:`RaceClass`es:

``BENIGN``
    The write cannot race (thread-owned index, or an idempotent constant
    store), or races benignly (a guarded monotonic test-and-set whose lost
    updates a following priority update re-establishes).
``NEEDS_CAS``
    A min/max priority update on a shared vertex: a compare-exchange loop
    (``atomicWriteMin``/``atomicWriteMax``).
``NEEDS_DEDUP``
    A sum priority update: a clamped ``fetch_add`` *and* deduplicated
    bucket insertions (processing a vertex twice is incorrect for k-core).
``UNORDERED_RACY``
    A plain, unguarded cross-thread write: a correctness bug, reported as
    ``R001``; the Python backend refuses to run it.

The C++ generator emits atomics only for ``NEEDS_CAS``/``NEEDS_DEDUP``
sites; the Python backend embeds the classification and asserts it at run
time.  It is a read of each access's index provenance in the UDF's
:class:`~repro.midend.analysis.facts.UDFFacts`, the direction deciding
which endpoint is owned.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ...lang import ast_nodes as ast
from ...lang.span import Span
from ..schedule import Schedule
from .facts import Access, AccessKind, PriorityUpdate, TargetKind, UDFFacts

__all__ = ["RaceClass", "WriteSite", "RaceReport", "classify_races"]


class RaceClass(enum.Enum):
    """Classification of one shared write under a parallel schedule."""

    BENIGN = "benign"
    NEEDS_CAS = "needs_cas"
    NEEDS_DEDUP = "needs_dedup"
    UNORDERED_RACY = "unordered_racy"

    @property
    def is_atomic(self) -> bool:
        """Whether the C++ backend must emit an atomic for this site."""
        return self in (RaceClass.NEEDS_CAS, RaceClass.NEEDS_DEDUP)


@dataclass
class WriteSite:
    """One classified write to shared state inside a UDF."""

    node: ast.Node  # the Assign or MethodCall performing the write
    target: str  # rendered target, e.g. "dist[dst]" or "priority(pq)"
    race_class: RaceClass
    reason: str
    span: Span
    update: PriorityUpdate | None = None  # set for priority-update sites
    cas_seed: ast.Expr | None = None  # old-value expr seeding the CAS loop

    @property
    def is_priority_update(self) -> bool:
        return self.update is not None


@dataclass
class RaceReport:
    """The full classification of one UDF under one schedule."""

    udf_name: str
    direction: str
    parallelization: str
    sites: list[WriteSite] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Aggregates the backends and diagnostics consume
    # ------------------------------------------------------------------
    @property
    def needs_atomics(self) -> bool:
        return any(site.race_class.is_atomic for site in self.sites)

    @property
    def needs_deduplication(self) -> bool:
        return any(
            site.race_class is RaceClass.NEEDS_DEDUP for site in self.sites
        )

    @property
    def racy_sites(self) -> list[WriteSite]:
        return [
            site
            for site in self.sites
            if site.race_class is RaceClass.UNORDERED_RACY
        ]

    def site_for(self, node: ast.Node) -> WriteSite | None:
        """The classified site for an AST node (identity match)."""
        for site in self.sites:
            if site.node is node:
                return site
        return None

    def summary(self) -> list[dict]:
        """JSON-serializable per-site summary (embedded in generated code)."""
        return [
            {
                "target": site.target,
                "class": site.race_class.value,
                "line": site.span.line,
                "reason": site.reason,
            }
            for site in self.sites
        ]


def classify_races(udf: UDFFacts, schedule: Schedule) -> RaceReport:
    """Classify every shared write in ``udf`` under ``schedule``: push
    traversal owns sources (destination-indexed writes cross threads),
    pull owns destinations."""
    report = RaceReport(
        udf_name=udf.name,
        direction=schedule.direction,
        parallelization=schedule.parallelization,
    )
    for access in udf.write_accesses:
        race_class, reason = _classify(access, access.owned(schedule.direction))
        update = access.update
        report.sites.append(
            WriteSite(
                node=access.node,
                target=access.rendered,
                race_class=race_class,
                reason=reason,
                span=access.span,
                update=update,
                cas_seed=(
                    update.old_arg if race_class is RaceClass.NEEDS_CAS else None
                ),
            )
        )
    return report


def _classify(access: Access, owned: bool) -> tuple[RaceClass, str]:
    index = access.index_name
    if access.kind is AccessKind.PRIORITY_UPDATE:
        update = access.update
        if owned:
            return RaceClass.BENIGN, (
                f"update indexed by {index!r} is thread-owned under "
                f"this traversal direction; plain write suffices"
            )
        if update.op == "sum":
            return RaceClass.NEEDS_DEDUP, (
                f"sum update indexed by {index or 'a non-parameter'}"
                f" crosses threads: clamped fetch_add plus bucket "
                f"deduplication required (Section 5.1)"
            )
        return RaceClass.NEEDS_CAS, (
            f"{update.op} update indexed by "
            f"{index or 'a non-parameter'} crosses threads: "
            f"compare_exchange loop required"
            + (
                "; CAS seeded from the UDF's read of the old priority"
                if update.old_arg is not None
                else ""
            )
        )
    if access.target_kind is TargetKind.SCALAR:
        if access.constant_store:
            return RaceClass.BENIGN, (
                "constant store to shared scalar is idempotent "
                "(every thread writes the same value)"
            )
        return RaceClass.UNORDERED_RACY, (
            "non-constant write to shared scalar from a parallel UDF; "
            "the last writer wins nondeterministically"
        )
    if owned:
        return RaceClass.BENIGN, (
            f"indexed by the thread-owned parameter {index!r} "
            f"under this traversal direction"
        )
    # Any other index — the foreign parameter, or a local holding an
    # arbitrary vertex id (which can alias it) — crosses threads.
    if access.guarded_monotonic:
        return RaceClass.BENIGN, (
            "benign race: guarded monotonic test-and-set "
            "(a lost update is re-established by the following "
            "priority update / later relaxation)"
        )
    return RaceClass.UNORDERED_RACY, (
        f"unguarded write to shared vertex property {access.rendered!r} "
        f"indexed across threads; needs an atomic or a guard"
    )
