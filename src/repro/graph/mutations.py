"""Graph mutations: typed edge deltas and batch application.

A :class:`Mutation` names one edge-level change — insert, delete, or
weight update — in a form the incremental engine can classify (improving
vs. worsening relative to a program's priority direction).  Batches are
plain sequences of mutations; :func:`apply_mutations` pushes them through
the CSR overlay in order, optionally mirroring each change across both
directions for symmetric (undirected) workloads like k-core.

``parse_mutation_script`` reads the line format used by
``repro run --mutations`` and ``POST /mutate``::

    # comment
    add 3 7 5        # insert edge 3 -> 7 with weight 5
    add 3 7          # weight defaults to 1
    remove 3 7       # delete every copy of 3 -> 7
    update 3 7 9     # set the weight of every copy of 3 -> 7 to 9
    flush            # apply the mutations so far as one batch

``flush`` lines split the script into batches; the incremental engine
resumes once per batch, matching how an evolving-graph service would feed
grouped updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..errors import GraphError
from .csr import CSRGraph

__all__ = [
    "Mutation",
    "MUTATION_KINDS",
    "apply_mutations",
    "parse_mutation_script",
]

MUTATION_KINDS = ("add", "remove", "update")


@dataclass(frozen=True)
class Mutation:
    """One edge-level change.

    ``weight`` is the inserted edge's weight for ``add``, the new weight
    for ``update``, and ignored for ``remove``.
    """

    kind: str
    src: int
    dst: int
    weight: int = 1

    def __post_init__(self) -> None:
        if self.kind not in MUTATION_KINDS:
            raise GraphError(
                f"unknown mutation kind {self.kind!r}; expected one of "
                f"{MUTATION_KINDS}"
            )

    @staticmethod
    def add(src: int, dst: int, weight: int = 1) -> "Mutation":
        return Mutation("add", src, dst, weight)

    @staticmethod
    def remove(src: int, dst: int) -> "Mutation":
        return Mutation("remove", src, dst)

    @staticmethod
    def update(src: int, dst: int, weight: int) -> "Mutation":
        return Mutation("update", src, dst, weight)


def apply_mutations(
    graph: CSRGraph,
    mutations: Iterable[Mutation],
    *,
    symmetric: bool = False,
) -> int:
    """Apply ``mutations`` to ``graph`` in order; returns how many applied.

    With ``symmetric=True`` each change is mirrored onto the reverse edge
    (self-loops apply once), preserving the undirected invariant the
    k-core algorithms require.
    """
    applied = 0
    for mutation in mutations:
        _apply_one(graph, mutation)
        if symmetric and mutation.src != mutation.dst:
            _apply_one(
                graph,
                Mutation(mutation.kind, mutation.dst, mutation.src, mutation.weight),
            )
        applied += 1
    return applied


def _apply_one(graph: CSRGraph, mutation: Mutation) -> None:
    if mutation.kind == "add":
        graph.add_edge(mutation.src, mutation.dst, mutation.weight)
    elif mutation.kind == "remove":
        graph.remove_edge(mutation.src, mutation.dst)
    else:
        graph.update_weight(mutation.src, mutation.dst, mutation.weight)


def parse_mutation_script(text: str) -> list[list[Mutation]]:
    """Parse a mutation script into batches (split on ``flush`` lines).

    Always returns at least one batch when any mutation is present; a
    trailing empty batch (script ending in ``flush``) is dropped.
    """
    batches: list[list[Mutation]] = [[]]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        op = parts[0].lower()
        if op == "flush":
            if len(parts) != 1:
                raise GraphError(f"mutation script line {lineno}: flush takes no args")
            batches.append([])
            continue
        if op not in MUTATION_KINDS:
            raise GraphError(
                f"mutation script line {lineno}: unknown op {op!r} "
                f"(expected add/remove/update/flush)"
            )
        try:
            args = [int(p) for p in parts[1:]]
        except ValueError as exc:
            raise GraphError(
                f"mutation script line {lineno}: arguments must be integers"
            ) from exc
        if op == "add":
            if len(args) == 2:
                batches[-1].append(Mutation.add(args[0], args[1]))
            elif len(args) == 3:
                batches[-1].append(Mutation.add(args[0], args[1], args[2]))
            else:
                raise GraphError(
                    f"mutation script line {lineno}: add takes 'src dst [weight]'"
                )
        elif op == "remove":
            if len(args) != 2:
                raise GraphError(
                    f"mutation script line {lineno}: remove takes 'src dst'"
                )
            batches[-1].append(Mutation.remove(args[0], args[1]))
        else:
            if len(args) != 3:
                raise GraphError(
                    f"mutation script line {lineno}: update takes 'src dst weight'"
                )
            batches[-1].append(Mutation.update(args[0], args[1], args[2]))
    while batches and not batches[-1]:
        batches.pop()
    return batches
