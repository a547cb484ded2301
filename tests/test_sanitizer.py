"""Tests for the runtime schedule sanitizer.

The sanitizer validates real executions against the static effect
summaries the midend proved.  Three layers are covered here:

- unit behavior of :class:`SanitizedVector` (instrumentation propagates
  to true views only) and the scope protocol's four rules,
- a differential check that ``Schedule(sanitize=True)`` is bit-identical
  to uninstrumented execution across strategies and both dispatch modes,
- the dynamic injected-race proof: a program whose racy write the static
  ``R001`` gate would refuse is executed with the gate bypassed, and the
  sanitizer catches the write at run time.
"""

from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from repro.backend import compile_program
from repro.backend.runtime_support import Context
from repro.graph import rmat, road_grid
from repro.lang.programs import ALL_PROGRAMS
from repro.midend import Schedule
from repro.runtime.sanitizer import SanitizedVector, Sanitizer, SanitizerError

from .oracle_matrix import Cell, check, run


def _sanitized(name, sanitizer, data):
    vector = np.asarray(data, dtype=np.int64).view(SanitizedVector)
    vector._sanitizer = sanitizer
    vector._effect_name = name
    return vector


def _small_graph():
    return road_grid(4, 4, seed=1)


class TestSanitizedVector:
    def test_inert_without_activation(self):
        vector = np.zeros(4, dtype=np.int64).view(SanitizedVector)
        assert vector._sanitizer is None
        vector[1] = 7  # must not raise, nothing to report to
        assert vector[1] == 7

    def test_views_keep_instrumentation_copies_drop_it(self):
        sanitizer = Sanitizer(
            {"f": {"reads": ["x"], "writes": ["x"], "racy": [],
                   "write_index": {}}}
        )
        vector = _sanitized("x", sanitizer, np.zeros(8))
        view = vector[:]  # true view of the same buffer
        assert view._sanitizer is sanitizer
        assert view._effect_name == "x"
        copy = vector[np.array([0, 1])]  # fancy indexing copies
        assert copy._sanitizer is None
        result = vector + 1  # ufunc results are fresh buffers
        assert getattr(result, "_sanitizer", None) is None

    def test_recording_only_inside_scope(self):
        sanitizer = Sanitizer(
            {"f": {"reads": ["x"], "writes": ["x"], "racy": [],
                   "write_index": {}}}
        )
        vector = _sanitized("x", sanitizer, np.zeros(8))
        vector[3] = 1  # outside any scope: not recorded
        sanitizer.begin_apply("f")
        vector[4] = 2
        _ = vector[4]
        sanitizer.end_apply()
        assert sanitizer.log == [{"udf": "f", "reads": ["x"], "writes": ["x"]}]


class TestScopeRules:
    def _sanitizer(self, **contract):
        base = {"reads": [], "writes": [], "racy": [], "write_index": {}}
        base.update(contract)
        return Sanitizer({"f": base})

    def test_unknown_udf_rejected(self):
        sanitizer = self._sanitizer()
        with pytest.raises(SanitizerError, match="no static effect summary"):
            sanitizer.begin_apply("ghost")

    def test_unreported_read_rejected(self):
        sanitizer = self._sanitizer(reads=["a"])
        vector = _sanitized("b", sanitizer, np.zeros(4))
        sanitizer.begin_apply("f")
        _ = vector[0]
        with pytest.raises(SanitizerError, match="read vector 'b'"):
            sanitizer.end_apply()

    def test_unreported_write_rejected(self):
        sanitizer = self._sanitizer(reads=["a"], writes=["a"])
        vector = _sanitized("b", sanitizer, np.zeros(4))
        sanitizer.begin_apply("f")
        vector[2] = 9
        with pytest.raises(SanitizerError, match="wrote vector 'b'"):
            sanitizer.end_apply()

    def test_read_of_written_vector_allowed(self):
        # Rule 1 admits the union of reads and writes (a relaxation reads
        # the old value of the vector it updates).
        sanitizer = self._sanitizer(writes=["a"], write_index={"a": ["dst"]})
        vector = _sanitized("a", sanitizer, np.zeros(4))
        sanitizer.begin_apply("f")
        _ = vector[1]
        vector[1] = 3
        sanitizer.end_apply()
        assert sanitizer.log[-1]["writes"] == ["a"]

    def test_frontier_containment_violation(self):
        graph = _small_graph()
        sanitizer = self._sanitizer(
            writes=["a"], write_index={"a": ["dst"]}
        )
        vector = _sanitized("a", sanitizer, np.zeros(graph.num_vertices))
        frontier = np.array([0], dtype=np.int64)
        sanitizer.begin_apply("f", frontier=frontier, edges=graph)
        # Find a vertex outside frontier {0} and its out-neighborhood.
        from repro.runtime.frontier import gather_out_edges

        _, neighbors, _ = gather_out_edges(graph, frontier)
        allowed = set([0]) | set(int(v) for v in neighbors)
        outside = next(
            v for v in range(graph.num_vertices) if v not in allowed
        )
        vector[outside] = 5
        with pytest.raises(SanitizerError, match="outside the frontier"):
            sanitizer.end_apply()

    def test_frontier_containment_pass(self):
        graph = _small_graph()
        sanitizer = self._sanitizer(
            writes=["a"], write_index={"a": ["dst"]}
        )
        vector = _sanitized("a", sanitizer, np.zeros(graph.num_vertices))
        frontier = np.array([0], dtype=np.int64)
        sanitizer.begin_apply("f", frontier=frontier, edges=graph)
        from repro.runtime.frontier import gather_out_edges

        _, neighbors, _ = gather_out_edges(graph, frontier)
        vector[np.asarray(neighbors, dtype=np.int64)] = 1
        sanitizer.end_apply()
        assert sanitizer.log[-1]["writes"] == ["a"]

    def test_unknown_provenance_skips_containment(self):
        graph = _small_graph()
        sanitizer = self._sanitizer(
            writes=["a"], write_index={"a": ["unknown"]}
        )
        vector = _sanitized("a", sanitizer, np.zeros(graph.num_vertices))
        sanitizer.begin_apply(
            "f", frontier=np.array([0], dtype=np.int64), edges=graph
        )
        vector[graph.num_vertices - 1] = 5  # arbitrary vertex: in-contract
        sanitizer.end_apply()

    def test_racy_write_raises_at_the_write(self):
        sanitizer = self._sanitizer(
            writes=["a"], racy=["a"], write_index={"a": ["dst"]}
        )
        vector = _sanitized("a", sanitizer, np.zeros(4))
        sanitizer.begin_apply("f")
        with pytest.raises(SanitizerError, match="R001"):
            vector[1] = 3

    def test_abort_discards_scope(self):
        sanitizer = self._sanitizer(reads=["a"])
        vector = _sanitized("b", sanitizer, np.zeros(4))
        sanitizer.begin_apply("f")
        _ = vector[0]  # would fail rule 1 at end_apply
        sanitizer.abort()
        assert sanitizer.active is None
        assert sanitizer.log == []


# (program, schedule, args) — all six paper algorithms, each under a
# strategy its operators support; A* on the road grid with the Manhattan
# heuristic.
DIFF_CASES = [
    ("sssp", Schedule(priority_update="eager_with_fusion", delta=3), ("0",)),
    ("sssp", Schedule(priority_update="lazy", delta=4), ("0",)),
    ("wbfs", Schedule(priority_update="eager_with_fusion", delta=3), ("0",)),
    ("ppsp", Schedule(priority_update="eager_with_fusion", delta=3), ("0", "40")),
    ("widest", Schedule(priority_update="eager_no_fusion", delta=2), ("0",)),
    ("kcore", Schedule(priority_update="lazy_constant_sum"), ()),
    ("astar", Schedule(priority_update="eager_no_fusion"), ("0", "100")),
]


def _run(name, schedule, args, graph, vectorize=True, externs=None):
    program = compile_program(ALL_PROGRAMS[name], schedule)
    return program.run(
        [name, "-", *args],
        graph=graph,
        extern_functions=externs,
        vectorize=vectorize,
    )


@pytest.fixture(scope="module")
def diff_graph():
    return rmat(7, 6, seed=11).symmetrized()


class TestSanitizerDifferential:
    @pytest.mark.parametrize(
        "name,schedule,args", DIFF_CASES, ids=[f"{c[0]}-{c[1].priority_update}" for c in DIFF_CASES]
    )
    def test_bit_identical_with_sanitizer(self, diff_graph, name, schedule, args):
        """The ``sanitized`` slice of the oracle matrix: outputs equal the
        scalar oracle, counters equal the uninstrumented run, and real
        apply scopes were validated."""
        astar = name == "astar"
        cell = Cell(name, schedule, "sanitized", args=args, heuristic="manhattan" if astar else "")
        g = None if astar else diff_graph
        _, checked = check(cell, g)
        _, plain = run(replace(cell, execution="vectorized"), g)
        assert plain.stats.rounds == checked.stats.rounds
        assert plain.stats.relaxations == checked.stats.relaxations
        sanitizer = checked.context.sanitizer
        assert sanitizer is not None
        assert len(sanitizer.log) > 0

    def test_setcover_extern_processing_differential(self, diff_graph):
        # setcover delegates bucket processing to an extern function, so
        # no apply scopes open — but the instrumented run must still be
        # bit-identical with the sanitizer armed.
        from repro.backend.extern_library import setcover_externs

        schedule = Schedule(priority_update="lazy")
        plain = _run(
            "setcover", schedule, [], diff_graph,
            externs=setcover_externs(seed=1),
        )
        checked = _run(
            "setcover", schedule.with_(sanitize=True), [], diff_graph,
            externs=setcover_externs(seed=1),
        )
        for vec_name, value in plain.globals.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(
                    value, checked.globals[vec_name]
                ), vec_name
        assert checked.context.sanitizer is not None

    def test_scalar_dispatch_also_validated(self, diff_graph):
        schedule = Schedule(priority_update="eager_with_fusion", delta=3)
        plain = _run("sssp", schedule, ["0"], diff_graph, vectorize=False)
        checked = _run(
            "sssp",
            schedule.with_(sanitize=True),
            ["0"],
            diff_graph,
            vectorize=False,
        )
        assert np.array_equal(
            plain.vector("dist"), checked.vector("dist")
        )
        assert len(checked.context.sanitizer.log) > 0

    @pytest.mark.parametrize("strategy", ["lazy", "eager_with_fusion"])
    def test_vectorized_writes_reach_the_sanitizer(
        self, monkeypatch, diff_graph, strategy
    ):
        # The batch kernel must commit through the instrumented vector: a
        # scatter aimed straight at the buffer would update priorities in
        # scopes whose log shows no write at all.
        scopes = []  # (priority updates during the scope, its log entry)
        original = Context._effect_scope

        @contextmanager
        def watched(self, *args, **kwargs):
            before = self.stats.priority_updates
            with original(self, *args, **kwargs):
                yield
            scopes.append(
                (self.stats.priority_updates - before, self.sanitizer.log[-1])
            )

        monkeypatch.setattr(Context, "_effect_scope", watched)
        schedule = Schedule(priority_update=strategy, delta=3, sanitize=True)
        result = _run("sssp", schedule, ["0"], diff_graph)
        assert result.context.scalar_applies == 0
        updating = [entry for rose, entry in scopes if rose]
        assert updating
        assert all(entry["writes"] == ["dist"] for entry in updating)

    def test_vectorized_write_outside_the_summary_is_caught(
        self, monkeypatch, diff_graph
    ):
        original = Context.declare_effect_summary

        def doctored(self, summary):
            summary = {name: dict(contract) for name, contract in summary.items()}
            summary["updateEdge"]["writes"] = []
            original(self, summary)

        monkeypatch.setattr(Context, "declare_effect_summary", doctored)
        schedule = Schedule(priority_update="lazy", delta=3, sanitize=True)
        with pytest.raises(SanitizerError, match="wrote vector 'dist'"):
            _run("sssp", schedule, ["0"], diff_graph)

    def test_unsanitized_run_has_no_instrumentation(self, diff_graph):
        result = _run("sssp", Schedule(priority_update="lazy"), ["0"], diff_graph)
        assert result.context.sanitizer is None
        dist = result.globals["dist"]
        assert not isinstance(dist, SanitizedVector)


# sssp with an unguarded direct store to dist before the guarded update:
# the static race analysis classifies the store unordered racy (R001)
# under a parallel schedule and refuses to execute the program.
RACY_SSSP = ALL_PROGRAMS["sssp"].replace(
    "    pq.updatePriorityMin(dst, dist[dst], new_dist);",
    "    dist[dst] = new_dist;\n"
    "    pq.updatePriorityMin(dst, dist[dst], new_dist);",
)
assert RACY_SSSP != ALL_PROGRAMS["sssp"]


class TestInjectedRaceDynamic:
    def test_sanitizer_catches_bypassed_r001(self, diff_graph):
        """Disable the static R001 refusal, then prove the dynamic
        sanitizer still refuses the racy write before it commits."""
        program = compile_program(
            RACY_SSSP, Schedule(priority_update="lazy", sanitize=True)
        )
        original = Context.declare_race_report
        Context.declare_race_report = lambda self, **kw: None
        try:
            with pytest.raises(SanitizerError, match="R001"):
                program.run(["sssp", "-", "0"], graph=diff_graph,
                            vectorize=False)
        finally:
            Context.declare_race_report = original

    def test_static_gate_fires_without_bypass(self, diff_graph):
        from repro.errors import GraphItError

        program = compile_program(
            RACY_SSSP,
            Schedule(
                priority_update="eager_with_fusion",
                delta=3,
                num_threads=4,
                execution="parallel",
            ),
        )
        with pytest.raises(GraphItError, match="R001"):
            program.run(["sssp", "-", "0"], graph=diff_graph)
