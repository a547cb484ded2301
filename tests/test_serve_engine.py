"""The serving engine: validation, cache, coalescing, admission, mutation.

Everything here drives :class:`repro.serve.engine.ServeEngine` directly
(no sockets) so the coordination semantics are pinned at the layer that
implements them:

* query validation rejects malformed specs before any traversal;
* the result cache answers repeats without recomputing;
* concurrent identical queries coalesce into one traversal;
* the admission queue rejects past its budget (and only then) and never
  drops an accepted request;
* ``mutate`` bumps the epoch, invalidates the cache, and repopulates it
  from resumed incremental sessions — with values bit-matching a solo
  run on the post-mutation graph;
* a query that does not pin ``execution`` computes its miss natively,
  and its session resumes through the interpreter.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.backend.program import CompiledProgram, compile_program
from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.lang.programs import ALL_PROGRAMS
from repro.midend.schedule import Schedule
from repro.obs import last_run_path
from repro.serve import ServeClient, start_in_thread
from repro.serve.cache import CacheEntry, ResultCache
from repro.serve.engine import Backpressure, QuerySpec, ServeEngine

from .oracle_matrix import HAS_CXX


def make_graph(scale: int = 8) -> CSRGraph:
    return rmat(scale, 16, seed=0, weights=(1, 4))


def spec(program: str = "sssp", source: int | None = 0, **params) -> QuerySpec:
    document: dict = {"program": program}
    if source is not None:
        document["source"] = source
    document.update(params)
    return QuerySpec.from_params(document)


def oracle_vector(program: str, graph: CSRGraph, source=None, target=None,
                  schedule: Schedule | None = None) -> np.ndarray:
    """A solo compiled run of the same program on the same graph."""
    compiled = compile_program(ALL_PROGRAMS[program], schedule or Schedule())
    argv = [program, "oracle"]
    if source is not None:
        argv.append(str(source))
    if target is not None:
        argv.append(str(target))
    result = compiled.run(argv, graph=graph)
    name = {"widest": "width", "kcore": "D"}.get(program, "dist")
    return result.globals[name]


class TestQuerySpec:
    def test_unknown_program_rejected(self):
        with pytest.raises(GraphError):
            spec(program="pagerank")

    def test_extern_programs_not_servable(self):
        for program in ("astar", "setcover"):
            with pytest.raises(GraphError):
                spec(program=program)

    def test_source_required_except_kcore(self):
        with pytest.raises(GraphError):
            spec(program="sssp", source=None)
        assert spec(program="kcore", source=None).source is None

    def test_kcore_refuses_source(self):
        with pytest.raises(GraphError):
            spec(program="kcore", source=3)

    def test_ppsp_requires_target_others_refuse_it(self):
        with pytest.raises(GraphError):
            spec(program="ppsp", source=0)
        assert spec(program="ppsp", source=0, target=5).target == 5
        with pytest.raises(GraphError):
            spec(program="sssp", source=0, target=5)

    def test_unknown_schedule_knob_rejected(self):
        with pytest.raises(GraphError):
            spec(schedule={"sanitize": True})

    def test_schedule_text_form(self):
        parsed = spec(schedule="priority_update=lazy, delta=4")
        assert parsed.schedule.priority_update == "lazy"
        assert parsed.schedule.delta == 4

    def test_schedule_key_is_canonical(self):
        a = spec(schedule={"delta": 4, "priority_update": "lazy"})
        b = spec(schedule={"priority_update": "lazy", "delta": "4"})
        assert a.schedule_key == b.schedule_key

    def test_non_integer_source_rejected(self):
        with pytest.raises(GraphError):
            spec(source="zero")


class TestResultCache:
    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        entry = CacheEntry(vectors={})
        cache.put("a", entry)
        cache.put("b", entry)
        assert cache.get("a") is entry  # refresh "a"
        cache.put("c", entry)  # evicts "b", the least recently used
        assert cache.peek("b") is None
        assert cache.peek("a") is entry
        assert cache.peek("c") is entry
        assert cache.evictions == 1

    def test_hit_miss_accounting(self):
        cache = ResultCache(capacity=2)
        assert cache.get("x") is None
        cache.put("x", CacheEntry(vectors={}))
        assert cache.get("x") is not None
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_clear_counts_invalidations(self):
        cache = ResultCache(capacity=4)
        cache.put("x", CacheEntry(vectors={}))
        cache.put("y", CacheEntry(vectors={}))
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.stats()["invalidations"] == 2


class TestEngineQueries:
    def test_out_of_range_source_rejected(self):
        engine = ServeEngine(make_graph())
        with pytest.raises(GraphError):
            asyncio.run(engine.query(spec(source=10**6)))
        engine.close()

    def test_repeat_query_served_from_cache(self):
        engine = ServeEngine(make_graph())

        async def scenario():
            first, how_first = await engine.query(spec())
            second, how_second = await engine.query(spec())
            return first, how_first, second, how_second

        first, how_first, second, how_second = asyncio.run(scenario())
        assert how_first == "computed"
        assert how_second == "cache"
        assert second is first  # the very same entry, not a recompute
        engine.close()

    def test_results_bit_match_solo_oracle(self):
        graph = make_graph()
        engine = ServeEngine(graph)

        async def scenario():
            out = {}
            out["sssp"], _ = await engine.query(spec("sssp", source=3))
            out["widest"], _ = await engine.query(spec("widest", source=3))
            out["kcore"], _ = await engine.query(spec("kcore", source=None))
            out["ppsp"], _ = await engine.query(
                spec("ppsp", source=3, target=7)
            )
            return out

        results = asyncio.run(scenario())
        oracle_graph = make_graph()
        assert np.array_equal(
            results["sssp"].vectors["dist"],
            oracle_vector("sssp", oracle_graph, source=3),
        )
        assert np.array_equal(
            results["widest"].vectors["width"],
            oracle_vector("widest", oracle_graph, source=3),
        )
        assert np.array_equal(
            results["kcore"].vectors["D"], oracle_vector("kcore", oracle_graph)
        )
        assert np.array_equal(
            results["ppsp"].vectors["dist"],
            oracle_vector("ppsp", oracle_graph, source=3, target=7),
        )
        engine.close()

    def test_identical_inflight_queries_coalesce(self):
        engine = ServeEngine(make_graph())
        gate = threading.Event()
        computes = []
        original = engine._compute

        def slow_compute(query_spec):
            computes.append(query_spec)
            gate.wait(timeout=30)
            return original(query_spec)

        engine._compute = slow_compute

        async def scenario():
            tasks = [
                asyncio.create_task(engine.query(spec(source=5)))
                for _ in range(4)
            ]
            while not computes:  # first task reached the executor
                await asyncio.sleep(0.005)
            gate.set()
            return await asyncio.gather(*tasks)

        results = asyncio.run(scenario())
        assert len(computes) == 1  # one traversal total
        hows = sorted(how for _, how in results)
        assert hows.count("computed") == 1
        assert set(hows) <= {"computed", "coalesced", "cache"}
        entries = {id(entry) for entry, _ in results}
        assert len(entries) == 1
        engine.close()


class TestAdmission:
    def test_overflow_rejected_accepted_never_dropped(self):
        engine = ServeEngine(make_graph(), max_pending=2)
        gate = threading.Event()
        original = engine._compute

        def slow_compute(query_spec):
            gate.wait(timeout=30)
            return original(query_spec)

        engine._compute = slow_compute

        async def scenario():
            # Three *distinct* queries: two fill the admission budget, the
            # third must be rejected without disturbing the first two.
            first = asyncio.create_task(engine.query(spec(source=1)))
            second = asyncio.create_task(engine.query(spec(source=2)))
            while engine._pending < 2:
                await asyncio.sleep(0.005)
            with pytest.raises(Backpressure) as excinfo:
                await engine.query(spec(source=3))
            assert excinfo.value.retry_after >= 1
            gate.set()
            return await asyncio.gather(first, second)

        results = asyncio.run(scenario())
        assert [how for _, how in results] == ["computed", "computed"]
        assert engine._pending == 0  # all slots returned
        engine.close()

    def test_cache_hits_bypass_admission(self):
        engine = ServeEngine(make_graph(), max_pending=1)

        async def scenario():
            await engine.query(spec(source=1))  # populate
            engine._pending = engine.max_pending  # saturate admission
            try:
                _, how = await engine.query(spec(source=1))
            finally:
                engine._pending = 0
            return how

        assert asyncio.run(scenario()) == "cache"
        engine.close()


class TestMutation:
    MUTATIONS = "add 0 9 2\nupdate 0 9 1\nflush\nremove 0 9"

    def test_epoch_bump_invalidates_and_repopulates(self):
        engine = ServeEngine(make_graph())

        async def scenario():
            await engine.query(spec(source=0))  # creates a session
            await engine.query(spec("ppsp", source=0, target=7))  # compiled
            summary = await engine.mutate("add 0 9 2")
            _, how = await engine.query(spec(source=0))
            return summary, how

        summary, how = asyncio.run(scenario())
        assert summary["epoch"] == 1
        assert summary["invalidated"] == 2
        assert summary["resumed_sessions"] == 1
        # The resumed session repopulated its entry at the new epoch, so
        # the first post-mutation query is already a hit.
        assert how == "cache"
        engine.close()

    def test_post_mutation_values_match_post_mutation_oracle(self):
        engine = ServeEngine(make_graph())

        async def scenario():
            before, _ = await engine.query(spec(source=0))
            await engine.mutate(self.MUTATIONS)
            after, _ = await engine.query(spec(source=0))
            kcore_after, _ = await engine.query(spec("kcore", source=None))
            return before, after, kcore_after

        before, after, kcore_after = asyncio.run(scenario())

        from repro.graph.mutations import apply_mutations, parse_mutation_script

        oracle_graph = make_graph()
        for batch in parse_mutation_script(self.MUTATIONS):
            apply_mutations(oracle_graph, batch)
        assert np.array_equal(
            after.vectors["dist"], oracle_vector("sssp", oracle_graph, source=0)
        )
        assert np.array_equal(
            kcore_after.vectors["D"], oracle_vector("kcore", oracle_graph)
        )
        # And the pre-mutation entry matched the pre-mutation graph.
        assert np.array_equal(
            before.vectors["dist"], oracle_vector("sssp", make_graph(), source=0)
        )
        engine.close()

    def test_empty_script_rejected(self):
        engine = ServeEngine(make_graph())
        with pytest.raises(GraphError):
            asyncio.run(engine.mutate("# nothing here\n"))
        engine.close()

    def test_mutation_waits_for_inflight_reader(self):
        engine = ServeEngine(make_graph())
        gate = threading.Event()
        original = engine._compute

        def slow_compute(query_spec):
            gate.wait(timeout=30)
            return original(query_spec)

        engine._compute = slow_compute
        order: list[str] = []

        async def scenario():
            query_task = asyncio.create_task(engine.query(spec(source=4)))
            while engine._pending < 1:
                await asyncio.sleep(0.005)

            async def mutate():
                await engine.mutate("add 0 9 2")
                order.append("mutated")

            mutate_task = asyncio.create_task(mutate())
            await asyncio.sleep(0.05)
            assert order == []  # writer blocked behind the active reader
            gate.set()
            entry, _ = await query_task
            await mutate_task
            return entry, order

        entry, order = asyncio.run(scenario())
        assert order == ["mutated"]
        # The admitted query completed against the pre-mutation graph (its
        # read lock held off the writer) — it was never dropped.
        assert np.array_equal(
            entry.vectors["dist"], oracle_vector("sssp", make_graph(), source=4)
        )
        engine.close()


class TestMutationIsATransaction:
    """``/mutate`` is all-or-nothing: one fault injected per step."""

    def warm(self, engine, *sources):
        async def scenario():
            for source in sources:
                await engine.query(spec(source=source))  # one session each
            await engine.query(spec("ppsp", source=0, target=7))  # compiled

        asyncio.run(scenario())

    def absent_edges(self, graph, count):
        neighbors = set(graph.out_neighbors(0).tolist())
        return [v for v in range(1, graph.num_vertices) if v not in neighbors][:count]

    def test_failing_batch_changes_nothing(self):
        """Step 1, applying the script: the second batch removes an edge
        that does not exist, after the first batch applied cleanly."""
        engine = ServeEngine(make_graph())
        self.warm(engine, 0)
        graph, keys = engine.graph, set(engine.cache._entries)
        num_edges = graph.num_edges
        sessions = dict(engine._sessions)
        edges = [s.graph.num_edges for s in sessions.values()]
        added, absent = self.absent_edges(graph, 2)
        with pytest.raises(GraphError):
            asyncio.run(engine.mutate(f"add 0 {added} 2\nflush\nremove 0 {absent}"))
        assert engine.graph is graph and graph.num_edges == num_edges
        assert engine.epoch == 0
        assert set(engine.cache._entries) == keys
        assert engine._sessions == sessions
        assert [s.graph.num_edges for s in sessions.values()] == edges
        entry, how = asyncio.run(engine.query(spec(source=0)))
        assert how == "cache"
        assert np.array_equal(entry.vectors["dist"], oracle_vector("sssp", make_graph(), source=0))
        engine.close()

    @pytest.mark.parametrize("step", ["resume", "repopulate"])
    def test_failing_session_is_dropped(self, step, monkeypatch):
        """Step 2, resuming sessions (and step 3, repopulating the cache):
        the session that fails is dropped, the others and the new graph,
        epoch and cache commit together."""
        engine = ServeEngine(make_graph())
        self.warm(engine, 0, 4)
        broken_key = next(k for k in engine._sessions if k[1] == 4)
        if step == "resume":
            def boom(batch):
                raise RuntimeError("injected resume fault")

            monkeypatch.setattr(engine._sessions[broken_key], "apply", boom)
        else:
            put, faults = engine.cache.put, [RuntimeError("injected cache fault")]

            def put_unless_broken(key, entry):
                if key[1:3] == broken_key[:2] and faults:
                    raise faults.pop()  # once: the later recompute stores
                put(key, entry)

            monkeypatch.setattr(engine.cache, "put", put_unless_broken)
        script = "add 0 9 2\nflush\nupdate 0 9 1"

        async def scenario():
            summary = await engine.mutate(script)
            kept = await engine.query(spec(source=0))
            dropped = await engine.query(spec(source=4))
            return summary, kept, dropped

        summary, (kept, kept_how), (dropped, dropped_how) = asyncio.run(scenario())
        assert (summary["epoch"], summary["resumed_sessions"], summary["dropped_sessions"]) == (1, 1, 1)
        assert (kept_how, dropped_how) == ("cache", "computed")
        assert "injected" in open(last_run_path()).read()  # the forensics dump
        from repro.graph.mutations import apply_mutations, parse_mutation_script

        mutated = make_graph()
        for batch in parse_mutation_script(script):
            apply_mutations(mutated, batch)
        assert engine.graph.num_edges == mutated.num_edges
        for entry, source in ((kept, 0), (dropped, 4)):
            assert np.array_equal(
                entry.vectors["dist"], oracle_vector("sssp", mutated, source=source)
            )
        engine.close()


class TestSharedGraph:
    """Sessions share the served graph: one in-edge index per epoch."""

    def test_in_base_built_once_per_epoch(self, monkeypatch):
        builds: list[int] = []
        original = CSRGraph.ensure_in_base

        def spy(graph):
            if graph._in_base is None:
                builds.append(graph.num_edges)
            return original(graph)

        monkeypatch.setattr(CSRGraph, "ensure_in_base", spy)
        engine = ServeEngine(make_graph())
        served = engine.graph
        weights = served.weights.copy()
        sources = [0, 3, 4, 9]

        async def misses():
            for source in sources:
                _, how = await engine.query(spec(source=source))
                assert how == "computed"

        asyncio.run(misses())
        assert len(engine._sessions) == len(sources)
        assert len(builds) == 1
        hub = int(np.argmax(served.out_degrees()))
        neighbor = int(served.out_neighbors(hub)[0])
        summary = asyncio.run(
            engine.mutate(f"add 0 9 2\nupdate {hub} {neighbor} 3")
        )
        assert summary["resumed_sessions"] == len(sources)
        assert len(builds) == 2
        # The pre-mutation graph the sessions started from is unchanged.
        assert np.array_equal(served.weights, weights)
        for session in engine._sessions.values():
            assert np.array_equal(
                session.values,
                oracle_vector("sssp", engine.graph, source=session.source),
            )
        engine.close()


@pytest.mark.skipif(not HAS_CXX, reason="no C++ toolchain")
class TestNativeMisses:
    """A query that does not pin ``execution`` computes its miss on the
    native kernel with one thread; sessions resume through the
    interpreter."""

    @pytest.fixture
    def runs(self, monkeypatch):
        """Every compiled run: (schedule's execution, resumed?, what ran it)."""
        import repro.backend.native as native

        runs: list[tuple] = []
        original_run = CompiledProgram.run
        original_native = native.execute_native

        def spy_run(program, *args, **kwargs):
            result = original_run(program, *args, **kwargs)
            resumed = kwargs.get("resume") is not None
            runs.append((program.schedule.execution, resumed, result.execution))
            return result

        def spy_native(*args, **kwargs):
            runs.append("execute_native")
            return original_native(*args, **kwargs)

        monkeypatch.setattr(CompiledProgram, "run", spy_run)
        monkeypatch.setattr(native, "execute_native", spy_native)
        return runs

    def test_sssp_miss_runs_natively_and_resumes_interpreted(self, runs):
        engine = ServeEngine(make_graph())
        serial = spec(source=3, schedule={"execution": "serial"})

        async def scenario():
            native_entry, how = await engine.query(spec(source=3))
            assert how == "computed"
            assert runs == ["execute_native", ("native", False, "native")]
            pinned, _ = await engine.query(serial)
            del runs[:]
            await engine.mutate("add 3 9 1\nupdate 3 9 2")
            assert runs and all(run == ("serial", True, "serial") for run in runs)
            after, how = await engine.query(spec(source=3))
            assert how == "cache"
            pinned_after, _ = await engine.query(serial)
            return native_entry, pinned, after, pinned_after

        native_entry, pinned, after, pinned_after = asyncio.run(scenario())
        assert native_entry.execution == "native" and native_entry.stats == {}
        assert pinned.execution == "serial" and "rounds" in pinned.stats
        assert after.execution == "serial"
        assert np.array_equal(native_entry.vectors["dist"], pinned.vectors["dist"])
        assert np.array_equal(after.vectors["dist"], pinned_after.vectors["dist"])
        engine.close()

    def test_kcore_runs_natively(self, runs):
        graph = make_graph().symmetrized()
        engine = ServeEngine(graph)
        entry, _ = asyncio.run(engine.query(spec("kcore", source=None)))
        assert entry.execution == "native" and entry.stats == {}
        assert runs == ["execute_native", ("native", False, "native")]
        assert np.array_equal(entry.vectors["D"], oracle_vector("kcore", graph))
        engine.close()

    def test_relaxed_query_runs_on_the_interpreter(self, runs):
        relaxed = spec(source=3, schedule={"priority_update": "relaxed"})
        assert relaxed.schedule.execution == "serial"
        engine = ServeEngine(make_graph())
        entry, _ = asyncio.run(engine.query(relaxed))
        assert entry.execution == "serial" and "rounds" in entry.stats
        assert "execute_native" not in runs
        assert np.array_equal(
            entry.vectors["dist"], oracle_vector("sssp", make_graph(), source=3)
        )
        engine.close()

    def test_response_names_what_computed_it(self):
        handle = start_in_thread(make_graph(), graph_name="rmat8")
        try:
            with ServeClient(*handle.address) as client:
                native = client.query("sssp", source=3, full=True).raise_for_status().json()
                relaxed = client.query(
                    "sssp", source=3, full=True, schedule={"priority_update": "relaxed"}
                ).raise_for_status().json()
        finally:
            handle.stop()
        assert native["execution"] == "native" and "stats" not in native
        assert relaxed["execution"] == "serial" and relaxed["stats"]["rounds"] > 0
        assert native["values"] == relaxed["values"]


def test_default_miss_without_toolchain_falls_back(monkeypatch):
    """No compiler: a default query still answers, from the interpreter."""
    from repro.backend.native import reset_toolchain_cache

    reset_toolchain_cache()
    monkeypatch.setenv("REPRO_NATIVE_CXX", "/nonexistent/repro-no-cxx")
    engine = ServeEngine(make_graph())
    try:

        async def scenario():
            sssp, _ = await engine.query(spec(source=3))
            kcore, _ = await engine.query(spec("kcore", source=None))
            return sssp, kcore

        sssp, kcore = asyncio.run(scenario())
    finally:
        engine.close()
        reset_toolchain_cache()
    assert sssp.execution == kcore.execution == "serial"
    assert "rounds" in sssp.stats and "rounds" in kcore.stats
    assert np.array_equal(sssp.vectors["dist"], oracle_vector("sssp", make_graph(), source=3))
    assert np.array_equal(kcore.vectors["D"], oracle_vector("kcore", make_graph()))
