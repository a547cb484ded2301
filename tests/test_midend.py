"""Unit tests for the midend: analyses, transforms, schedule planning."""

import pytest

from repro.errors import CompileError, SchedulingError
from repro.lang import ALL_PROGRAMS, parse
from repro.lang import ast_nodes as ast
from repro.midend import Schedule, SchedulingProgram
from repro.midend.analysis.facts import build_facts
from repro.midend.analysis.races import classify_races
from repro.midend.transforms import (
    build_transformed_udf,
    plan_program,
    schedule_from_block,
)


def _program(name: str) -> ast.Program:
    return parse(ALL_PROGRAMS[name])


def _udf_facts(program: ast.Program, udf_name: str):
    return build_facts(program).udfs[udf_name]


class TestScheduleObject:
    def test_defaults_valid(self):
        Schedule()

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SchedulingError):
            Schedule(priority_update="eager_maybe")

    def test_eager_with_densepull_rejected(self):
        with pytest.raises(SchedulingError):
            Schedule(priority_update="eager_no_fusion", direction="DensePull")

    def test_lazy_with_densepull_allowed(self):
        Schedule(priority_update="lazy", direction="DensePull")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("delta", 0),
            ("num_buckets", 0),
            ("bucket_fusion_threshold", 0),
            ("num_threads", 0),
            ("chunk_size", 0),
        ],
    )
    def test_positive_parameters(self, field, value):
        with pytest.raises(SchedulingError):
            Schedule(**{field: value})

    def test_with_validates(self):
        schedule = Schedule(priority_update="lazy", direction="DensePull")
        with pytest.raises(SchedulingError):
            schedule.with_(priority_update="eager_no_fusion")

    def test_flags(self):
        assert Schedule(priority_update="eager_with_fusion").uses_fusion
        assert Schedule(priority_update="lazy_constant_sum").uses_histogram
        assert Schedule(priority_update="lazy").is_lazy
        assert Schedule(priority_update="eager_no_fusion").is_eager


class TestSchedulingProgram:
    def test_fluent_chain(self):
        program = (
            SchedulingProgram()
            .config_apply_priority_update("s1", "lazy")
            .config_apply_priority_update_delta("s1", 4)
            .config_num_buckets("s1", 64)
        )
        schedule = program.schedule_for("s1")
        assert schedule.priority_update == "lazy"
        assert schedule.delta == 4
        assert schedule.num_buckets == 64

    def test_camelcase_aliases(self):
        program = SchedulingProgram().configApplyPriorityUpdate("s1", "lazy")
        assert program.schedule_for("s1").priority_update == "lazy"

    def test_unconfigured_label_gets_default(self):
        assert SchedulingProgram().schedule_for("s9") == Schedule()

    def test_string_int_parsing(self):
        program = SchedulingProgram().config_apply_priority_update_delta("s1", "16")
        assert program.schedule_for("s1").delta == 16
        with pytest.raises(SchedulingError):
            SchedulingProgram().config_apply_priority_update_delta("s1", "four")

    def test_empty_label_rejected(self):
        with pytest.raises(SchedulingError):
            SchedulingProgram().config_apply_priority_update("", "lazy")

    def test_remaining_commands(self):
        program = (
            SchedulingProgram()
            .config_apply_priority_update("s1", "lazy")
            .config_apply_direction("s1", "DensePull")
            .config_apply_parallelization("s1", "static-vertex-parallel")
            .config_bucket_fusion_threshold("s1", 256)
            .config_num_threads("s1", 12)
        )
        schedule = program.schedule_for("s1")
        assert schedule.direction == "DensePull"
        assert schedule.parallelization == "static-vertex-parallel"
        assert schedule.bucket_fusion_threshold == 256
        assert schedule.num_threads == 12
        assert program.labels == ("s1",)


class TestLoopRecognition:
    def test_sssp_plain_loop(self):
        program = _program("sssp")
        info = build_facts(program).loop
        assert info is not None
        assert info.bucket_name == "bucket"
        assert info.udf_name == "updateEdge"
        assert info.edgeset_name == "edges"
        assert info.label == "s1"
        assert info.stop_condition is None
        assert info.eager_eligible

    def test_ppsp_early_exit_loop(self):
        program = _program("ppsp")
        info = build_facts(program).loop
        assert info is not None
        assert info.stop_condition is not None
        assert info.done_variable == "done"

    def test_setcover_extern_loop(self):
        program = _program("setcover")
        info = build_facts(program).loop
        assert info is not None
        assert info.extern_processor == "processBucket"
        assert not info.eager_eligible

    def test_bucket_used_elsewhere_blocks_recognition(self):
        source = ALL_PROGRAMS["sssp"].replace(
            "delete bucket;",
            "var n : int = bucket.getVertexSetSize();\n        delete bucket;",
        )
        program = parse(source)
        info = build_facts(program).loop
        assert info is None

    def test_non_matching_loop_ignored(self):
        program = parse(
            "element Vertex end\nconst pq : priority_queue{Vertex}(int);\n"
            "func main()\n var x : int = 0;\n while x < 3\n x = x + 1;\n end\nend"
        )
        assert build_facts(program).loop is None


class TestUdfAnalysis:
    def test_find_min_update(self):
        program = _program("sssp")
        updates = _udf_facts(program, "updateEdge").updates
        assert len(updates) == 1
        assert updates[0].op == "min"
        assert isinstance(updates[0].vertex_arg, ast.Name)
        assert updates[0].vertex_arg.identifier == "dst"

    def test_three_argument_form_preserves_old_value(self):
        program = _program("sssp")
        update = _udf_facts(program, "updateEdge").updates[0]
        # Figure 3 passes (dst, dist[dst], new_dist); the value is the last,
        # and the old-value read is preserved so the race analysis can seed
        # the CAS loop from it instead of an extra atomic load.
        assert isinstance(update.value_arg, ast.Name)
        assert update.value_arg.identifier == "new_dist"
        assert update.has_old_value
        assert isinstance(update.old_arg, ast.Index)
        assert update.old_arg.base.identifier == "dist"

    def test_two_argument_form_has_no_old_value(self):
        source = ALL_PROGRAMS["sssp"].replace(
            "pq.updatePriorityMin(dst, dist[dst], new_dist);",
            "pq.updatePriorityMin(dst, new_dist);",
        )
        program = parse(source)
        update = _udf_facts(program, "updateEdge").updates[0]
        assert update.op == "min"
        assert not update.has_old_value
        assert update.old_arg is None

    def test_constant_sum_detected_for_kcore(self):
        program = _program("kcore")
        info = _udf_facts(program, "apply_f").constant_sum
        assert info is not None
        assert info.constant == -1
        assert info.vertex_param == "dst"
        assert info.threshold_is_current_priority

    def test_constant_sum_rejected_for_min_udf(self):
        program = _program("sssp")
        assert _udf_facts(program, "updateEdge").constant_sum is None

    def test_constant_sum_requires_literal_difference(self):
        source = ALL_PROGRAMS["kcore"].replace(
            "pq.updatePrioritySum(dst, -1, k);",
            "var d : int = 0 - 1;\n    pq.updatePrioritySum(dst, d, k);",
        )
        program = parse(source)
        assert _udf_facts(program, "apply_f").constant_sum is None


class TestDependenceAnalysis:
    def test_push_needs_atomics(self):
        udf = _udf_facts(_program("sssp"), "updateEdge")
        info = classify_races(udf, Schedule())
        assert info.needs_atomics
        assert not info.needs_deduplication

    def test_pull_needs_no_atomics(self):
        udf = _udf_facts(_program("sssp"), "updateEdge")
        info = classify_races(
            udf, Schedule(priority_update="lazy", direction="DensePull")
        )
        assert not info.needs_atomics

    def test_kcore_needs_dedup(self):
        udf = _udf_facts(_program("kcore"), "apply_f")
        assert classify_races(udf, Schedule()).needs_deduplication

    def test_direct_vector_write_counts(self):
        udf = _udf_facts(_program("astar"), "updateEdge")
        destination_writes = [
            access.base
            for access in udf.write_accesses
            if access.provenance.value == "dst"
        ]
        assert "dist" in destination_writes


class TestHistogramTransform:
    def test_transformed_shape_matches_figure10(self):
        program = _program("kcore")
        info = _udf_facts(program, "apply_f").constant_sum
        transformed = build_transformed_udf(program.function("apply_f"), info)
        assert transformed.name == "apply_f_transformed"
        assert [name for name, _ in transformed.parameters] == ["vertex", "count"]
        # Body: k read, priority read, guarded clamp-update-return.
        assert isinstance(transformed.body[0], ast.VarDecl)
        assert transformed.body[0].name == "k"
        guard = transformed.body[2]
        assert isinstance(guard, ast.If)
        assert guard.condition.operator == ">"
        clamp = guard.then_body[0].initializer
        assert isinstance(clamp, ast.Call) and clamp.function == "max"
        assert isinstance(guard.then_body[-1], ast.Return)


class TestPlanProgram:
    def test_sssp_plan_lazy(self):
        plan = plan_program(_program("sssp"), Schedule(priority_update="lazy"))
        assert plan.schedule.is_lazy
        assert classify_races(plan.facts.loop_udf, plan.schedule).needs_atomics
        assert plan.transformed_udf is None

    def test_kcore_plan_histogram(self):
        plan = plan_program(
            _program("kcore"), Schedule(priority_update="lazy_constant_sum")
        )
        assert plan.transformed_udf is not None

    def test_histogram_on_min_udf_rejected(self):
        with pytest.raises(CompileError):
            plan_program(
                _program("sssp"), Schedule(priority_update="lazy_constant_sum")
            )

    def test_eager_on_extern_loop_rejected(self):
        with pytest.raises(CompileError):
            plan_program(
                _program("setcover"), Schedule(priority_update="eager_no_fusion")
            )

    def test_queue_less_program_plans_as_unordered(self):
        plan = plan_program(
            parse("func main()\nend"), Schedule(priority_update="lazy")
        )
        assert plan.facts.queue_names == set()
        assert plan.facts.loop is None

    def test_queue_less_program_ignores_strategy(self):
        plan = plan_program(
            parse("func main()\nend"),
            Schedule(priority_update="eager_no_fusion"),
        )
        assert plan.facts.loop is None

    def test_queued_program_with_unrecognized_loop_rejects_eager(self):
        source = (
            "element Vertex end\n"
            "const pq : priority_queue{Vertex}(int);\n"
            "func main()\n var x : int = 0;\nend"
        )
        with pytest.raises(CompileError):
            plan_program(parse(source), Schedule(priority_update="eager_no_fusion"))

    def test_program_without_main_rejected(self):
        with pytest.raises(CompileError):
            plan_program(
                parse("element Vertex end\nconst pq : priority_queue{Vertex}(int);")
            )

    def test_inline_schedule_block_used(self):
        source = (
            ALL_PROGRAMS["sssp"]
            + "\nschedule:\n"
            + 'program->configApplyPriorityUpdate("s1", "lazy")\n'
            + '  ->configApplyPriorityUpdateDelta("s1", "32");\n'
        )
        plan = plan_program(parse(source))
        assert plan.schedule.priority_update == "lazy"
        assert plan.schedule.delta == 32

    def test_explicit_schedule_overrides_block(self):
        source = (
            ALL_PROGRAMS["sssp"]
            + "\nschedule:\n"
            + 'program->configApplyPriorityUpdate("s1", "lazy");\n'
        )
        plan = plan_program(
            parse(source), Schedule(priority_update="eager_no_fusion")
        )
        assert plan.schedule.is_eager

    def test_scheduling_program_by_label(self):
        scheduling = SchedulingProgram().config_apply_priority_update("s1", "lazy")
        plan = plan_program(_program("sssp"), scheduling)
        assert plan.schedule.is_lazy

    def test_schedule_from_block_unknown_command(self):
        source = (
            "func main()\nend\nschedule:\n"
            'program->configMagic("s1", "on");\n'
        )
        with pytest.raises(SchedulingError):
            schedule_from_block(parse(source))


class TestPlanRefusals:
    """The planner answers what both backends used to re-derive, and
    refuses a malformed program once, with one message for every backend."""

    BAD_CHAIN = ALL_PROGRAMS["sssp"].replace(
        "edges.from(bucket).applyUpdatePriority(updateEdge)",
        "edges.applyUpdatePriority(updateEdge)",
    )

    def test_malformed_apply_chain_one_message_for_both_backends(self):
        from repro.backend import compile_program

        assert self.BAD_CHAIN != ALL_PROGRAMS["sssp"]
        schedule = Schedule(priority_update="lazy")
        messages = []
        for backend in ("python", "cpp"):
            with pytest.raises(CompileError) as caught:
                compile_program(self.BAD_CHAIN, schedule, backend=backend)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert "applyUpdatePriority requires an edges.from(bucket) chain" in messages[0]

    @pytest.mark.parametrize(
        "constructor, message",
        [
            ('(true, "lower", dist, start_vertex)', "direction must be the literal"),
            ('(true, "lower_first")', "constructor takes"),
            ("(true, 1, dist, start_vertex)", "direction must be the literal"),
            ('(1 == 1, "lower_first", dist, start_vertex)', "allow_coarsening must be"),
        ],
    )
    def test_malformed_queue_constructor_refused(self, constructor, message):
        source = ALL_PROGRAMS["sssp"].replace(
            '(true, "lower_first", dist, start_vertex)', constructor
        )
        assert source != ALL_PROGRAMS["sssp"]
        with pytest.raises(CompileError, match=message):
            plan_program(parse(source), Schedule(priority_update="lazy"))

    def test_nonunit_delta_refused_at_compile_time(self, capsys):
        from repro.backend import compile_program

        schedule = Schedule(priority_update="lazy_constant_sum", delta=2, execution="native")
        with pytest.raises(SchedulingError, match="'pq' disallows coarsening"):
            compile_program(ALL_PROGRAMS["kcore"], schedule)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("name", sorted(ALL_PROGRAMS))
    def test_plan_classifies_every_apply_udf(self, name):
        plan = plan_program(_program(name), Schedule(priority_update="lazy"))
        names = [site.udf_name for site in plan.facts.apply_sites]
        udfs = [udf for udf in dict.fromkeys(names) if udf in plan.facts.udfs]
        assert list(plan.races) == udfs
        assert list(plan.kernels) == udfs
        for udf in udfs:
            assert plan.races[udf].summary() == classify_races(
                plan.facts.udfs[udf], plan.schedule
            ).summary()

    def test_queue_facts(self):
        sssp = plan_program(_program("sssp"), Schedule(priority_update="lazy"))
        assert (sssp.queue.name, sssp.queue.order, sssp.queue.priority_vector) == (
            "pq",
            "lower_first",
            "dist",
        )
        assert isinstance(sssp.queue.start_vertex, ast.Name)
        assert sssp.resume_vector == "dist"
        assert (sssp.facts.edgeset, sssp.facts.outputs) == ("edges", ("dist",))
        kcore = plan_program(_program("kcore"), Schedule(priority_update="lazy"))
        # ``-1``: every vertex starts in the queue; an out-degree vector is
        # not a filled declaration, so k-core cannot resume.
        assert kcore.queue.start_vertex is None
        assert kcore.resume_vector is None

    def test_resume_refused_from_the_plan(self):
        import numpy as np

        from repro.backend import compile_program
        from repro.graph import from_edges

        graph = from_edges(3, [(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1)])
        program = compile_program(ALL_PROGRAMS["kcore"], Schedule(priority_update="lazy"))
        values = np.zeros(3, dtype=np.int64)
        with pytest.raises(CompileError, match="cannot resume"):
            program.run(["kcore", "-"], graph=graph, resume=(values, [0]))


class TestOnePass:
    """Planning walks each function once, builds each UDF's facts once and
    validates the whole program once; ``repro lint`` plans once on top."""

    @pytest.fixture
    def counts(self, monkeypatch):
        from collections import Counter

        from repro.midend import diagnostics, lint
        from repro.midend.analysis import facts
        from repro.midend.transforms import lowering

        counts = Counter()

        def spy(owner, attribute, key):
            real = getattr(owner, attribute)

            def counted(*args, **kwargs):
                counts[key(*args, **kwargs)] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, attribute, counted)

        spy(facts._FunctionWalk, "__init__", lambda walk, func, *_: ("walk", func.name))
        spy(facts._FunctionWalk, "udf_facts", lambda walk: ("facts", walk.func.name))
        for module in (diagnostics, lint):
            spy(
                module,
                "validate_ir",
                lambda program, stage="typed", **_: ("validate", stage),
            )
        for module in (lowering, lint):
            spy(module, "plan_with_facts", lambda *_: ("plan",))
        return counts

    def _assert_once(self, counts, run, name):
        program = _program(name)
        udfs = set(build_facts(program).udfs)
        counts.clear()
        run()
        assert counts == {
            **{("walk", func.name): 1 for func in program.functions},
            **{("facts", udf): 1 for udf in udfs},
            ("validate", "typed"): 1,
            ("validate", "lowered"): 1,
            ("plan",): 1,
        }

    @pytest.mark.parametrize("name", sorted(ALL_PROGRAMS))
    def test_plan_derives_each_fact_once(self, counts, name):
        self._assert_once(counts, lambda: plan_program(_program(name)), name)

    @pytest.mark.parametrize("name", sorted(ALL_PROGRAMS))
    def test_lint_plans_once(self, counts, name):
        from repro.midend.lint import lint_program

        source = ALL_PROGRAMS[name]
        self._assert_once(
            counts, lambda: lint_program(source, include_info=True), name
        )
