"""Figure 9: compiler artifact — generated C++ under different schedules.

Not a performance table but the paper's compiler exhibit: the same SSSP
program compiled under (a) lazy/SparsePush, (b) lazy/DensePull, and
(c) eager, producing structurally different C++.  The driver measures the
end-to-end compilation time (parse → typecheck → analyses → C++ emission)
and archives fingerprints of the schedule-dependent constructs in each
variant.
"""

import pytest

from repro.backend import compile_program
from repro.eval import format_table
from repro.lang import program_source
from repro.midend import Schedule

VARIANTS = {
    "(a) lazy SparsePush": Schedule(priority_update="lazy", delta=4),
    "(b) lazy DensePull": Schedule(
        priority_update="lazy", delta=4, direction="DensePull"
    ),
    "(c) eager": Schedule(priority_update="eager_no_fusion", delta=4),
    "(c') eager + fusion": Schedule(priority_update="eager_with_fusion", delta=4),
}

FINGERPRINTS = {
    "(a) lazy SparsePush": (
        "new LazyPriorityQueue",
        "atomicWriteMin<false>(&dist[dst]",
        "pq->bufferVertex<false>(dst)",
    ),
    "(b) lazy DensePull": ("TransposeGraph", "__frontier_map"),
    "(c) eager": ("local_bins", "shared_indexes", "#pragma omp parallel"),
    "(c') eager + fusion": ("bucket fusion (Figure 7)",),
}


@pytest.fixture(scope="module")
def variants():
    return {
        name: compile_program(program_source("sssp"), schedule, backend="cpp")
        for name, schedule in VARIANTS.items()
    }


def test_figure9_codegen(benchmark, variants, save_table):
    benchmark.pedantic(
        compile_program,
        args=(program_source("sssp"), VARIANTS["(c) eager"]),
        kwargs={"backend": "cpp"},
        rounds=5,
        iterations=1,
    )

    rows = []
    for name, program in variants.items():
        text = program.source_text
        generated = text.split("end embedded runtime")[1]
        found = [marker for marker in FINGERPRINTS[name] if marker in text]
        assert len(found) == len(FINGERPRINTS[name]), (
            f"{name}: missing constructs {set(FINGERPRINTS[name]) - set(found)}"
        )
        rows.append(
            [
                name,
                str(len(text.splitlines())),
                str(len(generated.splitlines())),
                "; ".join(found),
            ]
        )
    table = format_table(
        ["variant", "total lines", "generated lines", "schedule-dependent constructs"],
        rows,
        title="Figure 9: generated C++ per schedule (SSSP)",
    )
    save_table("fig9_codegen", table)

    # The variants must genuinely differ.
    texts = {name: program.source_text for name, program in variants.items()}
    assert len(set(texts.values())) == len(texts)
    # Pull variant must not use atomics in its generated section.
    pull = texts["(b) lazy DensePull"].split("end embedded runtime")[1]
    assert "atomicWriteMin" not in pull
