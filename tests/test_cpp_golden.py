"""Golden-source snapshots for the C++ backend.

``generate_cpp`` is deterministic, so the exact generated source for a
(program, inline schedule) pair is checked in under ``tests/goldens/cpp/``
and any codegen change shows up as a reviewable golden diff.  The two
pinned examples cover the backend's most schedule-sensitive shapes:

* ``kcore_peel.gt``    — lazy_constant_sum (histogram path, Figure 10),
* ``widest_path_eager.gt`` — higher_first eager (map-based order bins).

``tests/goldens/native_text.json`` pins the sha256 of every native kernel
text (the kernel cache key hashes it).

Regenerate after an intentional codegen change with::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_cpp_golden.py
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.backend import compile_program

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
GOLDEN_DIR = Path(__file__).resolve().parent / "goldens" / "cpp"
PINNED = ("kcore_peel", "widest_path_eager")


def _generate(stem: str) -> str:
    source = (EXAMPLES_DIR / f"{stem}.gt").read_text()
    # schedule=None: the example's own inline ``schedule:`` block applies.
    return compile_program(source, None, backend="cpp").source_text


@pytest.mark.parametrize("stem", PINNED)
def test_generated_cpp_matches_golden(stem: str) -> None:
    golden_path = GOLDEN_DIR / f"{stem}.cpp"
    text = _generate(stem)
    if os.environ.get("REPRO_REGEN_GOLDENS") == "1":
        golden_path.parent.mkdir(parents=True, exist_ok=True)
        golden_path.write_text(text)
    assert golden_path.exists(), (
        f"missing golden {golden_path}; run with REPRO_REGEN_GOLDENS=1 "
        "to create it"
    )
    assert text == golden_path.read_text(), (
        f"generated C++ for {stem}.gt drifted from its golden; if the "
        "change is intentional regenerate with REPRO_REGEN_GOLDENS=1"
    )


@pytest.mark.parametrize("stem", PINNED)
def test_generation_is_deterministic(stem: str) -> None:
    assert _generate(stem) == _generate(stem)


# ---------------------------------------------------------------------------
# Native kernel text: one sha256 per kernel shape
# ---------------------------------------------------------------------------

NATIVE_GOLDEN = Path(__file__).resolve().parent / "goldens" / "native_text.json"


def _native_text_digests() -> dict[str, str]:
    """sha256 of ``generate_native_cpp`` for every (program, strategy,
    direction) the native lowering accepts and for every example under its
    own inline schedule.  The kernel cache key hashes this text, so an
    unchanged digest means an unchanged cached kernel."""
    from repro.backend.native import generate_native_cpp
    from repro.lang import ALL_PROGRAMS
    from repro.lang.parser import parse
    from repro.midend.transforms.lowering import plan_program

    from .test_native_differential import _code_shapes

    def digest(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    document = {}
    for program in sorted(ALL_PROGRAMS):
        for schedule, text in _code_shapes(program):
            key = f"{program}/{schedule.priority_update}/{schedule.direction}"
            document[key] = digest(text)
    for example in sorted(EXAMPLES_DIR.glob("*.gt")):
        plan = plan_program(parse(example.read_text()), None)
        document[f"examples/{example.stem}"] = digest(generate_native_cpp(plan))
    return document


def test_native_text_matches_golden() -> None:
    document = _native_text_digests()
    if os.environ.get("REPRO_REGEN_GOLDENS") == "1":
        NATIVE_GOLDEN.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    assert NATIVE_GOLDEN.exists(), f"missing {NATIVE_GOLDEN}; run with REPRO_REGEN_GOLDENS=1"
    golden = json.loads(NATIVE_GOLDEN.read_text())
    drifted = sorted(key for key in golden.keys() | document.keys()
                     if golden.get(key) != document.get(key))
    assert not drifted, f"native kernel text drifted: {drifted}"
