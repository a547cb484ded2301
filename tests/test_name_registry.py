"""The span/metric name registry check (the typo guard).

Every literal name passed to a ``span``/``instant`` hook or a
``metrics.counter``/``gauge``/``histogram`` accessor anywhere under
``src/repro`` must be declared in ``repro.obs.events`` — and vice versa,
every declared name must actually be referenced somewhere.  A misspelled
hook name therefore fails this test instead of silently minting a ghost
series that fragments profiles and dashboards.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.obs.events import CATEGORIES, METRIC_KINDS, METRICS, SPAN_NAMES

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

# with trace_span("bucket.advance", "bucket", ...) / obs.span(...) /
# trace_span(\n    "program.run", "runtime", ...)
SPAN_CALL = re.compile(
    r'\b(?:obs\.)?(?:trace_)?span\(\s*"([^"]+)"\s*,\s*"([^"]+)"'
)
INSTANT_CALL = re.compile(
    r'\b(?:obs\.)?(?:trace_)?instant\(\s*"([^"]+)"\s*,\s*"([^"]+)"'
)
METRIC_CALL = re.compile(
    r'\bmetrics\.(counter|gauge|histogram)\(\s*"([^"]+)"'
)


def iter_sources():
    for path in sorted(SRC.rglob("*.py")):
        yield path, path.read_text(encoding="utf-8")


def scan_span_sites():
    """Every literal (name, cat) at a span/instant hook site, with origin."""
    sites = []
    for path, text in iter_sources():
        for pattern in (SPAN_CALL, INSTANT_CALL):
            for match in pattern.finditer(text):
                line = text.count("\n", 0, match.start()) + 1
                sites.append((f"{path.name}:{line}", match.group(1), match.group(2)))
    return sites


def scan_metric_sites():
    sites = []
    for path, text in iter_sources():
        for match in METRIC_CALL.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            sites.append((f"{path.name}:{line}", match.group(2), match.group(1)))
    return sites


class TestDeclarationsWellFormed:
    def test_span_categories_are_known(self):
        for name, cat in SPAN_NAMES.items():
            assert cat in CATEGORIES, f"{name} declared with unknown cat {cat!r}"

    def test_metric_declarations_are_known(self):
        for name, spec in METRICS.items():
            assert spec["kind"] in METRIC_KINDS, name
            assert spec["cat"] in CATEGORIES, name

    def test_no_name_is_both_span_and_metric(self):
        # Overlap would make `repro last-run` / dashboards ambiguous.
        assert not set(SPAN_NAMES) & set(METRICS)


class TestEmittedNamesAreDeclared:
    def test_the_scanner_sees_the_hook_sites(self):
        # Guard against the regexes rotting: the tree has dozens of sites.
        assert len(scan_span_sites()) >= 30
        assert len(scan_metric_sites()) >= 20

    def test_every_span_site_is_declared(self):
        undeclared = [
            (origin, name)
            for origin, name, _cat in scan_span_sites()
            if name not in SPAN_NAMES
        ]
        assert not undeclared, (
            f"span names not declared in obs/events.py SPAN_NAMES: {undeclared}"
        )

    def test_every_span_site_uses_the_declared_category(self):
        mismatched = [
            (origin, name, cat, SPAN_NAMES[name])
            for origin, name, cat in scan_span_sites()
            if name in SPAN_NAMES and SPAN_NAMES[name] != cat
        ]
        assert not mismatched, f"span category mismatches: {mismatched}"

    def test_every_metric_site_is_declared_with_matching_kind(self):
        problems = []
        for origin, name, kind in scan_metric_sites():
            spec = METRICS.get(name)
            if spec is None:
                problems.append((origin, name, "undeclared"))
            elif spec["kind"] != kind:
                problems.append((origin, name, f"{kind} != {spec['kind']}"))
        assert not problems, f"metric declaration problems: {problems}"


class TestDeclaredNamesAreEmitted:
    """The registry must not accumulate dead declarations either —
    a stale entry hides real typos behind an ever-growing allowlist."""

    def test_every_declared_span_name_appears_in_source(self):
        blob = "\n".join(text for _, text in iter_sources())
        dead = [n for n in SPAN_NAMES if f'"{n}"' not in blob]
        assert not dead, f"SPAN_NAMES entries never emitted: {dead}"

    def test_every_declared_metric_appears_at_a_hook_site(self):
        emitted = {name for _, name, _ in scan_metric_sites()}
        dead = sorted(set(METRICS) - emitted)
        assert not dead, f"METRICS entries never emitted: {dead}"
