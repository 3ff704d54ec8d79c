"""Top-level concurrency checker: orchestration, rules, suppression.

``repro check --concurrency`` lands here: scan the target files into
class models (:mod:`.model`), run the three static passes (lockset,
lock-order, escape), apply ``# repro: noqa`` suppression, and return a
:class:`~repro.analysis.diagnostics.DiagnosticReport` that renders
through the existing text/JSON/SARIF machinery.

:func:`analyze_concurrency` additionally returns the structured
:class:`ConcurrencyAnalysis` the runtime sanitizer cross-check joins
against: the guarded-attribute map and the *pre-suppression* unguarded
site index (a noqa'd site is still a static verdict; the cross-check
must not count a dynamically observed race at that site as a static
false negative).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Union

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport, ERROR

from .escape import check_escapes
from .lockorder import LockOrderGraph, build_lock_order_graph, \
    check_lock_order
from .lockset import LocksetResult, check_locksets
from .model import ClassModel, ModuleModel, scan_paths

#: Every rule id the concurrency checker can emit.
CONC_RULES: dict[str, str] = {
    "CONC-UNGUARDED": ("guarded-by annotated attribute accessed "
                       "without holding its lock"),
    "CONC-SHARED-UNANNOTATED": ("unannotated attribute mutated from "
                                "both a worker callable and a public "
                                "method"),
    "CONC-LOCK-ORDER": ("inconsistent lock acquisition order "
                        "(potential deadlock cycle)"),
    "CONC-ESCAPED-MUTATION": ("object mutated by the parent after "
                              "being handed to a worker"),
    "CONC-PARSE": "concurrency-check target is not parseable Python",
}

_NOQA_PATTERN = re.compile(
    r"#\s*repro:\s*noqa\b[:\s]*"
    r"(?P<rules>(?:(?:REP\d{3}|CONC-[A-Z-]+)[,\s]*)*)"
)


@dataclass
class ConcurrencyAnalysis:
    """Static verdicts plus the indexes the sanitizer joins against."""

    report: DiagnosticReport = field(default_factory=DiagnosticReport)
    classes: list[ClassModel] = field(default_factory=list)
    #: ``(class name, attr)`` -> lock attr name, from annotations.
    guarded: dict[tuple[str, str], str] = field(default_factory=dict)
    #: ``(class name, attr)`` pairs with a static unguarded-access
    #: verdict, *before* noqa suppression.
    unguarded_sites: set[tuple[str, str]] = field(default_factory=set)
    lock_graph: LockOrderGraph = field(default_factory=LockOrderGraph)


def _suppressed(diag: Diagnostic,
                sources: dict[str, list[str]]) -> bool:
    lines = sources.get(diag.path)
    if lines is None or not (1 <= diag.line <= len(lines)):
        return False
    match = _NOQA_PATTERN.search(lines[diag.line - 1])
    if match is None:
        return False
    rules = frozenset(re.findall(r"REP\d{3}|CONC-[A-Z-]+",
                                 match.group("rules")))
    return not rules or diag.rule in rules


def _parse_failures(targets: Iterable[Union[str, Path]],
                    parsed: list[ModuleModel]) -> list[Diagnostic]:
    """CONC-PARSE for files the scanner had to skip."""
    import ast

    from repro.analysis.astlint import iter_python_files

    parsed_paths = {module.path for module in parsed}
    diagnostics: list[Diagnostic] = []
    for target in targets:
        for file_path in iter_python_files(target):
            if str(file_path) in parsed_paths:
                continue
            try:
                ast.parse(file_path.read_text(encoding="utf-8"),
                          filename=str(file_path))
            except SyntaxError as exc:
                diagnostics.append(Diagnostic(
                    rule="CONC-PARSE", severity=ERROR,
                    message=f"cannot parse: {exc.msg}",
                    path=str(file_path), line=exc.lineno or 0,
                    col=exc.offset or 1,
                ))
    return diagnostics


def analyze_concurrency(
        targets: Iterable[Union[str, Path]]) -> ConcurrencyAnalysis:
    """Run every static concurrency pass over the targets."""
    targets = list(targets)
    modules = scan_paths(targets)
    analysis = ConcurrencyAnalysis()
    for module in modules:
        analysis.classes.extend(module.classes)

    lockset: LocksetResult = check_locksets(analysis.classes)
    analysis.guarded = lockset.guarded
    analysis.unguarded_sites = lockset.unguarded_sites
    analysis.lock_graph = build_lock_order_graph(analysis.classes)

    diagnostics = list(lockset.diagnostics)
    diagnostics.extend(check_lock_order(analysis.classes))
    diagnostics.extend(check_escapes(modules))
    diagnostics.extend(_parse_failures(targets, modules))

    sources = {module.path: module.source_lines for module in modules}
    for diag in diagnostics:
        if not _suppressed(diag, sources):
            analysis.report.add(diag)
    return analysis


def check_concurrency(
        targets: Iterable[Union[str, Path]]) -> DiagnosticReport:
    """The diagnostics-only view of :func:`analyze_concurrency`."""
    return analyze_concurrency(targets).report


def default_targets() -> list[str]:
    """What ``repro check --concurrency`` analyzes with no explicit
    path: the whole installed ``repro`` package (the lock-order graph
    is only meaningful repo-wide)."""
    import repro

    return [str(Path(repro.__file__).parent)]


def annotated_targets() -> list[str]:
    """The annotated first-checked modules (PR 4's concurrent serving
    stack); the sanitizer derives its watch list from these."""
    import repro

    root = Path(repro.__file__).parent
    return [str(root / "core" / "packcache.py"),
            str(root / "core" / "parallel.py"),
            str(root / "runtime" / "serving.py"),
            str(root / "runtime" / "overload.py"),
            str(root / "runtime" / "sharding.py")]


__all__ = [
    "CONC_RULES",
    "ConcurrencyAnalysis",
    "analyze_concurrency",
    "annotated_targets",
    "check_concurrency",
    "default_targets",
]
