"""RANGE-* diagnostics over a :class:`RangeAnalysis` (the tight-bound pass).

Sits beside the worst-case ACC-* contract (:mod:`..contracts.overflow`):
where ACC-OVERFLOW certifies against inputs no real network produces
(every operand at its bitwidth extreme, Eq. 5), the RANGE pass bounds
the accumulators under the *derived* value ranges -- statically known
quantized weights, im2col-aware activation codes -- and reports, per
layer, the ``accumulator_bits_required`` those ranges actually need.

Rules:

* ``RANGE-OVERFLOW`` (error) -- some kc-block's derived true-sum
  interval escapes the configured AccMem width: there are reachable
  activations (any interior, padding-free im2col window, with the
  layer's fixed weights) on which the engine wraps, even though the
  layer may be ACC-clean at a wider width.
* ``RANGE-NARROWABLE`` (info) -- the derived bound proves the layer
  correct at *fewer* bits than configured: the headroom a DSE pass or
  narrower AccMem deployment can bank.
* ``RANGE-EQUIV`` (error) -- emitted by the plan-equivalence verifier
  (:mod:`.plancheck`) when a compiled plan's baked state diverges from
  the source graph's proven ranges or wrap behavior.
* ``RANGE-OBSERVED`` (error) -- emitted by the runtime sanitizer
  crosscheck (:mod:`.sanitizer`) when an observed value escapes its
  static interval (a soundness escape; must never happen).

``GRF-PARSE`` is the graph contract pass's rule, registered there only:
every pass loads model files through
:func:`~repro.analysis.contracts.graph.load_graph_file`, so a corrupt
artifact is the same finding whichever pass trips over it first.

Suppression: graph nodes have no source lines, so the ``# repro: noqa``
convention maps to a node attribute -- ``"noqa": true`` suppresses every
RANGE finding on that node, ``"noqa": ["RANGE-NARROWABLE"]`` just the
listed rules.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.analysis.diagnostics import (
    Diagnostic,
    ERROR,
    INFO,
)
from repro.core.config import BlockingParams, DEFAULT_ACCMEM_BITS

from .analyzer import RangeAnalysis, analyze_graph

RANGES_RULES: dict[str, str] = {
    "RANGE-OVERFLOW": "derived value ranges provably wrap the AccMem "
                      "width",
    "RANGE-NARROWABLE": "derived ranges prove the layer safe at a "
                        "narrower AccMem width",
    "RANGE-EQUIV": "compiled plan diverges from the source graph's "
                   "proven ranges",
    "RANGE-OBSERVED": "runtime value escaped its static interval "
                      "(soundness violation)",
}


def node_noqa_rules(node) -> Optional[frozenset[str]]:
    """Suppressed rules for a graph node; empty set = all, None = none.

    Mirrors the linter's ``# repro: noqa [RULES]`` semantics on the
    node-attribute plane (graph findings have no source line to anchor
    a comment to).
    """
    raw = node.attrs.get("noqa")
    if raw is None or raw is False:
        return None
    if raw is True:
        return frozenset()
    if isinstance(raw, str):
        raw = [raw]
    if isinstance(raw, (list, tuple)):
        return frozenset(str(r) for r in raw)
    return None


def _suppressed(node, rule: str) -> bool:
    rules = node_noqa_rules(node)
    return rules is not None and (not rules or rule in rules)


def check_ranges(graph, *,
                 accmem_bits: int = DEFAULT_ACCMEM_BITS,
                 blocking: Optional[BlockingParams] = None,
                 input_range: Optional[tuple[float, float]] = None,
                 path: str = "",
                 analysis: Optional[RangeAnalysis] = None,
                 ) -> list[Diagnostic]:
    """Tight-bound overflow pass: RANGE-OVERFLOW / RANGE-NARROWABLE.

    Pass a precomputed ``analysis`` to avoid re-running the abstract
    interpreter (the CLI shares one run between diagnostics, the bounds
    table and the plan verifier).
    """
    if analysis is None:
        analysis = analyze_graph(graph, accmem_bits=accmem_bits,
                                 blocking=blocking,
                                 input_range=input_range)
    nodes_by_label = dict(zip(graph.effective_ids(), graph))
    diags: list[Diagnostic] = []
    for label, rec in analysis.records.items():
        node = nodes_by_label.get(label)
        if node is None:
            continue
        if rec.may_wrap:
            if _suppressed(node, "RANGE-OVERFLOW"):
                continue
            diags.append(Diagnostic(
                rule="RANGE-OVERFLOW", severity=ERROR,
                message=(
                    f"{rec.op} ({rec.config_name}): derived kc-block "
                    f"sums reach [{int(rec.acc_lo.min())}, "
                    f"{int(rec.acc_hi.max())}] and need "
                    f"{rec.derived_bits} bits, but AccMem is "
                    f"{rec.accmem_bits}-bit; reachable inputs wrap"
                ),
                hint=(f"needs accmem_bits >= {rec.derived_bits} "
                      f"(Eq. 5 worst case would demand "
                      f"{rec.worst_bits})"),
                node=label, path=path,
            ))
        elif rec.derived_bits < rec.accmem_bits:
            if _suppressed(node, "RANGE-NARROWABLE"):
                continue
            diags.append(Diagnostic(
                rule="RANGE-NARROWABLE", severity=INFO,
                message=(
                    f"{rec.op} ({rec.config_name}): derived ranges "
                    f"prove {rec.derived_bits} accumulator bits "
                    f"suffice ({rec.headroom_bits} spare of the "
                    f"configured {rec.accmem_bits}; Eq. 5 worst case "
                    f"says {rec.worst_bits})"
                ),
                hint="bankable headroom for a narrower AccMem "
                     "deployment or a DSE bitwidth search",
                node=label, path=path,
            ))
    return diags


def check_ranges_file(path: str, *,
                      accmem_bits: int = DEFAULT_ACCMEM_BITS,
                      blocking: Optional[BlockingParams] = None,
                      input_range: Optional[tuple[float, float]] = None,
                      verify_plan: bool = False,
                      ) -> tuple[list[Diagnostic],
                                 Optional[RangeAnalysis]]:
    """Load a serialized model, range-check it, optionally verify plans.

    Returns ``(diagnostics, analysis)``; ``analysis`` is ``None`` when
    the model cannot even be deserialized (reported as ``GRF-PARSE``
    by :func:`~repro.analysis.contracts.graph.load_graph_file`).
    """
    from repro.analysis.contracts.graph import load_graph_file

    graph, parse_error = load_graph_file(path)
    if parse_error is not None:
        return [parse_error], None
    analysis = analyze_graph(graph, accmem_bits=accmem_bits,
                             blocking=blocking, input_range=input_range)
    diags = check_ranges(graph, accmem_bits=accmem_bits,
                         blocking=blocking, input_range=input_range,
                         path=path, analysis=analysis)
    if verify_plan:
        from .plancheck import verify_graph_plans

        diags.extend(verify_graph_plans(
            graph, accmem_bits=accmem_bits, blocking=blocking,
            input_range=input_range, path=path, analysis=analysis))
    return diags, analysis


def table_json(analysis: RangeAnalysis) -> str:
    """The per-layer bounds table as stable, strict JSON.

    Unbounded input endpoints serialize as ``null`` (strict JSON has no
    Infinity literal); quantized-layer bounds are always finite.
    """
    import math

    return json.dumps({
        "accmem_bits": analysis.accmem_bits,
        "input_range": [v if math.isfinite(v) else None
                        for v in analysis.input_range],
        "layers": analysis.table(),
    }, indent=2)


__all__ = [
    "RANGES_RULES",
    "check_ranges",
    "check_ranges_file",
    "node_noqa_rules",
    "table_json",
]
