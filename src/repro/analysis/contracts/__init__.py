"""Static quantization contracts over deployment graphs and configs.

Three cooperating contract classes, each its own module:

* :mod:`.graph`    -- structural/dataflow soundness of a
  :class:`~repro.runtime.graph.GraphModel` (ids, wiring, shapes,
  scale/zero-point sanity, supported bitwidths);
* :mod:`.overflow` -- worst-case accumulator bounds per quantized node
  against the configured AccMem width (Eq. 5 / Section III-B);
* :mod:`.packing`  -- u-vector layout consistency of a
  :class:`~repro.core.config.MixGemmConfig` (elements-per-word vs.
  segmentation spec, kua/kub band, Source Buffer deadlock freedom).

:func:`check_graph` is the entry point ``repro check --graph`` and the
robustness precheck use: it proves, without executing a single GEMM,
that the dynamic engine cannot wrap, deadlock or crash on the model.
"""

from __future__ import annotations

from repro.analysis.diagnostics import DiagnosticReport
from repro.core.binseg import DEFAULT_MUL_WIDTH
from repro.core.config import BlockingParams, DEFAULT_ACCMEM_BITS

from .graph import GRAPH_RULES, check_graph_structure, load_graph_file
from .overflow import OVERFLOW_RULES, check_overflow, runtime_blocking
from .packing import PACKING_RULES, check_config

#: rule id -> one-line description, for SARIF rule metadata and docs.
CONTRACT_RULES: dict[str, str] = {
    **GRAPH_RULES,
    **OVERFLOW_RULES,
    **PACKING_RULES,
}


def check_graph(
    graph,
    *,
    accmem_bits: int = DEFAULT_ACCMEM_BITS,
    blocking: BlockingParams | None = None,
    mul_width: int = DEFAULT_MUL_WIDTH,
    path: str = "",
) -> DiagnosticReport:
    """Run every graph-level contract; returns the combined report.

    ``accmem_bits``/``blocking``/``mul_width`` describe the hardware the
    graph will deploy onto; defaults match what
    :class:`~repro.runtime.engine.InferenceEngine` instantiates, so a
    clean report here is a no-wrap/no-crash guarantee for a default run.
    """
    if blocking is None:
        blocking = runtime_blocking()
    report = DiagnosticReport()
    report.extend(check_graph_structure(graph, path=path))
    report.extend(check_overflow(
        graph, accmem_bits=accmem_bits, blocking=blocking,
        mul_width=mul_width, path=path,
    ))
    return report


def check_graph_file(
    path: str,
    *,
    accmem_bits: int = DEFAULT_ACCMEM_BITS,
    blocking: BlockingParams | None = None,
    mul_width: int = DEFAULT_MUL_WIDTH,
) -> DiagnosticReport:
    """Load a serialized model (:func:`load_graph_file`) and
    contract-check it."""
    graph, parse_error = load_graph_file(path)
    if parse_error is not None:
        return DiagnosticReport([parse_error])
    return check_graph(graph, accmem_bits=accmem_bits, blocking=blocking,
                       mul_width=mul_width, path=path)


__all__ = [
    "CONTRACT_RULES",
    "check_config",
    "check_graph",
    "check_graph_file",
    "check_graph_structure",
    "check_overflow",
]
