"""Edge cases of the Eq. 5 overflow contract (``contracts/overflow.py``).

Boundary geometry the integration tests never hit: K=1 layers, cache
blocks deeper than K, strongly asymmetric operand widths, and AccMem
widths sitting exactly on / one below the provable requirement.
"""

import numpy as np
import pytest

from repro.analysis.contracts.overflow import check_overflow, node_config
from repro.core.binseg import accumulator_bits_required
from repro.core.config import BlockingParams
from repro.runtime.engine import SIM_BLOCKING
from repro.runtime.graph import GraphModel, NodeSpec


def _linear_graph(k, act_bits=8, weight_bits=8):
    return GraphModel(nodes=[NodeSpec(
        op="quant_linear",
        attrs={"act_scale": 1.0, "act_bits": act_bits,
               "act_signed": True, "weight_bits": weight_bits},
        tensors={"weight": np.ones((4, k))},
    )])


def _kc_logical(graph, accmem_bits=64):
    node = graph.nodes[0]
    return node_config(node, accmem_bits=accmem_bits,
                       blocking=SIM_BLOCKING).kc_elements


def _rules(diags):
    return [d.rule for d in diags]


class TestKEdgeCases:
    def test_k_equals_one_uses_single_product_bound(self):
        graph = _linear_graph(1)
        need = accumulator_bits_required(1, 8, 8)
        at = check_overflow(graph, accmem_bits=need,
                            blocking=SIM_BLOCKING)
        assert "ACC-OVERFLOW" not in _rules(at)
        below = check_overflow(graph, accmem_bits=need - 1,
                               blocking=SIM_BLOCKING)
        assert "ACC-OVERFLOW" in _rules(below)

    def test_kc_deeper_than_k_clamps_to_k(self):
        """kc > K: accumulation depth is K, not the cache block."""
        graph = _linear_graph(4)
        kc = _kc_logical(graph)
        assert kc > 4  # the premise of the test
        need_k = accumulator_bits_required(4, 8, 8)
        need_kc = accumulator_bits_required(kc, 8, 8)
        assert need_k < need_kc
        diags = check_overflow(graph, accmem_bits=need_k,
                               blocking=SIM_BLOCKING)
        assert "ACC-OVERFLOW" not in _rules(diags)

    def test_k_deeper_than_kc_clamps_to_kc(self):
        """K > kc: the scalar core folds blocks outside AccMem."""
        small = BlockingParams(mc=16, nc=16, kc=2)
        graph = _linear_graph(100000)
        kc = node_config(graph.nodes[0], accmem_bits=64,
                         blocking=small).kc_elements
        assert kc < 100000
        need_block = accumulator_bits_required(kc, 8, 8)
        diags = check_overflow(graph, accmem_bits=need_block,
                               blocking=small)
        assert "ACC-OVERFLOW" not in _rules(diags)


class TestAsymmetricWidths:
    @pytest.mark.parametrize("act_bits,weight_bits", [(2, 8), (8, 2)])
    def test_two_by_eight_pairs(self, act_bits, weight_bits):
        graph = _linear_graph(64, act_bits=act_bits,
                              weight_bits=weight_bits)
        k_eff = min(64, _kc_logical(graph))
        need = accumulator_bits_required(k_eff, act_bits, weight_bits)
        ok = check_overflow(graph, accmem_bits=need,
                            blocking=SIM_BLOCKING)
        assert "ACC-OVERFLOW" not in _rules(ok)
        bad = check_overflow(graph, accmem_bits=need - 1,
                             blocking=SIM_BLOCKING)
        assert "ACC-OVERFLOW" in _rules(bad)

    def test_asymmetry_is_symmetric_in_required_bits(self):
        # Eq. 5 depends on ba + bw only; 2x8 and 8x2 need the same width
        assert (accumulator_bits_required(64, 2, 8)
                == accumulator_bits_required(64, 8, 2))


class TestBoundaryWidths:
    def test_exactly_required_bits_is_clean_or_margin(self):
        graph = _linear_graph(64)
        k_eff = min(64, _kc_logical(graph))
        need = accumulator_bits_required(k_eff, 8, 8)
        diags = check_overflow(graph, accmem_bits=need,
                               blocking=SIM_BLOCKING)
        rules = _rules(diags)
        assert "ACC-OVERFLOW" not in rules
        # sitting exactly at the bound leaves < 1 spare bit
        assert "ACC-MARGIN" in rules

    def test_one_bit_below_required_overflows(self):
        graph = _linear_graph(64)
        k_eff = min(64, _kc_logical(graph))
        need = accumulator_bits_required(k_eff, 8, 8)
        diags = check_overflow(graph, accmem_bits=need - 1,
                               blocking=SIM_BLOCKING)
        assert "ACC-OVERFLOW" in _rules(diags)
        [overflow] = [d for d in diags if d.rule == "ACC-OVERFLOW"]
        assert f"accmem_bits >= {need}" in overflow.hint

    def test_one_bit_above_required_has_no_margin_warning(self):
        graph = _linear_graph(64)
        k_eff = min(64, _kc_logical(graph))
        need = accumulator_bits_required(k_eff, 8, 8)
        diags = check_overflow(graph, accmem_bits=need + 1,
                               blocking=SIM_BLOCKING)
        assert _rules(diags) == []
