"""Weighted-fair queue: SFQ ordering, weights, validation, idle reset."""

from __future__ import annotations

import pytest

from repro.service.queue import WeightedFairQueue


def drain(queue: WeightedFairQueue) -> list[tuple[str, object]]:
    """Pop everything, in service order."""
    order = []
    while (item := queue.pop()) is not None:
        order.append(item)
    return order


class TestOrdering:
    def test_single_tenant_is_fifo(self):
        queue = WeightedFairQueue()
        for index in range(5):
            queue.push("a", index)
        assert [payload for _, payload in drain(queue)] == list(range(5))

    def test_equal_weights_interleave_round_robin(self):
        queue = WeightedFairQueue()
        for index in range(3):
            queue.push("a", f"a{index}")
        for index in range(3):
            queue.push("b", f"b{index}")
        assert [payload for _, payload in drain(queue)] == [
            "a0", "b0", "a1", "b1", "a2", "b2",
        ]

    def test_order_invariant_to_submission_interleaving(self):
        """The queue's core determinism contract, in miniature."""
        ab = WeightedFairQueue()
        for index in range(4):
            ab.push("a", ("a", index))
        for index in range(4):
            ab.push("b", ("b", index))
        interleaved = WeightedFairQueue()
        for index in range(4):
            interleaved.push("b", ("b", index))
            interleaved.push("a", ("a", index))
        assert drain(ab) == drain(interleaved)

    def test_weight_biases_service_share(self):
        queue = WeightedFairQueue()
        queue.set_weight("heavy", 2.0)
        for index in range(4):
            queue.push("heavy", f"h{index}")
            queue.push("light", f"l{index}")
        order = [payload for _, payload in drain(queue)]
        # Over the first backlogged window, the weight-2 tenant is
        # served twice per grant to the weight-1 tenant.
        assert order.index("h1") < order.index("l1")
        assert order.index("h3") < order.index("l2")
        assert queue.weight_of("heavy") == 2.0
        assert queue.weight_of("light") == 1.0

    def test_cost_consumes_share(self):
        queue = WeightedFairQueue()
        queue.push("a", "a-big", cost=4.0)
        queue.push("a", "a-small")
        queue.push("b", "b0")
        queue.push("b", "b1")
        order = [payload for _, payload in drain(queue)]
        # a's expensive first item pushes its next finish tag far out,
        # so b catches up before a-small is served.
        assert order.index("b0") < order.index("a-small")
        assert order.index("b1") < order.index("a-small")


class TestBounds:
    def test_invalid_parameters_rejected(self):
        queue = WeightedFairQueue()
        with pytest.raises(ValueError):
            queue.set_weight("a", -1.0)
        with pytest.raises(ValueError):
            queue.push("a", 1, cost=0.0)


class TestIdleReset:
    def test_past_burst_does_not_tax_next_burst(self):
        queue = WeightedFairQueue()
        for index in range(10):
            queue.push("a", index)
        drain(queue)
        # After the drain, clocks reset: a fresh two-tenant burst is
        # served exactly as if "a" had never queued anything.
        queue.push("a", "a0")
        queue.push("b", "b0")
        queue.push("a", "a1")
        queue.push("b", "b1")
        assert [payload for _, payload in drain(queue)] == [
            "a0", "b0", "a1", "b1",
        ]
