"""Unit tests for the execution graph container and observer."""

import pytest

from repro.graph import ExecutionGraph, GraphError, Observer
from repro.ops import Add, Linear, Relu, ToDevice, View
from repro.tensormeta import TensorMeta


def small_graph():
    obs = Observer("t")
    x = obs.input(TensorMeta((8, 4), device="cpu"))
    (xg,) = obs.call(ToDevice((8, 4)), [x])
    lin = Linear(8, 4, 2)
    w = obs.input(lin.inputs[1])
    b = obs.input(lin.inputs[2])
    (y,) = obs.call(lin, [xg, w, b])
    (z,) = obs.call(Relu((8, 2)), [y])
    return obs.finish(), (x, xg, y, z)


class TestConstruction:
    def test_node_count_and_order(self):
        g, _ = small_graph()
        assert len(g) == 3
        assert [n.op_name for n in g] == ["aten::to", "aten::linear", "aten::relu"]

    def test_kernel_count(self):
        g, _ = small_graph()
        assert g.num_kernels() == 3

    def test_unknown_input_rejected(self):
        g = ExecutionGraph()
        with pytest.raises(GraphError):
            g.add_node(Relu((2,)), [99])

    def test_op_name_counts(self):
        g, _ = small_graph()
        assert g.op_name_counts()["aten::relu"] == 1


class TestDerivedMemo:
    def test_value_is_computed_once_per_graph_state(self):
        g, _ = small_graph()
        calls = []

        def count_nodes(graph):
            calls.append(1)
            return len(graph)

        assert g.derived("n", count_nodes) == 3
        assert g.derived("n", count_nodes) == 3
        assert len(calls) == 1

    def test_mutation_and_rename_drop_cached_values(self):
        g, (_, _, _, z) = small_graph()
        assert g.derived("n", len) == 3
        g.add_node(Relu((8, 2)), [z])
        assert g.derived("n", len) == 4
        assert g.derived("name", lambda graph: graph.name) == "t"
        g.name = "renamed"
        assert g.derived("name", lambda graph: graph.name) == "renamed"
        g.add_tensor(TensorMeta((1,)))
        assert g.derived("n", lambda graph: -1) == -1

    def test_rewritten_graph_starts_empty(self):
        g, _ = small_graph()
        assert g.derived("n", len) == 3
        trimmed = g.replace_nodes(list(g.nodes)[:2])
        assert trimmed.derived("n", len) == 2


class TestDependencies:
    def test_producer_tracking(self):
        g, (x, xg, y, z) = small_graph()
        assert g.producer_of(x) is None  # graph input
        assert g.producer_of(xg) == 0
        assert g.producer_of(y) == 1

    def test_consumers(self):
        g, (x, xg, y, z) = small_graph()
        assert g.consumers_of(xg) == [1]

    def test_dependencies(self):
        g, _ = small_graph()
        relu_node = g.nodes[2]
        assert g.dependencies(relu_node) == {1}

    def test_inplace_does_not_claim_production(self):
        obs = Observer("t")
        a = obs.input(TensorMeta((4,)))
        b = obs.input(TensorMeta((4,)))
        obs.call(Add((4,)), [a, b], inplace=True)
        g = obs.finish()
        assert g.producer_of(a) is None


class TestValidation:
    def test_valid_graph_passes(self):
        g, _ = small_graph()
        g.validate()

    def test_reordered_dependency_fails(self):
        g, _ = small_graph()
        nodes = list(g.nodes)
        broken = g.replace_nodes([nodes[1], nodes[0], nodes[2]])
        with pytest.raises(GraphError):
            broken.validate()

    def test_duplicate_node_ids_fail(self):
        g, _ = small_graph()
        nodes = list(g.nodes)
        broken = g.replace_nodes([nodes[0], nodes[0]])
        with pytest.raises(GraphError):
            broken.validate()


class TestObserver:
    def test_strict_shape_check(self):
        obs = Observer("t")
        x = obs.input(TensorMeta((8, 5)))
        with pytest.raises(GraphError, match="shape"):
            obs.call(Relu((8, 4)), [x])

    def test_lenient_mode(self):
        obs = Observer("t", strict_shapes=False)
        x = obs.input(TensorMeta((8, 5)))
        obs.call(Relu((8, 4)), [x])  # allowed

    def test_tensor_lookup(self):
        g, (x, *_rest) = small_graph()
        assert g.tensor(x).shape == (8, 4)
        with pytest.raises(GraphError):
            g.tensor(12345)

    def test_node_lookup(self):
        g, _ = small_graph()
        assert g.node(0).op_name == "aten::to"
        with pytest.raises(GraphError):
            g.node(999)


class TestMapTensors:
    def test_map_preserves_structure(self):
        g, _ = small_graph()
        mapped = g.map_tensors(lambda t: t.with_batch(8, 16))
        assert len(mapped) == len(g)
        assert mapped.tensor(0).shape == (16, 4)
