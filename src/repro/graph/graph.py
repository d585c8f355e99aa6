"""The model execution graph.

This is the artifact the paper's PyTorch observer extracts: the ops
executed during training, their inputs/outputs, and hence the data
dependencies between them (Section III-D).  The E2E performance model
traverses it in recorded order; co-design transforms rewrite it.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Iterator, TypeVar

from repro.graph.node import Node
from repro.ops import Op
from repro.tensormeta import TensorMeta


T = TypeVar("T")


class GraphError(ValueError):
    """Raised when an execution graph violates a structural invariant."""


class ExecutionGraph:
    """Ordered operator calls plus the tensors flowing between them.

    Nodes are kept in recorded (eager-execution) order, which is also a
    valid topological order — an op can only consume tensors that
    already exist when it runs.
    """

    def __init__(self, name: str = "graph") -> None:
        self._name = name
        self._nodes: list[Node] = []
        self._tensors: dict[int, TensorMeta] = {}
        self._producer: dict[int, int] = {}  # tensor id -> node id
        self._next_tensor_id = 0
        self._next_node_id = 0
        # Values derived from the current graph state (see derived()).
        self._derived: dict[str, object] = {}

    @property
    def name(self) -> str:
        """Graph name (part of the serialized structure)."""
        return self._name

    @name.setter
    def name(self, value: str) -> None:
        """Rename the graph; drops every derived value."""
        self._name = value
        self._derived = {}

    def derived(self, key: str, compute: Callable[["ExecutionGraph"], T]) -> T:
        """``compute(self)``, computed once per graph state.

        Hot request paths (the prediction service's content keys) ask
        for the same graph's plan and digests on every call; like
        :meth:`~repro.ops.Op.cached_kernel_calls`, this caches them on
        the object.  :meth:`add_tensor`, :meth:`add_node` and a rename
        drop every cached value.  The memo is swapped rather than
        cleared, so a value computed while the graph changed lands in
        the discarded memo, never the live one.
        """
        memo = self._derived
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = compute(self)
            return value

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_tensor(self, meta: TensorMeta) -> int:
        """Register a graph-input tensor and return its id."""
        tid = self._next_tensor_id
        self._next_tensor_id += 1
        self._tensors[tid] = meta
        self._derived = {}
        return tid

    def add_node(
        self,
        op: Op,
        input_ids: Iterable[int],
        stream: int = 0,
        output_ids: Iterable[int] | None = None,
    ) -> Node:
        """Append an operator call; returns the created node.

        Fresh tensor ids are allocated for the op's outputs unless
        ``output_ids`` pins them (used for in-place ops whose output is
        one of their inputs).
        """
        input_ids = tuple(input_ids)
        for tid in input_ids:
            if tid not in self._tensors:
                raise GraphError(
                    f"op {op.op_name} consumes unknown tensor id {tid}"
                )
        if output_ids is None:
            out_ids = []
            for meta in op.outputs:
                tid = self.add_tensor(meta)
                out_ids.append(tid)
            output_ids = tuple(out_ids)
        else:
            output_ids = tuple(output_ids)
            for tid, meta in zip(output_ids, op.outputs):
                if tid not in self._tensors:
                    self._tensors[tid] = meta
        node = Node(self._next_node_id, op, input_ids, output_ids, stream)
        self._next_node_id += 1
        self._nodes.append(node)
        for tid in output_ids:
            # An in-place op aliases an input as its output; it must not
            # become the tensor's producer, or earlier readers would
            # appear to depend on this later write.
            if tid not in input_ids:
                self._producer.setdefault(tid, node.node_id)
        self._derived = {}
        return node

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> tuple[Node, ...]:
        """Nodes in recorded execution order."""
        return tuple(self._nodes)

    @property
    def tensors(self) -> dict[int, TensorMeta]:
        """Tensor id to metadata mapping (copy-safe view)."""
        return dict(self._tensors)

    def tensor(self, tid: int) -> TensorMeta:
        """Metadata of tensor ``tid``."""
        try:
            return self._tensors[tid]
        except KeyError:
            raise GraphError(f"unknown tensor id {tid}") from None

    def node(self, node_id: int) -> Node:
        """Node with the given id."""
        for n in self._nodes:
            if n.node_id == node_id:
                return n
        raise GraphError(f"unknown node id {node_id}")

    def producer_of(self, tid: int) -> int | None:
        """Node id that produced tensor ``tid`` (None for graph inputs)."""
        return self._producer.get(tid)

    def consumers_of(self, tid: int) -> list[int]:
        """Node ids that consume tensor ``tid``."""
        return [n.node_id for n in self._nodes if tid in n.input_ids]

    def dependencies(self, node: Node) -> set[int]:
        """Node ids this node data-depends on."""
        deps = set()
        for tid in node.input_ids:
            producer = self._producer.get(tid)
            if producer is not None and producer != node.node_id:
                deps.add(producer)
        return deps

    def op_name_counts(self) -> Counter:
        """Histogram of trace-visible op names (breakdown displays)."""
        return Counter(n.op_name for n in self._nodes)

    def num_kernels(self) -> int:
        """Total device kernels launched per iteration."""
        return sum(len(n.op.cached_kernel_calls()) for n in self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raises :class:`GraphError`.

        * Every consumed tensor id exists.
        * Recorded order is topologically consistent: every data
          dependency points to an earlier node.
        * Node ids are unique.
        """
        seen_ids = set()
        position = {n.node_id: i for i, n in enumerate(self._nodes)}
        if len(position) != len(self._nodes):
            raise GraphError("duplicate node ids")
        for i, node in enumerate(self._nodes):
            if node.node_id in seen_ids:
                raise GraphError(f"duplicate node id {node.node_id}")
            seen_ids.add(node.node_id)
            for tid in node.input_ids:
                if tid not in self._tensors:
                    raise GraphError(
                        f"node {node.node_id} consumes unknown tensor {tid}"
                    )
            for dep in self.dependencies(node):
                if position[dep] >= i:
                    raise GraphError(
                        f"node {node.node_id} at position {i} depends on "
                        f"node {dep} at later position {position[dep]}"
                    )

    # ------------------------------------------------------------------
    # Rewriting support (used by transforms)
    # ------------------------------------------------------------------
    def replace_nodes(
        self,
        new_nodes: list[Node],
        new_tensors: dict[int, TensorMeta] | None = None,
    ) -> "ExecutionGraph":
        """Build a new graph with ``new_nodes`` (and optionally new tensors).

        Producer bookkeeping is rebuilt from scratch; callers are
        responsible for id consistency, which :meth:`validate` checks.
        """
        g = ExecutionGraph(self.name)
        g._tensors = dict(self._tensors if new_tensors is None else new_tensors)
        g._next_tensor_id = max(g._tensors, default=-1) + 1
        g._nodes = list(new_nodes)
        g._next_node_id = max((n.node_id for n in g._nodes), default=-1) + 1
        g._producer = {}
        for node in g._nodes:
            for tid in node.output_ids:
                if tid not in node.input_ids:
                    g._producer.setdefault(tid, node.node_id)
        return g

    def map_tensors(
        self, fn: Callable[[TensorMeta], TensorMeta]
    ) -> "ExecutionGraph":
        """Apply ``fn`` to every tensor meta, keeping structure intact."""
        return self.replace_nodes(
            list(self._nodes), {tid: fn(m) for tid, m in self._tensors.items()}
        )
