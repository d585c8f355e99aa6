"""Operator and kernel-call abstractions.

The paper's pipeline reasons at two granularities:

* **Operators** — the host-side PyTorch calls that appear in traces
  (``aten::addmm``, ``LookupFunction``, ...).  Host overheads (T1–T5)
  attach to operators.
* **Kernels** — the device-side work each operator launches.  Kernel
  performance models predict per-kernel runtimes and are *shared across
  ops that call the same kernel type* (Section III), e.g. ``addmm`` and
  ``AddmmBackward0`` both dispatch to the GEMM model.

An :class:`Op` therefore describes its tensor signature and the list of
:class:`KernelCall` objects it launches.  Kernel parameters are the
features both the ground-truth simulator and the performance models
consume — mirroring how the paper's models take kernel input dimensions
as features.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.tensormeta import TensorMeta


class KernelType:
    """Canonical kernel-type keys shared by simulator and perf models."""

    GEMM = "gemm"
    ELEMENTWISE = "elementwise"
    CONCAT = "concat"
    MEMCPY = "memcpy"
    TRANSPOSE = "transpose"
    EMBEDDING_FWD = "embedding_fwd"
    EMBEDDING_BWD = "embedding_bwd"
    TRIL_FWD = "tril_fwd"
    TRIL_BWD = "tril_bwd"
    CONV = "conv"
    BATCHNORM = "batchnorm"
    SCAN = "scan"

    ALL = (
        GEMM,
        ELEMENTWISE,
        CONCAT,
        MEMCPY,
        TRANSPOSE,
        EMBEDDING_FWD,
        EMBEDDING_BWD,
        TRIL_FWD,
        TRIL_BWD,
        CONV,
        BATCHNORM,
        SCAN,
    )


@dataclass(frozen=True)
class KernelCall:
    """One device kernel launched by an operator.

    Attributes:
        kernel_type: A :class:`KernelType` key selecting which
            performance model (and which ground-truth latency function)
            applies.
        params: Kernel parameters, e.g. ``{"m": 2048, "n": 1024,
            "k": 512, "batch": 1}`` for GEMM.  Stored as an immutable
            mapping so kernel calls are safely shareable.
        name: Display name, e.g. ``volta_sgemm_128x64``-style labels in
            real traces; defaults to the kernel type.
        key: Derived ``(kernel_type, sorted params, name)`` identity.
    """

    kernel_type: str
    params: Mapping[str, float]
    name: str = ""

    def __post_init__(self) -> None:
        if self.kernel_type not in KernelType.ALL:
            raise ValueError(
                f"unknown kernel type {self.kernel_type!r}; "
                f"known: {KernelType.ALL}"
            )
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        if not self.name:
            object.__setattr__(self, "name", self.kernel_type)
        # All fields are frozen, so build the identity and its hash
        # once.  The hash is an in-process cache key only — it never
        # reaches results/.
        key = (self.kernel_type, tuple(sorted(self.params.items())), self.name)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_hash", hash(key))  # repro-lint: disable=det-hash

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KernelCall):
            return NotImplemented
        return self._hash == other._hash and self.key == other.key


def elementwise_kernel(
    flop: float,
    bytes_read: float,
    bytes_write: float,
    name: str = KernelType.ELEMENTWISE,
) -> KernelCall:
    """Build an element-wise kernel call with roofline-relevant params."""
    if min(flop, bytes_read, bytes_write) < 0:
        raise ValueError("flop/bytes must be non-negative")
    return KernelCall(
        KernelType.ELEMENTWISE,
        {"flop": float(flop), "bytes_read": float(bytes_read),
         "bytes_write": float(bytes_write)},
        name=name,
    )


class Op:
    """Base class for all operators.

    Subclasses must set :attr:`op_name` (the trace-visible name) and
    implement :meth:`kernel_calls`.  Ops are immutable descriptors: a
    graph transform that changes shapes constructs a *new* op via
    :meth:`rescale_batch` or the subclass constructor.
    """

    #: Trace-visible operator name, e.g. ``"aten::addmm"``.
    op_name: str = "op"

    def __init__(
        self,
        inputs: tuple[TensorMeta, ...],
        outputs: tuple[TensorMeta, ...],
    ) -> None:
        self._inputs = tuple(inputs)
        self._outputs = tuple(outputs)

    @property
    def inputs(self) -> tuple[TensorMeta, ...]:
        """Input tensor metadata, in positional order."""
        return self._inputs

    @property
    def outputs(self) -> tuple[TensorMeta, ...]:
        """Output tensor metadata, in positional order."""
        return self._outputs

    def kernel_calls(self) -> tuple[KernelCall, ...]:
        """Device kernels launched by this op, in launch order.

        CPU-only ops (views, metadata transposes) return an empty tuple;
        the E2E predictor then only charges host overheads for them.
        """
        raise NotImplementedError

    def cached_kernel_calls(self) -> tuple[KernelCall, ...]:
        """:meth:`kernel_calls`, computed once per (immutable) op.

        Hot loops — the E2E predictor, the sweep engine, the simulator's
        per-iteration replay — ask for the same op's kernels repeatedly;
        ops are immutable descriptors, so the tuple never changes.
        """
        cached = self.__dict__.get("_kernel_calls_cache")
        if cached is None:
            cached = self.kernel_calls()
            self.__dict__["_kernel_calls_cache"] = cached
        return cached

    def rescale_batch(self, old_batch: int, new_batch: int) -> "Op":
        """Return a copy of this op with the batch dimension rescaled.

        The default implementation maps every input/output tensor with
        :meth:`TensorMeta.with_batch`; subclasses whose kernel params
        encode the batch size independently override this.
        """
        clone = self.__class__.__new__(self.__class__)
        clone.__dict__.update(self.__dict__)
        clone.__dict__.pop("_kernel_calls_cache", None)
        clone._inputs = tuple(t.with_batch(old_batch, new_batch) for t in self._inputs)
        clone._outputs = tuple(
            t.with_batch(old_batch, new_batch) for t in self._outputs
        )
        return clone

    @property
    def device_bytes(self) -> float:
        """Total device bytes moved by this op's kernels (best effort)."""
        total = 0.0
        for kc in self.cached_kernel_calls():
            p = kc.params
            total += p.get("bytes_read", 0.0) + p.get("bytes_write", 0.0)
            total += p.get("bytes", 0.0) + p.get("bytes_total", 0.0)
        return total

    def __repr__(self) -> str:
        ins = ",".join(str(t.shape) for t in self._inputs)
        outs = ",".join(str(t.shape) for t in self._outputs)
        return f"<{self.__class__.__name__} {self.op_name} in=({ins}) out=({outs})>"


class CpuOnlyOp(Op):
    """An operator with no device kernels (pure host-side work)."""

    def kernel_calls(self) -> tuple[KernelCall, ...]:
        """Device kernels launched by one execution of this op."""
        return ()
