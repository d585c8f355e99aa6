"""Algorithm 1 over grid columns: bit-identity with the scalar walk.

:func:`repro.e2e.traverse_columns` advances the CPU clock, the stream
clocks and the active-time sums as float64 vectors, one column per grid
point.  Every column must reproduce :func:`repro.e2e.traverse_plan`
bit for bit; the sweep engine relies on it to group points by plan
structure without changing a single record.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import predict_kernel_only_us
from repro.e2e import (
    plan_kernels,
    plan_structure,
    predict_e2e,
    traverse_columns,
    traverse_plan,
)
from repro.graph.transforms import rescale_batch
from repro.ops import KernelCall, KernelType, elementwise_kernel
from repro.overheads import OverheadDatabase, OverheadStats
from repro.simulator.host import OVERHEAD_TYPES
from repro.sweep import IDENTITY_TRANSFORM, SweepEngine, SweepPoint
from repro.sweep.engine import _MIN_COLUMNS

H2D = KernelCall(KernelType.MEMCPY, {"bytes": 64.0, "h2d": 1})
D2H = KernelCall(KernelType.MEMCPY, {"bytes": 64.0, "h2d": 0})
ELEMENTWISE = elementwise_kernel(1.0, 4.0, 4.0)
#: The last name never enters a database: it always takes the fallback.
NAMES = ("aten::addmm", "aten::relu", "aten::copy_", "Optimizer.step",
         "never::profiled")

#: Small discrete values make clock ties (``max`` of equal operands)
#: common; the float range covers everything else.
values = st.sampled_from([0.0, 0.5, 1.0, 2.5, 10.0]) | st.floats(
    min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False
)
rows = st.tuples(
    st.sampled_from(NAMES),
    st.integers(min_value=0, max_value=2),
    st.lists(st.sampled_from([H2D, D2H, ELEMENTWISE]), max_size=3).map(tuple),
)
databases = st.dictionaries(
    st.sampled_from(NAMES[:-1]),
    st.dictionaries(
        st.sampled_from(OVERHEAD_TYPES),
        st.builds(OverheadStats, values, st.just(0.0),
                  st.integers(min_value=1, max_value=4)),
    ),
).map(OverheadDatabase)
knobs = st.fixed_dictionaries({
    "t4_us": st.none() | values,
    "kernel_gap_us": values,
    "sync_h2d": st.booleans(),
})


def _bits(prediction):
    """Every float of a prediction, as raw int64 bit patterns."""
    floats = [prediction.total_us, prediction.cpu_us, prediction.gpu_us,
              prediction.active_us, *prediction.per_op_active_us.values()]
    return (
        np.array(floats, dtype=np.float64).view(np.int64).tolist(),
        list(prediction.per_op_active_us),
        prediction.num_ops,
        prediction.num_kernels,
    )


def _assert_columns_match(plan, times, dbs, **kw):
    columns = traverse_columns(plan, times, dbs, **kw)
    assert len(columns) == len(dbs)
    for j, column in enumerate(columns):
        scalar = traverse_plan(plan, times[:, j], dbs[j], **kw)
        assert _bits(column) == _bits(scalar), f"column {j}"


@st.composite
def column_sets(draw):
    plan = draw(st.lists(rows, max_size=8))
    n = draw(st.integers(min_value=1, max_value=6))
    distinct = draw(st.lists(databases, min_size=1, max_size=3))
    dbs = [draw(st.sampled_from(distinct)) for _ in range(n)]
    k = len(plan_kernels(plan))
    flat = draw(st.lists(values, min_size=k * n, max_size=k * n))
    times = np.array(flat, dtype=np.float64).reshape(k, n)
    return plan, times, dbs


class TestColumnsMatchScalar:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=column_sets(), kw=knobs)
    def test_every_column_is_bit_identical(self, case, kw):
        plan, times, dbs = case
        _assert_columns_match(plan, times, dbs, **kw)

    @pytest.mark.parametrize("t4_us", [None, 10.0])
    @pytest.mark.parametrize("sync_h2d", [False, True])
    def test_every_feature_in_one_plan(self, t4_us, sync_h2d):
        # Repeated names, a name no database knows, kernel-less rows,
        # three streams, H2D copies and two databases mixed by column.
        plan = [
            ("aten::copy_", 0, (H2D,)),
            ("aten::relu", 0, ()),
            ("aten::addmm", 1, (ELEMENTWISE, D2H, ELEMENTWISE)),
            ("never::profiled", 2, (H2D, ELEMENTWISE)),
            ("aten::addmm", 0, (ELEMENTWISE,)),
            ("never::profiled", 1, ()),
        ]
        slow = {name: {otype: OverheadStats(7.5 + i, 0.0, 3)
                       for i, otype in enumerate(OVERHEAD_TYPES)}
                for name in NAMES[:2]}
        dbs = [OverheadDatabase(slow), OverheadDatabase({})]
        columns = [dbs[j % 2] for j in range(5)]
        k = len(plan_kernels(plan))
        times = np.arange(1.0, 1.0 + 7.25 * k * 5, 7.25).reshape(k, 5)
        _assert_columns_match(plan, times, columns, t4_us=t4_us,
                              sync_h2d=sync_h2d)

    def test_empty_plan(self):
        dbs = [OverheadDatabase({})] * 3
        _assert_columns_match([], np.zeros((0, 3)), dbs)

    def test_structure_reads_copy_flags_only_when_they_matter(self):
        plan = [("aten::copy_", 0, (H2D,))]
        other = [("aten::copy_", 0, (D2H,))]
        assert plan_structure(plan) == plan_structure(other)
        assert plan_structure(plan, True) != plan_structure(other, True)


def _grid_engine(registry, overhead_db, scale_b=1.0):
    scaled = OverheadDatabase({
        op: {otype: OverheadStats(st.mean * scale_b, st.std, st.count)
             for otype, st in per_type.items()}
        for op, per_type in overhead_db._stats.items()
    })
    return SweepEngine(
        registries={"V100": registry},
        overhead_dbs={"a": overhead_db, "b": scaled},
    )


BATCHES = [128, 256, 384, 512, 768, 1024, 1536, 2048]


class TestEngineColumnPass:
    def test_overhead_lookups_are_per_row_not_per_point(
        self, registry, overhead_db, dlrm_graph, monkeypatch
    ):
        engine = _grid_engine(registry, overhead_db, scale_b=1.5)
        plans = [plan for _, _, plan in engine._prepare(dlrm_graph, 512,
                                                        BATCHES)]
        groups = {plan_structure(plan) for plan in plans}
        calls = []
        original = OverheadDatabase.mean_us

        def counted(self, op_name, otype):
            calls.append(otype)
            return original(self, op_name, otype)

        monkeypatch.setattr(OverheadDatabase, "mean_us", counted)
        result = engine.run(dlrm_graph, 512, BATCHES)
        monkeypatch.undo()
        rows = len(plans[0])
        assert len(result) == len(BATCHES) * 2
        assert len(calls) <= 5 * rows * 2 * len(groups)
        for record in result:
            direct = predict_e2e(
                rescale_batch(dlrm_graph, 512, record.point.batch_size),
                registry,
                engine.overhead_dbs[record.point.overheads],
            )
            assert _bits(record.prediction) == _bits(direct)

    def test_reused_pruned_and_traversed_points_keep_grid_order(
        self, registry, overhead_db, dlrm_graph
    ):
        batches = [64 * i for i in range(1, 17)]
        previous = _grid_engine(registry, overhead_db).run(
            dlrm_graph, 512, batches[::2], fingerprints=True
        )
        # DB "b" changes content, so its points re-traverse while the
        # "a" points of the previous batches are reused; the cutoff
        # prunes the largest batches but keeps their reusable records.
        engine = _grid_engine(registry, overhead_db, scale_b=1.25)
        cutoff = 1.001 * predict_kernel_only_us(
            rescale_batch(dlrm_graph, 512, 768), registry
        )
        result = engine.run_incremental(
            dlrm_graph, 512, batches, previous, cutoff_us=cutoff
        )
        prior = {r.point: r for r in previous.records}
        pruned = set(result.pruned_points)
        grid = [
            SweepPoint(IDENTITY_TRANSFORM, batch, "V100", db)
            for batch in batches
            for db in ("a", "b")
        ]
        assert [r.point for r in result] == [
            p for p in grid if p not in pruned
        ]
        reused, traversed = set(), set()
        for record in result:
            if record.point in prior and record.point.overheads == "a":
                assert record is prior[record.point]
                reused.add(record.point)
                continue
            direct = predict_e2e(
                rescale_batch(dlrm_graph, 512, record.point.batch_size),
                registry,
                engine.overhead_dbs[record.point.overheads],
            )
            assert _bits(record.prediction) == _bits(direct)
            traversed.add(record.point)
        # Every kind occurs, mixed within batches, and the traversed
        # points form a group large enough for the column pass.
        assert result.reused == len(reused)
        assert len(traversed) >= _MIN_COLUMNS
        assert any(p._replace(overheads="a") in reused for p in pruned)
        assert any(p._replace(overheads="a") in reused for p in traversed)
