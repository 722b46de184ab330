"""Property tests for the batched force kernels (docs/performance.md).

The kernels promise two different strengths of agreement with the
scalar reference path, and these tests pin both:

* **bit-exact** — occupancy rows, modulo folds, and ``DeltaBatch``
  displacement rows are elementwise constructions and must equal the
  scalar results bit for bit, on arbitrary frames, occupancies, and
  periods (``assert_array_equal``, no tolerance);
* **decision-level** — the row dot helpers are batched matrix products
  whose BLAS summation order may differ from the scalar ``np.dot``
  sequence by ulps; they are compared against an epsilon far below the
  ``1e-12`` decision threshold every scheduler uses.

Edge cases named by the kernel contracts are covered explicitly:
empty candidate batches, single-slot frames, occupancy wider than the
frame, guarded (modal) footprints, and dtype stability.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from repro.core.modulo import modulo_max_reference, modulo_max_rows
from repro.errors import SchedulingError
from repro.ir.dfg import DataFlowGraph, OpKind
from repro.ir.process import Block
from repro.resources.library import default_library
from repro.scheduling.distribution import occupancy_row
from repro.scheduling.kernels import (
    DeltaBatch,
    batched_occupancy_rows,
    row_dots,
    row_self_dots,
)
from repro.scheduling.selection_cache import BlockSelectionCache
from repro.scheduling.state import BlockState
from repro.workloads import mode_switching_filter, random_dfg

LIBRARY = default_library()

#: Decisions compare forces against 1e-12; batching noise is ~1e-16.
DECISION_EPS = 1e-12


def random_state(seed, ops=8, slack=5):
    """A BlockState over a random DFG with a feasible deadline."""
    graph = random_dfg(ops, seed=seed)
    deadline = graph.critical_path_length(LIBRARY.latency_of) + slack
    return BlockState(Block(name=f"b{seed}", graph=graph, deadline=deadline), LIBRARY)


def modal_state(seed, slack=4):
    """A BlockState over the mode-switching filter: guarded types."""
    graph = mode_switching_filter(2 + seed % 4, name=f"modal{seed}")
    deadline = graph.critical_path_length(LIBRARY.latency_of) + slack
    return BlockState(Block(name=f"m{seed}", graph=graph, deadline=deadline), LIBRARY)


def two_condition_graph():
    """A guarded block whose fold order is observable.

    The multiplier type interleaves unguarded operations with guarded
    ones across two conditions: ``c1`` has three branches (``x`` and
    ``y`` with two operations each), ``c2`` has two.  The adder type
    mixes an unguarded operation with one branch of ``c1``.  Edges make
    candidates override neighbors of their own guarded type, so one
    record holds several rows of a guarded type.
    """
    graph = DataFlowGraph(name="twocond")
    graph.add("u_mul0", OpKind.MUL)
    graph.add("x_mul", OpKind.MUL, guard=("c1", "x"))
    graph.add("u_add0", OpKind.ADD)
    graph.add("p_mul", OpKind.MUL, guard=("c2", "p"))
    graph.add("u_mul2", OpKind.MUL)
    graph.add("y_mul", OpKind.MUL, guard=("c1", "y"))
    graph.add("q_mul", OpKind.MUL, guard=("c2", "q"))
    graph.add("z_mul", OpKind.MUL, guard=("c1", "z"))
    graph.add("y_mul2", OpKind.MUL, guard=("c1", "y"))
    graph.add("x_mul2", OpKind.MUL, guard=("c1", "x"))
    graph.add("u_mul1", OpKind.MUL)
    graph.add("x_add", OpKind.ADD, guard=("c1", "x"))
    for src, dst in [
        ("u_mul0", "x_mul"),
        ("x_mul", "x_mul2"),
        ("x_mul2", "x_add"),
        ("u_add0", "p_mul"),
        ("p_mul", "u_mul1"),
        ("u_mul0", "y_mul"),
        ("y_mul", "y_mul2"),
        ("y_mul2", "u_mul1"),
        ("q_mul", "u_mul1"),
        ("z_mul", "u_mul1"),
        ("u_mul2", "z_mul"),
        ("x_add", "u_mul1"),
    ]:
        graph.add_edge(src, dst)
    graph.validate()
    return graph


def two_condition_state(seed):
    """A BlockState over :func:`two_condition_graph`; the seed sets the
    deadline slack, so frame widths (and row weights) vary by seed."""
    graph = two_condition_graph()
    deadline = graph.critical_path_length(LIBRARY.latency_of) + 3 + seed % 5
    return BlockState(
        Block(name=f"t{seed}", graph=graph, deadline=deadline), LIBRARY
    )


def scrambled_state(seed, reductions=3, state=None):
    """A state (random unless given) after a few committed reductions
    (mixed frames)."""
    if state is None:
        state = random_state(seed)
    rng = np.random.default_rng(seed)
    for _ in range(reductions):
        mobile = state.frames.unfixed()
        if not mobile:
            break
        op_id = mobile[int(rng.integers(len(mobile)))]
        lo, hi = state.frames.frame(op_id)
        if rng.integers(2):
            state.commit_reduce_effect(op_id, lo + 1, hi)
        else:
            state.commit_reduce_effect(op_id, lo, hi - 1)
    return state


# ---------------------------------------------------------------------------
# batched_occupancy_rows
# ---------------------------------------------------------------------------
frame_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=12),  # lo offset
        st.integers(min_value=0, max_value=12),  # frame width - 1
        st.integers(min_value=1, max_value=6),  # occupancy
    ),
    min_size=1,
    max_size=12,
)


@given(frames=frame_lists)
@settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
def test_batched_occupancy_rows_bit_match_scalar(frames):
    los = [lo for lo, width, _occ in frames]
    his = [lo + width for lo, width, _occ in frames]
    occs = [occ for _lo, _width, occ in frames]
    horizon = max(hi + occ for hi, occ in zip(his, occs))
    batched = batched_occupancy_rows(los, his, occs, horizon)
    assert batched.shape == (len(frames), horizon)
    assert batched.dtype == np.float64
    for i, (lo, hi, occ) in enumerate(zip(los, his, occs)):
        assert_array_equal(batched[i], occupancy_row(lo, hi, occ, horizon))


def test_batched_occupancy_scalar_occupancy_and_out_buffer():
    los, his = [0, 2, 5], [4, 2, 9]
    horizon = 12
    out = np.full((5, horizon), np.nan)
    batched = batched_occupancy_rows(los, his, 3, horizon, out=out)
    assert batched.base is out or batched is out[:3]
    for i, (lo, hi) in enumerate(zip(los, his)):
        assert_array_equal(batched[i], occupancy_row(lo, hi, 3, horizon))
    # validate=False takes the unchecked internal path, same values.
    assert_array_equal(
        batched_occupancy_rows(los, his, 3, horizon, validate=False), batched
    )


def test_batched_occupancy_single_slot_and_wider_than_frame():
    # Single-slot frame (lo == hi) with occupancy wider than the frame:
    # the sliding window clips exactly like the scalar row.
    assert_array_equal(
        batched_occupancy_rows([3], [3], 4, 10)[0], occupancy_row(3, 3, 4, 10)
    )


def test_batched_occupancy_empty_batch():
    rows = batched_occupancy_rows([], [], 2, 8)
    assert rows.shape == (0, 8)


def test_batched_occupancy_rejects_bad_frames():
    with pytest.raises(SchedulingError):
        batched_occupancy_rows([3], [2], 1, 8)  # empty frame
    with pytest.raises(SchedulingError):
        batched_occupancy_rows([0], [7], 2, 8)  # exceeds horizon
    with pytest.raises(SchedulingError):
        batched_occupancy_rows([0, 1], [2], 1, 8)  # shape mismatch


# ---------------------------------------------------------------------------
# modulo_max_rows
# ---------------------------------------------------------------------------
@given(
    matrix=st.lists(
        st.lists(
            st.floats(
                min_value=-50, max_value=50, allow_nan=False, allow_infinity=False
            ),
            min_size=0,
            max_size=17,
        ),
        min_size=0,
        max_size=6,
    ).filter(lambda rows: len({len(r) for r in rows}) <= 1),
    period=st.integers(min_value=1, max_value=7),
)
@settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
def test_modulo_max_rows_bit_match_reference(matrix, period):
    horizon = len(matrix[0]) if matrix else 0
    rows = np.asarray(matrix, dtype=float).reshape(len(matrix), horizon)
    folded = modulo_max_rows(rows, period)
    assert folded.shape == (len(matrix), period)
    assert folded.dtype == np.float64
    for i, row in enumerate(rows):
        assert_array_equal(folded[i], modulo_max_reference(row, period))


def test_modulo_max_rows_int_dtype_stable():
    rows = np.asarray([[3, -1, 2, 5, 0], [1, 1, 1, 1, 1]], dtype=np.int64)
    folded = modulo_max_rows(rows, 2)
    assert folded.dtype == np.int64
    for i, row in enumerate(rows):
        assert_array_equal(folded[i], modulo_max_reference(row, 2))


def test_modulo_max_rows_horizon_shorter_than_period():
    rows = np.asarray([[2.0, -3.0]])
    assert_array_equal(modulo_max_rows(rows, 5)[0], modulo_max_reference(rows[0], 5))


# ---------------------------------------------------------------------------
# row dot helpers
# ---------------------------------------------------------------------------
@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50)
def test_row_dot_helpers_match_scalar_dots(seed):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(5, 9))
    vector = rng.normal(size=9)
    dots = row_dots(matrix, vector)
    selfs = row_self_dots(matrix)
    for i in range(matrix.shape[0]):
        assert abs(dots[i] - float(np.dot(matrix[i], vector))) < DECISION_EPS
        assert abs(selfs[i] - float(np.dot(matrix[i], matrix[i]))) < DECISION_EPS


# ---------------------------------------------------------------------------
# DeltaBatch vs BlockState.placement_deltas (bit parity)
# ---------------------------------------------------------------------------
def assert_batch_matches_scalar(state, candidates):
    """Every displacement row equals the scalar one; returns the batch."""
    batch = DeltaBatch(state, candidates)
    for type_name, rows in batch.participants.items():
        assert batch.deltas[type_name].shape == (len(rows), state.dist.horizon)
    for row, (op_id, start) in enumerate(candidates):
        scalar = state.placement_deltas(op_id, start)
        # The scalar dict iterates a set, so only the membership is
        # deterministic; the batch pins first-occurrence order on top.
        assert set(batch.type_orders[row]) == set(scalar.keys())
        for type_name, delta in scalar.items():
            index = batch.participants[type_name].index(row)
            assert_array_equal(
                batch.deltas[type_name][index],
                delta,
                err_msg=f"{op_id}@{start} type {type_name}",
            )
    return batch


def has_guarded_type(state):
    return any(state.dist.has_guards(t) for t in state.dist.type_names)


def guarded_fold_width(state, batch):
    """Most candidates the batch folds together for one guarded type."""
    return max(
        (
            len(rows)
            for type_name, rows in batch.participants.items()
            if state.dist.has_guards(type_name)
        ),
        default=0,
    )


@given(seed=st.integers(min_value=0, max_value=500))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_delta_batch_narrow_bit_parity(seed):
    """Frame-end batches (IFDS/system shape) and whole-frame batches
    (FDS shape) replay the scalar accumulation, guarded footprints
    included: the mode-switching filter (one condition, two branches)
    and a block with unguarded operations interleaved into two
    conditions, one of three branches."""
    modal = scrambled_state(seed, state=modal_state(seed))
    assert has_guarded_type(modal), "modal state must have guarded types"
    two_condition = scrambled_state(seed, state=two_condition_state(seed))
    assert has_guarded_type(two_condition)
    for state in (scrambled_state(seed), modal, two_condition):
        ends = []
        whole = []
        for op_id in state.frames.unfixed():
            lo, hi = state.frames.frame(op_id)
            ends.extend([(op_id, lo), (op_id, hi)])
            whole.extend((op_id, step) for step in range(lo, hi + 1))
        for candidates in (ends, whole):
            if candidates:
                batch = assert_batch_matches_scalar(state, candidates)
                if has_guarded_type(state):
                    # Not vacuous: the guarded fold stacked several
                    # candidates of one type.
                    assert guarded_fold_width(state, batch) >= 2


def test_delta_batch_empty_candidates():
    state = random_state(0)
    batch = DeltaBatch(state, [])
    assert batch.deltas == {}
    assert batch.type_orders == []


def test_delta_batch_single_slot_frame():
    state = random_state(1)
    op_id = state.frames.unfixed()[0]
    lo, _hi = state.frames.frame(op_id)
    state.commit_reduce_effect(op_id, lo, lo)
    assert_batch_matches_scalar(state, [(op_id, lo), (op_id, lo)])


def test_delta_batch_dtype_stability():
    state = random_state(2)
    op_id = state.frames.unfixed()[0]
    lo, hi = state.frames.frame(op_id)
    batch = DeltaBatch(state, [(op_id, lo), (op_id, hi)])
    for type_name, matrix in batch.deltas.items():
        assert matrix.dtype == np.float64
        assert matrix.shape == (len(batch.participants[type_name]), state.dist.horizon)


# ---------------------------------------------------------------------------
# Stored records refolded after a type-only commit (bit parity)
# ---------------------------------------------------------------------------
def frame_end_pairs(state, ops):
    pairs = []
    for op_id in ops:
        lo, hi = state.frames.frame(op_id)
        pairs.extend([(op_id, lo), (op_id, hi)])
    return pairs


def assert_refold_matches_fresh_build(state, rng):
    """Record every frame end, commit one reduction, then refold the
    stored records of the ops the commit reached only through a touched
    type (their own and their neighbors' frames did not move)."""
    cache = BlockSelectionCache(state)
    mobile = state.frames.unfixed()
    records = dict(
        zip(
            frame_end_pairs(state, mobile),
            DeltaBatch(state, frame_end_pairs(state, mobile)).records,
        )
    )
    for _attempt in range(len(mobile)):
        if not mobile:
            return False
        op_id = mobile[int(rng.integers(len(mobile)))]
        lo, hi = state.frames.frame(op_id)
        if rng.integers(2):
            effect = state.commit_reduce_effect(op_id, lo + 1, hi)
        else:
            effect = state.commit_reduce_effect(op_id, lo, hi - 1)
        cone = cache.frame_cone(effect.changed_ops)
        type_of = state.dist.type_of
        graph = state.graph
        type_only = [
            op
            for op in state.frames.unfixed()
            if op not in cone
            and any(
                type_of[oid] in effect.touched_types
                for oid in [op, *graph.predecessors(op), *graph.successors(op)]
            )
        ]
        if type_only:
            break
        mobile = state.frames.unfixed()
        records = dict(
            zip(
                frame_end_pairs(state, mobile),
                DeltaBatch(state, frame_end_pairs(state, mobile)).records,
            )
        )
    else:
        return False
    pairs = frame_end_pairs(state, type_only)
    refolded = DeltaBatch(state, pairs, [records[pair] for pair in pairs])
    fresh = DeltaBatch(state, pairs)
    assert refolded.type_orders == fresh.type_orders
    assert refolded.participants == fresh.participants
    assert refolded.cells == fresh.cells
    for type_name in fresh.participants:
        assert_array_equal(refolded.deltas[type_name], fresh.deltas[type_name])
    for row, (op_id, start) in enumerate(pairs):
        for type_name, delta in state.placement_deltas(op_id, start).items():
            index = refolded.participants[type_name].index(row)
            assert_array_equal(refolded.deltas[type_name][index], delta)
    return True


@given(seed=st.integers(min_value=0, max_value=500))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_stored_records_refold_bit_identical_after_type_only_commit(seed):
    """A record depends on frames alone: after a commit that moves a
    type's distribution but no frame of the op or of its neighbors, the
    stored record refolds to exactly the rows a fresh DeltaBatch
    builds, on a random state, a scrambled guarded modal one, and a
    scrambled two-condition one (three-branch condition, unguarded
    operations interleaved)."""
    rng = np.random.default_rng(seed)
    modal = scrambled_state(seed, state=modal_state(seed))
    assert has_guarded_type(modal)
    two_condition = scrambled_state(seed, reductions=1, state=two_condition_state(seed))
    for state in (scrambled_state(seed, reductions=1), modal, two_condition):
        assert_refold_matches_fresh_build(state, rng)


def test_type_only_refold_is_exercised():
    """The property above must not pass vacuously."""
    hits = 0
    guarded_hits = 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        hits += assert_refold_matches_fresh_build(
            scrambled_state(seed, reductions=1), rng
        )
        hits += assert_refold_matches_fresh_build(
            scrambled_state(seed, state=modal_state(seed)), rng
        )
        guarded_hits += assert_refold_matches_fresh_build(
            scrambled_state(seed, reductions=1, state=two_condition_state(seed)),
            rng,
        )
    assert hits >= 12
    assert guarded_hits >= 8
