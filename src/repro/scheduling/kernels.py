"""Array-backed force kernels: batched (op × slot) evaluation.

The force-directed inner loops all reduce to the same shape of work:
for a batch of tentative placements ``(op, start)``, build the per-type
distribution displacements (eq. 5) and fold them into Hooke forces
(eq. 6).  The scalar reference path — :func:`repro.scheduling.forces
.placement_force` — does this one candidate at a time with one tiny
``np.dot`` per displaced type; at system scale that is hundreds of
thousands of interpreter round-trips per run.

This module evaluates *all* dirty candidate slots of a block in one
vectorized pass over flat ``(candidates, horizon)`` matrices; the
coupled system scheduler (:mod:`repro.core.scheduler`) is its caller.
The single-block FDS/IFDS baselines stay on the scalar path: their
batches are one operation wide, too small to pay for a batch build.

* :func:`batched_occupancy_rows` generalizes
  :func:`repro.scheduling.distribution.occupancy_row`'s sliding-window
  counts to a stacked row matrix (no scheduler calls it; it is kept as
  a public kernel);
* :class:`DeltaBatch` builds the per-type displacement matrices for a
  whole candidate batch, value-identical per row to
  :meth:`BlockState.placement_deltas`;
* :func:`row_dots` / :func:`row_self_dots` fold those matrices into
  Hooke dots, one matrix product per displaced type.

Exactness contract
------------------
Displacement construction is purely elementwise (subtract, add, and for
guarded types the branch-wise ``+=`` and ``np.maximum`` of
:func:`~repro.scheduling.distribution.combine_rows`, in its order), so
every ``DeltaBatch`` row is **bit-identical** to the scalar path's delta
for the same candidate.  The force *dots* are batched matrix products, and
BLAS matrix–vector products are not bitwise-identical to a sequence of
``np.dot`` calls (ulp-level differences, empirically ~1e-16).  Decisions
in every scheduler compare forces against ``1e-12`` epsilons, so
agreement with the scalar path is pinned at the *decision* level
(``tests/core/test_kernel_parity.py``, engine vs reference scheduler);
results are deterministic because all matrix shapes are functions of
the scheduling state alone.

Guarded types (types with conditional operations) displace through
branch-max recombination, which is not an additive update;
:class:`DeltaBatch` folds that recombination once per guarded type for
the whole batch — one numpy call per operation of the type over every
candidate's row at once — in the order
:meth:`BlockState.placement_deltas` does it per candidate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SchedulingError
from .state import BlockState

__all__ = [
    "batched_occupancy_rows",
    "row_dots",
    "row_self_dots",
    "DeltaBatch",
]


#: Step-axis arrays keyed by horizon, shared by every occupancy batch.
#: Read-only by construction; the scheduling stack is single-threaded.
_STEPS_CACHE: Dict[int, np.ndarray] = {}


#: Interned record layouts ``(type order, override depths)``:
#: records of every block share one tuple per distinct layout (a few
#: dozen even on large systems; a per-block table cost more memory than
#: the records it shrank).  Entries are immutable and compared by value,
#: so sharing them across runs cannot change a result.
_LAYOUTS: Dict[tuple, tuple] = {}


def _steps(horizon: int) -> np.ndarray:
    steps = _STEPS_CACHE.get(horizon)
    if steps is None:
        steps = np.arange(horizon, dtype=np.int64)
        _STEPS_CACHE[horizon] = steps
    return steps


def batched_occupancy_rows(
    los: Sequence[int],
    his: Sequence[int],
    occupancy,
    horizon: int,
    out: Optional[np.ndarray] = None,
    validate: bool = True,
) -> np.ndarray:
    """Stacked occupancy-probability rows for a batch of frames.

    Row ``i`` is value-identical to ``occupancy_row(los[i], his[i],
    occupancy, horizon)``: the integer sliding-window count times one
    float weight, computed here for every frame at once.  Outside the
    window the clipped count is exactly 0, so the zero entries match the
    scalar path's zero-initialized row bit for bit.

    ``occupancy`` may be one integer for the whole batch or a per-row
    array, so heterogeneous operations batch into one call.  ``out``
    optionally reuses a caller-owned ``(len(los), horizon)`` float
    buffer.  ``validate=False`` skips the frame sanity checks for
    internal callers whose bounds are invariant-guaranteed (scheduler
    frames always satisfy them); the public default keeps them on.
    """
    los = np.asarray(los, dtype=np.int64)
    his = np.asarray(his, dtype=np.int64)
    occ = np.asarray(occupancy, dtype=np.int64)
    if validate:
        if los.shape != his.shape or los.ndim != 1:
            raise SchedulingError(
                f"frame bound arrays must be 1-d and congruent, "
                f"got {los.shape} and {his.shape}"
            )
        if occ.ndim not in (0, 1) or (occ.ndim == 1 and occ.shape != los.shape):
            raise SchedulingError(
                f"occupancy must be a scalar or match the frame bounds, "
                f"got shape {occ.shape}"
            )
        if np.any(los > his):
            bad = int(np.argmax(los > his))
            raise SchedulingError(
                f"empty frame [{int(los[bad])}, {int(his[bad])}]"
            )
        if los.size and np.any(his + occ > horizon):
            bad = int(np.argmax(his + occ > horizon))
            occ_bad = int(occ[bad]) if occ.ndim else int(occ)
            raise SchedulingError(
                f"frame [{int(los[bad])}, {int(his[bad])}] with occupancy "
                f"{occ_bad} exceeds horizon {horizon}"
            )
    n = los.shape[0]
    weights = 1.0 / (his - los + 1)
    steps = _steps(horizon)
    occ_col = occ[:, None] if occ.ndim else occ
    counts = (
        np.minimum(his[:, None], steps)
        - np.maximum(los[:, None], steps - occ_col + 1)
        + 1
    )
    np.maximum(counts, 0, out=counts)
    if out is None:
        return counts * weights[:, None]
    np.multiply(counts, weights[:, None], out=out[:n])
    return out[:n]


def row_dots(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Row-wise dot products ``matrix[i] . vector`` as one matrix product.

    One dgemv replaces ``n`` interpreter-level ``np.dot`` calls.  Within
    a run the result is deterministic for a given shape; it is *not*
    bitwise-equal to the scalar ``np.dot`` sequence (see the module
    exactness contract).
    """
    return matrix @ vector


def row_self_dots(matrix: np.ndarray) -> np.ndarray:
    """Row-wise self dot products ``matrix[i] . matrix[i]``."""
    return np.einsum("ij,ij->i", matrix, matrix)


def _static_plans(state: BlockState) -> Tuple[dict, dict]:
    """Static per-block structure, memoized on the state.

    Returns ``(meta, plans)``.  ``meta`` maps each op to its own
    latency, its predecessors with their latencies, and its successors.
    ``plans`` maps each guarded type to its fold plan
    ``(ops, position, unguarded, conditions)``: the type's ops in
    :func:`combine_rows` order, each op's index in that order, the
    indices of the unguarded ops, and per condition (insertion order)
    per branch (insertion order) the indices of the branch's ops.
    """
    plans = getattr(state, "_fold_plans", None)
    if plans is not None:
        return state._record_meta, plans
    graph = state.graph
    dist = state.dist
    latency = state.frames._latency
    meta = {
        op_id: (
            latency[op_id],
            [(pred, latency[pred]) for pred in graph.predecessors(op_id)],
            list(graph.successors(op_id)),
        )
        for op_id in graph.op_ids
    }
    plans = {}
    for type_name in dist.type_names:
        if not dist.has_guards(type_name):
            continue
        ops = tuple(dist.ops_of_type(type_name))
        unguarded: List[int] = []
        conditions: Dict[str, Dict[str, List[int]]] = {}
        for position, op_id in enumerate(ops):
            guard = dist.guard_of.get(op_id)
            if guard is None:
                unguarded.append(position)
            else:
                condition, branch = guard
                conditions.setdefault(condition, {}).setdefault(branch, []).append(
                    position
                )
        plans[type_name] = (
            ops,
            {op_id: position for position, op_id in enumerate(ops)},
            tuple(unguarded),
            tuple(
                tuple(tuple(positions) for positions in branches.values())
                for branches in conditions.values()
            ),
        )
    state._record_meta = meta
    state._fold_plans = plans
    return meta, plans


def _stack(rows: List[np.ndarray], horizon: int) -> np.ndarray:
    """``rows`` as one ``(len(rows), horizon)`` matrix (one copy)."""
    return np.concatenate(rows).reshape(-1, horizon)


class DeltaBatch:
    """Per-type displacement matrices of a batch of tentative placements.

    For candidates ``[(op, start), ...]`` of one block, builds the eq. 5
    displacement of every candidate that displaces a type as one row of
    that type's matrix.  Rows replicate the scalar accumulation exactly:
    the tentative distribution starts from the current type sum, adds
    the operation's own row increment and then every implied neighbor
    increment (predecessors in graph order, then successors), and
    subtracts the type sum again, so cancellation behaves identically.

    Each candidate splits into a frame-dependent *record* and a
    distribution-dependent *refold*:

    * the record is the candidate's eq. 5 override structure: which
      neighbors it implicitly reduces, their memoized tentative rows
      and current rows, and its displaced-type order.  It reads the
      frames of the operation and of its direct neighbors, nothing
      else, so a caller may keep it until one of those frames moves and
      pass it back through ``records``;
    * the refold replays the scalar ``placement_deltas`` accumulation
      against the current distributions, stacked over the batch.
      Unguarded types replay the ``tentative_array`` round trip
      ``((S + inc_1) + inc_2 ...) - S`` (``inc = row - old_row`` per
      overridden row) elementwise over every (candidate, type) pair at
      once (IEEE addition commutes, so folding the first increment
      before ``S`` is bit-identical).  Guarded types replay the
      :func:`~repro.scheduling.distribution.combine_rows` branch-max
      recombination once per type for all of the type's candidates,
      one numpy call per operation of the type.

    Attributes:
        candidates: The ``(op_id, start)`` pairs, batch order.
        type_orders: Per candidate, the displaced type names in
            first-occurrence order (own type, then overridden
            predecessors', then overridden successors').
        deltas: Mapping from type name to its ``(len(participants[type]),
            horizon)`` displacement matrix: row ``i`` belongs to batch
            row ``participants[type][i]``.  Matrices may be views of one
            shared buffer; readers must not write into them.
        participants: Mapping from type name to the batch rows that
            displace it, ascending.
        cells: Mapping from type name to ``position * n + row`` per
            participant (aligned with ``participants``), where
            ``position`` is the type's index in the row's
            ``type_orders`` entry — the participant's cell in a
            ``(max order length, n)`` grid whose column ``row`` lists
            that row's types in order.
        records: One record per candidate, the ones passed in plus the
            ones built here.
    """

    __slots__ = (
        "candidates",
        "type_orders",
        "deltas",
        "participants",
        "cells",
        "records",
    )

    def __init__(
        self,
        state: BlockState,
        candidates: Sequence[Tuple[str, int]],
        records: Optional[Sequence[Optional[tuple]]] = None,
    ):
        n = len(candidates)
        self.candidates = list(candidates)
        self.type_orders: List[Tuple[str, ...]] = [()] * n
        self.deltas: Dict[str, np.ndarray] = {}
        self.participants: Dict[str, List[int]] = {}
        self.cells: Dict[str, List[int]] = {}
        self.records: List[tuple] = [None] * n if records is None else list(records)
        missing = [row for row, record in enumerate(self.records) if record is None]
        if missing:
            self._build_records(state, missing, self.records)
        self._refold(state)

    def _build_records(self, state: BlockState, rows: List[int], records) -> None:
        """Build the record of every candidate row in ``rows``.

        A record is a flat tuple ``(layout, a, b, a, b, ...)``.
        ``layout`` is the interned pair ``(order, depths)``: the
        displaced-type order and, per type, how many overridden rows it
        has — negated for a guarded type.  Then come two items per
        overridden row, type by type in order, each type's in scalar
        override order: (tentative row, current row) for an unguarded
        type, (op position in the type's fold plan, tentative row) for
        a guarded one.  Every array is shared with the distribution's
        row memo, so a record costs a few pointers and holds no
        GC-tracked container.
        """
        dist = state.dist
        frames = state.frames
        type_of = dist.type_of
        meta, plans = _static_plans(state)
        lo_of = frames._lo
        hi_of = frames._hi
        current_rows = dist._rows
        tentative_row = dist.tentative_row
        candidates = self.candidates
        for row in rows:
            op_id, start = candidates[row]
            latency, preds, succs = meta[op_id]
            # (oid, overriding row) pairs in the scalar override-dict
            # order: the operation itself, predecessors, successors.
            overrides: List[Tuple[str, np.ndarray]] = [
                (op_id, tentative_row(op_id, start, start))
            ]
            for pred, pred_latency in preds:
                new_hi = start - pred_latency
                if new_hi < hi_of[pred]:
                    overrides.append(
                        (pred, tentative_row(pred, lo_of[pred], new_hi))
                    )
            finish = start + latency
            for succ in succs:
                if finish > lo_of[succ]:
                    overrides.append(
                        (succ, tentative_row(succ, finish, hi_of[succ]))
                    )
            per_type: Dict[str, List[Tuple[str, np.ndarray]]] = {}
            for override in overrides:
                type_name = type_of[override[0]]
                bucket = per_type.get(type_name)
                if bucket is None:
                    per_type[type_name] = [override]
                else:
                    bucket.append(override)
            record: list = [None]
            depths = []
            for type_name, bucket in per_type.items():
                plan = plans.get(type_name)
                if plan is None:
                    depths.append(len(bucket))
                    for oid, new_row in bucket:
                        record.append(new_row)
                        record.append(current_rows[oid])
                else:
                    depths.append(-len(bucket))
                    position = plan[1]
                    for oid, new_row in bucket:
                        record.append(position[oid])
                        record.append(new_row)
            layout = (tuple(per_type), tuple(depths))
            record[0] = _LAYOUTS.setdefault(layout, layout)
            records[row] = tuple(record)

    def _refold(self, state: BlockState) -> None:
        """Refold every row's record against the current distributions.

        Each row reproduces bit for bit what
        :meth:`BlockState.placement_deltas` computes against the current
        distributions, whether its record was built here or passed in.

        For an unguarded type ``tentative_array`` adds the overridden
        rows' increments to ``S`` one at a time, in override order, and
        subtracts ``S`` again; the refold does exactly that, but stacked
        over every (candidate, type) pair of the batch at once: the
        first increments of all pairs as one stack, ``+ S`` per type
        span, each further override depth as one indexed add, then
        ``- S`` per type span (IEEE addition commutes, so
        ``inc + S == S + inc``).

        For a guarded type ``tentative_array`` recombines every row of
        the type with :func:`combine_rows`; the refold runs that
        recombination once for all ``k`` candidates displacing the
        type.  An ``(m, k, horizon)`` tensor holds the type's ``m``
        current rows for every candidate, with each candidate's
        overridden rows written in by one indexed assignment; then, in
        ``combine_rows`` order and one numpy call per operation, the
        unguarded rows are added into a zero total, each condition's
        branch sums are folded (first row, then ``+=``) and left-folded
        with ``np.maximum``, and each condition's maximum is added to
        the total.  Subtracting ``S`` gives the displacement rows.
        """
        dist = state.dist
        n = len(self.candidates)
        records = self.records
        deltas = self.deltas
        participants = self.participants
        cells = self.cells
        type_orders = self.type_orders
        # stacks[type] = (first new rows, first current rows, deeper
        # overrides as (stack index, depth, new row, current row)).
        stacks: Dict[str, Tuple[List[np.ndarray], List[np.ndarray], list]] = {}
        # guarded[type] = (candidate indices, op positions, new rows).
        guarded: Dict[str, Tuple[List[int], List[int], List[np.ndarray]]] = {}
        for row, record in enumerate(records):
            order, depths = record[0]
            type_orders[row] = order
            at = 1
            for position, type_name in enumerate(order):
                rows = participants.get(type_name)
                if rows is None:
                    rows = participants[type_name] = []
                    cells[type_name] = [position * n + row]
                else:
                    cells[type_name].append(position * n + row)
                depth = depths[position]
                if depth < 0:
                    lists = guarded.get(type_name)
                    if lists is None:
                        lists = guarded[type_name] = ([], [], [])
                    index = len(rows)
                    for cell in range(at, at - 2 * depth, 2):
                        lists[0].append(index)
                        lists[1].append(record[cell])
                        lists[2].append(record[cell + 1])
                    at -= 2 * depth
                    rows.append(row)
                    continue
                lists = stacks.get(type_name)
                if lists is None:
                    lists = stacks[type_name] = ([], [], [])
                if depth > 1:
                    index = len(rows)
                    for level in range(1, depth):
                        cell = at + 2 * level
                        lists[2].append((index, level, record[cell], record[cell + 1]))
                lists[0].append(record[at])
                lists[1].append(record[at + 1])
                at += 2 * depth
                rows.append(row)
        horizon = dist.horizon
        if stacks:
            news_all: List[np.ndarray] = []
            olds_all: List[np.ndarray] = []
            deeper: Dict[int, Tuple[List[int], List[np.ndarray], List[np.ndarray]]] = {}
            spans: List[Tuple[str, int, int]] = []
            offset = 0
            for type_name, (news, olds, extra) in stacks.items():
                news_all.extend(news)
                olds_all.extend(olds)
                for index, level, new_row, old_row in extra:
                    lists = deeper.setdefault(level, ([], [], []))
                    lists[0].append(offset + index)
                    lists[1].append(new_row)
                    lists[2].append(old_row)
                spans.append((type_name, offset, offset + len(news)))
                offset += len(news)
            inc = _stack(news_all, horizon) - _stack(olds_all, horizon)
            for type_name, lo, hi in spans:
                inc[lo:hi] += dist.array(type_name)
            for level in sorted(deeper):
                index, news, olds = deeper[level]
                inc[index] += _stack(news, horizon) - _stack(olds, horizon)
            for type_name, lo, hi in spans:
                span = inc[lo:hi]
                span -= dist.array(type_name)
                deltas[type_name] = span
        if guarded:
            _meta, plans = _static_plans(state)
            current_rows = dist._rows
            for type_name, (index, positions, news) in guarded.items():
                ops, _position, unguarded, conditions = plans[type_name]
                k = len(participants[type_name])
                current = _stack([current_rows[op_id] for op_id in ops], horizon)
                tensor = np.repeat(current[:, None, :], k, axis=1)
                tensor[positions, index] = _stack(news, horizon)
                total = np.zeros((k, horizon), dtype=float)
                for position in unguarded:
                    total += tensor[position]
                for branches in conditions:
                    # Branch sums accumulate in place: every position
                    # is read once, so the tensor is scratch.
                    sums = []
                    for branch in branches:
                        branch_sum = tensor[branch[0]]
                        for position in branch[1:]:
                            branch_sum += tensor[position]
                        sums.append(branch_sum)
                    folded = sums[0]
                    for branch_sum in sums[1:]:
                        np.maximum(folded, branch_sum, out=folded)
                    total += folded
                total -= dist.array(type_name)
                deltas[type_name] = total
