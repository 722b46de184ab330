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
guarded types the scalar ``tentative_array`` replay), so every
``DeltaBatch`` row is **bit-identical** to the scalar path's delta for
the same candidate.  The force *dots* are batched matrix products, and
BLAS matrix–vector products are not bitwise-identical to a sequence of
``np.dot`` calls (ulp-level differences, empirically ~1e-16).  Decisions
in every scheduler compare forces against ``1e-12`` epsilons, so
agreement with the scalar path is pinned at the *decision* level
(``tests/core/test_kernel_parity.py``, engine vs reference scheduler);
results are deterministic because all matrix shapes are functions of
the scheduling state alone.

Guarded types (types with conditional operations) displace through
branch-max recombination, which is not an additive update;
:class:`DeltaBatch` replays that recombination per candidate exactly as
:meth:`BlockState.placement_deltas` does.
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


class DeltaBatch:
    """Per-type displacement matrices of a batch of tentative placements.

    For candidates ``[(op, start), ...]`` of one block, builds the eq. 5
    displacement of every candidate as rows of per-type
    ``(len(candidates), horizon)`` matrices.  Rows replicate the scalar
    accumulation exactly: the tentative distribution starts from the
    current type sum, adds the operation's own row increment and then
    every implied neighbor increment (predecessors in graph order, then
    successors), and subtracts the type sum again, so cancellation
    behaves identically.

    Each candidate splits into a frame-dependent *record* and a
    distribution-dependent *refold*:

    * the record is the candidate's eq. 5 override structure: which
      neighbors it implicitly reduces, their memoized tentative rows
      and current rows, and its displaced-type order.  It reads the
      frames of the operation and of its direct neighbors, nothing
      else, so a caller may keep it until one of those frames moves and
      pass it back through ``records``;
    * the refold replays the scalar ``placement_deltas`` accumulation
      against the current distributions.  Unguarded types replay the
      ``tentative_array`` round trip ``((S + inc_1) + inc_2 ...) - S``
      (``inc = row - old_row`` per overridden row) elementwise but
      stacked over every (candidate, type) pair of the batch at once
      (IEEE addition commutes, so folding the first increment before
      ``S`` is bit-identical); guarded types replay the literal
      per-candidate ``tentative_array`` round trip.

    Attributes:
        candidates: The ``(op_id, start)`` pairs, batch order.
        type_orders: Per candidate, the displaced type names in
            first-occurrence order (own type, then overridden
            predecessors', then overridden successors').
        deltas: Mapping from type name to its ``(n, horizon)``
            displacement matrix; rows of candidates that do not displace
            the type are uninitialized and never consumed.
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

        A record is a flat tuple ``(layout, new, old, new, old, ...)``.
        ``layout`` is the interned pair ``(order, depths)``: the
        displaced-type order and, per type, how many overridden rows it
        has — or 0 for a guarded type, whose branch-max recombination
        needs the literal ``tentative_array`` replay.  Then come the
        (tentative row, current row) pairs of every unguarded type, in
        order, each type's in scalar override order; a record with a
        guarded type ends with the scalar override mapping.  Every
        array is shared with the distribution's row memo, so a record
        costs a few pointers and holds no GC-tracked container.
        """
        dist = state.dist
        frames = state.frames
        type_of = dist.type_of
        # Static per-op structure (own latency, predecessors with their
        # latencies, successors), memoized on the state.
        meta = getattr(state, "_record_meta", None)
        if meta is None:
            graph = state.graph
            latency = frames._latency
            meta = {
                op_id: (
                    latency[op_id],
                    [(pred, latency[pred]) for pred in graph.predecessors(op_id)],
                    list(graph.successors(op_id)),
                )
                for op_id in graph.op_ids
            }
            state._record_meta = meta
        lo_of = frames._lo
        hi_of = frames._hi
        current_rows = dist._rows
        tentative_row = dist.tentative_row
        has_guards = dist.has_guards
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
                if has_guards(type_name):
                    depths.append(0)
                    continue
                depths.append(len(bucket))
                for oid, new_row in bucket:
                    record.append(new_row)
                    record.append(current_rows[oid])
            layout = (tuple(per_type), tuple(depths))
            record[0] = _LAYOUTS.setdefault(layout, layout)
            if 0 in depths:
                record.append(dict(overrides))
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
        ``inc + S == S + inc``).  Guarded pairs replay
        ``tentative_array`` itself.
        """
        dist = state.dist
        n = len(self.candidates)
        records = self.records
        deltas = self.deltas
        participants = self.participants
        cells = self.cells
        type_orders = self.type_orders
        # stacks[type] = (batch rows, first new rows, first current rows,
        # deeper overrides as (stack index, depth, new row, current row)).
        stacks: Dict[str, Tuple[List[int], List[np.ndarray], List[np.ndarray], list]]
        stacks = {}
        replays: List[Tuple[int, str, Dict[str, np.ndarray]]] = []
        for row, record in enumerate(records):
            order, depths = record[0]
            type_orders[row] = order
            at = 1
            for position, type_name in enumerate(order):
                rows = participants.get(type_name)
                if rows is None:
                    participants[type_name] = [row]
                    cells[type_name] = [position * n + row]
                else:
                    rows.append(row)
                    cells[type_name].append(position * n + row)
                depth = depths[position]
                if not depth:
                    replays.append((row, type_name, record[-1]))
                    continue
                lists = stacks.get(type_name)
                if lists is None:
                    lists = stacks[type_name] = ([], [], [], [])
                if depth > 1:
                    index = len(lists[0])
                    for level in range(1, depth):
                        cell = at + 2 * level
                        lists[3].append((index, level, record[cell], record[cell + 1]))
                lists[0].append(row)
                lists[1].append(record[at])
                lists[2].append(record[at + 1])
                at += 2 * depth
        horizon = dist.horizon
        # Rows a candidate does not displace are never consumed
        # (``type_orders`` gates every consumer), so the matrices need
        # no zero fill.
        if stacks:
            news_all: List[np.ndarray] = []
            olds_all: List[np.ndarray] = []
            deeper: Dict[int, Tuple[List[int], List[np.ndarray], List[np.ndarray]]] = {}
            spans: List[Tuple[str, List[int], int, int]] = []
            offset = 0
            for type_name, (rows, news, olds, extra) in stacks.items():
                news_all.extend(news)
                olds_all.extend(olds)
                for index, level, new_row, old_row in extra:
                    lists = deeper.setdefault(level, ([], [], []))
                    lists[0].append(offset + index)
                    lists[1].append(new_row)
                    lists[2].append(old_row)
                spans.append((type_name, rows, offset, offset + len(rows)))
                offset += len(rows)
            inc = np.asarray(news_all) - np.asarray(olds_all)
            for type_name, _rows, lo, hi in spans:
                inc[lo:hi] += dist.array(type_name)
            for level in sorted(deeper):
                index, news, olds = deeper[level]
                inc[index] += np.asarray(news) - np.asarray(olds)
            for type_name, _rows, lo, hi in spans:
                inc[lo:hi] -= dist.array(type_name)
            for type_name, rows, lo, hi in spans:
                matrix = np.empty((n, horizon), dtype=float)
                deltas[type_name] = matrix
                matrix[rows] = inc[lo:hi]
        if replays:
            scratch = state._scratch
            for row, type_name, overrides in replays:
                matrix = deltas.get(type_name)
                if matrix is None:
                    matrix = np.empty((n, horizon), dtype=float)
                    deltas[type_name] = matrix
                after = dist.tentative_array(type_name, overrides, out=scratch)
                np.subtract(after, dist.array(type_name), out=matrix[row])
