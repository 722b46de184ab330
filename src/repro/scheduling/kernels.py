"""Array-backed force kernels: batched (op × slot) evaluation.

The force-directed inner loops all reduce to the same shape of work:
for a batch of tentative placements ``(op, start)``, build the per-type
distribution displacements (eq. 5) and fold them into Hooke forces
(eq. 6).  The scalar reference path — :func:`repro.scheduling.forces
.placement_force` — does this one candidate at a time with one tiny
``np.dot`` per displaced type; at system scale that is hundreds of
thousands of interpreter round-trips per run.

This module evaluates *all* candidate slots of an operation (and, for
the system scheduler, all dirty operations of a block) in one vectorized
pass over flat ``(candidates, horizon)`` matrices:

* :func:`batched_occupancy_rows` generalizes
  :func:`repro.scheduling.distribution.occupancy_row`'s sliding-window
  counts to a stacked row matrix;
* :class:`DeltaBatch` builds the per-type displacement matrices for a
  whole candidate batch, value-identical per row to
  :meth:`BlockState.placement_deltas`;
* :class:`PlacementKernel` is the FDS/IFDS driver: one call returns the
  forces of every start step in an operation's frame.

Exactness contract
------------------
Displacement construction is purely elementwise (subtract, add, masked
zero rows), so every ``DeltaBatch`` row is **bit-identical** to the
scalar path's delta for the same candidate.  The force *dots* are
batched matrix products, and BLAS matrix–vector products are not
bitwise-identical to a sequence of ``np.dot`` calls (ulp-level
differences, empirically ~1e-16).  Decisions in every scheduler compare
forces against ``1e-12`` epsilons, so agreement with the scalar path is
pinned at the *decision* level (``tests/core/test_kernel_parity.py``
for the coupled scheduler, ``tests/scheduling/test_kernels.py`` for
:class:`PlacementKernel`); results are deterministic because all matrix
shapes are functions of the scheduling state alone.

Guarded types (types with conditional operations) displace through
branch-max recombination, which is not an additive update.  The narrow
:class:`DeltaBatch` path — the one the coupled scheduler uses for every
operation — replays that recombination per candidate exactly as
:meth:`BlockState.placement_deltas` does.  The wide path does not, so
:class:`PlacementKernel` sends operations whose force footprint (own
resource type plus the types of direct predecessors/successors) contains
a guarded type to the scalar :func:`~repro.scheduling.forces
.placement_force` instead.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import SchedulingError
from ..obs import counters as _ambient
from ..obs.counters import FORCE_EVALUATIONS, count, observe_many
from ..obs.metrics import FORCE_EVAL_SECONDS
from .forces import DEFAULT_LOOKAHEAD, placement_force
from .state import BlockState

__all__ = [
    "batched_occupancy_rows",
    "row_dots",
    "row_self_dots",
    "DeltaBatch",
    "PlacementKernel",
]


#: Step-axis arrays keyed by horizon, shared by every occupancy batch.
#: Read-only by construction; the scheduling stack is single-threaded.
_STEPS_CACHE: Dict[int, np.ndarray] = {}


#: Interned narrow-record layouts ``(type order, override depths)``:
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

    For candidates ``[(op, start), ...]`` of one block, builds — in a
    single pass per operation — the eq. 5 displacement of every
    candidate as rows of per-type ``(len(candidates), horizon)``
    matrices.  Rows replicate the scalar accumulation exactly: the
    tentative distribution starts from the current type sum, adds the
    operation's own row increment and then every implied neighbor
    increment (predecessors in graph order, then successors), and
    subtracts the type sum again, so cancellation behaves identically.
    Neighbors whose frame a candidate does *not* implicitly reduce
    contribute an exact-zero increment row, which is a numerical no-op.

    Two internal build paths cover the two batch shapes the schedulers
    produce.  *Narrow* batches — at most two candidate slots per
    operation, the IFDS/system frame-end case — split each candidate
    into a frame-dependent *record* and a distribution-dependent
    *refold*:

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

    *Wide* batches (whole-frame FDS scans) assemble one flattened
    occupancy batch per operation covering the own row and every
    neighbor row of every candidate in a single
    :func:`batched_occupancy_rows` call.

    Attributes:
        candidates: The ``(op_id, start)`` pairs, batch order.
        type_orders: Per candidate, the displaced type names in
            first-occurrence order (own type, then overridden
            predecessors', then overridden successors').
        deltas: Mapping from type name to its ``(n, horizon)``
            displacement matrix; rows of candidates that do not displace
            the type are never consumed (the narrow path leaves them
            uninitialized, the wide path zero).
        participants: Narrow batches only (else empty): mapping from
            type name to the batch rows that displace it, ascending.
        cells: Narrow batches only (else empty): mapping from type name
            to ``position * n + row`` per participant (aligned with
            ``participants``), where ``position`` is the type's index in
            the row's ``type_orders`` entry — the participant's cell in
            a ``(max order length, n)`` grid whose column ``row`` lists
            that row's types in order.
        records: Narrow batches only (else ``None``): one record per
            candidate, the ones passed in plus the ones built here.

    Only the narrow path handles candidates with a guarded force
    footprint; wide batches must not contain them (see
    :func:`guarded_footprint_ops`).
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
        self.records: Optional[List[tuple]] = None

        if records is not None or n <= 2 * len({op for op, _ in candidates}):
            self._build_narrow(state, records)
        else:
            # Group batch rows by operation: all of an op's candidate
            # slots share the same neighbor structure and vectorize
            # together.
            groups: Dict[str, List[int]] = {}
            for row, (op_id, _start) in enumerate(candidates):
                groups.setdefault(op_id, []).append(row)
            self._build_wide(state, groups)

    def _build_records(self, state: BlockState, rows: List[int], records) -> None:
        """Build the narrow record of every candidate row in ``rows``.

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
        meta = getattr(state, "_narrow_meta", None)
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
            state._narrow_meta = meta
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

    def _build_narrow(self, state: BlockState, records) -> None:
        """Records for the rows that lack one, then the refold of all.

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
        records = [None] * n if records is None else list(records)
        missing = [row for row, record in enumerate(records) if record is None]
        if missing:
            self._build_records(state, missing, records)
        self.records = records
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

    def _build_wide(self, state: BlockState, groups: Dict[str, List[int]]) -> None:
        """Stacked-occupancy path for wide batches (whole-frame scans).

        One flattened :func:`batched_occupancy_rows` call per operation
        covers the operation's own tentative rows and every neighbor's
        implied rows for all candidate starts at once.  Increments of
        neighbor frames a candidate does not implicitly reduce are exact
        zeros (the batched row equals the current row bit for bit), so
        accumulating them is a bitwise no-op and needs no masking.
        """
        dist = state.dist
        frames = state.frames
        graph = state.graph
        horizon = dist.horizon
        n = len(self.candidates)
        candidates = self.candidates
        for op_id, rows in groups.items():
            starts = np.asarray([candidates[r][1] for r in rows], dtype=np.int64)
            width = starts.shape[0]
            # Per contribution: (type, los, his, occupancy, current row,
            # overridden mask) in the scalar override-dict order: the
            # operation itself, predecessors, successors.
            specs: List[tuple] = [
                (
                    dist.type_of[op_id],
                    starts,
                    starts,
                    dist.occupancy_of[op_id],
                    dist.row(op_id),
                    None,
                )
            ]
            for pred in graph.predecessors(op_id):
                p_lo, p_hi = frames.frame(pred)
                new_hi = np.minimum(p_hi, starts - frames.latency(pred))
                specs.append(
                    (
                        dist.type_of[pred],
                        np.full_like(starts, p_lo),
                        new_hi,
                        dist.occupancy_of[pred],
                        dist.row(pred),
                        new_hi != p_hi,
                    )
                )
            finishes = starts + frames.latency(op_id)
            for succ in graph.successors(op_id):
                s_lo, s_hi = frames.frame(succ)
                new_lo = np.maximum(s_lo, finishes)
                specs.append(
                    (
                        dist.type_of[succ],
                        new_lo,
                        np.full_like(starts, s_hi),
                        dist.occupancy_of[succ],
                        dist.row(succ),
                        new_lo != s_lo,
                    )
                )

            # One occupancy batch for every (contribution, candidate)
            # row; neighbor frames are implied reductions of feasible
            # frames, so the invariant-checked bounds always hold.
            los = np.concatenate([spec[1] for spec in specs])
            his = np.concatenate([spec[2] for spec in specs])
            occs = np.repeat(
                np.asarray([spec[3] for spec in specs], dtype=np.int64), width
            )
            incs = batched_occupancy_rows(los, his, occs, horizon, validate=False)
            for i, spec in enumerate(specs):
                incs[i * width : (i + 1) * width] -= spec[4]

            # Per-candidate displaced-type order (first occurrence).
            orders: List[List[str]] = [[specs[0][0]] for _ in rows]
            for spec in specs[1:]:
                type_name, mask = spec[0], spec[5]
                for slot, flagged in enumerate(mask):
                    if flagged and type_name not in orders[slot]:
                        orders[slot].append(type_name)
            for slot, row in enumerate(rows):
                self.type_orders[row] = tuple(orders[slot])

            # Accumulate per type through the tentative sum, mirroring
            # tentative_array's  S + inc1 + inc2 ... - S  round trip.
            by_type: Dict[str, List[int]] = {}
            for i, spec in enumerate(specs):
                by_type.setdefault(spec[0], []).append(i)
            contiguous = rows == list(range(rows[0], rows[0] + width))
            row_index = None if contiguous else np.asarray(rows, dtype=np.intp)
            for type_name, spec_ids in by_type.items():
                matrix = self.deltas.get(type_name)
                if matrix is None:
                    matrix = np.zeros((n, horizon), dtype=float)
                    self.deltas[type_name] = matrix
                if row_index is None:
                    view = matrix[rows[0] : rows[0] + width]
                else:
                    view = matrix[row_index]
                base = dist.array(type_name)
                view[:] = base
                for i in spec_ids:
                    view += incs[i * width : (i + 1) * width]
                view -= base
                if row_index is not None:
                    matrix[row_index] = view


def guarded_footprint_ops(state: BlockState) -> frozenset:
    """Operations whose wide-batch force evaluation must use the scalar path.

    An operation's footprint is its own resource type plus the types of
    its direct predecessors and successors; if any of those types has
    guarded operations, tentative displacement needs the branch-max
    recombination, which the additive wide path does not apply.  The set
    is a static property of the block.
    """
    dist = state.dist
    graph = state.graph
    fallback = set()
    for op_id in graph.op_ids:
        footprint = [op_id]
        footprint.extend(graph.predecessors(op_id))
        footprint.extend(graph.successors(op_id))
        if any(dist.has_guards(dist.type_of[oid]) for oid in footprint):
            fallback.add(op_id)
    return frozenset(fallback)


class PlacementKernel:
    """Batched local-force evaluator for one block (FDS/IFDS driver core).

    One :meth:`forces` call returns the weighted Hooke force of placing
    an operation at *every* requested start step: the per-type
    displacement matrices come from :class:`DeltaBatch`, the dots from
    one matrix product per displaced type.  Operations with a guarded
    footprint are delegated to the scalar
    :func:`~repro.scheduling.forces.placement_force` reference path.

    Instrumentation parity: ``force_evaluations`` advances by one per
    (candidate, displaced type) pair — the same total the scalar loop
    counts — and the ``force_eval_seconds`` histogram receives one
    batched record of the mean per-candidate latency times the batch
    width, keeping the uninstrumented path at a single global load.
    """

    def __init__(
        self,
        state: BlockState,
        *,
        lookahead: float = DEFAULT_LOOKAHEAD,
        weights: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.state = state
        self.lookahead = lookahead
        self.weights = dict(weights) if weights is not None else None
        self.scalar_ops = guarded_footprint_ops(state)

    def _weight(self, type_name: str) -> float:
        if self.weights is None:
            return 1.0
        return float(self.weights.get(type_name, 1.0))

    def forces(self, op_id: str, steps: Sequence[int]) -> List[float]:
        """Forces of tentatively placing ``op_id`` at each of ``steps``."""
        if op_id in self.scalar_ops:
            return [
                placement_force(
                    self.state,
                    op_id,
                    step,
                    lookahead=self.lookahead,
                    weights=self.weights,
                )
                for step in steps
            ]
        registry_active = _ambient._active is not None
        started = time.perf_counter() if registry_active else 0.0
        batch = DeltaBatch(self.state, [(op_id, step) for step in steps])
        totals = self._fold(batch)
        if registry_active:
            elapsed = time.perf_counter() - started
            width = len(totals)
            if width:
                observe_many(FORCE_EVAL_SECONDS, elapsed / width, width)
        return totals

    def _fold(self, batch: DeltaBatch) -> List[float]:
        """Fold a delta batch into per-candidate weighted force totals."""
        dist = self.state.dist
        contributions: Dict[str, np.ndarray] = {}
        for type_name, matrix in batch.deltas.items():
            weight = self._weight(type_name)
            contributions[type_name] = weight * (
                row_dots(matrix, dist.array(type_name))
                + self.lookahead * row_self_dots(matrix)
            )
        totals: List[float] = []
        evaluations = 0
        for row, order in enumerate(batch.type_orders):
            total = 0.0
            for type_name in order:
                total += float(contributions[type_name][row])
            evaluations += len(order)
            totals.append(total)
        count(FORCE_EVALUATIONS, evaluations)
        return totals
