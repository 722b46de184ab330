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
    operation, the IFDS/system frame-end case — replay the scalar
    ``placement_deltas`` accumulation per candidate against the memoized
    tentative rows, which is both cheaper than stacking occupancy
    batches at that width and bit-exact by construction.  *Wide* batches
    (whole-frame FDS scans) assemble one flattened occupancy batch per
    operation covering the own row and every neighbor row of every
    candidate in a single :func:`batched_occupancy_rows` call.

    Attributes:
        candidates: The ``(op_id, start)`` pairs, batch order.
        type_orders: Per candidate, the displaced type names in
            first-occurrence order (own type, then overridden
            predecessors', then overridden successors').
        deltas: Mapping from type name to its ``(n, horizon)``
            displacement matrix; rows of candidates that do not displace
            the type are never consumed (the narrow path leaves them
            uninitialized, the wide path zero).

    Only the narrow path handles candidates with a guarded force
    footprint; wide batches must not contain them (see
    :func:`guarded_footprint_ops`).
    """

    __slots__ = ("candidates", "type_orders", "deltas")

    def __init__(self, state: BlockState, candidates: Sequence[Tuple[str, int]]):
        n = len(candidates)
        self.candidates = list(candidates)
        self.type_orders: List[Tuple[str, ...]] = [()] * n
        self.deltas: Dict[str, np.ndarray] = {}

        # Group batch rows by operation: all of an op's candidate slots
        # share the same neighbor structure and vectorize together.
        groups: Dict[str, List[int]] = {}
        for row, (op_id, _start) in enumerate(candidates):
            groups.setdefault(op_id, []).append(row)

        if n <= 2 * len(groups):
            self._build_narrow(state)
        else:
            self._build_wide(state, groups)

    def _build_narrow(self, state: BlockState) -> None:
        """Per-candidate replay of the scalar delta accumulation.

        Each row reproduces bit for bit what
        :meth:`BlockState.placement_deltas` computes.  The common case —
        one overridden row per displaced type — replays the scalar
        round trip ``(S + (row - old_row)) - S`` elementwise but stacked
        over every (candidate, type) pair of the type at once, three
        vector operations per type instead of four per pair (IEEE
        addition commutes, so folding the increment first is
        bit-identical).  Pairs with several overridden rows of one type,
        or a guarded type, fall back to the literal per-candidate
        ``tentative_array`` round trip.
        """
        dist = state.dist
        frames = state.frames
        type_of = dist.type_of
        horizon = dist.horizon
        n = len(self.candidates)
        deltas = self.deltas
        # Static per-op structure (own latency, predecessors with their
        # latencies, successors), memoized on the state: the narrow path
        # re-walks it for the same operations on every invalidation.
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
        # singles[type] = (batch rows, new rows, current rows) of every
        # candidate displacing the type through exactly one override.
        singles: Dict[str, Tuple[List[int], List[np.ndarray], List[np.ndarray]]] = {}
        multis: List[Tuple[int, str, List[Tuple[str, np.ndarray]]]] = []
        for row, (op_id, start) in enumerate(self.candidates):
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
            order: List[str] = []
            per_type: Dict[str, List[int]] = {}
            for position, (oid, _new_row) in enumerate(overrides):
                type_name = type_of[oid]
                bucket = per_type.get(type_name)
                if bucket is None:
                    per_type[type_name] = [position]
                    order.append(type_name)
                else:
                    bucket.append(position)
            self.type_orders[row] = tuple(order)
            for type_name in order:
                positions = per_type[type_name]
                if len(positions) == 1 and not dist.has_guards(type_name):
                    oid, new_row = overrides[positions[0]]
                    lists = singles.setdefault(type_name, ([], [], []))
                    lists[0].append(row)
                    lists[1].append(new_row)
                    lists[2].append(current_rows[oid])
                else:
                    multis.append((row, type_name, overrides))
        # One stacked round trip for every single-override pair of every
        # type at once: row ``i`` still computes exactly
        # ``(new - old) + S_t - S_t`` elementwise, so each row is
        # bit-identical to the per-type version while the numpy call
        # count per batch stays constant instead of linear in the
        # number of displaced types.  Rows a candidate does not displace
        # are never consumed (``type_orders`` gates every consumer), so
        # the matrices need no zero fill.
        if singles:
            news_all: List[np.ndarray] = []
            olds_all: List[np.ndarray] = []
            bases_all: List[np.ndarray] = []
            spans: List[Tuple[str, List[int], int, int]] = []
            offset = 0
            for type_name, (rows, news, olds) in singles.items():
                news_all.extend(news)
                olds_all.extend(olds)
                bases_all.extend([dist.array(type_name)] * len(rows))
                spans.append((type_name, rows, offset, offset + len(rows)))
                offset += len(rows)
            inc = np.asarray(news_all) - np.asarray(olds_all)
            base_stack = np.asarray(bases_all)
            inc += base_stack
            inc -= base_stack
            for type_name, rows, lo, hi in spans:
                matrix = deltas.get(type_name)
                if matrix is None:
                    matrix = np.empty((n, horizon), dtype=float)
                    deltas[type_name] = matrix
                matrix[rows] = inc[lo:hi]
        if multis:
            scratch = state._scratch
            for row, type_name, overrides in multis:
                matrix = deltas.get(type_name)
                if matrix is None:
                    matrix = np.empty((n, horizon), dtype=float)
                    deltas[type_name] = matrix
                after = dist.tentative_array(
                    type_name, dict(overrides), out=scratch
                )
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
