"""Incremental selection scoreboard: dirty-cone candidate rescoring.

Every iteration of the coupled scheduler picks the reduction with the
largest weighted force difference by folding a score over *all* mobile
candidates of *all* blocks (``score > best + 1e-12`` in scan order).
Most of those scores did not move since the previous iteration: a
commit only perturbs its own block, that block's same-process siblings
when the coupling scope was not ``clean``, and every entry subscribed to
a globally balanced type whose system distribution ``S`` bumped.

A :class:`SelectionScoreboard` keeps, per entry (block), a persistent
:class:`EntryRecord`: the bookkeeping that says whether the entry's
stored scores are still exact (its candidate count, the cache hits a
skipped scan would have charged, and its type subscriptions).
:meth:`SelectionScoreboard.rescore_set` names the entries a scan must
rescore; every other entry keeps its stored scores.

Exactness
---------
The scan-order fold accepts a candidate iff its score strictly exceeds
``best + 1e-12``.  Two facts make the scoreboard exact, not heuristic:

1. **Accepted candidates are strict prefix maxima.**  By induction the
   running ``best`` never drops more than the epsilon below the prefix
   maximum, so an accepted score strictly exceeds every earlier score.
2. **Folding over any subsequence containing all strict prefix maxima
   is exact.**  Omitted candidates are never accepted and acceptance is
   the only way the fold state changes, so the replay visits the same
   state sequence.

An entry-local strict prefix maximum set is a superset of the global
strict prefix maxima restricted to that entry (a global maximum exceeds
*all* earlier candidates, including its own entry's).  Replaying the
fold over the concatenated per-entry subsequences in entry order is
therefore bit-identical to the scan-order fold — same winner, same score,
same tie-break.

The cross-entry replay never visits most entries at all.  The fold's
running ``best`` always sits within the epsilon below the prefix
maximum of all scores seen, so an entry can only change the state when
its own maximum *strictly exceeds every earlier entry's maximum* — the
entry-maxima array's strict prefix maxima, found with one vectorized
``np.maximum.accumulate`` over the persistent per-entry maxima.  Only
those few survivors replay their records; each still skips in O(1)
when its maximum cannot beat ``best + 1e-12``.

The cache hits a skipped entry *would* have probed are aggregated in
``sum_skip_hits``, so ``force_cache_hits`` counts every candidate of
every scan; ``selection_rescored`` / ``selection_skipped`` count the
scoreboard's own work split per scan.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

__all__ = ["EntryRecord", "SelectionScoreboard"]

#: The decision epsilon of the selection fold (must match the scheduler).
EPSILON = 1e-12


class EntryRecord:
    """Cached incumbent state of one entry between rescores.

    ``pm_*`` hold the strict-prefix-maxima subsequence of the entry's
    candidate scores in scan order: the candidate offsets (into the
    entry's candidate list), their scores, and both frame-end forces.
    ``pm_kinds`` is the per-offset cache classification of the *last
    tracked* rescore (``None`` when tracking was off).  ``skip_hits`` is
    the exact number of ``force_cache_hits`` a skipped scan contributes
    (every candidate of a clean entry probes as a hit); ``touched_types``
    are the balanced global types whose ``S`` bump stales the record.
    """

    __slots__ = (
        "pm_offsets",
        "pm_scores",
        "pm_flows",
        "pm_fhighs",
        "pm_kinds",
        "n_candidates",
        "skip_hits",
        "touched_types",
        "last_scored",
    )

    def __init__(self) -> None:
        self.pm_offsets: List[int] = []
        self.pm_scores: List[float] = []
        self.pm_flows: List[float] = []
        self.pm_fhighs: List[float] = []
        self.pm_kinds: Optional[List[str]] = None
        self.n_candidates = 0
        self.skip_hits = 0
        self.touched_types: Tuple[str, ...] = ()
        self.last_scored = -1


class SelectionScoreboard:
    """Persistent per-entry incumbents plus the incremental global fold."""

    def __init__(self, n_entries: int) -> None:
        self.records: List[EntryRecord] = [EntryRecord() for _ in range(n_entries)]
        #: Per-entry maximum candidate score (``-inf`` when the entry
        #: has no candidates): the fold visits only its strict prefix
        #: maxima, found vectorized (see the module exactness notes).
        self._max_scores = np.full(n_entries, -np.inf, dtype=float)
        #: Entries subscribed to each balanced type: exactly those whose
        #: record goes stale when the type's ``S`` version bumps.
        self.subscribers: Dict[str, Set[int]] = {}
        #: Aggregates over all records, maintained by :meth:`store`, so
        #: a scan charges skipped entries in O(rescored) not O(entries).
        self.sum_candidates = 0
        self.sum_skip_hits = 0

    # -- record maintenance -------------------------------------------
    def store(
        self,
        index: int,
        *,
        n_candidates: int,
        skip_hits: int,
        touched_types: Iterable[str],
        scan_no: int,
        pm_offsets: Optional[List[int]] = None,
        pm_scores: Optional[List[float]] = None,
        pm_flows: Optional[List[float]] = None,
        pm_fhighs: Optional[List[float]] = None,
        pm_kinds: Optional[List[str]] = None,
    ) -> None:
        """Refresh entry ``index``'s counters, subscriptions, and — when
        the caller replays folds from records with :meth:`fold` — its
        prefix-maxima subsequence.  The coupled scheduler keeps scored
        state per slot instead and stores only the bookkeeping half."""
        record = self.records[index]
        self.sum_candidates += n_candidates - record.n_candidates
        self.sum_skip_hits += skip_hits - record.skip_hits
        new_types = tuple(touched_types)
        if new_types != record.touched_types:
            for type_name in record.touched_types:
                subscribed = self.subscribers.get(type_name)
                if subscribed is not None:
                    subscribed.discard(index)
            for type_name in new_types:
                self.subscribers.setdefault(type_name, set()).add(index)
            record.touched_types = new_types
        if pm_offsets is not None:
            record.pm_offsets = pm_offsets
            record.pm_scores = pm_scores or []
            record.pm_flows = pm_flows or []
            record.pm_fhighs = pm_fhighs or []
            record.pm_kinds = pm_kinds
            # pm scores are strictly increasing: the last one is the max.
            self._max_scores[index] = (
                pm_scores[-1] if pm_scores else -np.inf
            )
        record.n_candidates = n_candidates
        record.skip_hits = skip_hits
        record.last_scored = scan_no

    def rescore_set(
        self, dirty: Iterable[int], bumped_types: Iterable[str]
    ) -> List[int]:
        """Entries whose record may be stale: dirty cone + S-bump cone."""
        stale: Set[int] = set(dirty)
        for type_name in bumped_types:
            subscribed = self.subscribers.get(type_name)
            if subscribed:
                stale.update(subscribed)
        return sorted(stale)

    # -- the cross-entry fold ------------------------------------------
    def fold(self) -> Optional[Tuple[float, int, int, float, float]]:
        """Replay the hysteresis fold; returns the winning candidate.

        The fold's running ``best`` never sits more than the epsilon
        below the prefix maximum of all scores folded so far, so entry
        ``i`` can only change the state when its own maximum *strictly
        exceeds* every earlier entry's maximum.  Those survivors — the
        strict prefix maxima of the per-entry maxima array — are found
        with one vectorized accumulate; only they replay their records,
        which is bit-identical to visiting every entry.  Returns
        ``(score, entry, offset, force_low, force_high)`` or ``None``
        when no candidates remain anywhere.
        """
        maxes = self._max_scores
        prefix = np.maximum.accumulate(maxes)
        survives = np.empty(maxes.shape, dtype=bool)
        survives[0] = maxes[0] != -np.inf
        np.greater(maxes[1:], prefix[:-1], out=survives[1:])
        records = self.records
        state = None
        for i in np.nonzero(survives)[0].tolist():
            state = self._fold_entry(state, records[i], i)
        return state  # type: ignore[return-value]

    @staticmethod
    def _fold_entry(state, record: EntryRecord, index: int):
        scores = record.pm_scores
        if not scores:
            return state
        if state is None:
            # No candidate anywhere before this entry: its first
            # candidate (always a prefix maximum) seeds the fold
            # unconditionally, exactly like the scan-order fold.
            best = scores[0]
            pos = 0
            start = 1
        else:
            best = state[0]
            # Per-entry maxima are strictly increasing: if the last
            # (largest) cannot beat the incumbent, none can — O(1) skip.
            if scores[-1] <= best + EPSILON:
                return state
            pos = -1
            start = 0
        for j in range(start, len(scores)):
            score = scores[j]
            if score > best + EPSILON:
                best = score
                pos = j
        if pos < 0:
            return state
        return (
            best,
            index,
            record.pm_offsets[pos],
            record.pm_flows[pos],
            record.pm_fhighs[pos],
        )
