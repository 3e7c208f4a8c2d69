"""Shared Pareto-frontier kernels over ``(σ, per-colour load vector)`` labels.

Both exact engines of this repository keep, per search state, a set of
mutually non-dominated cost labels (frontier-pruned dominance stores are the
standard tool in cost-complexity analyses of multi-context / tree assignment
problems: Novák & Witteveen, arXiv:1405.7295; Arias et al.,
arXiv:1811.06737).  This module holds the two kernels they share:

* :func:`pareto_block_mask` — the vectorised Pareto filter over numpy
  blocks.  It is the dominance filter of the label sweep's array buckets
  (:mod:`repro.core.label_search`) and of the tree DP's streamed folds
  (:mod:`repro.baselines.pareto_dp`).
* :class:`ParetoStore` — an eager, σ-sorted insert-and-prune store, used by
  the tree DP for its small per-node frontiers:

  - entries are kept **sorted by σ** (binary search on a parallel σ array
    locates both scan boundaries), so only the σ-prefix can dominate a new
    label and only the σ-suffix can be evicted by it — every scan is
    one-sided;
  - a dict keyed by the **colour-interned load tuple** retires exact
    repeats in O(1) and guarantees at most one entry per distinct load
    vector;
  - each entry carries its **max- and sum-load summaries**, so the
    one-sided scans discard non-candidates with one float compare instead
    of a componentwise tuple walk (a dominator needs ``max ≤``, a victim
    ``sum ≥``);
  - **single-colour stores keep the classic staircase invariant** — σ
    strictly ascending, load strictly descending — where insert-and-prune
    is a binary search plus an amortised O(1) eviction walk;
  - :meth:`ParetoStore.insert_bounded` additionally rejects labels that
    provably cannot beat an incumbent.

The store is an *exact* Pareto filter: the surviving set equals the maximal
elements of everything ever inserted (duplicates collapsed), independent of
insertion order — the property tests pin this against a naive O(F²)
reference filter.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Callable, Iterator, List, Optional, Tuple

import numpy as np

Loads = Tuple[float, ...]
Entry = Tuple[float, Loads, Any]

_INF = float("inf")

#: Block size of :func:`pareto_block_mask`: it bounds the 2-D
#: ``(kept + block, block)`` bool dominance plane built per block.
_MASK_BLOCK = 512
#: Strict upper triangle of the largest block, built once: its top-left
#: ``b × b`` corner is the "strictly earlier row" pattern of every block.
_STRICT_UPPER = np.triu(np.ones((_MASK_BLOCK, _MASK_BLOCK), dtype=bool), k=1)


class ParetoStore:
    """Exact Pareto set of ``(σ, load-vector)`` labels, σ-sorted.

    Dominance is componentwise ``<=`` on ``(σ, loads)``; an exact tie counts
    as dominated, so duplicates never accumulate and the store holds at most
    one entry per distinct load tuple.  ``dim`` is the number of load
    components every inserted tuple must have (the caller interns colours to
    indices once; see :meth:`repro.core.dwg.DoublyWeightedGraph.all_colors`).

    Counters (``dominated``, ``evicted``, ``bound_rejected``) accumulate over
    the store's lifetime and feed the engines' stats records.
    """

    __slots__ = ("dim", "dominated", "evicted", "bound_rejected",
                 "_sigmas", "_loads", "_maxes", "_sums", "_payloads",
                 "_bykey")

    def __init__(self, dim: int) -> None:
        if dim < 0:
            raise ValueError("dim must be non-negative")
        self.dim = dim
        self.dominated = 0          #: incoming labels rejected as dominated
        self.evicted = 0            #: stored labels removed by a new dominator
        self.bound_rejected = 0     #: incoming labels rejected by the bound
        self._sigmas: List[float] = []
        self._loads: List[Loads] = []
        self._maxes: List[float] = []       # max(loads) per entry
        self._sums: List[float] = []        # sum(loads) per entry
        self._payloads: List[Any] = []
        self._bykey = {}            # load tuple -> its (unique) entry's σ

    # ------------------------------------------------------------------ insert
    def insert(self, sigma: float, loads: Loads, payload: Any = None) -> bool:
        """Insert-and-prune one label; False when an existing label dominates it.

        On True the label was added and every stored label it dominates was
        evicted; the staircase/σ-order invariants hold afterwards.
        """
        if len(loads) != self.dim:
            raise ValueError(
                f"load tuple has {len(loads)} components, store has dim {self.dim}")
        if self.dim == 1:
            return self._insert_1d(sigma, loads, payload)
        return self._insert_nd(sigma, loads, payload)

    def insert_bounded(self, sigma: float, loads: Loads, payload: Any = None,
                       *, potential: float = 0.0, bound: float = _INF,
                       lambda_s: float = 1.0, lambda_b: float = 1.0) -> bool:
        """Bound-aware insert: reject labels provably worse than ``bound``.

        ``potential`` must lower-bound the σ any completion of this label
        still adds; loads are additive and non-negative, so
        ``λ_S·(σ + potential) + λ_B·max(loads)`` lower-bounds every
        completion's objective.  Labels at or above the incumbent are
        discarded before touching the frontier.
        """
        completion = lambda_s * (sigma + potential) + \
            lambda_b * (max(loads) if loads else 0.0)
        if completion >= bound:
            self.bound_rejected += 1
            return False
        return self.insert(sigma, loads, payload)

    # ------------------------------------------------- single-colour staircase
    def _insert_1d(self, sigma: float, loads: Loads, payload: Any) -> bool:
        # invariant: σ strictly ascending, load strictly descending — at most
        # one entry per σ and per load value, so one boundary probe decides
        # dominance and the eviction run is contiguous
        sigmas = self._sigmas
        maxes = self._maxes
        load = loads[0]
        pos = bisect_right(sigmas, sigma)
        if pos and maxes[pos - 1] <= load:
            # the σ-predecessor holds the smallest load of the whole prefix
            self.dominated += 1
            return False
        start = pos - 1 if (pos and sigmas[pos - 1] == sigma) else pos
        end = start
        n = len(sigmas)
        while end < n and maxes[end] >= load:
            end += 1
        if end > start:
            self.evicted += end - start
            bykey = self._bykey
            for el in self._loads[start:end]:
                del bykey[el]
            del sigmas[start:end]
            del self._loads[start:end]
            del maxes[start:end]
            del self._sums[start:end]
            del self._payloads[start:end]
        sigmas.insert(start, sigma)
        self._loads.insert(start, loads)
        maxes.insert(start, load)
        self._sums.insert(start, load)
        self._payloads.insert(start, payload)
        self._bykey[loads] = sigma
        return True

    # --------------------------------------------------------- general colours
    def _insert_nd(self, sigma: float, loads: Loads, payload: Any) -> bool:
        bykey = self._bykey
        best = bykey.get(loads)
        if best is not None and best <= sigma:
            self.dominated += 1
            return False
        sigmas = self._sigmas
        loads_list = self._loads
        maxes = self._maxes
        nmax = max(loads) if loads else 0.0
        # dominated check: only the σ-prefix qualifies, and a dominator's
        # max-load cannot exceed ours — one float compare gates the tuple walk
        hi = bisect_right(sigmas, sigma)
        for i in range(hi):
            if maxes[i] <= nmax:
                for a, b in zip(loads_list[i], loads):
                    if a > b:
                        break
                else:
                    self.dominated += 1
                    return False
        # eviction: only the σ-suffix qualifies, and a victim's sum-load
        # cannot be below ours
        n = len(sigmas)
        lo = bisect_left(sigmas, sigma)
        if lo < n:
            nsum = sum(loads)
            sums = self._sums
            dead: Optional[List[int]] = None
            for i in range(lo, n):
                if sums[i] >= nsum:
                    for a, b in zip(loads, loads_list[i]):
                        if a > b:
                            break
                    else:
                        if dead is None:
                            dead = [i]
                        else:
                            dead.append(i)
            if dead:
                self.evicted += len(dead)
                for i in dead:
                    del bykey[loads_list[i]]
                dead_set = set(dead)
                keep = [i for i in range(n) if i not in dead_set]
                self._sigmas = sigmas = [sigmas[i] for i in keep]
                self._loads = loads_list = [loads_list[i] for i in keep]
                self._maxes = [maxes[i] for i in keep]
                self._sums = [sums[i] for i in keep]
                self._payloads = [self._payloads[i] for i in keep]
        pos = bisect_right(sigmas, sigma)
        sigmas.insert(pos, sigma)
        loads_list.insert(pos, loads)
        self._maxes.insert(pos, nmax)
        self._sums.insert(pos, sum(loads))
        self._payloads.insert(pos, payload)
        bykey[loads] = sigma
        return True

    # ------------------------------------------------------------------ access
    def __len__(self) -> int:
        return len(self._sigmas)

    def __iter__(self) -> Iterator[Entry]:
        """Entries as ``(σ, loads, payload)`` triples in ascending σ order."""
        return iter(zip(self._sigmas, self._loads, self._payloads))

    def min_sigma(self) -> float:
        """Smallest stored σ (``inf`` when empty)."""
        return self._sigmas[0] if self._sigmas else _INF

    def clear(self) -> None:
        self._sigmas.clear()
        self._loads.clear()
        self._maxes.clear()
        self._sums.clear()
        self._payloads.clear()
        self._bykey.clear()


def pareto_block_mask(sig: "Any", lds: "Any",
                      window: Optional[int] = None,
                      poll: Optional[Callable[[], bool]] = None) -> "Any":
    """Boolean keep-mask of the Pareto-maximal rows of an (σ, loads) block.

    ``sig`` is an ``(M,)`` float array, ``lds`` an ``(M, d)`` float array;
    the mask comes back in the original row order.  Dominance is
    componentwise ``<=`` with exact ties counting as dominated (the first
    row in ``(σ, loads)``-lex order survives), identical to
    :meth:`ParetoStore.insert`.

    Rows are sorted by ascending ``(σ, loads-lex)``, so a dominator always
    sorts no later than its victims (ties included) and one forward blocked
    sweep sees every dominator before its victims; by transitivity, checking
    a row against *surviving* earlier rows only is exact.

    ``window`` caps the retained dominator set to the ``window`` strongest
    (lowest ``(σ, lex)``) survivors: inserts stay O(window) per row, some
    dominated rows may survive, no row is ever wrongly removed — the blowup
    regime's trade (a surviving dominated label costs time, never
    correctness).

    Cost: each block of ``b`` rows is checked against the ``k ≤ window``
    retained survivors and its own earlier rows, O((k + b)·b·d) compares.
    The sorted loads are held colour-major (one contiguous row per colour),
    so the block's dominance plane is built from one 2-D ``<=`` per colour
    folded in place with ``&=`` — never a ``(k, b, d)`` cube reduced over
    its short last axis.

    ``poll`` (optional) is a deadline checkpoint called once per block,
    before it is checked; when it returns true the filter stops and every
    row it has not checked yet stays kept — always safe, since a kept
    dominated row costs time, never correctness.
    """
    total, dim = lds.shape
    order = np.lexsort(tuple(lds[:, c] for c in range(dim - 1, -1, -1))
                        + (sig,))
    if dim == 0:
        # no load to compare: every row after the first is dominated
        keep = np.zeros(total, dtype=bool)
        keep[order[:1]] = True
        return keep
    keep = np.ones(total, dtype=bool)
    cols = np.ascontiguousarray(lds[order].T)       # (d, M), σ-lex sorted
    cap = total if window is None else min(window, total)
    # the intra-block part of the plane costs O(block²·d); a capped filter
    # gets a matching block so the per-row work stays O((window + block)·d)
    block = _MASK_BLOCK if window is None else \
        max(32, min(window, _MASK_BLOCK))
    # dominator columns: the k retained survivors, then the current block
    doms = np.empty((dim, cap + block), dtype=np.float64)
    k = 0
    for start in range(0, total, block):
        if poll is not None and poll():
            break
        bc = cols[:, start:start + block]
        b = bc.shape[1]
        doms[:, k:k + b] = bc
        # plane[j, i] == "dominator j dominates block row i"
        plane = doms[0, :k + b, None] <= bc[0, None, :]
        for c in range(1, dim):
            plane &= doms[c, :k + b, None] <= bc[c, None, :]
        # within the block only strictly earlier rows (in σ-lex order) count
        plane[k:] &= _STRICT_UPPER[:b, :b]
        dom = plane.any(axis=0)
        if dom.any():
            keep[order[start:start + b][dom]] = False
        if k < cap:
            take = bc[:, ~dom][:, :cap - k]
            doms[:, k:k + take.shape[1]] = take
            k += take.shape[1]
    return keep
