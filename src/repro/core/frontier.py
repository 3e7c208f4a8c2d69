"""Shared Pareto-frontier kernels over ``(σ, per-colour load vector)`` labels.

Both exact engines of this repository keep, per search state, a set of
mutually non-dominated cost labels (frontier-pruned dominance stores are the
standard tool in cost-complexity analyses of multi-context / tree assignment
problems: Novák & Witteveen, arXiv:1405.7295; Arias et al.,
arXiv:1811.06737).  This module holds the two filters they share, one per
label representation:

* :func:`pareto_front` — the exact front of a short Python list of label
  tuples: one stable sort by ``(σ, loads)``, then one scan that tests each
  label against the labels already kept.  It is the tree DP's filter for
  the per-node candidate lists of :mod:`repro.baselines.pareto_dp`.
* :func:`pareto_block_mask` — the vectorised filter over numpy blocks.  It
  is the dominance filter of the label sweep's array buckets
  (:mod:`repro.core.label_search`) and of the tree DP's streamed folds.

Dominance is componentwise ``<=`` on ``(σ, loads)`` in both, and an exact
tie counts as dominated, so the first of two equal labels survives.  The
property tests pin both against a naive O(F²) reference filter.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

#: A label: ``(σ, loads, ...)``; anything after the loads rides along.
Label = Tuple[Any, ...]

_SIGMA_LOADS = itemgetter(0, 1)

#: Block size of :func:`pareto_block_mask`: it bounds the 2-D
#: ``(kept + block, block)`` bool dominance plane built per block.
_MASK_BLOCK = 512
#: Strict upper triangle of the largest block, built once: its top-left
#: ``b × b`` corner is the "strictly earlier row" pattern of every block.
_STRICT_UPPER = np.triu(np.ones((_MASK_BLOCK, _MASK_BLOCK), dtype=bool), k=1)


def pareto_front(labels: Sequence[Label]) -> List[Label]:
    """The exact Pareto front of ``(σ, loads, ...)`` labels.

    ``loads`` is a tuple of the same length in every label.  The result
    holds the maximal labels in ascending ``(σ, loads-lex)`` order; of two
    exact ``(σ, loads)`` duplicates the earlier one survives.

    Labels are scanned in stable ``(σ, loads-lex)`` order.  A dominator
    always sorts no later than its victims, so checking each label against
    the labels already kept is exact and nothing kept is ever dropped.  The
    kept labels are held in max-load order: a dominator's max load is at
    most its victim's, so one bisection bounds the prefix whose load tuples
    are walked.
    """
    if len(labels) < 2:
        return list(labels)
    ranked = sorted(zip(map(_SIGMA_LOADS, labels), range(len(labels))))
    kept_max: List[float] = []              # ascending
    kept_loads: List[Tuple[float, ...]] = []  # in kept_max order
    kept: List[int] = []
    for (_, loads), index in ranked:
        top = max(loads) if loads else 0.0
        end = bisect_right(kept_max, top)
        for other in kept_loads[:end]:
            for a, b in zip(other, loads):
                if a > b:
                    break
            else:
                break                       # dominated by a kept label
        else:
            kept_max.insert(end, top)
            kept_loads.insert(end, loads)
            kept.append(index)
    return [labels[i] for i in kept]


def pareto_block_mask(sig: "Any", lds: "Any",
                      window: Optional[int] = None,
                      poll: Optional[Callable[[], bool]] = None) -> "Any":
    """Boolean keep-mask of the Pareto-maximal rows of an (σ, loads) block.

    ``sig`` is an ``(M,)`` float array, ``lds`` an ``(M, d)`` float array;
    the mask comes back in the original row order.  Dominance is
    componentwise ``<=`` with exact ties counting as dominated (the first
    row in ``(σ, loads)``-lex order survives), the same filter as
    :func:`pareto_front`.

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
