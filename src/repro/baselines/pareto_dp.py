"""Bound-pruned exact Pareto dynamic program on the CRU tree.

An independent exact solver, used as the portfolio's cross-check engine and
to validate the paper's algorithm on instances too large for brute force.
For every subtree (processed in post-order) it maintains a set of
Pareto-optimal cost labels

``(host time contributed by the subtree, per-satellite load vector, cut)``

where the load vector records, for every satellite, the execution plus uplink
time the subtree's cut contributes to it.  Combining children is additive in
every component; dominated labels (componentwise ≥ another label) are pruned
by the shared :func:`~repro.core.frontier.pareto_front` (one sort and one
scan per node's candidate list), or by its array twin on the large streamed
folds.  At the root the label minimising ``λ_S · host + λ_B · max(load)`` is
selected — with the default weighting this is exactly the end-to-end delay.

The full frontier blows up combinatorially on scattered instances around
``n_processing >= 30``, so the one entry point,
:func:`pareto_dp_pruned_assignment`, never materialises it: per-node
frontiers are pruned by **completion bounds** against an **incumbent**.
The incumbent is found by a beam pre-pass over the same DP or, in the
refutation mode the portfolio's cross-check uses, is the objective of an
answer the caller already holds (the beam is then skipped, and the one
exact pass only has to show that nothing beats that answer).  The bounds
come from two walks over the tree's pre-order positions: a children-first
walk (:func:`_subtree_minima`) gives every subtree one row ``[σ, joint,
colour_0 … colour_{k-1}]`` of minimum costs, and a parents-first walk
(:func:`_completion_potentials`) turns them into one row ``[pot, jpot,
cpot_0 …]`` per DP state: the minimum host time the rest of the tree must
still add, and the joint and per-colour floors of what it must still add
to the objective.  A label whose joint floor or one of whose colour floors
reaches the incumbent cannot end in a better assignment (loads only grow,
the rest of the tree adds at least the floor) and is dropped before it
multiplies through the cross products; the σ check ``λ_S·(host + pot) +
λ_B·max(load)``, which the colour floors imply up to rounding, runs only
at the root (where it is the exact objective) and on an instance with no
satellite.  The returned assignment is still exactly optimal — the
incumbent is feasible, and only provably-not-better labels are discarded.

The DP makes no use of the assignment graph, the colouring or the SSB search
(its bounds come from the CRU tree alone), so agreement with
:mod:`repro.core.colored_ssb` on random instances is strong evidence that
both are correct — the differential harness in ``tests/test_differential.py``
pins exactly that, and a MILP model that shares no code with either
(``tests/milp_oracle.py``) checks both.
"""

from __future__ import annotations

from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.assignment import Assignment
from repro.core.context import SolveContext, SolveInterrupted
from repro.core.dwg import SSBWeighting
from repro.core.frontier import pareto_block_mask, pareto_front
from repro.model.problem import AssignmentProblem

_INF = float("inf")

# A DP label is (host_time, per-satellite load tuple, cut tuple).
_Label = Tuple[float, Tuple[float, ...], Tuple[str, ...]]
# A bound row: [σ, joint, colour_0 … colour_{k-1}] per subtree, or
# [pot, jpot, cpot_0 …] per DP state.
_Row = Tuple[float, ...]


class FrontierExplosion(RuntimeError):
    """A pruned DP frontier outgrew ``max_frontier`` — the DP would hang.

    The safety valve of ``pareto-dp-pruned``: its completion bounds keep
    per-state frontiers in the hundreds through scattered n=40, so this
    fires only on an instance that defeats the pruning.  It converts the
    hang into a fast, actionable failure (use the label-dominance engine
    ``colored-ssb-labels`` instead, or raise the cap).
    """

    def __init__(self, size: int, limit: int,
                 labels_created: Optional[int] = None,
                 peak_frontier: Optional[int] = None) -> None:
        detail = ""
        if labels_created is not None:
            detail = (f" after {labels_created} labels created "
                      f"(peak frontier {peak_frontier})")
        super().__init__(
            f"pareto-dp-pruned frontier reached {size} labels "
            f"(max_frontier={limit}){detail}; "
            f"the instance defeats the DP's bound pruning — "
            f"use colored-ssb-labels or raise max_frontier")
        self.size = size
        self.limit = limit
        #: how much work the DP had done when the cap fired — surfaced in
        #: the error envelope / dead-letter details so a blown-up task is
        #: diagnosable from `repro audit` without a re-run
        self.labels_created = labels_created
        self.peak_frontier = peak_frontier

    def error_details(self) -> Dict[str, int]:
        """Structured diagnostics for the error envelope (duck-typed hook
        picked up by :func:`repro.runtime.payload.solve_payload`)."""
        details = {"frontier_size": int(self.size),
                   "max_frontier": int(self.limit)}
        if self.labels_created is not None:
            details["labels_created"] = int(self.labels_created)
        if self.peak_frontier is not None:
            details["peak_frontier"] = int(self.peak_frontier)
        return details


#: Candidate cross products this many times the frontier cap abort before
#: being materialised.  The factor is large: candidates are mostly rejected
#: in O(1) by the completion bound before touching the frontier, so a large
#: cross product is routine, not a symptom of blowup.
_CANDIDATE_FACTOR = 256

#: Default beam width of the pruned solver's incumbent pre-pass.
_PRUNED_BEAM_WIDTH = 16

#: Relative widening of a caller's ``incumbent`` into the refutation pass's
#: bound.  The bound drops labels at or above it, and the DP sums a label in
#: its own order, so the caller's own optimum can land on or 1-2 ulp above
#: the objective the caller computed; unwidened, the bound would prune it.
#: A few hundred ulps cover those roundings with room to spare; the pass
#: returns the best label it keeps, so the labels the widening lets through
#: cost a little work, never the answer.
_INCUMBENT_SLACK = 1.0 + 2.0 ** -44

#: Streamed cross products: folds with at least this many candidate pairs
#: run through the vectorised chunked kernel instead of the per-pair python
#: loop; each chunk materialises at most this many pairs.
_STREAM_MIN_PAIRS = 2048
_STREAM_CHUNK_PAIRS = 1 << 18
#: label-list size past which the host-time fold at a node bypasses the
#: list filter (O(frontier²) python) for the vectorised ``finish_fold``
#: tail.
_STREAM_MIN_LABELS = 512
#: dominator-window cap for the streamed Pareto masks.  An unwindowed mask
#: is quadratic in the frontier and dwarfs the whole fold on wide stars;
#: the window makes it linear.  Rows a distant dominator would have removed
#: merely survive into the next fold (extra work), they are never wrongly
#: dropped — the optimum is unaffected.  With the completion bounds doing
#: the heavy pruning, a small window beats a thorough one: on wide stars at
#: n=40 window 128 is ~3x faster end to end than 1024 while the peak
#: frontier grows by less than half.
_STREAM_MASK_WINDOW = 128


# --------------------------------------------------------------------------
# Bound tables: one children-first and one parents-first walk over the
# tree's pre-order positions.
# --------------------------------------------------------------------------
def _subtree_minima(problem: AssignmentProblem, lam_s: float, lam_b: float
                    ) -> Tuple[List[Optional[List[int]]], List[float],
                               List[Optional[Tuple[int, float]]], List[_Row]]:
    """The DP's tree tables and one bound row per subtree, in one walk.

    Every table is indexed by position in ``tree.tree.preorder_index()``
    (the root is 0).  Every subtree ``u`` below the root is either
    offloaded — its whole load ``β_u`` (satellite time of its processing
    CRUs plus the uplink to its parent) lands on its one correspondent
    satellite — or, for a processing CRU, run on the host, paying ``h_u``
    plus its children's own shares.  One children-first walk returns
    ``(kids, host, offload, mins)``:

    * ``kids[i]`` — the children's positions of a processing CRU, ``None``
      for a sensor; ``host[i]`` — its host time ``h_u``;
    * ``offload[i] = (colour, β_u)`` — the colour index of the
      correspondent satellite and ``u``'s entry of
      :meth:`AssignmentProblem.offload_costs`; ``None`` when ``u`` has none
      (always for the root);
    * ``mins[i] = [σ, joint, colour_0 … colour_{k-1}]``, where
      ``σ = min(0 if offloadable, h_u + Σ σ(children))`` is the minimum
      host time, the σ weight of the completion walk;
      ``joint = min(λ_B·β_u/k, λ_S·h_u + Σ joint(children))`` — an offload
      raises the load sum by ``β_u`` and hence the max load by at least
      ``β_u/k``, so this is an additive lower bound on the
      ``λ_S·σ + λ_B·max-load`` still owed by ``u`` (the DP-side analogue of
      the label engine's joint σ/β potential); and ``colour_c`` is the
      cheapest of paying ``λ_B·β_u`` on colour ``c`` (offload to a
      colour-``c`` satellite), nothing on ``c`` (offload elsewhere) or
      ``λ_S·h_u + Σ colour_c(children)`` (host): an additive lower bound on
      ``λ_S·σ + λ_B·load_c`` still owed by ``u``.  Offloading is
      colour-pinned, so unlike the joint bound this does not dilute
      offloaded mass by ``1/k``.  The root's row is its host option.

    ``inf`` marks a subtree with no feasible option.
    """
    tree = problem.tree
    order, _, size = tree.tree.preorder_index()
    sat_index = {sid: i for i, sid in enumerate(problem.system.satellite_ids())}
    dim = len(sat_index)
    inv = 1.0 / dim if dim else 0.0
    betas = problem.offload_costs()
    correspondent = problem.correspondent_satellites()
    count = len(order)
    kids: List[Optional[List[int]]] = [None] * count
    host = [0.0] * count
    offload: List[Optional[Tuple[int, float]]] = [None] * count
    mins: List[_Row] = [()] * count
    infeasible = (_INF,) * (dim + 2)
    for i in range(count - 1, -1, -1):      # children before parents
        u = order[i]
        row = infeasible
        sat = correspondent[u] if i else None
        if sat is not None:
            beta = betas[u]
            colour = sat_index[sat]
            offload[i] = (colour, beta)
            off = [0.0, lam_b * beta * inv] + [0.0] * dim
            off[2 + colour] = lam_b * beta
            row = tuple(off)
        if tree.cru(u).is_processing:
            end, j, children = i + size[i], i + 1, []
            while j < end:
                children.append(j)
                j += size[j]
            kids[i] = children
            rows = [mins[j] for j in children]
            h = host[i] = problem.host_time(u)
            h_s = lam_s * h
            sig, joint = h, h_s
            for below in rows:
                sig += below[0]
                joint += below[1]
            colours = [h_s + total for total in
                       list(map(sum, zip(*rows)))[2:]] if rows else [h_s] * dim
            row = tuple(map(min, row, (sig, joint, *colours)))
        mins[i] = row
    return kids, host, offload, mins


def _completion_potentials(kids: Sequence[Optional[List[int]]],
                           host: Sequence[float], mins: Sequence[_Row],
                           lam_s: float
                           ) -> Tuple[List[Optional[List[_Row]]],
                                      List[Optional[_Row]]]:
    """Lower bounds on what a partial DP label must still add, per column.

    The DP's states form a DAG: ``(u, i)`` means "the first ``i`` children of
    processing CRU ``u`` are folded into the label".  Each state has exactly
    one way forward — fold the next child (weight: the child's row of
    ``mins``), or, once complete, add ``u``'s host weight and join the
    parent's combination after the already-folded elder siblings (weight:
    host weight + Σ elder rows); the root's complete state adds its host
    weight and finishes.  The host weight is ``h_u`` in the σ column and
    ``λ_S·h_u`` in the joint and colour columns, whose rows are in objective
    units.  The min from a state to the finish is therefore that single
    step's weight plus the next state's potential, and every feasible
    assignment containing a label of state ``(u, i)`` pays at least that
    much more.

    One parents-first (pre-order) walk computes every column at once: a
    node's complete state continues into its parent's states, which are
    already known, and its own states follow right to left from the
    complete one.  Returns ``(states, opts)``, indexed by pre-order
    position: ``states[i][j]`` is the row of state ``(u, j)`` of a
    processing CRU, and ``opts[i]`` the row of labels sitting in a node's
    finished option frontier (offload or host-combined) awaiting their fold
    into the parent.
    """
    count = len(kids)
    zeros = (0.0,) * len(mins[0])
    states: List[Optional[List[_Row]]] = [None] * count
    opts: List[Optional[_Row]] = [None] * count
    prefix: List[_Row] = [zeros] * count    # Σ rows of elder siblings
    after: List[_Row] = [zeros] * count     # row of the parent state after
    for i, children in enumerate(kids):
        if children is None:
            continue
        weight = (host[i],) + (lam_s * host[i],) * (len(zeros) - 1)
        if i == 0:
            pot = tuple(map(add, weight, zeros))
        else:
            pot = tuple(map(add, map(add, weight, prefix[i]), after[i]))
        pots = [pot]
        for j in reversed(children):
            pot = tuple(map(add, mins[j], pot))
            pots.append(pot)
        pots.reverse()
        running = zeros
        for j, child in enumerate(children, 1):
            prefix[child] = running
            after[child] = pots[j]
            opts[child] = tuple(map(add, pots[j], running))
            running = tuple(map(add, running, mins[child]))
        states[i] = pots
    return states, opts


# --------------------------------------------------------------------------
# The DP kernel, shared by the beam pre-pass and the exact pass.
# --------------------------------------------------------------------------
def _dp_labels(problem: AssignmentProblem,
               kids: Sequence[Optional[List[int]]], host: Sequence[float],
               offload: Sequence[Optional[Tuple[int, float]]],
               states: Sequence[Optional[List[_Row]]],
               opts: Sequence[Optional[_Row]], *,
               max_frontier: Optional[int] = None,
               bound: float = _INF,
               lam_s: float = 1.0, lam_b: float = 1.0,
               beam_width: Optional[int] = None,
               context: Optional[SolveContext] = None,
               ) -> Tuple[List[_Label], Dict[str, int]]:
    """Run the tree DP; returns the root frontier labels plus prune counters.

    The tables are :func:`_subtree_minima`'s and
    :func:`_completion_potentials`' position-indexed lists.  Every node
    builds its candidate labels (a fold's cross product, a node's offload
    label plus its host-combined labels, or the root's labels) and settles
    them in one step against its bound row ``[pot, jpot, cpot_0 …]``: one
    plain loop drops a label whose joint floor ``λ_S·σ + λ_B·Σloads/k +
    jpot`` or any colour floor ``λ_S·σ + λ_B·load_c + cpot_c`` reaches
    ``bound``, and :func:`pareto_front` keeps the exact front of the rest.
    Every colour potential is at least ``λ_S`` times the σ potential, so the
    colour floor of the max-load colour is at least the σ bound
    ``λ_S·(σ + pot) + λ_B·max(loads)``; that check runs only where a row has
    no colour floors: at the root, where ``(0, 0)`` makes it the exact
    objective, and on an instance with no satellite.  (The two sides round
    differently, so a label within a few ulps of ``bound`` may survive one
    step more than the σ check would let it; it costs a label, never the
    answer.)  ``beam_width``
    truncates every frontier to the labels of best completion bound — the
    heuristic pre-pass whose best root label seeds the exact pass's
    incumbent.  Every caller passes a finite ``bound`` or a ``beam_width``.

    ``context`` is polled once per tree node and once per cross-product row
    (the two loop granularities that dominate the runtime); when it fires the
    kernel raises the matching :class:`SolveInterrupted` — the DP holds no
    usable partial answer, so the entry points translate the interruption
    into their own feasible fallbacks.
    """
    order = problem.tree.tree.preorder_index()[0]
    n = len(problem.system.satellite_ids())
    inv_n = 1.0 / n if n else 0.0
    # the bounds prune only with a finite incumbent, but the beam pre-pass
    # still ranks by them
    bounded = bound != _INF
    joint = bounded and n > 0

    def beam_key(row: _Row):
        """Best-completion estimate used to rank beam survivors: the max of
        every admissible floor available.  A sharper rank keeps the labels
        the exact pass would keep, so a narrow beam lands a near-optimal
        incumbent."""
        pot, jpot, floors = row[0], row[1], row[2:]

        def key(lab: _Label) -> float:
            sig, loads = lab[0], lab[1]
            est = lam_s * (sig + pot) + \
                lam_b * (max(loads) if loads else 0.0)
            if n:
                alt = lam_s * sig + lam_b * sum(loads) * inv_n + jpot
                if alt > est:
                    est = alt
            base = lam_s * sig
            for load, floor in zip(loads, floors):
                alt = base + lam_b * load + floor
                if alt > est:
                    est = alt
            return est
        return key
    stats = {"created": 0, "dominated": 0, "bound_rejected": 0,
             "peak_frontier": 0, "drains": 0}

    def close(labels: List[_Label], created: int, rejected: int,
              row: _Row) -> List[_Label]:
        """The end of every node's step: count it, cap it, beam it.

        ``created`` candidates came in and the bounds ``rejected`` some; the
        rest not in ``labels`` were dominated."""
        dominated = created - rejected - len(labels)
        stats["created"] += created
        stats["bound_rejected"] += rejected
        stats["dominated"] += dominated
        if max_frontier is not None and len(labels) > max_frontier:
            raise FrontierExplosion(
                len(labels), max_frontier,
                labels_created=stats["created"],
                peak_frontier=max(stats["peak_frontier"], len(labels)))
        stats["drains"] += 1
        if len(labels) > stats["peak_frontier"]:
            stats["peak_frontier"] = len(labels)
        if beam_width is not None and len(labels) > beam_width:
            labels.sort(key=beam_key(row))
            del labels[beam_width:]
        return labels

    def settle(candidates: List[_Label], row: _Row
               ) -> List[_Label]:
        """One node's list step: bound the candidates, keep their front."""
        admitted = candidates
        if bounded:
            pot, jpot, floors = row[0], row[1], row[2:]
            admitted = []
            for label in candidates:
                sig, loads, _ = label
                if joint and lam_s * sig + lam_b * sum(loads) * inv_n \
                        + jpot >= bound:
                    continue
                base = lam_s * sig
                for load, floor in zip(loads, floors):
                    if base + lam_b * load + floor >= bound:
                        break
                else:
                    if floors or lam_s * (sig + pot) + \
                            lam_b * (max(loads) if loads else 0.0) < bound:
                        admitted.append(label)
        return close(pareto_front(admitted), len(candidates),
                     len(candidates) - len(admitted), row)

    def combine_fold_stream(acc: List[_Label], labels: List[_Label],
                            row: _Row) -> List[_Label]:
        """One child fold as a chunked, vectorised cross product.

        The same step as the list fold — every candidate pair counts as
        created, the bounds drop pairs first, and :func:`pareto_block_mask`
        filters dominance (windowed, so a dominated pair may survive) — but
        the ``A x B`` product streams through bounded-size chunks of float
        arrays instead of materialising per-pair python tuples, and the cut
        tuples are built only for the rows that survive both filters.  A
        fold state always has colour floors, so the σ check never runs.
        """
        A, B = len(acc), len(labels)
        ah = np.array([lab[0] for lab in acc])
        al = np.array([lab[1] for lab in acc]).reshape(A, n)
        bh = np.array([lab[0] for lab in labels])
        bl = np.array([lab[1] for lab in labels]).reshape(B, n)
        jpot, cp = row[1], np.asarray(row[2:])
        rows = max(1, _STREAM_CHUNK_PAIRS // B)
        created = rejected = 0
        sigs: List[object] = []
        loads: List[object] = []
        pairs: List[object] = []
        for a0 in range(0, A, rows):
            if context is not None:
                context.checkpoint()
            a1 = min(a0 + rows, A)
            hs = (ah[a0:a1, None] + bh[None, :]).ravel()
            ld = (al[a0:a1, None, :] + bl[None, :, :]).reshape(-1, n)
            created += len(hs)
            if bounded:
                keep = lam_s * hs + lam_b * ld.sum(axis=1) * inv_n \
                    + jpot < bound
                keep &= (lam_s * hs[:, None] + lam_b * ld
                         + cp[None, :] < bound).all(axis=1)
                kept = int(keep.sum())
                rejected += len(hs) - kept
                if not kept:
                    continue
                idx = np.nonzero(keep)[0]
                hs, ld = hs[idx], ld[idx]
            else:
                idx = np.arange(len(hs))
            if len(hs) > 1:
                # chunk-local dominance filter keeps the accumulation small
                mask = pareto_block_mask(hs, ld, window=_STREAM_MASK_WINDOW)
                hs, ld, idx = hs[mask], ld[mask], idx[mask]
            sigs.append(hs)
            loads.append(ld)
            pairs.append(idx + a0 * B)     # chunk-flat -> product-flat index
        out: List[_Label] = []
        if sigs:
            sig = np.concatenate(sigs)
            ld = np.concatenate(loads)
            pair = np.concatenate(pairs)
            if len(sigs) > 1 and len(sig) > 1:
                mask = pareto_block_mask(sig, ld, window=_STREAM_MASK_WINDOW)
                sig, ld, pair = sig[mask], ld[mask], pair[mask]
            for s, lo, p in zip(sig, ld, pair):
                ai, bi = divmod(int(p), B)
                out.append((float(s), tuple(lo.tolist()),
                            acc[ai][2] + labels[bi][2]))
        return close(out, created, rejected, row)

    def combine_children(i: int, children_labels: Sequence[List[_Label]]
                         ) -> List[_Label]:
        acc: List[_Label] = [(0.0, (0.0,) * n, ())]
        for j, labels in enumerate(children_labels):
            if (max_frontier is not None
                    and len(acc) * len(labels)
                    > _CANDIDATE_FACTOR * max_frontier):
                # abort before materialising the cross product at all
                raise FrontierExplosion(len(acc) * len(labels), max_frontier,
                                        labels_created=stats["created"],
                                        peak_frontier=stats["peak_frontier"])
            row = states[i][j + 1]
            if n and len(acc) * len(labels) >= _STREAM_MIN_PAIRS:
                acc = combine_fold_stream(acc, labels, row)
                continue
            candidates: List[_Label] = []
            for ah, aloads, acut in acc:
                if context is not None:
                    context.checkpoint()
                for bh, bloads, bcut in labels:
                    candidates.append((ah + bh, tuple(map(add, aloads, bloads)),
                                       acut + bcut))
            acc = settle(candidates, row)
        return acc

    def finish_fold(combined: List[_Label], h: float,
                    offload: Optional[_Label], row: _Row
                    ) -> List[_Label]:
        """Vectorised tail of :func:`labels_of`: fold the host time into an
        already Pareto-filtered label list, apply the bounds, and merge the
        (single) offload label.  The list step is O(frontier²) python
        exactly where the stream fold just spent effort keeping the frontier
        flat; adding the constant ``h`` to every σ leaves dominance
        unchanged, so no re-filter is needed beyond the offload
        cross-check."""
        hs = np.array([lab[0] for lab in combined]) + h
        ld = np.array([lab[1] for lab in combined]).reshape(-1, n)
        pot, jpot, cp = row[0], row[1], np.asarray(row[2:])
        created = len(combined)
        keep = np.ones(len(combined), dtype=bool)
        if bounded:
            keep &= lam_s * hs + lam_b * ld.sum(axis=1) * inv_n + jpot < bound
            if len(cp):
                keep &= (lam_s * hs[:, None] + lam_b * ld
                         + cp[None, :] < bound).all(axis=1)
            else:
                keep &= lam_s * (hs + pot) + lam_b * ld.max(axis=1) < bound
        rejected = len(combined) - int(keep.sum())
        keep_off = False
        if offload is not None:
            # only a node below the root has one, so its row has floors
            created += 1
            oh, ol = offload[0], np.asarray(offload[1], dtype=np.float64)
            keep_off = not bounded or not (
                lam_s * oh + lam_b * float(ol.sum()) * inv_n + jpot >= bound
                or bool((lam_s * oh + lam_b * ol + cp >= bound).any()))
            if not keep_off:
                rejected += 1
            else:
                # the offload label comes first among the candidates, so
                # exact ties go to it — mirrored by `<=` in both directions
                keep &= ~((oh <= hs) & (ol[None, :] <= ld).all(axis=1))
                keep_off = not bool(
                    ((hs <= oh) & (ld <= ol[None, :]).all(axis=1)
                     & keep).any())
        labels: List[_Label] = [offload] if keep_off else []
        labels += [(float(hs[i]), tuple(ld[i].tolist()), combined[i][2])
                   for i in np.nonzero(keep)[0].tolist()]
        return close(labels, created, rejected, row)

    def labels_of(i: int) -> List[_Label]:
        if context is not None:
            context.checkpoint()
        row = opts[i]
        off_label: Optional[_Label] = None
        if offload[i] is not None:
            colour, beta = offload[i]
            loads = [0.0] * n
            loads[colour] = beta
            off_label = (0.0, tuple(loads), (order[i],))
        combined: Optional[List[_Label]] = None
        if kids[i] is not None:
            child_labels = [labels_of(j) for j in kids[i]]
            if all(child_labels):
                combined = combine_children(i, child_labels)
        if combined and n and len(combined) >= _STREAM_MIN_LABELS:
            return finish_fold(combined, host[i], off_label, row)
        candidates = [off_label] if off_label is not None else []
        if combined:
            h = host[i]
            candidates += [(ch + h, cloads, ccut)
                           for ch, cloads, ccut in combined]
        return settle(candidates, row)

    child_labels = [labels_of(j) for j in kids[0]]
    if not all(child_labels):
        return [], stats        # everything provably at/above the incumbent
    combined = combine_children(0, child_labels)
    # h_root folded in: the root row has potential 0 and no colour floors,
    # so the bound check compares the exact objective to the incumbent
    final = (0.0, 0.0)
    if combined and n and len(combined) >= _STREAM_MIN_LABELS:
        return finish_fold(combined, host[0], None, final), stats
    return settle([(ch + host[0], cloads, ccut)
                   for ch, cloads, ccut in combined], final), stats


# --------------------------------------------------------------------------
# Public entry points.
# --------------------------------------------------------------------------
def _objective(label: _Label, weighting: SSBWeighting) -> float:
    return weighting.combine(label[0], max(label[1]) if label[1] else 0.0)


def _select(labels: Sequence[_Label], weighting: SSBWeighting) -> _Label:
    return min(labels, key=lambda lab: _objective(lab, weighting))


def _greedy_fallback(problem: AssignmentProblem, weighting: SSBWeighting,
                     interrupted: str, context: Optional[SolveContext]
                     ) -> Tuple[Assignment, Dict[str, object]]:
    """Feasible anytime answer when the DP was interrupted mid-kernel.

    The tree DP holds no usable partial solution (its labels only become
    assignments at the root), so an interrupted DP returns the greedy
    module's maximal-offload cut: built in one pass, with no climb, since
    the context has already fired.
    """
    from repro.baselines.greedy import maximal_offload_assignment

    assignment = maximal_offload_assignment(problem)
    objective = weighting.combine(assignment.host_load(),
                                  assignment.max_satellite_load())
    if context is not None:
        context.report_incumbent(objective, source="greedy-fallback")
    return assignment, {
        "objective": objective,
        "interrupted": interrupted,
        "fallback": "greedy",
    }


def _dp_profile(stats: Dict[str, int],
                beam_stats: Optional[Dict[str, int]] = None
                ) -> Dict[str, object]:
    """Bound-effectiveness profile of one DP run (flat scalars).

    The DP prunes with a single completion bound (state potential plus load
    floors — a floor-type bound), so ``pruned_floor`` carries all of its
    rejections; the colour/Lagrangian/meet slots exist only in the label
    sweep.  The counters are the exact pass's; a cold run, which ran the
    beam pre-pass first, adds that pass's ``beam_labels_created``.
    """
    profile: Dict[str, object] = {
        "engine": "pareto-dp",
        "labels_created": stats["created"],
        "labels_dominated": stats["dominated"],
        "pruned_floor": stats["bound_rejected"],
        "pruned_colour": 0,
        "pruned_lagrange": 0,
        "pruned_meet": 0,
        "pruned_total": stats["bound_rejected"],
        "frontier_peak": stats["peak_frontier"],
        "settle_batches": stats["drains"],
        "nodes_swept": stats["drains"],
    }
    if beam_stats is not None:
        profile["beam_labels_created"] = beam_stats["created"]
    return profile


def pareto_dp_pruned_assignment(problem: AssignmentProblem,
                                weighting: Optional[SSBWeighting] = None,
                                max_frontier: Optional[int] = None,
                                beam_width: int = _PRUNED_BEAM_WIDTH,
                                context: Optional[SolveContext] = None,
                                incumbent: Optional[float] = None
                                ) -> Tuple[Assignment, Dict[str, object]]:
    """Exact optimum via the frontier-pruned DP (scattered ``n=30`` regime).

    Two passes over the same DP kernel: a beam pre-pass (frontiers truncated
    to the ``beam_width`` labels of best completion bound) finds a feasible
    incumbent, then the exact pass prunes every label whose completion
    potential proves it cannot beat that incumbent.  The optimum either
    strictly beats the incumbent — then the exact pass finds it — or equals
    it, in which case the pre-pass label is already optimal.  ``max_frontier``
    stays as a true safety valve; it should only fire on instances whose
    *pruned* frontiers still explode.

    ``incumbent`` is the refutation mode of the portfolio's cross-check: the
    objective of an assignment the caller already holds.  The beam pre-pass
    is skipped and the one exact pass is bounded by ``incumbent`` widened by
    ``_INCUMBENT_SLACK``, so it only has to show that nothing beats the
    caller's answer — and returns the best label at or below it, the
    optimum.  An empty bounded pass claims that nothing reaches an objective
    the caller holds, a contradiction: the DP then re-solves cold (beam,
    then exact) and returns its own optimum.  ``details["incumbent_reached"]``
    records which happened.

    Anytime behaviour under a ``context``: an interruption during the beam
    pre-pass or the bounded refutation pass returns the maximal-offload cut
    (``details["fallback"] == "greedy"``, no climb); one during the cold
    exact pass returns the beam incumbent — all are valid feasible
    assignments, flagged via ``details["interrupted"]``.
    """
    weighting = weighting or SSBWeighting()
    if beam_width < 1:
        raise ValueError("beam_width must be at least 1")
    lam_s, lam_b = weighting.lambda_s, weighting.lambda_b
    kids, host, offload, mins = _subtree_minima(problem, lam_s, lam_b)
    states, opts = _completion_potentials(kids, host, mins, lam_s)

    def run(**kwargs) -> Tuple[List[_Label], Dict[str, int]]:
        return _dp_labels(problem, kids, host, offload, states, opts,
                          lam_s=lam_s, lam_b=lam_b, context=context, **kwargs)

    def exact(bound: float) -> Tuple[List[_Label], Dict[str, int]]:
        return run(max_frontier=max_frontier, bound=bound)

    extra: Dict[str, object] = {}
    if incumbent is not None:
        try:
            exact_labels, stats = exact(incumbent * _INCUMBENT_SLACK)
        except SolveInterrupted as exc:
            return _greedy_fallback(problem, weighting, exc.kind, context)
        if exact_labels:
            return _finish(problem, weighting,
                           _select(exact_labels, weighting), {
                               "incumbent_reached": True,
                               **_exact_details(exact_labels, stats)})
        extra["incumbent_reached"] = False

    try:
        beam_labels, beam_stats = run(beam_width=beam_width)
    except SolveInterrupted as exc:
        return _greedy_fallback(problem, weighting, exc.kind, context)
    if not beam_labels:
        raise RuntimeError("the instance admits no feasible assignment")
    beam_best = _select(beam_labels, weighting)
    beam_objective = _objective(beam_best, weighting)
    if context is not None:
        context.report_incumbent(beam_objective, source="dp-beam")
    extra["beam_objective"] = beam_objective

    try:
        exact_labels, stats = exact(beam_objective)
    except SolveInterrupted as exc:
        return _finish(problem, weighting, beam_best, {
            "interrupted": exc.kind, "beam_confirmed": False, **extra})
    best, beaten = beam_best, False
    if exact_labels:
        # anything left strictly beat the pre-pass incumbent's bound; keep
        # the incumbent unless the best of it really is strictly better
        candidate = _select(exact_labels, weighting)
        if _objective(candidate, weighting) < beam_objective:
            best, beaten = candidate, True
    return _finish(problem, weighting, best, {
        "beam_confirmed": not beaten, **extra,
        **_exact_details(exact_labels, stats, beam_stats)})


def _exact_details(labels: Sequence[_Label], stats: Dict[str, int],
                   beam_stats: Optional[Dict[str, int]] = None
                   ) -> Dict[str, object]:
    """Work counters of one exact pass, for the solver details."""
    return {
        "frontier_size": len(labels),
        "peak_frontier": stats["peak_frontier"],
        "labels_dominated": stats["dominated"],
        "labels_bound_pruned": stats["bound_rejected"],
        "profile": _dp_profile(stats, beam_stats),
    }


def _finish(problem: AssignmentProblem, weighting: SSBWeighting,
            best: _Label, extra: Dict[str, object]
            ) -> Tuple[Assignment, Dict[str, object]]:
    host_time, loads, cut = best
    offloaded = [c for c in cut if problem.tree.cru(c).is_processing]
    assignment = Assignment.from_cut(problem, offloaded)
    details: Dict[str, object] = {
        "objective": _objective(best, weighting),
        "host_time": host_time,
        "max_load": max(loads) if loads else 0.0,
    }
    details.update(extra)
    return assignment, details
