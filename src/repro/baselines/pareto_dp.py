"""Bound-pruned exact Pareto dynamic program on the CRU tree.

An independent exact solver, used as the portfolio's cross-check engine and
to validate the paper's algorithm on instances too large for brute force.
For every subtree (processed in post-order) it maintains a set of
Pareto-optimal cost labels

``(host time contributed by the subtree, per-satellite load vector, cut)``

where the load vector records, for every satellite, the execution plus uplink
time the subtree's cut contributes to it.  Combining children is additive in
every component; dominated labels (componentwise ≥ another label) are pruned
via the shared :class:`~repro.core.frontier.ParetoStore` (σ-sorted, exact,
O(log F) staircase inserts on single-satellite instances).  At the root the
label minimising ``λ_S · host + λ_B · max(load)`` is selected — with the
default weighting this is exactly the end-to-end delay.

The full frontier blows up combinatorially on scattered instances around
``n_processing >= 30``, so the one entry point,
:func:`pareto_dp_pruned_assignment`, never materialises it: per-node
frontiers are pruned by a **completion potential** (the minimum host time
the rest of the tree must still add — one parents-first walk over the DP's
states in :func:`_completion_potentials`, whose per-subtree weights come
from one children-first walk in :func:`_subtree_minima`, together with the
joint and per-colour floors) against an **incumbent** found by a beam
pre-pass over the same DP.  A label whose ``λ_S·(host + potential) +
λ_B·max(load)`` reaches the incumbent cannot end in a better assignment
(loads only grow, host grows by at least the potential) and is dropped
before it multiplies through the cross products.  The returned assignment
is still exactly optimal — the pre-pass incumbent is feasible, and only
provably-not-better labels are discarded.

The DP makes no use of the assignment graph, the colouring or the SSB search
(its bounds come from the CRU tree alone), so agreement with
:mod:`repro.core.colored_ssb` on random instances is strong evidence that
both are correct — the differential harness in ``tests/test_differential.py``
pins exactly that, and a MILP model that shares no code with either
(``tests/milp_oracle.py``) checks both.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.assignment import Assignment
from repro.core.context import SolveContext, SolveInterrupted
from repro.core.dwg import SSBWeighting
from repro.core.frontier import ParetoStore, pareto_block_mask
from repro.model.problem import AssignmentProblem

_INF = float("inf")

# A DP label is (host_time, per-satellite load tuple, cut tuple).
_Label = Tuple[float, Tuple[float, ...], Tuple[str, ...]]


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

#: Streamed cross products: folds with at least this many candidate pairs
#: run through the vectorised chunked kernel instead of the per-pair python
#: loop; each chunk materialises at most this many pairs.
_STREAM_MIN_PAIRS = 2048
_STREAM_CHUNK_PAIRS = 1 << 18
#: label-list size past which the host-time fold at a node bypasses the
#: per-row ParetoStore inserts (O(frontier²) python) for the vectorised
#: ``finish_fold`` tail.
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
# Subtree minima: what each subtree must still add, from one post-order walk.
# --------------------------------------------------------------------------
def _subtree_minima(problem: AssignmentProblem, lam_s: float, lam_b: float
                    ) -> Tuple[Dict[str, Tuple[int, float]], Dict[str, float],
                               Dict[str, float], List[Dict[str, float]]]:
    """The DP's offload table and its three bound tables, in one walk.

    Every subtree ``u`` below the root is either offloaded — its whole load
    ``β_u`` (satellite time of its processing CRUs plus the uplink to its
    parent) lands on its one correspondent satellite — or, for a
    processing CRU, run on the host, paying ``h_u`` plus its children's
    own shares.  One children-first walk computes, per subtree:

    * ``offload[u] = (colour, β_u)`` — the colour index of the
      correspondent satellite; absent when ``u`` has none;
    * ``minhost[u] = min(0 if offloadable, h_u + Σ minhost(children))`` —
      the minimum host time, the σ weight of the completion walk;
    * ``joint[u] = min(λ_B·β_u/n, λ_S·h_u + Σ joint(children))`` — an
      offload raises the load sum by ``β_u`` and hence the max load by at
      least ``β_u/n``, so this is an additive lower bound on the
      ``λ_S·σ + λ_B·max-load`` still owed by ``u`` (the DP-side analogue of
      the label engine's joint σ/β potential);
    * ``per_colour[c][u]`` — the cheapest of paying ``λ_B·β_u`` on colour
      ``c`` (offload to a colour-``c`` satellite), nothing on ``c``
      (offload elsewhere) or ``λ_S·h_u`` plus the children's floors (host):
      an additive lower bound on ``λ_S·σ + λ_B·load_c`` still owed by ``u``.
      Offloading is colour-pinned, so unlike the joint bound this does not
      dilute offloaded mass by ``1/n``.

    ``inf`` marks a subtree with no feasible option.
    """
    tree = problem.tree
    sat_index = {sid: i for i, sid in enumerate(problem.system.satellite_ids())}
    dim = len(sat_index)
    inv = 1.0 / dim if dim else 0.0
    offload: Dict[str, Tuple[int, float]] = {}
    minhost: Dict[str, float] = {}
    joint: Dict[str, float] = {}
    per_colour: List[Dict[str, float]] = [{} for _ in range(dim)]
    root = tree.root_id
    for u in reversed(tree.cru_ids()):      # children before parents
        if u == root:
            continue
        sat = problem.correspondent_satellite(u)
        off_host = off_joint = _INF
        off_colour = [_INF] * dim
        if sat is not None:
            beta = sum(problem.satellite_time(i) for i in tree.subtree_ids(u)
                       if tree.cru(i).is_processing)
            beta += problem.comm_cost(u, tree.parent_id(u))
            colour = sat_index[sat]
            offload[u] = (colour, beta)
            off_host = 0.0
            off_joint = lam_b * beta * inv
            off_colour = [0.0] * dim
            off_colour[colour] = lam_b * beta
        host = host_joint = _INF
        host_colour = [_INF] * dim
        if tree.cru(u).is_processing:
            children = tree.children_ids(u)
            host = problem.host_time(u)
            h = lam_s * host
            host_joint = h
            for child in children:
                host += minhost[child]
                host_joint += joint[child]
            host_colour = [h + sum(table[child] for child in children)
                           for table in per_colour]
        minhost[u] = off_host if off_host < host else host
        joint[u] = off_joint if off_joint < host_joint else host_joint
        for table, off, on_host in zip(per_colour, off_colour, host_colour):
            table[u] = off if off < on_host else on_host
    return offload, minhost, joint, per_colour


def _completion_potentials(problem: AssignmentProblem,
                           minhost: Dict[str, float],
                           host_scale: float = 1.0
                           ) -> Tuple[Dict[Tuple[str, int], float],
                                      Dict[str, float]]:
    """Lower bounds on the host time still missing from a partial DP label.

    The DP's states form a DAG: ``(u, i)`` means "the first ``i`` children of
    processing CRU ``u`` are folded into the label".  Each state has exactly
    one way forward — fold the next child (weight ``minhost(child)``), or,
    once complete, add ``h_u`` and join the parent's combination after the
    already-folded elder siblings (weight ``h_u + Σ elder minhost``); the
    root's complete state adds ``h_root`` and finishes.  The min σ from a
    state to the finish is therefore that single step's weight plus the
    next state's potential, and every feasible assignment containing a
    label of state ``(u, i)`` pays at least that much additional host time.

    One parents-first (pre-order) walk computes them all: a node's complete
    state continues into its parent's states, which are already known, and
    its own states follow right to left from the complete one.

    Returns ``(pot_state, pot_opt)``: per DP state, and per tree node for
    labels sitting in a node's finished option frontier (offload or
    host-combined) awaiting their fold into the parent.

    ``minhost`` doubles as a generic per-subtree weight oracle: with the
    joint or a per-colour table of :func:`_subtree_minima` and
    ``host_scale=λ_S`` the same walk yields the potentials (objective
    units) behind the avg-load and per-colour bounds.
    """
    tree = problem.tree
    pot_state: Dict[Tuple[str, int], float] = {}
    pot_opt: Dict[str, float] = {}
    prefix_sums: Dict[str, float] = {}   # node -> Σ minhost of elder siblings
    next_pot: Dict[str, float] = {}      # node -> pot of the parent state after it
    for u in tree.processing_ids():
        children = tree.children_ids(u)
        weight = host_scale * problem.host_time(u)
        if u == tree.root_id:
            pot = weight + 0.0
        else:
            pot = (weight + prefix_sums[u]) + next_pot[u]
        pots = [pot]
        for child in reversed(children):
            pot = minhost[child] + pot
            pots.append(pot)
        pots.reverse()
        running = 0.0
        for i, child in enumerate(children):
            pot_state[(u, i)] = pots[i]
            prefix_sums[child] = running
            next_pot[child] = pots[i + 1]
            pot_opt[child] = pots[i + 1] + running
            running += minhost[child]
        pot_state[(u, len(children))] = pots[-1]
    return pot_state, pot_opt


# --------------------------------------------------------------------------
# The DP kernel, shared by the beam pre-pass and the exact pass.
# --------------------------------------------------------------------------
def _dp_labels(problem: AssignmentProblem,
               offload: Dict[str, Tuple[int, float]], *,
               max_frontier: Optional[int] = None,
               pot_state: Optional[Dict[Tuple[str, int], float]] = None,
               pot_opt: Optional[Dict[str, float]] = None,
               jpot_state: Optional[Dict[Tuple[str, int], float]] = None,
               jpot_opt: Optional[Dict[str, float]] = None,
               cpot_state: Optional[List[Dict[Tuple[str, int], float]]] = None,
               cpot_opt: Optional[List[Dict[str, float]]] = None,
               bound: float = _INF,
               lam_s: float = 1.0, lam_b: float = 1.0,
               beam_width: Optional[int] = None,
               context: Optional[SolveContext] = None,
               profile=None,
               ) -> Tuple[List[_Label], Dict[str, int]]:
    """Run the tree DP; returns the root frontier labels plus prune counters.

    ``offload`` is the ``(colour, β_u)`` table of :func:`_subtree_minima`.
    Inserts go through :meth:`ParetoStore.insert_bounded` (labels provably
    at or above ``bound`` are dropped), and ``beam_width`` truncates every
    frontier to the labels of best completion bound — the heuristic pre-pass
    whose best root label seeds the exact pass's incumbent.  Every caller
    passes a finite ``bound`` or a ``beam_width``.

    ``context`` is polled once per tree node and once per cross-product row
    (the two loop granularities that dominate the runtime); when it fires the
    kernel raises the matching :class:`SolveInterrupted` — the DP holds no
    usable partial answer, so the entry points translate the interruption
    into their own feasible fallbacks.
    """
    tree = problem.tree
    n = len(problem.system.satellite_ids())
    pot_state = pot_state or {}
    pot_opt = pot_opt or {}
    # joint σ/β bound: λ_S·σ + λ_B·(Σ loads)/n + jpot ≤ the label's best
    # completion (the max load is at least the average); prunes only with a
    # finite incumbent, but the beam pre-pass still ranks by it
    have_joint = (jpot_state is not None and jpot_opt is not None and n > 0)
    joint = have_joint and bound != _INF
    inv_n = 1.0 / n if n else 0.0
    # per-colour floors: λ_S·σ + λ_B·load_c + cpot_c ≤ the label's best
    # completion for every colour c — tighter than the avg bound whenever
    # the remaining offloads concentrate on few colours
    have_colour = (cpot_state is not None and cpot_opt is not None and n > 0)
    colour = have_colour and bound != _INF

    def cpots(key, table) -> Optional[Tuple[float, ...]]:
        if not have_colour:
            return None
        return tuple(table[c].get(key, 0.0) for c in range(n))

    def beam_key(pot: float, jpot: float,
                 cpot: Optional[Tuple[float, ...]]):
        """Best-completion estimate used to rank beam survivors: the max of
        every admissible floor available.  A sharper rank keeps the labels
        the exact pass would keep, so a narrow beam lands a near-optimal
        incumbent."""
        def key(lab: _Label) -> float:
            sig, loads = lab[0], lab[1]
            est = lam_s * (sig + pot) + \
                lam_b * (max(loads) if loads else 0.0)
            if have_joint:
                alt = lam_s * sig + lam_b * sum(loads) * inv_n + jpot
                if alt > est:
                    est = alt
            if cpot is not None:
                base = lam_s * sig
                for c in range(n):
                    alt = base + lam_b * loads[c] + cpot[c]
                    if alt > est:
                        est = alt
            return est
        return key
    stats = {"created": 0, "dominated": 0, "evicted": 0, "bound_rejected": 0,
             "peak_frontier": 0, "drains": 0}

    def drain(store: ParetoStore, pot: float, node=None,
              jpot: float = 0.0,
              cpot: Optional[Tuple[float, ...]] = None) -> List[_Label]:
        stats["dominated"] += store.dominated
        stats["evicted"] += store.evicted
        stats["bound_rejected"] += store.bound_rejected
        stats["drains"] += 1
        if len(store) > stats["peak_frontier"]:
            stats["peak_frontier"] = len(store)
        if profile is not None and node is not None:
            profile.record_node(
                node,
                created=len(store) + store.dominated + store.bound_rejected,
                dominated=store.dominated + store.evicted,
                pruned_floor=store.bound_rejected,
                frontier=len(store), settle_batches=1)
        labels: List[_Label] = [(s, loads, cut) for s, loads, cut in store]
        if beam_width is not None and len(labels) > beam_width:
            labels.sort(key=beam_key(pot, jpot, cpot))
            del labels[beam_width:]
        return labels

    def insert(store: ParetoStore, label: _Label, pot: float,
               jpot: float = 0.0,
               cpot: Optional[Tuple[float, ...]] = None) -> None:
        stats["created"] += 1
        if joint and lam_s * label[0] + lam_b * sum(label[1]) * inv_n \
                + jpot >= bound:
            stats["bound_rejected"] += 1
            return
        if colour and cpot is not None:
            sig = lam_s * label[0]
            for c in range(n):
                if sig + lam_b * label[1][c] + cpot[c] >= bound:
                    stats["bound_rejected"] += 1
                    return
        kept = store.insert_bounded(label[0], label[1], label[2],
                                    potential=pot, bound=bound,
                                    lambda_s=lam_s, lambda_b=lam_b)
        if kept and max_frontier is not None and len(store) > max_frontier:
            raise FrontierExplosion(
                len(store), max_frontier,
                labels_created=stats["created"],
                peak_frontier=max(stats["peak_frontier"], len(store)))

    def offload_label(cru_id: str) -> Optional[_Label]:
        if cru_id not in offload:
            return None
        colour, beta = offload[cru_id]
        loads = [0.0] * n
        loads[colour] = beta
        return (0.0, tuple(loads), (cru_id,))

    def combine_fold_stream(cru_id: str, i: int, acc: List[_Label],
                            labels: List[_Label], pot: float,
                            jpot: float = 0.0,
                            cpot: Optional[Tuple[float, ...]] = None
                            ) -> List[_Label]:
        """One child fold as a chunked, vectorised cross product.

        Identical semantics to the per-pair loop below — every candidate
        pair counts as created, the completion bound drops pairs first
        (``bound_rejected``), dominance is the exact componentwise filter of
        :meth:`ParetoStore.insert` via :func:`pareto_block_mask`, and the
        frontier cap raises :class:`FrontierExplosion` — but the ``A x B``
        product streams through bounded-size chunks of float arrays instead
        of materialising per-pair python tuples, and the cut tuples are
        built only for the rows that survive both filters.
        """
        A, B = len(acc), len(labels)
        base = (stats["created"], stats["dominated"],
                stats["bound_rejected"])
        ah = np.array([lab[0] for lab in acc])
        al = np.array([lab[1] for lab in acc]).reshape(A, n)
        bh = np.array([lab[0] for lab in labels])
        bl = np.array([lab[1] for lab in labels]).reshape(B, n)
        cp = np.asarray(cpot) if cpot is not None else None
        rows = max(1, _STREAM_CHUNK_PAIRS // B)
        sigs: List[object] = []
        loads: List[object] = []
        pairs: List[object] = []
        for a0 in range(0, A, rows):
            if context is not None:
                context.checkpoint()
            a1 = min(a0 + rows, A)
            hs = (ah[a0:a1, None] + bh[None, :]).ravel()
            ld = (al[a0:a1, None, :] + bl[None, :, :]).reshape(-1, n)
            stats["created"] += len(hs)
            if bound != _INF:
                obj = lam_s * (hs + pot) + lam_b * ld.max(axis=1)
                keep = obj < bound
                if joint:
                    keep &= lam_s * hs + lam_b * ld.sum(axis=1) * inv_n \
                        + jpot < bound
                if cp is not None:
                    keep &= (lam_s * hs[:, None] + lam_b * ld
                             + cp[None, :] < bound).all(axis=1)
                kept = int(keep.sum())
                stats["bound_rejected"] += len(hs) - kept
                if not kept:
                    continue
                idx = np.nonzero(keep)[0]
                hs, ld = hs[idx], ld[idx]
            else:
                idx = np.arange(len(hs))
            if len(hs) > 1:
                # chunk-local dominance filter keeps the accumulation small
                mask = pareto_block_mask(hs, ld, window=_STREAM_MASK_WINDOW)
                drop = len(hs) - int(mask.sum())
                if drop:
                    stats["dominated"] += drop
                    hs, ld, idx = hs[mask], ld[mask], idx[mask]
            sigs.append(hs)
            loads.append(ld)
            pairs.append(idx + a0 * B)     # chunk-flat -> product-flat index
        if sigs:
            sig = np.concatenate(sigs)
            ld = np.concatenate(loads)
            pair = np.concatenate(pairs)
            if len(sigs) > 1 and len(sig) > 1:
                mask = pareto_block_mask(sig, ld, window=_STREAM_MASK_WINDOW)
                drop = len(sig) - int(mask.sum())
                if drop:
                    stats["dominated"] += drop
                    sig, ld, pair = sig[mask], ld[mask], pair[mask]
        else:
            sig = ld = pair = ()
        if max_frontier is not None and len(sig) > max_frontier:
            raise FrontierExplosion(
                len(sig), max_frontier,
                labels_created=stats["created"],
                peak_frontier=max(stats["peak_frontier"], len(sig)))
        stats["drains"] += 1
        if len(sig) > stats["peak_frontier"]:
            stats["peak_frontier"] = len(sig)
        if profile is not None:
            profile.record_node(
                f"{cru_id}/{i + 1}",
                created=stats["created"] - base[0],
                dominated=stats["dominated"] - base[1],
                pruned_floor=stats["bound_rejected"] - base[2],
                frontier=len(sig), settle_batches=1)
        out: List[_Label] = []
        for s, lo, p in zip(sig, ld, pair):
            ai, bi = divmod(int(p), B)
            out.append((float(s), tuple(lo.tolist()),
                        acc[ai][2] + labels[bi][2]))
        if beam_width is not None and len(out) > beam_width:
            out.sort(key=beam_key(pot, jpot, cpot))
            del out[beam_width:]
        return out

    def combine_children(cru_id: str,
                         children_labels: Sequence[List[_Label]]
                         ) -> List[_Label]:
        acc: List[_Label] = [(0.0, (0.0,) * n, ())]
        for i, labels in enumerate(children_labels):
            if (max_frontier is not None
                    and len(acc) * len(labels)
                    > _CANDIDATE_FACTOR * max_frontier):
                # abort before materialising the cross product at all
                raise FrontierExplosion(len(acc) * len(labels), max_frontier,
                                        labels_created=stats["created"],
                                        peak_frontier=stats["peak_frontier"])
            pot = pot_state.get((cru_id, i + 1), 0.0)
            jpot = jpot_state.get((cru_id, i + 1), 0.0) \
                if have_joint else 0.0
            cpot = cpots((cru_id, i + 1), cpot_state)
            if n and len(acc) * len(labels) >= _STREAM_MIN_PAIRS:
                acc = combine_fold_stream(cru_id, i, acc, labels, pot,
                                          jpot, cpot)
                continue
            store = ParetoStore(n)
            for ah, aloads, acut in acc:
                if context is not None:
                    context.checkpoint()
                for bh, bloads, bcut in labels:
                    insert(store,
                           (ah + bh,
                            tuple(x + y for x, y in zip(aloads, bloads)),
                            acut + bcut),
                           pot, jpot, cpot)
            acc = drain(store, pot, node=f"{cru_id}/{i + 1}",
                        jpot=jpot, cpot=cpot)
        return acc

    def finish_fold(node: str, combined: List[_Label], h: float,
                    offload: Optional[_Label], pot: float,
                    jpot: float = 0.0,
                    cpot: Optional[Tuple[float, ...]] = None
                    ) -> List[_Label]:
        """Vectorised tail of :func:`labels_of`: fold the host time into an
        already Pareto-filtered label list, apply the completion bound, and
        merge the (single) offload label.  The per-row ``insert`` loop is
        O(frontier²) python exactly where the stream fold just spent effort
        keeping the frontier flat; adding the constant ``h`` to every σ
        leaves dominance unchanged, so no re-filter is needed beyond the
        offload cross-check."""
        base = (stats["created"], stats["dominated"],
                stats["bound_rejected"])
        hs = np.array([lab[0] for lab in combined]) + h
        ld = np.array([lab[1] for lab in combined]).reshape(-1, n)
        stats["created"] += len(combined)
        keep = np.ones(len(combined), dtype=bool)
        if bound != _INF:
            obj = lam_s * (hs + pot) + lam_b * ld.max(axis=1)
            keep &= obj < bound
            if joint:
                keep &= lam_s * hs + lam_b * ld.sum(axis=1) * inv_n \
                    + jpot < bound
            if cpot is not None:
                cp = np.asarray(cpot)
                keep &= (lam_s * hs[:, None] + lam_b * ld
                         + cp[None, :] < bound).all(axis=1)
            stats["bound_rejected"] += len(combined) - int(keep.sum())
        keep_off = False
        if offload is not None:
            stats["created"] += 1
            oh, ol = offload[0], np.asarray(offload[1], dtype=np.float64)
            keep_off = True
            if bound != _INF and (
                    lam_s * (oh + pot) + lam_b * float(ol.max()) >= bound
                    or (joint and lam_s * oh + lam_b * float(ol.sum())
                        * inv_n + jpot >= bound)
                    or (cpot is not None and any(
                        lam_s * oh + lam_b * float(ol[c]) + cpot[c] >= bound
                        for c in range(n)))):
                stats["bound_rejected"] += 1
                keep_off = False
            if keep_off:
                # the offload label sits first in insertion order, so exact
                # ties go to it — mirrored by `<=` in both directions here
                dom_off = ((oh <= hs) & (ol[None, :] <= ld).all(axis=1)
                           & keep)
                dropped = int(dom_off.sum())
                if dropped:
                    stats["dominated"] += dropped
                    keep &= ~dom_off
                beats = ((hs <= oh) & (ld <= ol[None, :]).all(axis=1)
                         & keep)
                if bool(beats.any()):
                    stats["dominated"] += 1
                    keep_off = False
        idx = np.nonzero(keep)[0]
        labels: List[_Label] = [offload] if keep_off else []
        labels += [(float(hs[i]), tuple(ld[i].tolist()), combined[i][2])
                   for i in idx.tolist()]
        if max_frontier is not None and len(labels) > max_frontier:
            raise FrontierExplosion(
                len(labels), max_frontier,
                labels_created=stats["created"],
                peak_frontier=max(stats["peak_frontier"], len(labels)))
        stats["drains"] += 1
        if len(labels) > stats["peak_frontier"]:
            stats["peak_frontier"] = len(labels)
        if profile is not None:
            profile.record_node(
                node,
                created=stats["created"] - base[0],
                dominated=stats["dominated"] - base[1],
                pruned_floor=stats["bound_rejected"] - base[2],
                frontier=len(labels), settle_batches=1)
        if beam_width is not None and len(labels) > beam_width:
            labels.sort(key=beam_key(pot, jpot, cpot))
            del labels[beam_width:]
        return labels

    def labels_of(cru_id: str) -> List[_Label]:
        if context is not None:
            context.checkpoint()
        pot = pot_opt.get(cru_id, 0.0)
        jpot = jpot_opt.get(cru_id, 0.0) if have_joint else 0.0
        cpot = cpots(cru_id, cpot_opt)
        off_label = offload_label(cru_id)
        combined: Optional[List[_Label]] = None
        if tree.cru(cru_id).is_processing:
            children = tree.children_ids(cru_id)
            child_labels = [labels_of(c) for c in children]
            if all(child_labels):
                combined = combine_children(cru_id, child_labels)
        if combined and n and len(combined) >= _STREAM_MIN_LABELS:
            return finish_fold(cru_id, combined, problem.host_time(cru_id),
                               off_label, pot, jpot, cpot)
        store = ParetoStore(n)
        if off_label is not None:
            insert(store, off_label, pot, jpot, cpot)
        if combined:
            h = problem.host_time(cru_id)
            for ch, cloads, ccut in combined:
                insert(store, (ch + h, cloads, ccut), pot, jpot, cpot)
        return drain(store, pot, node=cru_id, jpot=jpot, cpot=cpot)

    root = tree.root_id
    root_children = tree.children_ids(root)
    child_labels = [labels_of(c) for c in root_children]
    if not all(child_labels):
        return [], stats        # everything provably at/above the incumbent
    combined = combine_children(root, child_labels)
    h_root = problem.host_time(root)
    # h_root folded in: the completion potential of a final label is 0,
    # so the bound check compares the exact objective to the incumbent
    if combined and n and len(combined) >= _STREAM_MIN_LABELS:
        return finish_fold(root, combined, h_root, None, 0.0), stats
    store = ParetoStore(n)
    for ch, cloads, ccut in combined:
        insert(store, (ch + h_root, cloads, ccut), 0.0)
    return drain(store, 0.0, node=root), stats


# --------------------------------------------------------------------------
# Public entry points.
# --------------------------------------------------------------------------
def _select(labels: Sequence[_Label], weighting: SSBWeighting) -> _Label:
    return min(labels, key=lambda lab: weighting.combine(
        lab[0], max(lab[1]) if lab[1] else 0.0))


def _greedy_fallback(problem: AssignmentProblem, weighting: SSBWeighting,
                     interrupted: str, context: Optional[SolveContext]
                     ) -> Tuple[Assignment, Dict[str, object]]:
    """Feasible anytime answer when the DP was interrupted mid-kernel.

    The tree DP holds no usable partial solution (its labels only become
    assignments at the root), so the best-so-far incumbent of an interrupted
    DP is the near-instant greedy hill-climb — run context-free: the context
    already fired.
    """
    from repro.baselines.greedy import greedy_assignment

    assignment, greedy_details = greedy_assignment(problem)
    objective = weighting.combine(assignment.host_load(),
                                  assignment.max_satellite_load())
    if context is not None:
        context.report_incumbent(objective, source="greedy-fallback")
    return assignment, {
        "objective": objective,
        "interrupted": interrupted,
        "fallback": "greedy",
        "greedy_steps": greedy_details["steps"],
    }


def _span_profile(context: Optional[SolveContext]):
    """The active span's profile accumulator on a traced solve, else None."""
    if context is None:
        return None
    span = getattr(context, "span", None)
    if span is None:
        return None
    return span.ensure_profile("pareto-dp")


def _dp_profile(stats: Dict[str, int]) -> Dict[str, object]:
    """Bound-effectiveness profile of one DP run (flat scalars).

    The DP prunes with a single completion bound (state potential plus load
    floors — a floor-type bound), so ``pruned_floor`` carries all of its
    rejections; the joint/settle slots exist only in the label sweep.
    """
    return {
        "engine": "pareto-dp",
        "labels_created": stats["created"],
        "labels_dominated": stats["dominated"] + stats["evicted"],
        "pruned_floor": stats["bound_rejected"],
        "pruned_colour": 0,
        "pruned_joint": 0,
        "pruned_settle": 0,
        "pruned_meet": 0,
        "pruned_total": stats["bound_rejected"],
        "frontier_peak": stats["peak_frontier"],
        "settle_batches": stats["drains"],
        "nodes_swept": stats["drains"],
    }


def pareto_dp_pruned_assignment(problem: AssignmentProblem,
                                weighting: Optional[SSBWeighting] = None,
                                max_frontier: Optional[int] = None,
                                beam_width: int = _PRUNED_BEAM_WIDTH,
                                context: Optional[SolveContext] = None
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

    Anytime behaviour under a ``context``: an interruption during the beam
    pre-pass falls back to greedy; one during the exact pass returns the beam
    incumbent — both are valid feasible assignments, flagged via
    ``details["interrupted"]``.
    """
    weighting = weighting or SSBWeighting()
    if beam_width < 1:
        raise ValueError("beam_width must be at least 1")
    lam_s, lam_b = weighting.lambda_s, weighting.lambda_b
    offload, minhost, joint, per_colour = _subtree_minima(problem, lam_s,
                                                          lam_b)
    pot_state, pot_opt = _completion_potentials(problem, minhost)
    jpot_state = jpot_opt = cpot_state = cpot_opt = None
    if per_colour:
        jpot_state, jpot_opt = _completion_potentials(
            problem, joint, host_scale=lam_s)
        cpot_state, cpot_opt = [], []
        for pc in per_colour:
            st, op = _completion_potentials(problem, pc, host_scale=lam_s)
            cpot_state.append(st)
            cpot_opt.append(op)

    try:
        beam_labels, beam_stats = _dp_labels(
            problem, offload, pot_state=pot_state, pot_opt=pot_opt,
            jpot_state=jpot_state, jpot_opt=jpot_opt,
            cpot_state=cpot_state, cpot_opt=cpot_opt,
            lam_s=lam_s, lam_b=lam_b, beam_width=beam_width, context=context)
    except SolveInterrupted as exc:
        return _greedy_fallback(problem, weighting, exc.kind, context)
    if not beam_labels:
        raise RuntimeError("the instance admits no feasible assignment")
    incumbent = _select(beam_labels, weighting)
    incumbent_objective = weighting.combine(
        incumbent[0], max(incumbent[1]) if incumbent[1] else 0.0)
    if context is not None:
        context.report_incumbent(incumbent_objective, source="dp-beam")

    try:
        exact_labels, stats = _dp_labels(
            problem, offload, max_frontier=max_frontier,
            pot_state=pot_state, pot_opt=pot_opt,
            jpot_state=jpot_state, jpot_opt=jpot_opt,
            cpot_state=cpot_state, cpot_opt=cpot_opt,
            bound=incumbent_objective, lam_s=lam_s, lam_b=lam_b,
            context=context, profile=_span_profile(context))
    except SolveInterrupted as exc:
        return _finish(problem, weighting, incumbent, {
            "interrupted": exc.kind,
            "beam_objective": incumbent_objective,
            "beam_confirmed": False,
            "beam_labels_bound_pruned": beam_stats["bound_rejected"],
        })
    if exact_labels:
        best = _select(exact_labels, weighting)
        beaten = weighting.combine(
            best[0], max(best[1]) if best[1] else 0.0) < incumbent_objective
        if not beaten:
            best = incumbent
    else:
        # nothing beat the pre-pass incumbent strictly: it is the optimum
        best, beaten = incumbent, False
    return _finish(problem, weighting, best, {
        "frontier_size": len(exact_labels),
        "peak_frontier": stats["peak_frontier"],
        "labels_dominated": stats["dominated"],
        "labels_evicted": stats["evicted"],
        "labels_bound_pruned": stats["bound_rejected"],
        "beam_objective": incumbent_objective,
        "beam_confirmed": not beaten,
        "beam_labels_bound_pruned": beam_stats["bound_rejected"],
        "profile": _dp_profile(stats),
    })


def _finish(problem: AssignmentProblem, weighting: SSBWeighting,
            best: _Label, extra: Dict[str, object]
            ) -> Tuple[Assignment, Dict[str, object]]:
    host_time, loads, cut = best
    offloaded = [c for c in cut if problem.tree.cru(c).is_processing]
    assignment = Assignment.from_cut(problem, offloaded)
    details: Dict[str, object] = {
        "objective": weighting.combine(host_time,
                                       max(loads) if loads else 0.0),
        "host_time": host_time,
        "max_load": max(loads) if loads else 0.0,
    }
    details.update(extra)
    return assignment, details
