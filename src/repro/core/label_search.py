"""Label-dominance search for the optimal coloured-SSB path on a DAG.

The adapted SSB search of §5.4 needs an *exact finisher* whenever the paper's
Figure-9 expansion is inapplicable — scattered-sensor instances, where a
satellite's edges are not consecutive along the current path.  The original
finisher enumerated simple paths in non-decreasing σ order (Yen/Lawler),
whose cost grows with the number of feasible cuts and therefore explodes
around ``n_processing ≈ 20``.

The assignment graph, however, is a DAG whose edges strictly advance the face
index, which admits the classic multi-criteria labelling technique (used for
cost/complexity bounds in multi-context systems, Novák & Witteveen,
arXiv:1405.7295; combined with search-side bounding as in HS-CAI,
arXiv:1911.12716): sweep the nodes in topological order and propagate
*labels* ``(σ-so-far, per-colour load vector, predecessor)``.  Three
mechanisms keep the label sets small:

* **Bound pruning** — admissible completion bounds, all computed by one
  backward path-minima walk over the DAG, prune any label whose cheapest
  possible completion reaches the incumbent SSB candidate.  The primary
  bound is the **per-colour joint potential** ``potJc_c[v] = min_p
  (λ_S·σ(p) + λ_B·β_c(p))`` over ``v → T`` paths ``p``: a label
  ``(s, loads)`` at ``v`` completes for at least
  ``λ_S·s + max_c(λ_B·loads_c + potJc_c[v])``.  Because the min of a sum
  dominates the sum of the mins, this is always at least as tight as the
  older σ + per-colour-load floor bound ``λ_S·(s + pot[v]) +
  λ_B·max_c(loads_c + potβ_c[v])`` it replaces (``pot`` is kept for
  colourless graphs).  The second, incomparable check is the
  **Lagrangian bound** ``λ_S·s + λ_B·w·loads + potW[v]`` with ``potW[v] =
  min_p (λ_S·σ(p) + λ_B·w·β(p))``, admissible for every weighting ``w ≥
  0`` with ``Σw ≤ 1`` (``max_c β_c ≥ w·β``); when the exact pass runs,
  twenty multiplicative-weights ascent rounds and ten Polyak rounds aimed
  at the incumbent pick ``w`` to maximise the root bound ``potW[S]`` (the
  Lagrangian dual of the min-max objective, Fisher 1981; Held, Wolfe &
  Crowder 1974).  Its first round, uniform ``w``, is the joint
  average-load bound (the final bottleneck is at least the average colour
  load), so the picked ``w`` is never weaker at the root.  Both bounds
  are checked in one extension step, :func:`_extend`, that every sweep
  shares.  A cheap *beam* pre-pass (that step over the same array
  buckets as the exact pass, each truncated to the ``beam_width`` labels
  of smallest per-colour completion bound, no dominance) finds a strong
  feasible path first, so the exact pass starts with a tight incumbent —
  on scattered instances this cuts the surviving labels by an order of
  magnitude.  On small instances the beam usually proves that incumbent
  optimal outright: it loses labels only by truncating them, so when no
  truncated label passes that same step against the final incumbent, no
  path beats it and the exact pass is skipped (the *beam certificate*,
  ``LabelSearchStats.beam_certified``).  The weighting ``w`` is picked
  only after that certificate fails, and the certificate is asked again
  with the ``w``-bound before the exact pass runs — so certified solves
  pay nothing for it.  The root bound then aims the exact pass: when the
  incumbent is the search's own (seed or beam) path, the pass runs first
  bounded at the *midpoint probe*, 45% of the way from ``potW[S]`` up
  to that incumbent.  The pass is exact below its bound, so a path the
  probe finds is the optimum; an empty probe proves the optimum lies at or
  above it, and the pass reruns at the incumbent
  (``LabelSearchStats.exact_passes``).  The work a pass does falls
  steeply with its bound, and the root bound sits far closer to the
  optimum than the beam's incumbent on scattered instances.  A caller's
  incumbent is not probed below: callers pass one when they hold a
  likely optimum (a warm start, a finisher's candidate), and a probe
  below the optimum always misses.
* **Pareto dominance** — a label whose σ and *every* per-colour load are
  simultaneously ``>=`` another label's at the same node can never complete
  into a better path (suffixes add the same increments to both, and
  ``SSB = λ_S·S + λ_B·max_c load_c`` is monotone in each component), so it is
  dropped.  Colours are interned to indices and a node's labels live in
  numpy *array buckets*, so every bound check, the dominance filter
  (:func:`~repro.core.frontier.pareto_block_mask`, dominator set capped at
  ``dominance_window``) and every extension is one vectorised operation per
  (node, edge).  The window only lets some dominated labels survive — a
  kept dominated label costs time, never correctness.  The filter runs
  only on buckets where a new dominator can be: a bucket that arrived as
  one in-edge chunk no wider than the window is that edge's shift of a
  bucket already filtered at its tail (the same σ and β added to every row
  keep every pairwise comparison), and a meet-only bucket wider than
  ``_MEET_REDUCE_MIN`` goes to the join's join-space filter, which is
  coarser and wider-windowed.
* **Meeting in the middle** — the sweep is split at a topological meet
  rank ``K``: ranks strictly increase along every edge of a DAG, so each
  S → T path crosses *exactly one* edge whose tail ranks below ``K`` and
  whose head ranks at or above it.  One half-sweep kernel runs twice:
  forward from the source it builds prefix frontiers over the low-rank
  region, backward from the target suffix frontiers over the high-rank
  region (pruned with the mirrored potentials — the same path-minima walk
  run forward *from the source*), and the two meet at every crossing
  edge: the joined objective ``λ_S·(σ_f + σ_e + σ_b) + λ_B·max_c(load_f +
  β_e + load_b)`` is minimised over the frontier cross product in
  bounded-memory chunks, pre-filtered against the opposing frontier's
  componentwise minima and its ``w``-weighted minimum (rejections counted
  as ``pruned_meet``).
  Half-depth frontiers never materialise the deep-layer label populations
  that a full-depth sweep builds on scattered instances, so time and
  memory stay bounded where a single forward pass explodes.

Each half is a single pass: when a node is processed every label it will
ever receive is already present (all in-edges of the half come from earlier
nodes), so each surviving label is extended along each edge exactly once.
Exactly one crossing edge per path makes the join exhaustive, and the
winning path is re-accumulated in forward edge order, so the result is the
exact optimum — bit-identical to brute force — without ever enumerating
paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add as _add
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.context import SolveContext
from repro.core.dwg import (
    DoublyWeightedGraph,
    PathMeasures,
    SSBWeighting,
    SIGMA_ATTR,
)
from repro.core.frontier import pareto_block_mask
from repro.graphs.dag import DagIndex, NotADagError
from repro.graphs.digraph import Edge, Node
from repro.graphs.paths import Path

#: ``(created, dominated, pruned_colour, pruned_lagrange, frontier_peak,
#: settle_batches, pruned_meet, meet_edges)`` — the counter tuple the exact
#: pass returns; the bound-pruned total is the sum of the pruned_* slots.
#: Two passes' tuples add slot by slot, except ``frontier_peak`` (slot
#: ``_PEAK_SLOT``), which takes the larger.
_EMPTY_SWEEP_STATS = (0, 0, 0, 0, 0, 0, 0, 0)
_PEAK_SLOT = 4

#: Element budget of one meet-join chunk's working set: a forward chunk of
#: ``F`` labels against ``B`` backward labels is one ``F·B`` block, built a
#: colour at a time through one same-shape scratch buffer, so the forward
#: chunk size is ``_MEET_CHUNK_ELEMS / (2·B)``: ≈8 MB for block and buffer
#: together at the default.
_MEET_CHUNK_ELEMS = 1 << 20

#: Multiplicative-weights ascent rounds that pick the Lagrangian load
#: weighting ``w`` at the source (see :func:`_lagrange_bounds`); round ``t``
#: steps by ``_LAGRANGE_STEP / sqrt(t + 1)`` along the argmin path's loads,
#: scaled to its largest colour load.
_LAGRANGE_ROUNDS = 20
_LAGRANGE_STEP = 1.5
#: Projected-subgradient rounds that follow, aimed at the search's bound
#: (Polyak's step, see :func:`_lagrange_bounds`): each moves ``w`` by
#: ``_POLYAK_STEP`` times the step that would close the gap to that bound
#: if the dual were linear.
_POLYAK_ROUNDS = 10
_POLYAK_STEP = 0.5
#: A weighting is scaled to sum to this before use, so its floating-point
#: sum stays below 1 and ``w·loads`` below the largest load even after
#: rounding: the ``w``-bounds stay admissible in floating point.
_LAGRANGE_MASS = 1.0 - 2.0 ** -40

#: Where the exact pass probes first, as a share of the gap between the
#: Lagrangian root bound and the incumbent (see :func:`_probe_bound`).
#: Just under half: the Polyak rounds lift the root towards the optimum,
#: and the probe rises with it by ``1 − _PROBE_SHARE`` of that lift, so a
#: share of 0.45 leaves the probe about where a share of 0.5 put it above
#: the multiplicative-weights root alone.
_PROBE_SHARE = 0.45

#: Meet-frontier join-space reduction: sides above this size get a windowed
#: Pareto filter in (λ_S·σ + λ_B·load_c)-space before the pairwise product.
#: The window is larger than the halves' dominance window because every
#: dropped row saves a whole product column, not one label.
_MEET_REDUCE_MIN = 32
_MEET_REDUCE_WINDOW = 256
#: B-side group width for the join screen: per-group colour minima give a
#: lower bound per (chunk row, group) cell at 1/_MEET_GROUP the cost of the
#: exact product, and only surviving groups are evaluated exactly.
_MEET_GROUP = 512
#: prefix length for the settle-density probe in the half-sweeps:
#: buckets larger than 8x this are probed first and the full dominance mask
#: is skipped when the probe removes fewer than 1/64 of its rows.
_SETTLE_PROBE = 4096


@dataclass(frozen=True)
class LabelSearchStats:
    """Counters describing one label sweep (exposed via solver details).

    ``labels_bound_pruned`` is split by *which* completion bound fired:
    ``pruned_colour`` (the per-colour joint σ/β_c bound at extension time —
    the tightened replacement of the legacy floor bound),
    ``pruned_lagrange`` (the Lagrangian ``w``-bound at extension time, on
    labels the per-colour bound kept) and ``pruned_meet`` (labels the meet
    join's pre-filter rejected against the opposing frontier's minima).
    ``frontier_peak`` is the largest settled bucket and ``settle_batches``
    the number of buckets settled, whether or not the dominance filter ran
    on them.  These counters are the engine's only work record:
    :meth:`profile` turns them into ``details["profile"]``, and a traced
    solve's span carries that same dict.  ``lagrange_root`` is the
    Lagrangian root bound ``potW[S]`` the exact pass pruned with (``-inf``
    when no weighting was picked): its gap to the optimum explains a slow
    pass.
    ``exact_passes`` counts the exact passes run: 0 when the beam
    certified its incumbent, 1 when the midpoint probe found the optimum
    or no probe ran (one colour, or the caller's ``incumbent`` was the
    bound), 2 when the probe came back empty and the pass reran at the
    incumbent; the counters above sum over both, and ``nodes_swept`` is
    the DAG's node count times ``exact_passes`` (0 when certified).
    """

    labels_created: int = 0
    labels_dominated: int = 0
    labels_bound_pruned: int = 0
    nodes_swept: int = 0             #: DAG nodes times exact passes
    colors: int = 0
    beam_ssb: float = float("inf")   #: incumbent produced by the beam pre-pass
    pruned_colour: int = 0           #: per-colour joint σ/β_c bound rejections
    pruned_lagrange: int = 0         #: Lagrangian w-bound rejections
    pruned_meet: int = 0             #: meet-join pre-filter rejections
    meet_edges: int = 0              #: crossing edges joined
    frontier_peak: int = 0           #: largest bucket ever settled
    settle_batches: int = 0          #: buckets settled
    lagrange_root: float = float("-inf")  #: root bound potW[S]
    beam_certified: bool = False     #: the beam proved the bound; no exact pass
    exact_passes: int = 0            #: exact passes run (probe, then full)

    def profile(self) -> Dict[str, Any]:
        """The solve's ``details["profile"]`` (flat scalars), which a traced
        solve's span carries as is."""
        return {
            "engine": "label-search",
            "labels_created": self.labels_created,
            "labels_dominated": self.labels_dominated,
            "pruned_colour": self.pruned_colour,
            "pruned_lagrange": self.pruned_lagrange,
            "pruned_meet": self.pruned_meet,
            "meet_edges": self.meet_edges,
            "pruned_total": self.labels_bound_pruned,
            "frontier_peak": self.frontier_peak,
            "settle_batches": self.settle_batches,
            "nodes_swept": self.nodes_swept,
            # a certified sweep skipped the exact pass: its counters are zero
            "beam_certified": self.beam_certified,
            # the Lagrangian root bound, when the exact pass picked a weighting
            "lagrange_root": (self.lagrange_root
                              if self.lagrange_root > float("-inf") else None),
            # 0 certified, 1 probe hit or no probe, 2 probe missed and reran
            "exact_passes": self.exact_passes,
        }


@dataclass
class LabelSearchResult:
    """Outcome of a label-dominance search.

    ``interrupted`` is ``None`` for a completed (exact) sweep, or the
    :class:`~repro.core.context.SolveContext` interruption kind
    (``"deadline"``/``"cancelled"``) when the sweep stopped early — the path
    is then the best incumbent held at that moment, not a proven optimum.
    """

    path: Optional[Path]
    ssb_weight: float
    s_weight: float
    b_weight: float
    stats: LabelSearchStats = LabelSearchStats()
    interrupted: Optional[str] = None

    @property
    def found(self) -> bool:
        return self.path is not None


def _not_found(stats: LabelSearchStats,
               interrupted: Optional[str] = None) -> LabelSearchResult:
    return LabelSearchResult(path=None, ssb_weight=float("inf"),
                             s_weight=float("inf"), b_weight=float("inf"),
                             stats=stats, interrupted=interrupted)


@dataclass
class CompletionPotentials:
    """The path-minima bounds of one weighted graph, towards one end node.

    One walk over the DAG (see :func:`_path_minima`) fills both of them:
    ``pot`` (min σ) and ``potjc`` (per colour, the joint σ/β_c bound
    ``min_p (λ_S·σ(p) + λ_B·β_c(p))``).  :func:`completion_potentials`
    walks towards the target; the exact pass walks the mirror from the
    source.  Valid only for the exact (graph contents, end node,
    weighting) they were computed from.
    """

    colors: Tuple[Any, ...]
    pot: Dict[Node, float]
    potjc: Dict[Node, Tuple[float, ...]]


def _path_minima(nodes, start: Node, edges_of, end: str,
                 colors: Tuple[Any, ...], lam_s: float, lam_b: float
                 ) -> CompletionPotentials:
    """Every completion-bound minimum of the paths to ``start``, in one walk.

    A pull-style DAG pass: each node of ``nodes`` takes, over its arcs
    ``edges_of(node)`` whose ``end`` node (``"head"`` or ``"tail"``)
    precedes it in ``nodes``, the minimum of the arc's weight plus that
    node's value — for σ and, per colour, ``λ_S·σ + λ_B·β_c`` at once (the
    min of the sum dominates the sum of the mins, so these floors are never
    looser than separate σ and colour-load floors).  Nodes no arc reaches
    stay absent.  Backward over out-edges this yields the completion
    bounds to the target; forward over in-edges, their mirror from the
    source.
    """
    color_index = {c: i for i, c in enumerate(colors)}
    n_colors = len(colors)
    pot: Dict[Node, float] = {start: 0.0}
    potjc: Dict[Node, Tuple[float, ...]] = {start: (0.0,) * n_colors}
    for node in nodes:
        if node == start:
            continue
        best_s = None
        for edge in edges_of(node):
            other = getattr(edge, end)
            base = pot.get(other)
            if base is None:
                continue
            sigma = DoublyWeightedGraph.sigma(edge)
            step = lam_s * sigma
            steps = [step] * n_colors
            for c, v in DoublyWeightedGraph.beta_map(edge).items():
                steps[color_index[c]] = step + lam_b * v
            s = sigma + base
            jc = tuple(map(_add, steps, potjc[other]))
            if best_s is None:
                best_s, best_jc = s, jc
            else:
                if s < best_s:
                    best_s = s
                best_jc = tuple(map(min, best_jc, jc))
        if best_s is not None:
            pot[node] = best_s
            potjc[node] = best_jc
    return CompletionPotentials(colors=colors, pot=pot, potjc=potjc)


def completion_potentials(dwg: DoublyWeightedGraph,
                          weighting: Optional[SSBWeighting] = None,
                          index: Optional[DagIndex] = None
                          ) -> CompletionPotentials:
    """Compute the completion bounds the label sweep prunes with: one
    backward path-minima walk over the out-edges, towards the target."""
    weighting = weighting or SSBWeighting()
    index = index or DagIndex(dwg.graph)
    return _path_minima(reversed(index.order()), dwg.target,
                        dwg.graph.out_edges, "head", tuple(dwg.all_colors()),
                        weighting.lambda_s, weighting.lambda_b)


def check_beam_width(beam_width: int) -> None:
    """Raise :class:`ValueError` when ``beam_width`` is negative.

    Callers that hold a width for later searches validate it up front with
    this, so a bad width fails at construction, not mid-solve."""
    if beam_width < 0:
        raise ValueError("beam_width must be non-negative (0 disables the pre-pass)")


class LabelDominanceSearch:
    """Exact coloured-SSB optimiser for DAG-shaped doubly weighted graphs.

    ``search`` accepts an optional ``incumbent`` bound (the adapted SSB
    search passes its current candidate's SSB weight): labels that provably
    cannot beat it are pruned, and the result's path is ``None`` when no
    path beats the incumbent strictly — the caller keeps its candidate.
    Without a caller incumbent the min-σ path and the beam pre-pass seed the
    bound, so a connected graph always yields a path.
    """

    def __init__(self, weighting: Optional[SSBWeighting] = None,
                 beam_width: int = 128, dominance_window: int = 128) -> None:
        check_beam_width(beam_width)
        if dominance_window < 0:
            raise ValueError("dominance_window must be non-negative (0 disables "
                             "dominance in the half-sweeps)")
        self.weighting = weighting or SSBWeighting()
        self.measures = PathMeasures(self.weighting)
        self.beam_width = beam_width
        #: dominator-set cap of the half-sweeps' per-node filter
        #: (see :func:`repro.core.frontier.pareto_block_mask`)
        self.dominance_window = dominance_window

    # ------------------------------------------------------------------ main
    def search(self, dwg: DoublyWeightedGraph,
               incumbent: float = float("inf"),
               index: Optional[DagIndex] = None,
               context: Optional[SolveContext] = None
               ) -> LabelSearchResult:
        """Run the sweep; raises :class:`NotADagError` on cyclic graphs.

        ``context`` (optional) is polled once per swept node in both the
        beam pre-pass and the exact pass, and once per crossing edge and
        per chunk of the meet join; when it fires the sweep stops and
        the best incumbent held at that moment is returned with
        ``interrupted`` set — a feasible path always exists once the
        min-σ seed path is computed, so an interrupted search still answers.
        When the beam completes and none of the labels it truncated can
        beat the bound (see :func:`_cuts_clear`), the bound is proven: the
        exact pass is skipped and the stats carry ``beam_certified``.
        Otherwise, on two or more colours, the Lagrangian weighting is
        picked, its Polyak rounds aimed at the bound (see
        :func:`_lagrange_bounds`; ``context`` is polled once per ascent
        round), the certificate is asked again with its
        ``w``-bound, and only then does the exact pass run.  When the
        bound is the search's own seed or beam path (not ``incumbent``),
        the pass runs first at the midpoint probe between the root bound
        and that bound, and again at the bound only when the probe finds
        no path (the stats' ``exact_passes``; see
        :meth:`_sweep_bidirectional`).
        ``beam_width=0`` and an interrupted beam always run the exact pass.
        """
        graph = dwg.graph
        source, target = dwg.source, dwg.target
        index = index or DagIndex(graph)
        if not index.is_dag():
            raise NotADagError(
                "label-dominance search requires a DAG; use the enumeration "
                "finisher for cyclic doubly weighted graphs")
        order = index.order()
        lam_s, lam_b = self.weighting.lambda_s, self.weighting.lambda_b
        potentials = completion_potentials(dwg, self.weighting, index)
        colors = potentials.colors
        pot = potentials.pot
        if source not in pot:
            return _not_found(LabelSearchStats())

        # ---- colour interning and per-edge packing
        color_index = {c: i for i, c in enumerate(colors)}
        n_colors = len(colors)
        zero_loads: Tuple[float, ...] = (0.0,) * n_colors
        potjc_rows = _rows(potentials.potjc)
        out_edge_data: Dict[Node, List[tuple]] = {}
        for node in order:
            packed = [_pack(edge, edge.head, color_index, pot, potjc_rows)
                      for edge in graph.out_edges(node)
                      # a dead end: the target is unreachable from its head
                      if edge.head in pot]
            if packed:
                out_edge_data[node] = packed

        # ---- fallback candidates: the min-σ path is always a real path, and
        # the beam pre-pass usually finds a much better one, giving the exact
        # pass a tight incumbent to prune against
        seed_path = index.shortest_path(source, target, weight=SIGMA_ATTR)
        assert seed_path is not None  # source in pot implies reachability
        fallback_path = seed_path
        fallback_ssb = self.measures.ssb_colored(seed_path)
        if context is not None:
            context.report_incumbent(fallback_ssb, source="labels-seed")
        beam_ssb = float("inf")
        cuts = None                    # no beam pre-pass: nothing certified
        interrupted = context.interrupted() if context is not None else None
        if self.beam_width and interrupted is None:
            beam_path, beam_ssb, cuts, interrupted = self._beam_sweep(
                graph, order, out_edge_data, potjc_rows, source, target,
                n_colors, min(incumbent, fallback_ssb), context=context)
            if beam_path is not None and beam_ssb < fallback_ssb:
                fallback_path = beam_path
                fallback_ssb = beam_ssb
                if context is not None:
                    context.report_incumbent(beam_ssb, source="labels-beam")
        bound = min(incumbent, fallback_ssb)
        # ---- beam certificate: a path beating ``bound`` would have every
        # prefix in the beam — none was bound-pruned (the beam's bound never
        # dropped below ``bound``) and none truncated (``_cuts_clear``
        # checks those) — so it would have reached the target and lowered
        # the bound
        certified = (interrupted is None and cuts is not None
                     and _cuts_clear(cuts, bound, lam_s, lam_b))
        # ---- Lagrangian w-bounds, only for a pass that will run: pick the
        # weighting at the source, give every pack its w-potential and ask
        # the certificate again with the tighter bound
        lagrange = None
        if interrupted is None and not certified and n_colors > 1:
            lagrange, interrupted = _lagrange_bounds(
                order, out_edge_data, source, target, n_colors, lam_s,
                lam_b, bound, context)
            if lagrange is not None:
                w, potw, _, _ = lagrange
                for packs in out_edge_data.values():
                    # in place: the beam's cuts hold these same lists
                    packs[:] = [pack[:6] + (potw[pack[3]],)
                                for pack in packs]
                certified = cuts is not None and _cuts_clear(
                    cuts, bound, lam_s, lam_b, w)

        # ---- exact pass: half-sweeps over array buckets, joined in the
        # middle
        if interrupted is not None or certified:
            best_path, best_s, best_b = None, float("inf"), float("inf")
            best_ssb = float("inf")
            sweep_stats, passes = _EMPTY_SWEEP_STATS, 0
        else:
            # probe only below the search's own seed or beam path: a
            # caller's incumbent is often the optimum already
            caps = (bound,)
            if lagrange is not None and fallback_ssb < incumbent:
                probe = _probe_bound(lagrange[3], bound)
                if probe < bound:
                    caps = (probe, bound)
            (best_path, best_ssb, best_s, best_b, sweep_stats, passes,
             interrupted) = self._sweep_bidirectional(
                graph, order, out_edge_data, potentials, color_index,
                source, target, zero_loads, caps, lagrange, context=context)
        (created, dominated, pruned_colour, pruned_lagrange, peak, settles,
         pruned_meet, meet_edges) = sweep_stats
        root = lagrange[3] if lagrange is not None else float("-inf")
        stats = LabelSearchStats(
            labels_created=created, labels_dominated=dominated,
            labels_bound_pruned=pruned_colour + pruned_lagrange + pruned_meet,
            nodes_swept=len(order) * passes, colors=n_colors,
            beam_ssb=beam_ssb,
            pruned_colour=pruned_colour, pruned_lagrange=pruned_lagrange,
            pruned_meet=pruned_meet,
            meet_edges=meet_edges, frontier_peak=peak,
            settle_batches=settles, lagrange_root=root,
            beam_certified=certified, exact_passes=passes)

        if best_path is not None:
            return LabelSearchResult(
                path=best_path,
                ssb_weight=best_ssb,
                s_weight=best_s,
                b_weight=best_b,
                stats=stats,
                interrupted=interrupted)
        if fallback_ssb < incumbent:
            # nothing beat the fallback path, but it beats the caller's incumbent
            return LabelSearchResult(
                path=fallback_path,
                ssb_weight=fallback_ssb,
                s_weight=self.measures.s_weight(fallback_path),
                b_weight=self.measures.b_weight_colored(fallback_path),
                stats=stats,
                interrupted=interrupted)
        return _not_found(stats, interrupted)

    # ------------------------------------------------------------- beam sweep
    def _beam_sweep(self, graph, order, out_edge_data, potjc_rows, source,
                    target, dim, bound, context: Optional[SolveContext] = None
                    ) -> Tuple[Optional[Path], float, List[tuple],
                               Optional[str]]:
        """The heuristic pre-pass: one topological sweep over array buckets.

        Buckets over ``beam_width`` rows are cut to the rows of smallest
        completion bound ``λ_S·σ + max_c(λ_B·loads_c + potJc_c)`` at the
        node (``potjc_rows``; the bound :func:`_extend` computed for each
        row on arrival) before extension and dominance is skipped, so the
        pass stays cheap enough to run on every solve.
        Extensions take the exact pass's bound-checked step
        (:func:`_extend`).  A kept row reaching the target is a real path
        whose per-colour bound is its SSB weight (the potentials are zero
        there), so each edge into the target lowers the bound to its
        best kept row before the next edge is extended.

        Returns ``(best path, its SSB, cuts, interruption)``.  ``cuts``
        holds one ``(σ, loads, packs)`` entry per truncated bucket,
        over its dropped rows: the certificate :meth:`search` checks (see
        :func:`_cuts_clear`) before the exact pass.

        ``context`` is polled once per swept node; on interruption the
        sweep stops immediately (the last return element is the kind) and
        the caller falls back to the best incumbent found so far.  An inert
        context leaves the sweep bit-identical to no context at all.
        """
        lam_s, lam_b = self.weighting.lambda_s, self.weighting.lambda_b
        beam_width = self.beam_width
        interrupted: Optional[str] = None
        chunks: Dict[Node, List[tuple]] = {source: [_start_chunk(dim)]}
        settled: Dict[Node, Tuple[Any, Any]] = {}
        best = None                     # (edge key into the target, row)
        best_ssb = float("inf")
        cuts: List[tuple] = []
        for node in order:
            if context is not None:
                interrupted = context.interrupted()
                if interrupted is not None:
                    break
            node_chunks = chunks.pop(node, None)
            if not node_chunks:
                continue
            packs = out_edge_data.get(node)
            if not packs:
                continue
            sig, lds, parents, ekeys = _concat(node_chunks)
            if len(sig) > beam_width:
                # keep the rows of smallest completion bound: the per-colour
                # potentials differ by colour, so a row's load profile
                # decides which of them it meets.  Without colours every
                # row shares the node's σ-potential, so σ alone orders them
                key = (lam_s * sig
                       + (lam_b * lds + potjc_rows[node]).max(axis=1)
                       if dim else lam_s * sig)
                ranked = np.argsort(key, kind="stable")
                dropped = ranked[beam_width:]
                cuts.append((sig[dropped], lds[dropped], packs))
                kept = ranked[:beam_width]
                sig, lds = sig[kept], lds[kept]
                parents, ekeys = parents[kept], ekeys[kept]
            settled[node] = (parents, ekeys)
            for pack in packs:
                ns, nl, lower, _, keep = _extend(sig, lds, pack, bound,
                                                 lam_s, lam_b)
                rows = keep.nonzero()[0]
                if not len(rows):
                    continue
                if pack[3] == target:
                    row = int(rows[lower[rows].argmin()])
                    best, best_ssb = (pack[0].key, row), float(lower[row])
                    bound = best_ssb
                    if context is not None:
                        context.report_incumbent(best_ssb, source="labels")
                    continue
                chunks.setdefault(pack[3], []).append(
                    (ns[rows], nl[rows], rows, pack[0].key))
        path = None
        if best is not None:
            edges = _walk_back(graph, settled, *best, "tail")
            edges.reverse()
            path = Path.from_edges(edges)
        return path, best_ssb, cuts, interrupted

    # ------------------------------------------------------------- exact pass
    def _meet_partition(self, graph, order, out_edge_data, rank, spots, pot,
                        source, target, color_index, spotw=None):
        """Pick the meet rank ``K`` and split the live edges around it.

        Returns ``(K, fwd_exts, cross_edges, in_edge_data)``: the in-region
        out-edge packs of the forward half, the crossing edges
        (tail rank < K <= head rank, as ``(edge, σ, β row, tail, head)``)
        and the in-region in-edge packs of the backward half.  Both halves'
        packs share one shape (see :func:`_pack`), with the next node's
        potentials towards the half's far end (``spots`` and the
        Lagrangian ``spotw``, when given, for the backward half).  ``K``
        balances the live edge count on either side and is clamped to
        ``(rank(source), rank(target)]`` so both endpoints stay in their
        halves.  Only edges on live S → T routes (tail reachable
        from the source and reaching the target) participate — labels can
        never appear anywhere else.
        """
        spot = spots.pot
        total = sum(len(out_edge_data.get(node, ()))
                    for node in order if node in spot)
        K = rank[target]
        cum = 0
        for node in order:
            if node not in spot:
                continue
            cum += len(out_edge_data.get(node, ()))
            if 2 * cum >= total:
                K = rank[node] + 1
                break
        K = min(max(K, rank[source] + 1), rank[target])
        zero_row = np.zeros(len(color_index))
        fwd_exts: Dict[Node, List[tuple]] = {}
        cross_edges: List[tuple] = []
        for node in order[:K]:
            if node not in spot:
                continue
            local = []
            for ext in out_edge_data.get(node, ()):
                if rank[ext[3]] >= K:
                    beta_row = zero_row if ext[2] is None else ext[2]
                    cross_edges.append((ext[0], ext[1], beta_row, node,
                                        ext[3]))
                else:
                    local.append(ext)
            if local:
                fwd_exts[node] = local
        spotjc_rows = _rows(spots.potjc)
        in_edge_data: Dict[Node, List[tuple]] = {}
        for node in order[K:]:
            if node not in pot or node not in spot:
                continue
            packed = [_pack(edge, edge.tail, color_index, spot, spotjc_rows,
                            spotw)
                      for edge in graph.in_edges(node)
                      # a crossing edge joins, never extends
                      if rank[edge.tail] >= K
                      and edge.tail in spot and edge.tail in pot]
            if packed:
                in_edge_data[node] = packed
        return K, fwd_exts, cross_edges, in_edge_data

    def _sweep_bidirectional(self, graph, order, out_edge_data, potentials,
                             color_index, source, target, zero_loads, caps,
                             lagrange=None,
                             context: Optional[SolveContext] = None):
        """Meet-in-the-middle exact pass (see the module docstring).

        ``lagrange`` is :func:`_lagrange_bounds`' ``(w, potw, spotw,
        root)`` or ``None``: with it, both halves and the join also prune
        with the ``w``-bounds (``out_edge_data``'s packs already carry
        ``potw``).  ``caps`` are the increasing bounds the halves and join
        run at, in turn, until one finds a path: the incumbent alone, or
        the midpoint probe :func:`_probe_bound` first.  The pass is exact
        below its bound, so a path the probe finds is the optimum; an empty
        probe proves the optimum is at least the probe, and the halves and
        join rerun at the incumbent.  The source-side potentials and the
        meet partition serve every run; the counters sum over the runs
        (``frontier_peak`` takes the largest), returned with the number of
        runs.

        Topological ranks strictly increase along every DAG edge, so with a
        boundary rank ``K`` in ``(rank(source), rank(target)]`` every S → T
        path crosses *exactly one* edge whose tail ranks below ``K`` and
        whose head at or above it.  Joining the forward frontier at each
        crossing tail with the backward frontier at its head is therefore
        exhaustive: the returned optimum is exact.
        """
        pot = potentials.pot
        rank = {node: i for i, node in enumerate(order)}
        # the backward half's bounds: the same path-minima walk, run
        # forward from the source over the live nodes
        spots = _path_minima((node for node in order if node in pot), source,
                             graph.in_edges, "tail", potentials.colors,
                             self.weighting.lambda_s, self.weighting.lambda_b)
        if target not in spots.pot:
            return (None, float("inf"), float("inf"), float("inf"),
                    _EMPTY_SWEEP_STATS, 0, None)
        w = spotw = None
        if lagrange is not None:
            w, _, spotw, _ = lagrange
        K, fwd_exts, cross_edges, in_edge_data = self._meet_partition(
            graph, order, out_edge_data, rank, spots, pot, source, target,
            color_index, spotw)
        sweep_stats = _EMPTY_SWEEP_STATS
        for passes, cap in enumerate(caps, 1):
            path, pass_stats, interrupted = self._bidir_blocks(
                graph, order, K, fwd_exts, cross_edges, in_edge_data,
                source, target, zero_loads, cap, w, context=context)
            sweep_stats = tuple(
                max(a, b) if slot == _PEAK_SLOT else a + b
                for slot, (a, b) in enumerate(zip(sweep_stats, pass_stats)))
            if path is not None or interrupted is not None:
                break
        if path is None:
            return (None, float("inf"), float("inf"), float("inf"),
                    sweep_stats, passes, interrupted)
        # The join accumulates σ/loads as prefix + suffix sums, whose
        # floating-point association depends on where the meet rank fell and
        # differs from a left-to-right walk by an ulp or two.  Re-accumulate
        # the winning path in forward edge order, so the reported optimum is
        # bit-identical to the other exact engines'.
        s = 0.0
        loads = list(zero_loads)
        for edge in path.edges:
            s = s + DoublyWeightedGraph.sigma(edge)
            for c, v in DoublyWeightedGraph.beta_map(edge).items():
                if v != 0.0:
                    loads[color_index[c]] += float(v)
        lam_s, lam_b = self.weighting.lambda_s, self.weighting.lambda_b
        if loads:
            ssb = lam_s * s + max(lam_b * load + 0.0 for load in loads)
            b = max(loads)
        else:
            ssb = lam_s * s
            b = 0.0
        return path, ssb, s, b, sweep_stats, passes, interrupted

    def _bidir_blocks(self, graph, order, K, fwd_exts, cross_edges,
                      in_edge_data, source, target, zero_loads, bound, w=None,
                      context: Optional[SolveContext] = None):
        """The two half-sweeps and their join, over *array buckets*.

        Labels never exist as Python objects here: a node's bucket is a set
        of numpy blocks ``(σ, loads, parent row, edge key)`` and
        every step — the completion-bound checks, the Pareto filter
        (:func:`~repro.core.frontier.pareto_block_mask`, dominator set
        capped at ``dominance_window``) and the bound-checked per-edge
        extension the beam shares (:func:`_extend`) — is one vectorised
        operation per (node, edge) instead of per label.  One
        half kernel runs in both directions: forward over ``order[:K]``
        from the source, backward over ``reversed(order[K:])`` from the
        target.  Settled buckets are retained so the winning pair's
        predecessor chains can be walked back into a
        :class:`~repro.graphs.paths.Path`.  The incumbent never tightens
        inside a half (complete paths only appear at the join), so buckets
        are not re-checked against it when they settle: the extension-time
        checks already applied the same bound.  A bucket is filtered only
        where a new dominator can be.  One in-edge chunk no wider than the
        window is skipped: it is the edge's shift of the tail's filtered
        bucket, and bound pruning only removes rows.  A meet-only bucket
        (no extensions in its half) wider than ``_MEET_REDUCE_MIN`` is
        skipped too: the join's ``reduce_side`` filter drops every row the
        (σ, loads) filter would, since σ folds into every join-space
        component, and it has the wider window; narrower meet-only buckets,
        and every bucket of a colourless graph, keep the settle mask,
        because ``reduce_side`` leaves them as they are.  Skipping a filter
        only keeps rows, so answers stay exact.  The join minimises the
        pair objective per crossing edge over ``(F_chunk, B)`` broadcast
        blocks bounded by ``_MEET_CHUNK_ELEMS`` elements, after
        pre-filtering each frontier against the other's componentwise
        minima and, given the Lagrangian weighting ``w``, its
        ``w``-weighted minimum (``pruned_meet``).  The join polls ``context`` once per chunk and
        the dominance masks once per block, so an interrupt inside one
        crossing edge's chunk loop returns the best pair held so far.
        """
        lam_s, lam_b = self.weighting.lambda_s, self.weighting.lambda_b
        dim = len(zero_loads)
        window = self.dominance_window
        created = dominated = 0
        pruned_colour = pruned_lagrange = pruned_meet = 0
        peak = settles = meet_edges = 0
        interrupted: Optional[str] = None
        poll = None
        if context is not None:
            def poll() -> bool:
                """The masks' per-block checkpoint."""
                nonlocal interrupted
                interrupted = context.interrupted()
                return interrupted is not None

        def settle_mask(sig, lds):
            """Windowed dominance mask with a cheap density probe.  Large
            meet-adjacent buckets are often near-incomparable in
            (σ, loads) space — at window 128 a full mask costs ~2.5 µs
            per row on a 2-vCPU box (0.6 s on a 236k-row bucket) to
            remove well under 1% of rows.  Probe a prefix first and skip
            the bucket when the probe removes almost nothing; dominated
            rows kept by the skip cost extra work downstream, never wrong
            answers."""
            if len(sig) > _SETTLE_PROBE * 8:
                probe = pareto_block_mask(sig[:_SETTLE_PROBE],
                                          lds[:_SETTLE_PROBE],
                                          window=window, poll=poll)
                if _SETTLE_PROBE - int(probe.sum()) < _SETTLE_PROBE // 64:
                    return None
            return pareto_block_mask(sig, lds, window=window, poll=poll)

        def half(nodes, start, packs, meet_nodes):
            """One half-sweep from ``start`` over ``nodes`` along ``packs``.

            Returns the settled ``(parent row, edge key)`` arrays of every
            processed node and the settled ``(σ, loads)`` of its
            ``meet_nodes``; stops at the first interruption of
            ``context``.  A node's bucket gets the settle mask unless it
            is one chunk no wider than the window or a meet-only bucket
            the join reduces (see :meth:`_bidir_blocks`); every processed
            node counts as a settle batch either way."""
            nonlocal created, dominated, pruned_colour, pruned_lagrange
            nonlocal peak, settles, interrupted
            settled: Dict[Node, Tuple[Any, Any]] = {}
            meet_rows: Dict[Node, Tuple[Any, Any]] = {}
            chunks: Dict[Node, List[tuple]] = {start: [_start_chunk(dim)]}
            for node in nodes:
                if context is not None:
                    interrupted = context.interrupted()
                    if interrupted is not None:
                        break
                node_chunks = chunks.pop(node, None)
                if not node_chunks:
                    continue
                extensions = packs.get(node)
                is_meet = node in meet_nodes
                if not extensions and not is_meet:
                    continue
                sig, lds, parents, ekeys = _concat(node_chunks)
                bucket_size = len(sig)
                if bucket_size > peak:
                    peak = bucket_size
                settles += 1
                # no new dominator in a lone chunk within the window, nor
                # one reduce_side would miss in a wide meet-only bucket
                if (window and len(sig) > 1
                        and (len(node_chunks) > 1 or len(sig) > window)
                        and (extensions or not dim
                             or len(sig) <= _MEET_REDUCE_MIN)):
                    mask = settle_mask(sig, lds)
                    drop = (len(sig) - int(mask.sum())
                            if mask is not None else 0)
                    if interrupted is not None:
                        break           # the mask's checkpoint fired
                    if drop:
                        dominated += drop
                        sig, lds = sig[mask], lds[mask]
                        parents, ekeys = parents[mask], ekeys[mask]
                settled[node] = (parents, ekeys)
                if is_meet:
                    meet_rows[node] = (sig, lds)
                for pack in extensions or ():
                    ns, nl, _, keep_colour, keep = _extend(
                        sig, lds, pack, bound, lam_s, lam_b, w)
                    colour_kept = int(keep_colour.sum())
                    pruned_colour += len(ns) - colour_kept
                    count = int(keep.sum())
                    pruned_lagrange += colour_kept - count
                    if not count:
                        continue
                    created += count
                    rows = keep.nonzero()[0]
                    chunks.setdefault(pack[3], []).append(
                        (ns[rows], nl[rows], rows, pack[0].key))
            return settled, meet_rows

        # forward: prefix labels over ranks < K; backward: suffix labels
        # over ranks >= K, bounded by the potentials from the source
        settled_f, fwd_rows = half(order[:K], source, fwd_exts,
                                   {c[3] for c in cross_edges})
        settled_b: Dict[Node, Tuple[Any, Any]] = {}
        bwd_rows: Dict[Node, Tuple[Any, Any]] = {}
        if interrupted is None:
            settled_b, bwd_rows = half(reversed(order[K:]), target,
                                       in_edge_data,
                                       {c[4] for c in cross_edges})

        # ---------------- join at the crossing edges
        best = None             # (edge, forward row, backward row, head)
        if interrupted is None:
            # Join-space reduction.  With X[i, c] = λ_S·σ_i + λ_B·load_ic
            # over the prefix rows and Y[j, c] likewise over the suffix
            # rows, the pair objective is val(i, j) = max_c(X[i,c] + Y[j,c])
            # — monotone in every component, so only join-space
            # Pareto-minimal rows can realise the minimum.  This is strictly
            # coarser than the halves' (σ, loads) dominance (σ folds into
            # every colour) and typically shrinks each side ~10x.  A
            # crossing edge only adds a *constant* vector to X, which
            # leaves dominance unchanged — one windowed reduction per meet
            # node therefore serves all of its crossing edges.  Since
            # Σw < 1, the pair objective is also at least the Lagrangian
            # floor w·X[i] + w·const + w·Y[j]; each side keeps its w-sums.
            def reduce_side(sig, loads):
                """Single windowed join-space reduction pass.  The window
                only ever *keeps* dominated rows, never drops a
                non-dominated one, so this is exact-safe; the group screen
                in the join mops up what the window misses far cheaper
                than further mask passes would."""
                nonlocal dominated
                rows_m = lam_s * sig[:, None] + lam_b * loads
                idx = None
                if len(sig) > _MEET_REDUCE_MIN:
                    mask = pareto_block_mask(rows_m[:, 0], rows_m,
                                             window=_MEET_REDUCE_WINDOW,
                                             poll=poll)
                    idx = np.nonzero(mask)[0]
                    dominated += len(sig) - len(idx)
                    sig, loads, rows_m = sig[idx], loads[idx], rows_m[idx]
                return (sig, loads, rows_m, idx, rows_m.min(axis=0),
                        rows_m.sum(axis=1),
                        None if w is None else rows_m @ w)

            f_join, b_join = (
                {node: reduce_side(sig, loads) if dim
                 else (sig, loads, None, None, None, None, None)
                 for node, (sig, loads) in rows.items()}
                for rows in (fwd_rows, bwd_rows))
            jobs = []
            for edge, sigma, beta_row, tail, head in cross_edges:
                fw = f_join.get(tail)
                bw = b_join.get(head)
                if fw is None or bw is None:
                    continue            # one side was fully pruned away
                const = lam_s * sigma + lam_b * beta_row
                if dim:
                    est = float((fw[4] + const + bw[4]).max())
                    # complementary average floor: the pair maximum is at
                    # least the pair mean — strong exactly where the
                    # per-colour floor is weak (balanced loads)
                    avg = (float(fw[5].min()) + float(const.sum())
                           + float(bw[5].min())) / dim
                    if avg > est:
                        est = avg
                    if w is not None:
                        lag = (float(fw[6].min()) + float(const @ w)
                               + float(bw[6].min()))
                        if lag > est:
                            est = lag
                else:
                    est = lam_s * (float(fw[0].min()) + sigma
                                   + float(bw[0].min()))
                jobs.append((est, edge.key, edge, sigma, const, tail, head))
            # cheapest-looking joins first, so the bound tightens early and
            # the later (hopeless) cross products collapse in the pre-filter
            jobs.sort(key=lambda j: (j[0], j[1]))
            for est, _key, edge, sigma, const, tail, head in jobs:
                if context is not None:
                    interrupted = context.interrupted()
                    if interrupted is not None:
                        break
                meet_edges += 1
                sf, _lf, X0, fidx, _xmin, xsum0, xw0 = f_join[tail]
                sb, _lb, Y, yidx, ymin, ysum, yw = b_join[head]
                if est >= bound:
                    pruned_meet += len(sf) + len(sb)
                    continue
                if not dim:
                    # no colours: σ is the whole objective, so the best
                    # pair is simply (min prefix σ, min suffix σ)
                    i, j = int(sf.argmin()), int(sb.argmin())
                    v = lam_s * (float(sf[i]) + sigma + float(sb[j]))
                    if v < bound:
                        bound = v
                        best = (edge, i, j, head)
                        if context is not None:
                            context.report_incumbent(v, source="labels-meet")
                    continue
                Xe = X0 + const
                xesum = xsum0 + float(const.sum())
                inv_dim = 1.0 / dim
                # per-row floors against the other side's per-colour minima
                # (exactly the frontier-local potjc analogue), each maxed
                # with the average floor that bites when loads balance
                lowf = np.maximum((Xe + ymin).max(axis=1),
                                  (xesum + float(ysum.min())) * inv_dim)
                if w is not None:
                    xew = xw0 + float(const @ w)
                    np.maximum(lowf, xew + float(yw.min()), out=lowf)
                rows_f = np.nonzero(lowf < bound)[0]
                pruned_meet += len(sf) - len(rows_f)
                if len(rows_f):
                    lowb = np.maximum(
                        (Y + Xe[rows_f].min(axis=0)).max(axis=1),
                        (ysum + float(xesum[rows_f].min())) * inv_dim)
                    if w is not None:
                        np.maximum(lowb, yw + float(xew[rows_f].min()),
                                   out=lowb)
                    rows_b = np.nonzero(lowb < bound)[0]
                    pruned_meet += len(sb) - len(rows_b)
                else:
                    rows_b = rows_f
                if len(rows_f) and len(rows_b):
                    # most promising rows first on both sides: as the bound
                    # tightens the sorted tails collapse in one comparison
                    # (F side) or a searchsorted cut (B side)
                    order_f = np.argsort(lowf[rows_f], kind="stable")
                    rows_f = rows_f[order_f]
                    lowf_sorted = lowf[rows_f]
                    order_b = np.argsort(lowb[rows_b], kind="stable")
                    rows_b = rows_b[order_b]
                    lowb_sorted = lowb[rows_b]
                    XF, YB = Xe[rows_f], Y[rows_b]
                    XFsum, YBsum = xesum[rows_f], ysum[rows_b]
                    # per-group colour minima over blocks of the sorted B
                    # side: a group whose floor max_c(X_ic + Ymin_gc) misses
                    # the bound for every chunk row is skipped wholesale,
                    # so the exact R x |B| evaluation only touches groups
                    # that might hold an improving pair.  Group minima are
                    # taken over the *full* group, so the screen stays a
                    # valid lower bound when searchsorted trims the last
                    # group to a prefix.
                    ng_full = (len(rows_b) + _MEET_GROUP - 1) // _MEET_GROUP
                    pad = ng_full * _MEET_GROUP - len(rows_b)
                    GM = np.pad(YB, ((0, pad), (0, 0)),
                                constant_values=np.inf)
                    GM = GM.reshape(ng_full, _MEET_GROUP, dim).min(axis=1)
                    GS = np.pad(YBsum, (0, pad), constant_values=np.inf)
                    GS = GS.reshape(ng_full, _MEET_GROUP).min(axis=1)
                    start = 0
                    while start < len(rows_f):
                        if context is not None:
                            interrupted = context.interrupted()
                            if interrupted is not None:
                                break
                        if lowf_sorted[start] >= bound:
                            pruned_meet += len(rows_f) - start
                            break
                        nb = int(np.searchsorted(lowb_sorted, bound,
                                                 side="left"))
                        if not nb:
                            break
                        stop = min(start + max(1, _MEET_CHUNK_ELEMS
                                               // (2 * nb)),
                                   len(rows_f))
                        ng = (nb + _MEET_GROUP - 1) // _MEET_GROUP
                        sel = None
                        YBsub = YB[:nb]
                        if ng > 2:
                            scr = XF[start:stop, 0, None] + GM[None, :ng, 0]
                            for c in range(1, dim):
                                np.maximum(
                                    scr,
                                    XF[start:stop, c, None]
                                    + GM[None, :ng, c],
                                    out=scr)
                            np.maximum(
                                scr,
                                (XFsum[start:stop, None] + GS[None, :ng])
                                * inv_dim,
                                out=scr)
                            gpass = np.nonzero((scr < bound).any(axis=0))[0]
                            if not len(gpass):
                                start = stop
                                continue
                            if len(gpass) < ng:
                                sel = np.concatenate([
                                    np.arange(g * _MEET_GROUP,
                                              min((g + 1) * _MEET_GROUP, nb))
                                    for g in gpass])
                                YBsub = YB[sel]
                        # 2-D per-colour maximum accumulation through one
                        # scratch buffer: never materialises the
                        # (chunk × |B| × dim) cube
                        val = XF[start:stop, 0, None] + YBsub[None, :, 0]
                        tmp = np.empty_like(val) if dim > 1 else None
                        for c in range(1, dim):
                            np.add(XF[start:stop, c, None],
                                   YBsub[None, :, c], out=tmp)
                            np.maximum(val, tmp, out=val)
                        flat = int(val.argmin())
                        i, j = divmod(flat, val.shape[1])
                        v = float(val[i, j])
                        # release both blocks before the next chunk builds
                        # its own, so at most one chunk's pair is alive
                        val = tmp = None
                        if v < bound:
                            bound = v
                            i0 = int(rows_f[start + i])
                            j0 = int(rows_b[int(sel[j])
                                            if sel is not None else j])
                            best = (edge,
                                    int(fidx[i0]) if fidx is not None
                                    else i0,
                                    int(yidx[j0]) if yidx is not None
                                    else j0,
                                    head)
                            if context is not None:
                                context.report_incumbent(
                                    v, source="labels-meet")
                        start = stop
                if interrupted is not None:
                    break
        sweep_stats = (created, dominated, pruned_colour, pruned_lagrange,
                       peak, settles, pruned_meet, meet_edges)
        if best is None:
            return None, sweep_stats, interrupted
        edge, f_row, b_row, head = best
        edges = _walk_back(graph, settled_f, edge.key, f_row, "tail")
        edges.reverse()
        parents, ekeys = settled_b[head]
        edges += _walk_back(graph, settled_b, int(ekeys[b_row]),
                            int(parents[b_row]), "head")
        return Path.from_edges(edges), sweep_stats, interrupted


def _rows(table: Dict[Node, Tuple[float, ...]]) -> Dict[Node, Any]:
    """Per-colour potential tuples as numpy rows."""
    return {n: np.asarray(t, dtype=np.float64) for n, t in table.items()}


def _pack(edge: Edge, nxt: Node, color_index, pot, potjc_rows,
          potw=None) -> tuple:
    """One extension pack: ``(edge, σ, β row, next node, pot, potjc row,
    potw)``, with the next node's potentials towards the sweep's far end.
    The β row is ``None`` on an edge without load, so the extension skips
    the add; ``potw`` (the Lagrangian potential) is ``None`` until a
    weighting is picked."""
    beta_row = None
    for c, v in DoublyWeightedGraph.beta_map(edge).items():
        if v != 0.0:
            if beta_row is None:
                beta_row = np.zeros(len(color_index))
            beta_row[color_index[c]] = float(v)
    return (edge, DoublyWeightedGraph.sigma(edge), beta_row, nxt, pot[nxt],
            potjc_rows[nxt], None if potw is None else potw[nxt])


def _start_chunk(dim: int) -> tuple:
    """The single empty label a sweep starts from: ``(σ, loads, parent
    row, edge key)`` with no parent and no edge."""
    return (np.zeros(1), np.zeros((1, dim)), np.full(1, -1, dtype=np.int64),
            -1)


def _concat(node_chunks: List[tuple]) -> tuple:
    """A node's bucket ``(σ, loads, parent row, edge key)`` from the chunks
    its in-edges appended, in arrival order."""
    if len(node_chunks) == 1:
        sig, lds, parents, ekey = node_chunks[0]
        return sig, lds, parents, np.full(len(sig), ekey, dtype=np.int64)
    return (np.concatenate([c[0] for c in node_chunks]),
            np.concatenate([c[1] for c in node_chunks]),
            np.concatenate([c[2] for c in node_chunks]),
            np.concatenate([np.full(len(c[0]), c[3], dtype=np.int64)
                            for c in node_chunks]))


def _extend(sig, lds, pack: tuple, bound: float, lam_s: float,
            lam_b: float, w=None) -> tuple:
    """Extend bucket rows ``(σ, loads)`` along one edge pack and check its
    completion bounds against ``bound``.

    Returns ``(σ', loads', lower, keep_colour, keep)``: ``lower`` is the
    per-colour joint bound ``λ_S·σ' + max_c(λ_B·loads'_c + potJc_c)``
    (``λ_S·(σ' + pot)`` without colours) — the exact SSB weight at the
    target, where the potentials are zero — ``keep_colour`` the rows it
    keeps strictly below ``bound``, and ``keep`` those of them the
    Lagrangian bound ``λ_S·σ' + λ_B·(loads'·w) + potW`` keeps as well
    (``keep_colour`` itself when no weighting ``w`` is given).  The beam,
    both half-sweeps and the beam certificate all extend through this one
    step.
    """
    _edge, sigma, beta_row, _nxt, pot_n, potjc_n, potw_n = pack
    ns = sig + sigma
    nl = lds if beta_row is None else lds + beta_row
    step = lam_s * ns
    if lds.shape[1]:
        lower = step + (lam_b * nl + potjc_n).max(axis=1)
    else:
        lower = lam_s * (ns + pot_n)
    keep_colour = lower < bound
    keep = keep_colour
    if w is not None:
        keep = keep_colour & (step + lam_b * (nl @ w) + potw_n < bound)
    return ns, nl, lower, keep_colour, keep


def _walk_back(graph, settled, ek: int, row: int, end: str) -> List[Edge]:
    """Follow parent rows from edge ``ek`` back to a sweep's start.

    ``row`` indexes the settled bucket of the edge's ``end`` node
    (``"tail"`` for a sweep from the source, ``"head"`` for one from the
    target); the edges come out in walk order, ending at the start."""
    edges: List[Edge] = []
    while ek != -1:
        edge = graph.edge(ek)
        edges.append(edge)
        parents, ekeys = settled[getattr(edge, end)]
        ek = int(ekeys[row])
        row = int(parents[row])
    return edges


def _cuts_clear(cuts, bound: float, lam_s: float, lam_b: float,
                w=None) -> bool:
    """Whether every truncated beam row is bound-pruned at ``bound``.

    A truncated row survives when some extension passes every completion
    bound of :func:`_extend` against ``bound`` (the Lagrangian one too,
    given the weighting ``w``); each cut holds its dropped rows ``(σ,
    loads)`` and its node's edge packs, and is scanned in full, one
    vectorised step per edge.
    """
    return not any(
        _extend(sig, lds, pack, bound, lam_s, lam_b, w)[4].any()
        for sig, lds, packs in cuts for pack in packs)


def _probe_bound(root: float, bound: float) -> float:
    """The midpoint probe's bound: ``_PROBE_SHARE`` of the way from the
    Lagrangian root bound ``root`` up to the incumbent ``bound`` (just
    under halfway, see ``_PROBE_SHARE``).  Written
    from ``bound`` down, so a share of 1 gives ``bound`` itself exactly
    (no probe)."""
    return bound - (1.0 - _PROBE_SHARE) * (bound - root)


def _admissible_weights(w):
    """``w`` (non-negative, not all zero) scaled to sum to
    ``_LAGRANGE_MASS``: its floating-point sum stays below 1, so
    ``w·loads`` never exceeds the largest load."""
    return w * (_LAGRANGE_MASS / float(w.sum()))


def _weighted_minima(nodes, start: Node, arcs_of, weights):
    """Min-weight paths to ``start``, in one pull-style walk.

    Each node of ``nodes`` takes, over its arcs ``arcs_of[node]`` — ``(arc
    index, other node)`` pairs whose other node precedes it in ``nodes``
    — the minimum of ``weights[arc] + value[other]``.  Returns ``(value,
    via)``: the minima and each node's first argmin arc; nodes no arc
    reaches stay absent.
    """
    value = {start: 0.0}
    via: Dict[Node, int] = {}
    for node in nodes:
        if node == start:
            continue
        best = None
        for arc, other in arcs_of.get(node, ()):
            base = value.get(other)
            if base is None:
                continue
            total = weights[arc] + base
            if best is None or total < best:
                best, best_arc = total, arc
        if best is not None:
            value[node] = best
            via[node] = best_arc
    return value, via


def _packed_arcs(order, out_edge_data, dim: int) -> tuple:
    """The packed (live) edges as indexed arcs: ``(σ array, β matrix, head
    per arc, out-arcs, in-arcs)``, the arc maps ``node → [(arc, other
    node)]`` as :func:`_weighted_minima` walks them."""
    sigmas: List[float] = []
    betas: List[Any] = []
    heads: List[Node] = []
    out_arcs: Dict[Node, List[Tuple[int, Node]]] = {}
    in_arcs: Dict[Node, List[Tuple[int, Node]]] = {}
    no_load = np.zeros(dim)
    for node in order:
        for pack in out_edge_data.get(node, ()):
            arc = len(sigmas)
            sigmas.append(pack[1])
            betas.append(no_load if pack[2] is None else pack[2])
            heads.append(pack[3])
            out_arcs.setdefault(node, []).append((arc, pack[3]))
            in_arcs.setdefault(pack[3], []).append((arc, node))
    return (np.asarray(sigmas), np.asarray(betas).reshape(-1, dim), heads,
            out_arcs, in_arcs)


def _arc_weights(sig, beta, w, lam_s: float, lam_b: float) -> List[float]:
    """Each arc's Lagrangian step ``λ_S·σ + λ_B·(β·w)``."""
    return (lam_s * sig + lam_b * (beta * w).sum(axis=1)).tolist()


def _simplex_projection(v):
    """The Euclidean projection of ``v`` onto the probability simplex
    (sort-and-threshold, Held, Wolfe & Crowder 1974)."""
    u = np.sort(v)[::-1]
    ranks = np.arange(1, len(u) + 1)
    cumulative = np.cumsum(u) - 1.0
    rho = int(np.nonzero(u * ranks > cumulative)[0][-1])
    return np.maximum(v - cumulative[rho] / (rho + 1), 0.0)


def _lagrange_bounds(order, out_edge_data, source, target, dim: int,
                     lam_s: float, lam_b: float, upper: float,
                     context: Optional[SolveContext] = None):
    """Pick a Lagrangian load weighting ``w`` and its completion bounds.

    For any ``w ≥ 0`` with ``Σw ≤ 1``, ``max_c β_c ≥ w·β``, so ``potW[v] =
    min_p (λ_S·σ(p) + λ_B·w·β(p))`` over ``v → T`` paths bounds every
    completion; the best ``w`` maximises the root bound ``potW[S]``, the
    Lagrangian dual of the min-max objective (Fisher 1981).  ``potW[S]``
    is concave in ``w`` with supergradient ``g = λ_B·β(p*)`` on its argmin
    path ``p*``.  ``_LAGRANGE_ROUNDS`` multiplicative-weights rounds climb
    it from uniform ``w`` — never weaker than the joint average bound at
    the root — and ``_POLYAK_ROUNDS`` projected-subgradient rounds then
    aim it at ``upper``, the search's bound (Held, Wolfe & Crowder 1974):
    from the best ``w`` so far, each steps ``w ← Π_Δ(w + θ·(upper −
    root)/‖g − ḡ‖²·(g − ḡ))`` with ``θ = _POLYAK_STEP``.  The ascent keeps
    the best ``w`` seen, so the Polyak rounds never weaken the root; it
    stops early when the argmin path carries no load, when its loads are
    flat (no direction on the simplex) or when the root reaches
    ``upper``.  Each round is one walk of :func:`_weighted_minima` over
    the packed (live) edges towards the target; the best ``w``'s mirror
    walk from the source serves the backward half (the minimum over S →
    T paths is the same both ways).

    Returns ``((w, potw, spotw, root), None)``, with ``w`` scaled by
    :func:`_admissible_weights`, or ``(None, kind)`` when ``context``,
    polled once per round, fires first.
    """
    sig, beta, heads, out_arcs, in_arcs = _packed_arcs(order, out_edge_data,
                                                       dim)
    backward = order[::-1]
    mw = np.full(dim, 1.0 / dim)
    best = None
    for t in range(_LAGRANGE_ROUNDS + _POLYAK_ROUNDS):
        if context is not None:
            interrupted = context.interrupted()
            if interrupted is not None:
                return None, interrupted
        w = _admissible_weights(mw)
        weights = _arc_weights(sig, beta, w, lam_s, lam_b)
        potw, via = _weighted_minima(backward, target, out_arcs, weights)
        root = potw[source]
        path = []
        node = source
        while node != target:
            path.append(via[node])
            node = heads[path[-1]]
        load = beta[path].sum(axis=0)
        if best is None or root > best[3]:
            best = (w, potw, weights, root, mw, load)
        top = float(load.max())
        if top <= 0.0:
            break                   # a load-free argmin path: w is moot
        if t + 1 < _LAGRANGE_ROUNDS:
            mw = mw * np.exp(_LAGRANGE_STEP / math.sqrt(t + 1)
                             * (load / top))
            mw /= mw.sum()
            continue
        if t + 1 == _LAGRANGE_ROUNDS:
            # the Polyak rounds start from the best weighting so far
            root, mw, load = best[3], best[4], best[5]
        slope = lam_b * (load - load.mean())
        norm = float(slope @ slope)
        if root >= upper or norm <= 0.0:
            break
        mw = _simplex_projection(
            mw + _POLYAK_STEP * (upper - root) / norm * slope)
    w, potw, weights, root = best[:4]
    spotw, _ = _weighted_minima(order, source, in_arcs, weights)
    return (w, potw, spotw, root), None


def find_optimal_colored_ssb_path_labels(
        dwg: DoublyWeightedGraph,
        weighting: Optional[SSBWeighting] = None) -> LabelSearchResult:
    """Convenience wrapper: run :class:`LabelDominanceSearch` with defaults."""
    return LabelDominanceSearch(weighting=weighting).search(dwg)
