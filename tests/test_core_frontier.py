"""Property tests for the shared Pareto-frontier engine.

Seeded fuzz loops (hypothesis-style, no dependency) pin the store's three
contracts against a naive O(F²) reference filter:

* the surviving set equals the maximal elements of everything inserted,
  duplicates collapsed — *exactly*, for the eager inserts and the
  block-mask kernel;
* the result is independent of insertion order;
* the structural invariants hold after every insert: σ ascending, at most
  one entry per load tuple, and for single-colour stores the full staircase
  (σ strictly ascending, load strictly descending).

Load values are drawn from small integer grids so ties and dominations are
frequent — the regime where off-by-one tie handling would diverge from the
reference.
"""

import itertools
import random

import pytest

import numpy as np

from repro.core.frontier import ParetoStore, pareto_block_mask


def naive_filter(items):
    """Reference O(F²) sequential insert-and-prune; returns the survivor set.

    Dominance is componentwise ``<=`` on (σ, loads); exact ties count as
    dominated, so the first of two equal labels survives.
    """
    kept = []
    for s, loads in items:
        if any(es <= s and all(a <= b for a, b in zip(el, loads))
               for es, el in kept):
            continue
        kept = [(es, el) for es, el in kept
                if not (s <= es and all(a <= b for a, b in zip(loads, el)))]
        kept.append((s, loads))
    return set(kept)


def random_items(rng, count, dim, grid=6):
    return [(float(rng.randrange(grid)),
             tuple(float(rng.randrange(grid)) for _ in range(dim)))
            for _ in range(count)]


def store_set(store):
    return {(s, loads) for s, loads, _ in store}


class TestEagerInsert:
    @pytest.mark.parametrize("dim", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_naive_filter(self, dim, seed):
        rng = random.Random(seed * 101 + dim)
        items = random_items(rng, 120, dim)
        store = ParetoStore(dim)
        for s, loads in items:
            store.insert(s, loads)
        assert store_set(store) == naive_filter(items)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_invariants_hold_after_every_insert(self, dim):
        rng = random.Random(99 + dim)
        store = ParetoStore(dim)
        for s, loads in random_items(rng, 200, dim):
            store.insert(s, loads)
            entries = list(store)
            sigmas = [e[0] for e in entries]
            assert sigmas == sorted(sigmas)
            # at most one entry per load tuple (exact-duplicate collapse)
            assert len({e[1] for e in entries}) == len(entries)
            if dim == 1:
                # the full staircase: σ strictly ascending, load strictly
                # descending — this is what makes 1-d inserts O(log F)
                loads_seq = [e[1][0] for e in entries]
                assert all(a < b for a, b in zip(sigmas, sigmas[1:]))
                assert all(a > b for a, b in zip(loads_seq, loads_seq[1:]))

    def test_order_independence(self):
        rng = random.Random(4242)
        items = random_items(rng, 24, 2, grid=4)
        reference = None
        for _ in range(12):
            rng.shuffle(items)
            store = ParetoStore(2)
            for s, loads in items:
                store.insert(s, loads)
            if reference is None:
                reference = store_set(store)
            assert store_set(store) == reference

    def test_counters_and_payloads(self):
        store = ParetoStore(2)
        assert store.insert(1.0, (1.0, 1.0), "a")
        assert not store.insert(2.0, (1.0, 1.0), "dup")   # dominated (tie)
        assert store.dominated == 1
        assert store.insert(0.5, (2.0, 0.5), "b")         # incomparable
        assert store.insert(0.5, (1.0, 0.5), "c")         # evicts "a" AND "b"
        assert store.evicted == 2
        assert [p for _, _, p in store] == ["c"]
        assert len(store) == 1 and store.min_sigma() == 0.5
        store.clear()
        assert len(store) == 0 and not store

    def test_dim_mismatch_raises(self):
        store = ParetoStore(2)
        with pytest.raises(ValueError, match="components"):
            store.insert(1.0, (1.0,))
        with pytest.raises(ValueError):
            ParetoStore(-1)

    def test_payloads_iterate_in_sigma_order(self):
        rng = random.Random(11)
        items = random_items(rng, 80, 2)
        store = ParetoStore(2)
        for i, (s, loads) in enumerate(items):
            store.insert(s, loads, i)
        result = list(store)
        assert {(s, loads) for s, loads, _ in result} == naive_filter(items)
        assert all(items[i] == (s, loads) for s, loads, i in result)
        sigmas = [s for s, _, _ in result]
        assert sigmas == sorted(sigmas)

    def test_exhaustive_tiny_cases(self):
        # every multiset of 4 labels over a 2x2x2 grid, every order
        grid = [(float(s), (float(a), float(b)))
                for s in range(2) for a in range(2) for b in range(2)]
        rng = random.Random(0)
        for _ in range(200):
            items = [rng.choice(grid) for _ in range(4)]
            for perm in itertools.permutations(items):
                store = ParetoStore(2)
                for s, loads in perm:
                    store.insert(s, loads)
                assert store_set(store) == naive_filter(perm)


class TestBoundedInsert:
    def test_rejects_exactly_the_provably_worse_labels(self):
        rng = random.Random(7)
        items = random_items(rng, 150, 3)
        bound, potential = 6.0, 1.0
        store = ParetoStore(3)
        for s, loads in items:
            store.insert_bounded(s, loads, potential=potential, bound=bound)
        admissible = [(s, loads) for s, loads in items
                      if (s + potential) + max(loads) < bound]
        assert store_set(store) == naive_filter(admissible)
        assert store.bound_rejected == len(items) - len(admissible)

    def test_weighted_bound(self):
        store = ParetoStore(1)
        # λ_S·(σ+pot) + λ_B·max = 2·(1+1) + 0.5·4 = 6
        assert not store.insert_bounded(1.0, (4.0,), potential=1.0, bound=6.0,
                                        lambda_s=2.0, lambda_b=0.5)
        assert store.insert_bounded(1.0, (4.0,), potential=1.0, bound=6.1,
                                    lambda_s=2.0, lambda_b=0.5)

    @pytest.mark.parametrize("lambda_s, lambda_b",
                             [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0), (0.0, 1.0)])
    def test_weighted_bound_equals_prefiltered_eager_store(self, lambda_s,
                                                           lambda_b):
        rng = random.Random(int(10 * lambda_s + lambda_b))
        items = random_items(rng, 300, 3)
        bound, potential = 7.0, 0.5
        bounded = ParetoStore(3)
        for s, loads in items:
            bounded.insert_bounded(s, loads, potential=potential, bound=bound,
                                   lambda_s=lambda_s, lambda_b=lambda_b)
        admissible = [(s, loads) for s, loads in items
                      if lambda_s * (s + potential) + lambda_b * max(loads)
                      < bound]
        eager = ParetoStore(3)
        for s, loads in admissible:
            eager.insert(s, loads)
        assert store_set(bounded) == store_set(eager)
        assert bounded.bound_rejected == len(items) - len(admissible)

    def test_mixed_plain_and_bounded_inserts(self):
        rng = random.Random(3)
        items = random_items(rng, 200, 2)
        store = ParetoStore(2)
        kept = []
        for i, (s, loads) in enumerate(items):
            if i % 3:
                store.insert_bounded(s, loads, potential=1.0, bound=8.0)
                if s + 1.0 + max(loads) < 8.0:
                    kept.append((s, loads))
            else:
                store.insert(s, loads)      # plain inserts ignore the bound
                kept.append((s, loads))
        assert store_set(store) == naive_filter(kept)

    def test_rejected_label_never_evicts_stored_entries(self):
        store = ParetoStore(2)
        store.insert(9.0, (9.0, 9.0))
        # would dominate the stored label, but cannot beat the incumbent
        assert not store.insert_bounded(1.0, (1.0, 1.0), potential=1.0,
                                        bound=2.5)
        assert store_set(store) == {(9.0, (9.0, 9.0))}
        assert store.evicted == 0 and store.bound_rejected == 1


class TestBlockMask:
    @pytest.mark.parametrize("dim", [0, 1, 2, 4])
    @pytest.mark.parametrize("seed", range(6))
    def test_exact_mask_equals_eager_store(self, dim, seed):
        # the sweep's block kernel and the tree DP's store are the same
        # filter: identical survivors on the same labels
        rng = random.Random(seed * 31 + dim)
        items = random_items(rng, 400, dim)
        sig = np.array([s for s, _ in items])
        lds = np.array([l for _, l in items]).reshape(len(items), dim)
        keep = pareto_block_mask(sig, lds)
        store = ParetoStore(dim)
        for s, loads in items:
            store.insert(s, loads)
        assert {items[i] for i in range(len(items)) if keep[i]} == \
            store_set(store)

    @pytest.mark.parametrize("dim", [1, 2, 4])
    @pytest.mark.parametrize("seed", range(5))
    def test_exact_mask_matches_naive_filter(self, dim, seed):
        rng = random.Random(seed * 13 + dim)
        items = random_items(rng, 700, dim)   # several kernel blocks
        sig = np.array([s for s, _ in items])
        lds = np.array([l for _, l in items]).reshape(len(items), dim)
        keep = pareto_block_mask(sig, lds)
        survivors = {items[i] for i in range(len(items)) if keep[i]}
        assert survivors == naive_filter(items)

    def test_windowed_mask_is_sound_and_between_bounds(self):
        rng = random.Random(5)
        items = random_items(rng, 600, 3)
        sig = np.array([s for s, _ in items])
        lds = np.array([l for _, l in items]).reshape(len(items), 3)
        exact = pareto_block_mask(sig, lds)
        for window in (1, 8, 64):
            capped = pareto_block_mask(sig, lds, window=window)
            # capped keeps a superset of the exact survivors ...
            assert bool(np.all(capped >= exact))
            # ... and every row it removes is genuinely dominated by some
            # *other* row (an exact duplicate counts: its twin survives)
            removed = np.nonzero(~capped)[0]
            for i in removed.tolist():
                s, loads = items[i]
                assert any(j != i and es <= s
                           and all(a <= b for a, b in zip(el, loads))
                           for j, (es, el) in enumerate(items))


def broadcast_block_mask(sig, lds, window=None):
    """The earlier broadcast formulation of :func:`pareto_block_mask`.

    Kept as the reference the 2-D per-colour kernel must match bit for bit:
    same lexsort order, block sizes, window fill and intra-block rule, with
    every compare evaluated as a ``(kept, block, d)`` cube reduced by
    ``.all(axis=2)``.
    """
    total, dim = lds.shape
    order = np.lexsort(tuple(lds[:, c] for c in range(dim - 1, -1, -1))
                       + (sig,))
    keep = np.ones(total, dtype=bool)
    cap = total if window is None else min(window, total)
    block = 512 if window is None else max(32, min(window, 512))
    kept_rows = np.empty((cap, dim), dtype=np.float64)
    k = 0
    for start in range(0, total, block):
        blk = order[start:start + block]
        bl = lds[blk]
        if k:
            dom = (kept_rows[:k, None, :] <= bl[None, :, :]) \
                .all(axis=2).any(axis=0)
        else:
            dom = np.zeros(len(blk), dtype=bool)
        pair = (bl[:, None, :] <= bl[None, :, :]).all(axis=2)
        dom |= (pair & np.triu(np.ones(pair.shape, dtype=bool), k=1)) \
            .any(axis=0)
        if dom.any():
            keep[blk[dom]] = False
        if k < cap:
            take = bl[~dom][:cap - k]
            kept_rows[k:k + len(take)] = take
            k += len(take)
    return keep


def tied_block(rng, size, dim, grid):
    """Random (σ, loads) rows with σ ties and exact duplicate rows.

    ``grid`` bounds the integer value range (small grids make ties and
    dominations frequent); ``None`` draws continuous values, where the
    duplicates are the only ties.
    """
    if grid is None:
        sig = rng.random(size)
        lds = rng.random((size, dim))
    else:
        sig = rng.integers(0, grid, size).astype(np.float64)
        lds = rng.integers(0, grid, (size, dim)).astype(np.float64)
    if size > 1:
        # copy a quarter of the rows over others: exact (σ, loads) twins
        src = rng.integers(0, size, size // 4 + 1)
        dst = rng.integers(0, size, size // 4 + 1)
        sig[dst] = sig[src]
        lds[dst] = lds[src]
    return sig, lds


class TestBlockMaskEquivalence:
    """The 2-D per-colour kernel returns the broadcast kernel's mask exactly.

    Exact soundness alone would not catch a change in block boundaries or
    in which survivors fill the window: a capped mask may keep different
    dominated rows and still be sound.  Bit-for-bit equality does.
    """

    SIZES = (0, 1, 2, 31, 32, 33, 129, 700, 1500)

    @pytest.mark.parametrize("window", [None, 1, 8, 128, 256])
    @pytest.mark.parametrize("dim", [0, 1, 2, 4])
    def test_mask_matches_broadcast_reference(self, dim, window):
        rng = np.random.default_rng(1000 * dim + (window or 0))
        for size in self.SIZES:
            for grid in (3, 12, None):
                sig, lds = tied_block(rng, size, dim, grid)
                got = pareto_block_mask(sig, lds, window=window)
                want = broadcast_block_mask(sig, lds, window=window)
                assert got.dtype == bool and got.shape == (size,)
                assert np.array_equal(got, want), (size, grid)

    @pytest.mark.parametrize("window", [None, 8, 128])
    def test_dimensionless_rows_keep_only_the_first(self, window):
        # with no load to compare, the lowest σ row dominates every other
        # row, across block boundaries too
        sig = np.arange(1500, 0, -1, dtype=np.float64)
        keep = pareto_block_mask(sig, np.empty((1500, 0)), window=window)
        assert np.flatnonzero(keep).tolist() == [1499]
