"""Property tests for the shared Pareto-frontier filters.

Seeded fuzz loops (hypothesis-style, no dependency) pin both filters against
a naive O(F²) reference filter:

* the surviving set equals the maximal elements of the input, duplicates
  collapsed — *exactly*, for :func:`pareto_front` and the block-mask
  kernel;
* the result is independent of input order;
* :func:`pareto_front` returns the front in ascending ``(σ, loads)`` order
  and of two exact duplicates keeps the earlier one with its payload.

Load values are drawn from small integer grids so ties and dominations are
frequent — the regime where off-by-one tie handling would diverge from the
reference.
"""

import itertools
import random

import pytest

import numpy as np

from repro.core.frontier import pareto_block_mask, pareto_front


def naive_front(items):
    """Reference O(F²) sequential insert-and-prune, in insertion order.

    Items are ``(σ, loads, ...)`` tuples.  Dominance is componentwise
    ``<=`` on (σ, loads); exact ties count as dominated, so the first of two
    equal labels survives.
    """
    kept = []
    for item in items:
        s, loads = item[0], item[1]
        if any(k[0] <= s and all(a <= b for a, b in zip(k[1], loads))
               for k in kept):
            continue
        kept = [k for k in kept
                if not (s <= k[0] and all(a <= b for a, b in zip(loads, k[1])))]
        kept.append(item)
    return kept


def naive_filter(items):
    """The reference survivor set of ``(σ, loads)`` pairs."""
    return {(item[0], item[1]) for item in naive_front(items)}


def random_items(rng, count, dim, grid=6):
    return [(float(rng.randrange(grid)),
             tuple(float(rng.randrange(grid)) for _ in range(dim)))
            for _ in range(count)]


def front_set(labels):
    return {(label[0], label[1]) for label in pareto_front(labels)}


class TestParetoFront:
    @pytest.mark.parametrize("dim", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_naive_filter(self, dim, seed):
        rng = random.Random(seed * 101 + dim)
        items = random_items(rng, 120, dim)
        assert front_set(items) == naive_filter(items)

    def test_order_independence(self):
        rng = random.Random(4242)
        items = random_items(rng, 24, 2, grid=4)
        reference = front_set(items)
        for _ in range(12):
            rng.shuffle(items)
            assert front_set(items) == reference

    @pytest.mark.parametrize("dim", [0, 1, 2, 4])
    @pytest.mark.parametrize("seed", range(6))
    def test_order_and_first_duplicate_with_payloads(self, dim, seed):
        # payload = input position: the front is the reference's survivors,
        # earlier duplicates winning, sorted by (σ, loads)
        rng = random.Random(seed * 7 + dim)
        items = [(s, loads, i) for i, (s, loads)
                 in enumerate(random_items(rng, 150, dim, grid=4))]
        expected = sorted(naive_front(items), key=lambda item: item[:2])
        assert pareto_front(items) == expected

    def test_dominators_and_duplicates(self):
        labels = [(1.0, (1.0, 1.0), "a"),
                  (2.0, (1.0, 1.0), "dominated"),
                  (0.5, (2.0, 0.5), "b"),
                  (0.5, (1.0, 0.5), "c"),           # dominates "a" and "b"
                  (0.5, (1.0, 0.5), "twin")]        # exact tie: "c" wins
        assert pareto_front(labels) == [(0.5, (1.0, 0.5), "c")]
        assert pareto_front([]) == []
        assert pareto_front(labels[:1]) == labels[:1]

    def test_exhaustive_tiny_cases(self):
        # every multiset of 4 labels over a 2x2x2 grid, every order
        grid = [(float(s), (float(a), float(b)))
                for s in range(2) for a in range(2) for b in range(2)]
        rng = random.Random(0)
        for _ in range(200):
            items = [rng.choice(grid) for _ in range(4)]
            for perm in itertools.permutations(items):
                assert front_set(list(perm)) == naive_filter(perm)


class TestBlockMask:
    @pytest.mark.parametrize("dim", [0, 1, 2, 4])
    @pytest.mark.parametrize("seed", range(6))
    def test_exact_mask_equals_pareto_front(self, dim, seed):
        # the sweep's block kernel and the tree DP's list filter are the
        # same filter: identical survivors on the same labels
        rng = random.Random(seed * 31 + dim)
        items = random_items(rng, 400, dim)
        sig = np.array([s for s, _ in items])
        lds = np.array([l for _, l in items]).reshape(len(items), dim)
        keep = pareto_block_mask(sig, lds)
        assert {items[i] for i in range(len(items)) if keep[i]} == \
            front_set(items)

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
