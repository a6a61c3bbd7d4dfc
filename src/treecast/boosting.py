"""Newton gradient-boosting tree engine.

Trees are grown on externally supplied per-observation gradients g and
Hessians h.  Leaf values are second-order steps -G/(H+lambda); splits
maximize the standard proportional gain

    GL^2/(HL+lam) + GR^2/(HR+lam) - (GL+GR)^2/(HL+HR+lam)

with exact (non-histogram) enumeration: numeric candidates are midpoints of
adjacent distinct values present in the node, categorical candidates are
prefix groupings of the node's codes ordered by G/H.

Everything that depends on X alone (its distinct rows, categorical codes,
each column's sort order and ranks, the bincount keys) is a SplitMatrix,
built once per fit and shared by every tree grown on X.  Trees grow on X's
distinct rows: rows with the same bytes take the same value in every
column, so no split can part them.  Each distinct row carries the sums of
g, h and the count weight over its rows, and its multiplicity (its count of
rows) as the row count, so min_leaf, "one row on each side" and the
candidates are those of every row.  Without repeated rows the grower sees
g, h and the counts as they come.  A linear leaf is fit on its own rows.

A tree grows level by level, and every column is scanned for every open
node of a depth at once.  A column with at most one distinct value per
DENSE_ROWS_PER_VALUE rows (of X, not distinct rows) is a grid column: one
bincount sums g, h, the count weight and the row count per (node, column,
rank), and one cumsum along the ranks gives every candidate.  A
high-cardinality categorical column gets a bincount of its own; a
high-cardinality numeric column is scanned through the matrix's sort
order, stably partitioned by node, with one cumsum per node along a padded
(node, position) layout.  Rows reach their children through one gather per
depth.

Ties: gains within TIE_RTOL (relative) of a node's best count as tied, and
the lowest feature id, then the lowest threshold, wins.  Different scans sum
in different orders, so this keeps the choice independent of summation
order as well as of evaluation order.

Trees are applied from a NodeTable: every node of a list of trees in
preorder, as columns (feature, threshold, children, leaf value, CSR
linear-leaf terms, sorted categorical codes).  All rows move through all
trees of a block one depth at a time, by fancy indexing on a (tree, row)
array of node ids.  ``tree_values`` evaluates one tree this way and
``TreeEnsemble.predict`` every tree of the ensemble, in blocks of at most
_GRID_CELLS (tree, row) cells, adding the trees' values in tree order.

A tree's value at a row depends on that row alone, so trees are evaluated
once per distinct feature row (``distinct_rows``, comparing rows byte for
byte) and the values gathered back to every row: in forecasting
(``predict_distinct``) and in the training update after each new tree,
which takes the distinct rows from the fit's SplitMatrix.
Calendar features repeat: every series of a panel shares the same months,
so a 40-series monthly panel has 12 distinct rows among 4800 when its
features are month and quarter.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .errors import NumericError, SchemaError

HESS_FLOOR = 1e-6


def floor_hessian(h: np.ndarray, row_mask: np.ndarray | None = None) -> np.ndarray:
    """h floored at HESS_FLOOR in every column of an (N,) or (N, P) ``h``;
    given ``row_mask`` (N,), on the rows it keeps only, and 0 on the others."""
    floored = np.maximum(h, HESS_FLOOR)
    if row_mask is None:
        return floored
    return np.where(row_mask if h.ndim == 1 else row_mask[:, None], floored, 0.0)


def leaf_weight(G: float, H: float, lam: float) -> float:
    denom = H + lam
    if denom <= 0.0:
        raise NumericError(f"leaf weight undefined: H+lambda = {denom}")
    return -G / denom


@dataclass
class BoostConfig:
    """The boosting section: how many rounds, and how each tree is grown.

    A field's ``key`` metadata names it in config files and ensemble files
    where the attribute name cannot (``lambda`` is a Python keyword).
    """

    rounds: int = 100
    learning_rate: float = 0.1
    lam: float = field(default=1.0, metadata={"key": "lambda"})
    max_depth: int = 6
    min_leaf: int = 5
    linear_leaves: bool = False
    linear_ridge: float = 1e-6


# (file key, attribute) of the settings an ensemble file records: all but rounds
_TREE_SETTINGS = tuple((f.metadata.get("key", f.name), f.name)
                       for f in fields(BoostConfig) if f.name != "rounds")


class Leaf:
    """A constant leaf, or a linear leaf: one with terms, whose value is
    ``weight + sum(coef * x[feature])``."""

    __slots__ = ("weight", "lin_features", "lin_coef")

    def __init__(self, weight, lin_features=None, lin_coef=None):
        self.weight = weight
        self.lin_features = lin_features    # tuple of feature ids
        self.lin_coef = lin_coef            # tuple of coefficients


class Split:
    __slots__ = ("feature", "kind", "threshold", "codes", "left", "right", "gain")

    def __init__(self, feature, kind, threshold, codes, left, right, gain):
        self.feature = feature
        self.kind = kind            # "num" | "cat"
        self.threshold = threshold  # numeric split point
        self.codes = codes          # frozenset of codes routed left
        self.left = left
        self.right = right
        self.gain = gain


def fit_linear_leaf(Xn, feature_ids, g, h, lam, ridge):
    """Weighted ridge fit of an affine response in the leaf.

    Minimizes sum_i h_i (g_i/h_i + f(x_i))^2 + ridge*||coef||^2 with
    f(x) = b0 + coef.x; the intercept carries the ensemble lambda so that
    with no usable features it reduces to the constant Newton step.
    Returns (intercept, feature_ids, coef, ok) and falls back to the
    constant leaf on rank deficiency (ok=False).
    """
    G, H = g.sum(), h.sum()
    const = leaf_weight(G, H, lam)
    keep = [j for j in range(Xn.shape[1]) if np.ptp(Xn[:, j]) > 0]
    if not keep or len(g) < 2:
        return const, (), (), True
    Z = np.column_stack([np.ones(len(g))] + [Xn[:, j] for j in keep])
    reg = np.diag([lam] + [ridge] * len(keep))
    A = (Z * h[:, None]).T @ Z + reg
    b = -Z.T @ g
    try:
        beta = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        return const, (), (), False
    if not np.all(np.isfinite(beta)):
        return const, (), (), False
    fids = tuple(feature_ids[j] for j in keep)
    return float(beta[0]), fids, tuple(float(b_) for b_ in beta[1:]), True


TIE_RTOL = 1e-12            # gains this close to a node's best count as tied
DENSE_ROWS_PER_VALUE = 4    # columns with at least this many rows per distinct value use the grid
_GRID_CELLS = 1 << 18       # cells per batch of a scan or of tree evaluation; bounds their memory


class SplitMatrix:
    """What a split search needs of X alone, built once per fit.

    Every tree grown on X shares it, so it keeps only what the scans read,
    in 32-bit integers.  The scans run on X's distinct rows (``rows``, by
    ``distinct_rows``): rows with the same bytes share every value, so no
    split can part them.  ``inverse`` gives each row of X its distinct row,
    and ``multiplicity`` each distinct row's count of rows in X.  Without
    repeated rows, ``rows`` is X in its own order and every multiplicity is
    1.  Categorical cells count as integer codes.
    ``values[f, ranks[:, f]]`` is column f of ``rows``; ``values`` rows are
    sorted and padded with +inf.  A column with at least
    DENSE_ROWS_PER_VALUE rows of X (not distinct rows) per distinct value is
    a grid column (``dense``): ``keys`` holds the bincount key of every
    (statistic, grid column, distinct row), and one more grid column puts
    every row at rank 0 so that its first cell sums a node's totals.  The
    other columns with two or more values are ``sparse``: the numeric ones
    (``sorted_num``) are scanned through ``order``, which lists the distinct
    rows of each by value, ties by first occurrence, and each categorical
    one has bincount keys of its own (``sorted_cat``).
    """

    def __init__(self, X, kinds):
        self.X = X
        self.rows, self.inverse = distinct_rows(X)
        self.multiplicity = np.bincount(self.inverse, minlength=len(self.rows)).astype(np.float64)
        m, n_feat = self.rows.shape
        self.is_cat = np.array([k != "num" for k in kinds], dtype=bool)
        Xr = self.rows
        if self.is_cat.any():
            Xr = Xr.copy()
            Xr[:, self.is_cat] = np.trunc(Xr[:, self.is_cat])  # categorical codes as integers
        order = Xr.argsort(axis=0, kind="stable")
        feats = np.arange(n_feat)
        sv = Xr[order, feats]
        new = np.empty(Xr.shape, dtype=bool)
        new[:1] = True
        np.not_equal(sv[1:], sv[:-1], out=new[1:])
        sorted_ranks = np.add.accumulate(new, axis=0, dtype=np.int32)
        sorted_ranks -= 1
        self.ranks = np.empty_like(sorted_ranks)
        self.ranks[order, feats] = sorted_ranks
        n_uniq = (sorted_ranks[-1] + 1).tolist() if m else [0] * n_feat
        self.n_uniq = n_uniq
        self.values = np.full((n_feat, max(n_uniq, default=1)), np.inf)
        self.values[feats, sorted_ranks] = sv

        live = [f for f in range(n_feat) if n_uniq[f] > 1]
        dense = [f for f in live if DENSE_ROWS_PER_VALUE * n_uniq[f] <= len(X)]
        sparse = [f for f in live if f not in dense]
        self.dense = np.array(dense, dtype=np.intp)
        self.sparse = np.array(sparse, dtype=np.intp)
        self.grid_cat = np.array([j for j, f in enumerate(dense) if self.is_cat[f]], dtype=np.intp)
        self.grid_feature = np.array(dense + [0], dtype=np.intp)  # the totals column never splits
        nd = len(dense)
        self.width = max([n_uniq[f] for f in dense], default=1)
        self.stride = (nd + 1) * self.width
        keys = np.empty((4, nd + 1, m), dtype=np.int32)
        keys[0, :nd] = self.ranks[:, dense].T
        keys[0, :nd] += self.width * np.arange(nd)[:, None]
        keys[0, nd] = nd * self.width
        keys[1:] = keys[0] + self.stride * np.arange(1, 4)[:, None, None]
        self.keys = keys.reshape(4 * (nd + 1), m)
        self.sorted_num = np.array([f for f in sparse if not self.is_cat[f]], dtype=np.intp)
        self.order = order.T[self.sorted_num].astype(np.int32)
        self.sorted_cat = [(f, self.ranks[:, f] + np.arange(0, 4 * n_uniq[f], n_uniq[f],
                                                            dtype=np.int32)[:, None])
                           for f in sparse if self.is_cat[f]]


class _Scan(NamedTuple):
    """Summed (g, h, count weight, rows) of one level's candidates: ``cells``
    is (node, statistic, column, slot), one row per node of the batch or of
    ``nodes``.  A slot is a rank, or a position where ``slot_ranks`` gives
    the rank; ``cat`` lists the categorical columns."""

    nodes: np.ndarray | None
    features: np.ndarray
    cells: np.ndarray
    cat: list
    slot_ranks: np.ndarray | None = None


class _LevelGrower:
    """One tree's growth on a SplitMatrix, one depth at a time.

    Every open node of a depth is scanned at once, in batches of nodes whose
    cells stay under _GRID_CELLS.  A scan is a (node, statistic, column,
    slot) array of the sums of g, h, the count weight and the row count, and
    one cumsum along the slots gives every candidate's left sums:

    - the grid columns: one bincount over the matrix's keys, a slot per rank;
    - each sorted categorical column: one bincount over its own keys;
    - the sorted numeric columns: the matrix's row order, stably partitioned
      by node once per depth, puts each node's rows in value order (ties by
      row), laid out padded as (node, position), so that each prefix is the
      sequential sum a sort and cumsum of the node's rows give.  Candidates
      are the positions where the rank changes.

    Its rows are the matrix's distinct rows, each with the sums of g, h and
    the count weight over its rows of X (one bincount over ``inverse``, in
    row order) and its multiplicity as its row count.  Node totals come from
    the grid.  Rows move to their children by one gather per depth.
    """

    def __init__(self, matrix: SplitMatrix, g, h, counts, params: BoostConfig):
        self.mx = matrix
        self.params = params
        self.g, self.h = g, h                           # every row's, for linear leaves
        m, nd = len(matrix.rows), len(matrix.dense)
        if m < len(g):
            key = matrix.inverse + m * np.arange(3)[:, None]
            g, h, counts = np.bincount(key.ravel(), np.concatenate([g, h, counts]),
                                       minlength=3 * m).reshape(3, m)
        self.c = counts
        weights = np.empty((4, nd + 1, m))
        weights[0], weights[1], weights[2], weights[3] = g, h, counts, matrix.multiplicity
        self.stats = weights[:, 0]                      # g, h, count weight, rows of each row
        self.weights = weights.reshape(4 * (nd + 1), m)
        self.floors = np.array([params.min_leaf, 1.0])[:, None, None]  # counted rows, rows
        self.rows = np.arange(m)

    def grow(self, log):
        p = self.params
        node = np.zeros(len(self.rows), dtype=np.intp)  # node of each row; finished rows: last id
        places = [(None, None)]                       # (parent Split, side) of each open node
        paths = [frozenset()]                         # numeric features split on above it
        root = None
        for depth in range(p.max_depth + 1):
            k = len(places)
            totals, found = self.level(node, k + 1, depth < p.max_depth)
            splits = self.make_splits(*found) if found else {}
            for i, (G, H, _, _) in enumerate(totals[:k].tolist()):
                obj = splits.get(i)
                if obj is None:
                    obj = self.leaf(node, i, G, H, paths[i], log)
                parent, side = places[i]
                if parent is None:
                    root = obj
                else:
                    setattr(parent, side, obj)
            if not splits:
                return root
            node = self.route(node, k, *found)
            places, child_paths = [], []
            for i, split in splits.items():
                path = paths[i] | {split.feature} if split.kind == "num" else paths[i]
                places += [(split, "left"), (split, "right")]
                child_paths += [path, path]
            paths = child_paths
        return root

    def level(self, node, n_nodes, scan):
        """Totals (G, H, C, rows) of each node and, when ``scan``, the splits.

        Node ``n_nodes - 1`` holds the rows of finished leaves and never
        splits.  The splits come as arrays: (node ids, features, thresholds,
        gains, rank tables), or None.
        """
        mx = self.mx
        layout = None
        if scan and len(mx.sorted_num):
            layout = self.partition(node, n_nodes)
        size = 4 * mx.stride
        if scan:
            size += 4 * sum(mx.n_uniq[f] for f, _ in mx.sorted_cat)
        batch = max(1, _GRID_CELLS // size)
        parts = []
        for a in range(0, n_nodes, batch):
            b = min(n_nodes, a + batch)
            sel = None if b - a == n_nodes else (node >= a) & (node < b)
            cells = self.bincount(mx.keys, self.weights, node, sel, a, b, mx.width)
            T = cells[:, :, -1, 0].copy()
            found = None
            if scan:
                scans = [_Scan(None, mx.grid_feature, cells, mx.grid_cat)]
                for f, keys in mx.sorted_cat:
                    cat_cells = self.bincount(keys, self.stats, node, sel, a, b, mx.n_uniq[f])
                    scans.append(_Scan(None, np.array([f]), cat_cells, [0]))
                if layout is not None:
                    scans += self.positions(layout, a, b)
                found = self.best_splits(scans, T, a, b == n_nodes)
            parts.append((T, found))
        if len(parts) == 1:
            return parts[0]
        found = [f for _, f in parts if f is not None]
        return (np.concatenate([t for t, _ in parts]),
                tuple(np.concatenate(x) for x in zip(*found)) if found else None)

    def bincount(self, keys, weights, node, sel, a, b, width):
        """Sums of ``weights`` per (node, statistic, column, rank) over the
        rows of nodes [a, b), all rows when ``sel`` is None.  ``keys`` and
        ``weights`` hold one row of the matrix per (statistic, column)."""
        size = len(keys) * width
        if sel is None:
            key, w = keys + node * size, weights
        else:
            key, w = keys[:, sel] + (node[sel] - a) * size, weights[:, sel]
        cells = np.bincount(key.ravel(), w.ravel(), minlength=(b - a) * size)
        return cells.reshape(b - a, 4, -1, width)

    def partition(self, node, n_nodes):
        """The rows of the nodes that can split, in node order and, within a
        node, in each sorted numeric column's order: (rows and their ranks,
        one row per column; each node's row count there; each node's first
        slot)."""
        mx = self.mx
        n_rows = np.bincount(node, minlength=n_nodes)
        counted = np.bincount(node, self.c, minlength=n_nodes)
        span = np.where((n_rows >= 2) & (counted >= 2 * self.params.min_leaf), n_rows, 0)
        span[-1] = 0  # the finished rows
        small = np.uint8 if n_nodes < 255 else np.uint16 if n_nodes < 65535 else np.intp
        key = np.where(span > 0, np.arange(n_nodes), n_nodes).astype(small)[node]
        perm = key[mx.order].argsort(axis=1, kind="stable")  # radix sort on the small key
        start = np.zeros(n_nodes + 1, dtype=np.intp)
        np.cumsum(span, out=start[1:])
        rows = np.take_along_axis(mx.order, perm[:, :start[-1]], axis=1)
        return rows, mx.ranks[rows, mx.sorted_num[:, None]], span, start

    def positions(self, layout, a, b):
        """The scans of the sorted numeric columns at nodes [a, b).

        The nodes that can split go largest first into chunks, each padded
        to its first node's rows and holding at most twice the rows it pads
        (or one node), so a few large nodes do not pad every small one.  A
        chunk's scan has (node, statistic, column, position) cells and the
        rank at each slot, -1 past a node's rows.
        """
        rows, ranks, span, start = layout
        n_col = len(rows)
        sizes = span[a:b]
        order = np.argsort(-sizes, kind="stable")[:np.count_nonzero(sizes)]
        sizes = sizes[order].tolist()
        scans, i = [], 0
        while i < len(order):
            width = held = sizes[i]
            j = i + 1
            while (j < len(order) and (j + 1 - i) * width <= 2 * (held + sizes[j])
                   and (j + 1 - i) * width * 4 * n_col <= _GRID_CELLS):
                held += sizes[j]
                j += 1
            nodes = order[i:j]
            lens = sizes[i:j]
            at = np.repeat(np.arange(j - i), lens)
            pos = np.arange(held) - (np.cumsum(lens) - lens)[at]
            slot = start[a + nodes][at] + pos
            cells = np.zeros((j - i, 4, n_col, width))
            cells[at, :, :, pos] = self.stats[:, rows[:, slot]].transpose(2, 0, 1)
            slot_ranks = np.full((j - i, n_col, width), -1, dtype=ranks.dtype)
            slot_ranks[at, :, pos] = ranks[:, slot].T
            scans.append(_Scan(nodes, self.mx.sorted_num, cells, [], slot_ranks))
            i = j
        return scans

    def best_splits(self, scans, T, a, last):
        """The splits of the nodes of one batch, as arrays (see ``level``).

        A scan covers every node of the batch, or the nodes it names.  A
        node's best gain is its maximum over every candidate of every scan;
        the split taken is the lowest feature id, then the lowest threshold
        (the shortest prefix for a categorical), among the candidates within
        TIE_RTOL of it, so summation order cannot flip a tie.  Each feature
        is in one scan of a node, and within a scan the choice is the first
        candidate in (column, slot) order that reaches the cutoff.
        """
        best, flats = None, []
        for scan in scans:
            covered = T if scan.nodes is None else T[scan.nodes]
            gains, cat_order = self.grid_gains(scan.cells, covered, scan.cat)
            ranks = scan.slot_ranks
            if ranks is not None:  # a candidate ends where the rank changes
                gains[..., :-1][ranks[..., :-1] == ranks[..., 1:]] = -np.inf
                gains[..., -1] = -np.inf
            flat = gains.reshape(len(covered), -1)
            top = np.maximum.reduce(flat, axis=1)
            if scan.nodes is not None:
                top, top[scan.nodes] = np.full(len(T), -np.inf), top
            best = top if best is None else np.maximum(best, top)
            flats.append((flat, cat_order))
        if last:
            best[-1] = -np.inf
        sn = (best > 0.0).nonzero()[0]
        if not len(sn):
            return None
        cutoff = best[sn] * (1.0 - TIE_RTOL)
        found = None
        for scan, (flat, cat_order) in zip(scans, flats):
            choice = self.choose(scan, flat, cat_order, sn, cutoff, len(T))
            if found is None:
                found = choice
                continue
            lower = choice[0] < found[0]
            for kept, new in zip(found, choice):
                kept[lower] = new[lower]
        return (sn + a,) + found

    def choose(self, scan: _Scan, flat, cat_order, sn, cutoff, n_nodes):
        """(features, thresholds, gains, rank tables) of one scan's choice at
        nodes ``sn``; the feature is past the last where no candidate of the
        scan reaches the cutoff."""
        mx = self.mx
        cells, slot_ranks = scan.cells, scan.slot_ranks
        covered = True
        if scan.nodes is not None:  # the scan's row of each node
            at = np.full(n_nodes, -1)
            at[scan.nodes] = np.arange(len(scan.nodes))
            sn = at[sn]
            covered = sn >= 0
        width = cells.shape[3]
        pos = (flat[sn] >= cutoff[:, None]).argmax(axis=1)
        gain = flat[sn, pos]
        j, r = np.divmod(pos, width)
        f = scan.features[j]
        if slot_ranks is None:  # the next rank present in the node
            lo = r
            hi = ((cells[sn, 3, j] > 0) & (np.arange(width) > r[:, None])).argmax(axis=1)
        else:
            lo, hi = slot_ranks[sn, j, r], slot_ranks[sn, j, np.minimum(r + 1, width - 1)]
        thr = 0.5 * (mx.values[f, lo] + mx.values[f, hi])
        tables = mx.values[f] < thr[:, None]
        chosen = (gain >= cutoff) & covered
        if cat_order is not None:
            for q in (mx.is_cat[f] & chosen).nonzero()[0]:
                tables[q] = False
                tables[q, cat_order[sn[q], j[q], :r[q] + 1]] = True
        return np.where(chosen, f, len(mx.n_uniq)), thr, gain, tables

    def grid_gains(self, cells, T, cat):
        """Candidate gains of every cell of a scan, -inf where a cell is no
        candidate, and the rank at each cell of its categorical columns
        ``cat``.

        Cells of a categorical column are first put in G/H order (code order
        on ties, absent codes last), so that a prefix of its cells is a
        candidate as a prefix of ranks is for a numeric column.  A rank
        absent from a node repeats the sums, and so the gain, of the rank
        before it, which the tie rule never prefers.  A candidate needs
        min_leaf counted rows and one row on each side; the totals column
        never has a row on its right.
        """
        p = self.params
        cat_order = None
        if len(cat):
            cat = np.asarray(cat)
            G, H, N = cells[:, 0, cat], cells[:, 1, cat], cells[:, 3, cat]
            ratio = np.where(H > 0, G / np.maximum(H, 1e-300), 0.0)
            ratio[N == 0] = np.inf
            order = ratio.argsort(axis=2, kind="stable")
            nodes = np.arange(len(T))[:, None, None, None]
            cells[:, :, cat] = cells[nodes, np.arange(4)[:, None, None], cat[:, None],
                                     order[:, None]]
            cat_order = np.zeros(cells[:, 0].shape, dtype=np.intp)
            cat_order[:, cat] = order
        sides = np.empty((2,) + cells.shape)  # left and right sums of each candidate
        np.add.accumulate(cells, axis=3, out=sides[0])
        np.subtract(T[:, :, None, None], sides[0], out=sides[1])
        terms = sides[:, :, 0] ** 2 / (sides[:, :, 1] + p.lam)
        gains = terms[0] + terms[1] - (T[:, 0] ** 2 / (T[:, 1] + p.lam))[:, None, None]
        ok = np.minimum(sides[0, :, 2:], sides[1, :, 2:]) >= self.floors
        return np.where(ok[:, 0] & ok[:, 1], gains, -np.inf), cat_order

    def make_splits(self, ids, feat, thr, gain, tables):
        mx = self.mx
        splits = {}
        for t, (i, f, th, gn) in enumerate(zip(ids.tolist(), feat.tolist(), thr.tolist(),
                                               gain.tolist())):
            if mx.is_cat[f]:
                codes = frozenset(int(c) for c in mx.values[f, tables[t].nonzero()[0]])
                splits[i] = Split(f, "cat", None, codes, None, None, gn)
            else:
                splits[i] = Split(f, "num", th, None, None, None, gn)
        return splits

    def route(self, node, k, ids, feat, thr, gain, tables):
        """Node ids of the next depth: the i-th split's children are 2i and 2i+1.

        Rows of finished leaves go to the last node, 2 * len(ids).
        """
        which = np.full(k + 1, -1)
        which[ids] = np.arange(len(ids))
        s = which[node]
        child = 2 * s + ~tables[s, self.mx.ranks[self.rows, feat[s]]]
        return np.where(s >= 0, child, 2 * len(ids))

    def leaf(self, node, i, G, H, path, log):
        p = self.params
        if not p.linear_leaves:
            return Leaf(leaf_weight(G, H, p.lam))
        seg = np.flatnonzero(node[self.mx.inverse] == i)  # the leaf's rows of X
        fids = sorted(path)
        Xn = self.mx.X[np.ix_(seg, fids)] if fids else np.zeros((len(seg), 0))
        b0, lin_fids, coef, ok = fit_linear_leaf(Xn, fids, self.g[seg], self.h[seg], p.lam,
                                                 p.linear_ridge)
        if not ok and log is not None:
            log.append("linear leaf fell back to constant (singular system)")
        if lin_fids:
            return Leaf(b0, lin_fids, coef)
        return Leaf(b0)


class NodeTable:
    """Every node of a list of trees in preorder, as columns.

    Per node: ``is_split``, ``feature``, ``threshold`` (NaN but at
    numeric splits), ``left`` and ``right`` (a leaf points to itself),
    ``value`` (a leaf's weight; 0 at a split) and
    ``gain`` (0 at a leaf).  Linear-leaf terms are CSR rows: node i's
    features and coefficients are ``lin_feature``/``lin_coef`` at
    ``lin_ptr[i]:lin_ptr[i + 1]``.  The codes a categorical split
    (``is_cat``) sends left are sorted keys ``node * len(codes) + rank`` in
    ``cat_keys``, where ``codes`` are the distinct codes of every such
    split.  ``roots`` gives each tree's first node.
    """

    def __init__(self, trees):
        is_split, splits, leaves, roots = [], [], [], []
        for tree in trees:
            roots.append(len(is_split))
            stack = [tree]
            while stack:
                node = stack.pop()
                if node.__class__ is Split:
                    is_split.append(True)
                    splits.append(node)
                    stack.append(node.right)
                    stack.append(node.left)
                else:
                    is_split.append(False)
                    leaves.append(node)
        self.is_split = is_split = np.array(is_split, dtype=bool)
        n = len(is_split)
        ids = np.arange(n)

        # In preorder a split's left child is the next node.  Let a node's
        # level be the count of splits minus leaves before it: the left child
        # is one level above its split, the left subtree stays above it, and
        # the right child is the next node back at the split's level.
        step = np.where(is_split, 1, -1)
        level = np.cumsum(step) - step
        by_level = np.argsort(level, kind="stable")
        after = ids.copy()      # the next node of the same level
        after[by_level[:-1]] = by_level[1:]
        self.left = np.where(is_split, ids + 1, ids)
        self.right = np.where(is_split, after, ids)
        self.roots = np.array(roots, dtype=np.intp)

        self.feature = np.zeros(n, dtype=np.intp)
        self.feature[is_split] = [s.feature for s in splits]
        self.gain = np.zeros(n)
        self.gain[is_split] = [s.gain for s in splits]
        cat = [s.kind == "cat" for s in splits]
        self.is_cat = np.zeros(n, dtype=bool)
        self.is_cat[is_split] = cat
        self.threshold = np.full(n, np.nan)
        self.threshold[is_split & ~self.is_cat] = [s.threshold for s, c in zip(splits, cat)
                                                   if not c]
        cat_codes = [sorted(s.codes) for s, c in zip(splits, cat) if c]
        codes = np.array([c for cs in cat_codes for c in cs], dtype=np.int64)
        self.codes = self.cat_keys = codes
        if len(codes):
            self.codes = np.unique(codes)
            owner = np.repeat(ids[self.is_cat], [len(cs) for cs in cat_codes])
            self.cat_keys = owner * len(self.codes) + np.searchsorted(self.codes, codes)

        self.value = np.zeros(n)
        self.value[~is_split] = [leaf.weight for leaf in leaves]
        linear = [leaf for leaf in leaves if leaf.lin_features]
        self.lin_feature = np.array([f for leaf in linear for f in leaf.lin_features],
                                    dtype=np.intp)
        self.lin_coef = np.array([c for leaf in linear for c in leaf.lin_coef],
                                 dtype=np.float64)
        self.lin_ptr = np.zeros(n + 1, dtype=np.intp)
        if linear:
            self.lin_ptr[1:][~is_split] = [len(leaf.lin_features or ()) for leaf in leaves]
            np.cumsum(self.lin_ptr, out=self.lin_ptr)

    def in_codes(self, node, codes):
        """Whether each code is one its categorical split sends left."""
        rank = np.minimum(np.searchsorted(self.codes, codes), len(self.codes) - 1)
        key = node * len(self.codes) + rank
        at = np.minimum(np.searchsorted(self.cat_keys, key), len(self.cat_keys) - 1)
        return (self.codes[rank] == codes) & (self.cat_keys[at] == key)

    def evaluate(self, X, a=0, b=None):
        """(trees, rows) values of trees [a, b) at every row of X.

        Every row moves through every tree one depth at a time, until all
        are at leaves; a row at a leaf stays there.  A categorical split
        without codes sends every row right, as its NaN threshold does.  A
        linear leaf adds its terms in stored order.
        """
        b = len(self.roots) if b is None else min(b, len(self.roots))
        rows = np.arange(X.shape[0])
        node = np.broadcast_to(self.roots[a:b, None], (b - a, len(rows)))
        while self.is_split[node].any():
            v = X[rows, self.feature[node]]
            left = v < self.threshold[node]
            if len(self.cat_keys):
                cat = self.is_cat[node]
                left[cat] = self.in_codes(node[cat], v[cat].astype(np.int64))
            node = np.where(left, self.left[node], self.right[node])
        out = self.value[node]
        if len(self.lin_coef):
            start = self.lin_ptr[node]
            n_terms = self.lin_ptr[node + 1] - start
            for k in range(n_terms.max(initial=0)):
                t, r = np.nonzero(n_terms > k)
                j = start[t, r] + k
                out[t, r] += self.lin_coef[j] * X[r, self.lin_feature[j]]
        return out


def tree_values(tree, X):
    """One tree's values at every row of X."""
    return NodeTable([tree]).evaluate(X)[0]


def distinct_rows(X):
    """X's distinct rows, compared byte for byte and in the order of their
    first occurrence, and each row's index among them: ``rows[inverse]`` is
    X bit for bit.  Without repeated rows, ``rows`` is X in its own order.

    A tree routes and values each row on its own, so its values at X are
    its values at ``rows`` gathered by ``inverse``.  Comparing bytes rather
    than values keeps -0.0 apart from 0.0 and NaNs apart by payload, so no
    row is evaluated on cells other than its own.
    """
    X = np.ascontiguousarray(X)
    n, width = X.shape
    if width == 0:  # every row is the same empty row
        return X[:1], np.zeros(n, dtype=np.intp)
    keys = X.view(np.dtype((np.void, X.itemsize * width))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(by_first))
    return X[first[by_first]], rank[inverse]


def predict_distinct(ensembles, X):
    """(U, E) predictions of E ensembles at the U distinct rows of X, and
    each row's index among them (``distinct_rows``): ``values[inverse]`` is
    every ensemble's ``predict(X)``, each from one ``predict`` on U rows."""
    rows, inverse = distinct_rows(X)
    values = np.empty((len(rows), len(ensembles)))
    for j, ens in enumerate(ensembles):
        values[:, j] = ens.predict(rows)
    return values, inverse


class TreeEnsemble:
    """Ordered additive ensemble: prediction = base + sum(lr * tree(x)).

    Trees stay ``Leaf``/``Split`` graphs, the form the ensemble file
    stores.  ``predict`` lays them out as one ``NodeTable`` per call and
    evaluates them in blocks of at most _GRID_CELLS (tree, row) cells, then
    adds the trees' values in tree order.  Appending a tree never mutates
    earlier trees; a trained ensemble is immutable for prediction purposes
    and shareable across threads.
    """

    def __init__(self, params: BoostConfig, base: float = 0.0, n_features: int | None = None):
        self.params = params
        self.base = base
        self.n_features = n_features
        self.trees: list = []

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.n_features is not None and X.shape[1] != self.n_features:
            raise SchemaError(
                f"ensemble expects {self.n_features} features, got {X.shape[1]}"
            )
        out = np.full(X.shape[0], self.base, dtype=np.float64)
        table = NodeTable(self.trees)
        block = max(1, _GRID_CELLS // max(X.shape[0], 1))
        for a in range(0, len(self.trees), block):
            for values in self.params.learning_rate * table.evaluate(X, a, a + block):
                out += values
        return out

    def boost_round(self, matrix: SplitMatrix, g, h, counts=None, log=None):
        """Append one tree grown on (g, h) over the rows of ``matrix``; g must
        match current predictions.  ``counts`` (0/1 per row, default all 1)
        says which rows count toward min_leaf."""
        if self.n_features is None:
            self.n_features = matrix.X.shape[1]
        if counts is None:
            counts = np.ones(len(g))
        with np.errstate(divide="ignore", invalid="ignore"):
            tree = _LevelGrower(matrix, g, h, counts, self.params).grow(log)
        self.trees.append(tree)
        return tree

    def gain_importances(self) -> dict:
        """Summed split gain per feature, added in preorder, tree by tree."""
        table = NodeTable(self.trees)
        acc: dict = {}
        for f, gain in zip(table.feature[table.is_split].tolist(),
                           table.gain[table.is_split].tolist()):
            acc[f] = acc.get(f, 0.0) + gain
        return acc

    # -- persistence ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "base": self.base,
            "n_features": self.n_features,
            **{key: getattr(self.params, attr) for key, attr in _TREE_SETTINGS},
            "trees": [_node_to_dict(t) for t in self.trees],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TreeEnsemble":
        params = BoostConfig(rounds=len(d["trees"]),
                             **{attr: d[key] for key, attr in _TREE_SETTINGS})
        ens = cls(params, base=d["base"], n_features=d["n_features"])
        ens.trees = [_node_from_dict(t) for t in d["trees"]]
        return ens


def _node_to_dict(node):
    if isinstance(node, Leaf):
        d = {"type": "leaf", "weight": node.weight}
        if node.lin_features:
            d["lin_features"] = list(node.lin_features)
            d["lin_coef"] = list(node.lin_coef)
        return d
    d = {
        "type": "split",
        "feature": node.feature,
        "kind": node.kind,
        "gain": node.gain,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }
    if node.kind == "num":
        d["threshold"] = node.threshold
    else:
        d["codes"] = sorted(node.codes)
    return d


def _node_from_dict(d):
    if d["type"] == "leaf":
        if "lin_features" in d:
            # files written before linear leaves stored their value once
            # carry it in "intercept" as well, the key the evaluator read
            return Leaf(d.get("intercept", d["weight"]), tuple(d["lin_features"]),
                        tuple(d["lin_coef"]))
        return Leaf(d["weight"])
    return Split(
        d["feature"],
        d["kind"],
        d.get("threshold"),
        frozenset(d["codes"]) if d["kind"] == "cat" else None,
        _node_from_dict(d["left"]),
        _node_from_dict(d["right"]),
        d["gain"],
    )
