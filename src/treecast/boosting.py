"""Newton gradient-boosting tree engine.

Trees are grown on externally supplied per-observation gradients g and
Hessians h.  Leaf values are second-order steps -G/(H+lambda); splits
maximize the standard proportional gain

    GL^2/(HL+lam) + GR^2/(HR+lam) - (GL+GR)^2/(HL+HR+lam)

with exact (non-histogram) enumeration: numeric candidates are midpoints of
adjacent distinct values present in the node, categorical candidates are
prefix groupings of the node's codes ordered by G/H.

A tree grows level by level.  Each column is ranked once per tree.  A
column with at most one distinct value per DENSE_ROWS_PER_VALUE rows is
scanned for every open node of a depth at once: one bincount sums g, h,
the count weight and the row count per (node, column, rank), and one
cumsum along the ranks gives every candidate.  Other columns keep a sorted
scan per node.  Rows reach their children through one gather per depth.

Ties: gains within TIE_RTOL (relative) of a node's best count as tied, and
the lowest feature id, then the lowest threshold, wins.  Different scans sum
in different orders, so this keeps the choice independent of summation
order as well as of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, SchemaError

HESS_FLOOR = 1e-6


def floor_hessian(h: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Floor h at HESS_FLOOR on contributing rows; masked rows stay 0."""
    out = np.maximum(h, HESS_FLOOR)
    if mask is not None:
        out = np.where(mask, out, 0.0)
    return out


def leaf_weight(G: float, H: float, lam: float) -> float:
    denom = H + lam
    if denom <= 0.0:
        raise NumericError(f"leaf weight undefined: H+lambda = {denom}")
    return -G / denom


def split_gain(GL: float, HL: float, GR: float, HR: float, lam: float) -> float:
    return (
        GL * GL / (HL + lam)
        + GR * GR / (HR + lam)
        - (GL + GR) ** 2 / (HL + HR + lam)
    )


@dataclass
class TreeParams:
    learning_rate: float = 0.1
    lam: float = 1.0
    max_depth: int = 6
    min_leaf: int = 5
    linear_leaves: bool = False
    linear_ridge: float = 1e-6


class Leaf:
    __slots__ = ("weight", "intercept", "lin_features", "lin_coef")

    def __init__(self, weight, intercept=None, lin_features=None, lin_coef=None):
        self.weight = weight
        self.intercept = intercept          # linear leaf only
        self.lin_features = lin_features    # tuple of feature ids
        self.lin_coef = lin_coef            # tuple of coefficients

    @property
    def is_linear(self):
        return self.intercept is not None

    def value(self, X, idx):
        if not self.is_linear:
            return np.full(len(idx), self.weight)
        out = np.full(len(idx), self.intercept)
        for fid, c in zip(self.lin_features, self.lin_coef):
            out += c * X[idx, fid]
        return out


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

    def goes_left(self, X, idx):
        v = X[idx, self.feature]
        if self.kind == "num":
            return v < self.threshold
        return np.isin(v.astype(np.int64), list(self.codes))


def _gains(GL, HL, CL, G, H, C, lam, min_leaf):
    """Split gains of left prefixes (GL, HL, CL) of a node with totals (G, H, C).

    Candidates that leave fewer than min_leaf counted rows on either side
    get -inf.
    """
    GR, HR, CR = G - GL, H - HL, C - CL
    gains = GL * GL / (HL + lam) + GR * GR / (HR + lam) - G * G / (H + lam)
    return np.where((CL >= min_leaf) & (CR >= min_leaf), gains, -np.inf)


def _scan_numeric(v, g, h, c, G, H, C, lam, min_leaf):
    """Sorted scan of one numeric column at one node.

    Returns (gains, thresholds) over the midpoints of adjacent distinct
    values, or None when the node holds one distinct value.
    """
    order = np.argsort(v, kind="stable")
    sv = v[order]
    cut = np.nonzero(sv[:-1] != sv[1:])[0]
    if len(cut) == 0:
        return None
    GL = np.cumsum(g[order])[cut]
    HL = np.cumsum(h[order])[cut]
    CL = np.cumsum(c[order])[cut]
    return _gains(GL, HL, CL, G, H, C, lam, min_leaf), 0.5 * (sv[cut] + sv[cut + 1])


def _scan_categorical(codes, g, h, c, G, H, C, lam, min_leaf):
    """Sorted scan of one categorical column at one node.

    Candidates are prefixes of the node's codes ordered by G/H (code order
    on ties).  Returns (gains, codes in scan order), or None when the node
    holds one code.
    """
    uniq, inverse = np.unique(codes, return_inverse=True)
    if len(uniq) < 2:
        return None
    Gc = np.bincount(inverse, weights=g)
    Hc = np.bincount(inverse, weights=h)
    Cc = np.bincount(inverse, weights=c)
    ratio = np.where(Hc > 0, Gc / np.maximum(Hc, 1e-300), 0.0)
    order = np.lexsort((uniq, ratio))  # ratio asc, code asc on ties
    GL = np.cumsum(Gc[order])[:-1]
    HL = np.cumsum(Hc[order])[:-1]
    CL = np.cumsum(Cc[order])[:-1]
    return _gains(GL, HL, CL, G, H, C, lam, min_leaf), uniq[order]


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
_GRID_CELLS = 1 << 18       # grid cells per batch of nodes; bounds the scan's memory


class _LevelGrower:
    """One tree's growth, one depth at a time.

    Every column is ranked once: ``values[f, ranks[:, f]]`` is column f of
    the training rows (integer codes for categoricals), and ``values`` rows
    are sorted and padded with +inf.  A column with few distinct values for
    its row count is a grid column: one ``bincount`` per depth sums g, h,
    the count weight and the row count into a (node, statistic, column,
    rank) grid for every open node at once, and one cumsum along the ranks
    gives every candidate's left sums.  One more grid column holds each
    node's totals in its first cell.  Other columns are scanned node by
    node after a sort.  Rows move to their children by one gather per depth.
    """

    def __init__(self, X, kinds, g, h, counts, idx, params: TreeParams):
        self.params = params
        self.X = X[idx]
        self.g, self.h, self.c = g[idx], h[idx], counts[idx]
        m, n_feat = self.X.shape
        self.is_cat = [k != "num" for k in kinds]
        Xr = self.X
        if any(self.is_cat):
            Xr = Xr.copy()
            Xr[:, self.is_cat] = np.trunc(Xr[:, self.is_cat])  # categorical codes as integers
        order = Xr.argsort(axis=0, kind="stable")
        feats = np.arange(n_feat)
        sv = Xr[order, feats]
        new = np.empty(Xr.shape, dtype=bool)
        new[:1] = True
        np.not_equal(sv[1:], sv[:-1], out=new[1:])
        sorted_ranks = np.add.accumulate(new, axis=0, dtype=np.intp)
        sorted_ranks -= 1
        self.ranks = np.empty_like(sorted_ranks)
        self.ranks[order, feats] = sorted_ranks
        n_uniq = (sorted_ranks[-1] + 1).tolist() if m else [0] * n_feat
        self.n_uniq = n_uniq
        self.values = np.full((n_feat, max(n_uniq, default=1)), np.inf)
        self.values[feats, sorted_ranks] = sv
        self.cols = Xr.T

        live = [f for f in range(n_feat) if n_uniq[f] > 1]
        dense = [f for f in live if DENSE_ROWS_PER_VALUE * n_uniq[f] <= m]
        self.dense = np.array(dense, dtype=np.intp)
        self.sparse = np.array([f for f in live if f not in dense], dtype=np.intp)
        self.grid_cat = np.array([j for j, f in enumerate(dense) if self.is_cat[f]], dtype=np.intp)
        self.grid_feature = np.array(dense + [0], dtype=np.intp)  # the totals column never splits
        nd = len(dense)
        self.width = max([n_uniq[f] for f in dense], default=1)
        self.stride = (nd + 1) * self.width
        # bincount keys and weights of every (statistic, grid column, row)
        keys = np.empty((4, nd + 1, m), dtype=np.intp)
        keys[0, :nd] = self.ranks[:, dense].T
        keys[0, :nd] += self.width * np.arange(nd)[:, None]
        keys[0, nd] = nd * self.width
        keys[1:] = keys[0] + self.stride * np.arange(1, 4)[:, None, None]
        self.keys = keys.reshape(4 * (nd + 1), m)
        weights = np.empty((4, nd + 1, m))
        weights[0], weights[1], weights[2], weights[3] = self.g, self.h, self.c, 1.0
        self.weights = weights.reshape(4 * (nd + 1), m)
        self.floors = np.array([params.min_leaf, 1.0])[:, None, None]  # counted rows, rows
        self.rows = np.arange(m)
        self.rank_ids = np.arange(self.width)

    def grow(self, log):
        p = self.params
        node = np.zeros(len(self.g), dtype=np.intp)  # node of each row; finished rows: last id
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
        size = 4 * self.stride
        batch = max(1, _GRID_CELLS // size)
        parts = []
        for a in range(0, n_nodes, batch):
            b = min(n_nodes, a + batch)
            if b - a == n_nodes:
                key, weights = self.keys + node * size, self.weights
            else:
                sel = (node >= a) & (node < b)
                key, weights = self.keys[:, sel] + (node[sel] - a) * size, self.weights[:, sel]
            cells = np.bincount(key.ravel(), weights.ravel(), minlength=(b - a) * size)
            cells = cells.reshape(b - a, 4, -1, self.width)
            found = self.best_splits(cells, node, a, b == n_nodes) if scan else None
            parts.append((cells[:, :, -1, 0], found))
        if len(parts) == 1:
            return parts[0]
        found = [f for _, f in parts if f is not None]
        return (np.concatenate([t for t, _ in parts]),
                tuple(np.concatenate(x) for x in zip(*found)) if found else None)

    def best_splits(self, cells, node, a, last):
        """The splits of the nodes of one grid batch, as arrays (see ``level``).

        A node's best gain is its maximum over every candidate; the split
        taken is the lowest feature id, then the lowest threshold (the
        shortest prefix for a categorical), among the candidates within
        TIE_RTOL of it, so summation order cannot flip a tie.  On the grid
        that is the first candidate in (column, rank) order that reaches
        the cutoff.
        """
        if not (len(self.dense) or len(self.sparse)):
            return None
        T = cells[:, :, -1, 0]
        if len(self.dense):
            gains, cat_order = self.grid_gains(cells, T)
            flat = gains.reshape(len(T), -1)
            best = np.maximum.reduce(flat, axis=1)
        if len(self.sparse):
            sparse_max, found = self.sorted_scans(T, node, a, last)
            sparse_best = np.maximum.reduce(sparse_max, axis=1)
            best = np.maximum(best, sparse_best) if len(self.dense) else sparse_best
        if last:
            best[-1] = -np.inf
        sn = (best > 0.0).nonzero()[0]
        if not len(sn):
            return None
        cutoff = best[sn] * (1.0 - TIE_RTOL)
        n_feat = len(self.n_uniq)
        if len(self.dense):
            pos = (flat[sn] >= cutoff[:, None]).argmax(axis=1)
            gain = flat[sn, pos]
            j, r = np.divmod(pos, self.width)
            f = self.grid_feature[j]
            nxt = ((cells[sn, 3, j] > 0) & (self.rank_ids > r[:, None])).argmax(axis=1)
            thr = 0.5 * (self.values[f, r] + self.values[f, nxt])
            tables = self.values[f] < thr[:, None]
            feat = np.where(gain >= cutoff, f, n_feat) if len(self.sparse) else f
            if len(self.grid_cat):
                for q in (feat < n_feat).nonzero()[0]:
                    if self.is_cat[f[q]]:
                        tables[q] = False
                        tables[q, cat_order[sn[q], j[q], :r[q] + 1]] = True
        else:
            gain, thr = np.empty(len(sn)), np.empty(len(sn))
            tables = np.empty((len(sn), self.values.shape[1]), dtype=bool)
            feat = np.full(len(sn), n_feat)
        if len(self.sparse):
            hit = sparse_max[sn] >= cutoff[:, None]
            first = np.where(hit.any(axis=1), self.sparse[hit.argmax(axis=1)], n_feat)
            for t in (first < feat).nonzero()[0]:
                feat[t] = first[t]
                gain[t], thr[t], tables[t] = self.sorted_choice(found[sn[t], first[t]], first[t],
                                                                cutoff[t])
        return sn + a, feat, thr, gain, tables

    def sorted_scans(self, T, node, a, last):
        """Best gain of every sorted column at every node, scanned node by node."""
        p = self.params
        best = np.full((len(T), len(self.sparse)), -np.inf)
        found = {}
        can = (T[:, 3] >= 2) & (T[:, 2] >= 2 * p.min_leaf)
        if last:
            can[-1] = False  # the finished rows
        for i in can.nonzero()[0]:
            seg = (node == a + i).nonzero()[0]
            gg, hh, cc = self.g[seg], self.h[seg], self.c[seg]
            G, H, C = gg.sum(), hh.sum(), cc.sum()
            for col, f in enumerate(self.sparse):
                scan_column = _scan_categorical if self.is_cat[f] else _scan_numeric
                res = scan_column(self.cols[f][seg], gg, hh, cc, G, H, C, p.lam, p.min_leaf)
                if res is not None:
                    found[i, f] = res
                    best[i, col] = res[0].max()
        return best, found

    def sorted_choice(self, found, f, cutoff):
        """(gain, threshold, rank table) of a sorted column's chosen candidate."""
        cand, payload = found
        r = int((cand >= cutoff).argmax())
        if self.is_cat[f]:
            table = np.zeros(self.values.shape[1], dtype=bool)
            table[self.values[f, :self.n_uniq[f]].searchsorted(payload[:r + 1])] = True
            return cand[r], np.nan, table
        return cand[r], payload[r], self.values[f] < payload[r]

    def grid_gains(self, cells, T):
        """Candidate gains of every grid cell, -inf where a cell is no candidate,
        and the rank of each cell of a categorical column.

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
        if len(self.grid_cat):
            cat = self.grid_cat
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
        splits = {}
        for t, (i, f, th, gn) in enumerate(zip(ids.tolist(), feat.tolist(), thr.tolist(),
                                               gain.tolist())):
            if self.is_cat[f]:
                codes = frozenset(int(c) for c in self.values[f, tables[t].nonzero()[0]])
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
        child = 2 * s + ~tables[s, self.ranks[self.rows, feat[s]]]
        return np.where(s >= 0, child, 2 * len(ids))

    def leaf(self, node, i, G, H, path, log):
        p = self.params
        if not p.linear_leaves:
            return Leaf(leaf_weight(G, H, p.lam))
        seg = np.flatnonzero(node == i)
        fids = sorted(path)
        Xn = self.X[np.ix_(seg, fids)] if fids else np.zeros((len(seg), 0))
        b0, lin_fids, coef, ok = fit_linear_leaf(Xn, fids, self.g[seg], self.h[seg], p.lam,
                                                 p.linear_ridge)
        if not ok and log is not None:
            log.append("linear leaf fell back to constant (singular system)")
        if lin_fids:
            return Leaf(b0, intercept=b0, lin_features=lin_fids, lin_coef=coef)
        return Leaf(b0)


def grow_tree(X, kinds, g, h, idx, params: TreeParams, counts=None, log=None):
    """Grow one tree by greedy gain maximization, level by level.

    ``idx`` selects the training rows; ``counts`` (0/1 per row) says which
    rows count toward min_leaf (masked rows carry g=h=0 and count 0).
    Splits require positive gain and min_leaf on both children; depth is
    limited by params.max_depth.
    """
    if counts is None:
        counts = np.ones(len(g))
    with np.errstate(divide="ignore", invalid="ignore"):
        return _LevelGrower(X, kinds, g, h, counts, np.asarray(idx), params).grow(log)


def tree_values(node, X, idx=None):
    """Evaluate one tree on rows idx of X."""
    if idx is None:
        idx = np.arange(X.shape[0])
    out = np.empty(len(idx))

    def walk(node, sub, pos):
        if isinstance(node, Leaf):
            out[pos] = node.value(X, sub)
            return
        left = node.goes_left(X, sub)
        if left.any():
            walk(node.left, sub[left], pos[left])
        if not left.all():
            walk(node.right, sub[~left], pos[~left])

    walk(node, np.asarray(idx), np.arange(len(idx)))
    return out


def tree_gain_by_feature(node, acc):
    if isinstance(node, Split):
        acc[node.feature] = acc.get(node.feature, 0.0) + node.gain
        tree_gain_by_feature(node.left, acc)
        tree_gain_by_feature(node.right, acc)
    return acc


class TreeEnsemble:
    """Ordered additive ensemble: prediction = base + sum(lr * tree(x)).

    Appending a tree never mutates earlier trees; a trained ensemble is
    immutable for prediction purposes and shareable across threads.
    """

    def __init__(self, params: TreeParams, base: float = 0.0, n_features: int | None = None):
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
        for tree in self.trees:
            out += self.params.learning_rate * tree_values(tree, X)
        return out

    def boost_round(self, X, kinds, g, h, counts=None, log=None):
        """Append one tree grown on (g, h); g must match current predictions."""
        if self.n_features is None:
            self.n_features = X.shape[1]
        tree = grow_tree(X, kinds, g, h, np.arange(X.shape[0]), self.params, counts, log)
        self.trees.append(tree)
        return tree

    def gain_importances(self) -> dict:
        acc: dict = {}
        for tree in self.trees:
            tree_gain_by_feature(tree, acc)
        return acc

    # -- persistence ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "base": self.base,
            "n_features": self.n_features,
            "learning_rate": self.params.learning_rate,
            "lambda": self.params.lam,
            "max_depth": self.params.max_depth,
            "min_leaf": self.params.min_leaf,
            "linear_leaves": self.params.linear_leaves,
            "linear_ridge": self.params.linear_ridge,
            "trees": [_node_to_dict(t) for t in self.trees],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TreeEnsemble":
        params = TreeParams(
            learning_rate=d["learning_rate"],
            lam=d["lambda"],
            max_depth=d["max_depth"],
            min_leaf=d["min_leaf"],
            linear_leaves=d["linear_leaves"],
            linear_ridge=d["linear_ridge"],
        )
        ens = cls(params, base=d["base"], n_features=d["n_features"])
        ens.trees = [_node_from_dict(t) for t in d["trees"]]
        return ens


def _node_to_dict(node):
    if isinstance(node, Leaf):
        d = {"type": "leaf", "weight": node.weight}
        if node.is_linear:
            d["intercept"] = node.intercept
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
        if "intercept" in d:
            return Leaf(
                d["weight"],
                intercept=d["intercept"],
                lin_features=tuple(d["lin_features"]),
                lin_coef=tuple(d["lin_coef"]),
            )
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
