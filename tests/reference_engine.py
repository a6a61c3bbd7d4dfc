"""Reference tree engine: the recursive, node-by-node exact greedy search
and the recursive tree evaluator.

Each node sorts every numeric column and cumsums g, h and the count weight
along it; each categorical column orders the node's codes by G/H and scans
prefixes.  The tie rule is the engine's: among candidates within TIE_RTOL of
the node's best gain, the lowest feature id wins, then the lowest threshold.
A constant leaf sums its g and h in row order, one addition at a time, as
the engine's bincount does, so leaf values match with float gradients too.
Tests compare ``grow_tree``, the level-wise engine's one-tree entry, against
it.

``reference_tree_values`` walks a tree recursively, splitting the row set
at each node; the node-table evaluator (``treecast.boosting.tree_values``
and ``TreeEnsemble.predict``) must give the same values bit for bit.
"""

import numpy as np

from treecast.boosting import (TIE_RTOL, Leaf, Split, SplitMatrix, TreeEnsemble,
                               fit_linear_leaf, leaf_weight)


def split_gain(GL: float, HL: float, GR: float, HR: float, lam: float) -> float:
    return (
        GL * GL / (HL + lam)
        + GR * GR / (HR + lam)
        - (GL + GR) ** 2 / (HL + HR + lam)
    )


def grow_tree(X, kinds, g, h, idx, params, counts=None, log=None):
    """Grow one tree with the level-wise engine on rows ``idx`` of X.

    ``counts`` (0/1 per row) says which rows count toward min_leaf (masked
    rows carry g=h=0 and count 0).  Builds the SplitMatrix of ``X[idx]``
    and runs one ``TreeEnsemble.boost_round`` on it.
    """
    idx = np.asarray(idx)
    if counts is not None:
        counts = counts[idx]
    return TreeEnsemble(params).boost_round(SplitMatrix(X[idx], kinds), g[idx], h[idx],
                                            counts, log)


def reference_leaf_value(leaf, X, idx):
    if not leaf.is_linear:
        return np.full(len(idx), leaf.weight)
    out = np.full(len(idx), leaf.intercept)
    for fid, c in zip(leaf.lin_features, leaf.lin_coef):
        out += c * X[idx, fid]
    return out


def reference_goes_left(split, X, idx):
    v = X[idx, split.feature]
    if split.kind == "num":
        return v < split.threshold
    return np.isin(v.astype(np.int64), list(split.codes))


def reference_tree_values(node, X, idx=None):
    """Evaluate one tree on rows idx of X."""
    if idx is None:
        idx = np.arange(X.shape[0])
    out = np.empty(len(idx))

    def walk(node, sub, pos):
        if isinstance(node, Leaf):
            out[pos] = reference_leaf_value(node, X, sub)
            return
        left = reference_goes_left(node, X, sub)
        if left.any():
            walk(node.left, sub[left], pos[left])
        if not left.all():
            walk(node.right, sub[~left], pos[~left])

    walk(node, np.asarray(idx), np.arange(len(idx)))
    return out


def reference_predict(ensemble, X):
    """base + sum(lr * tree(x)), added tree by tree."""
    out = np.full(X.shape[0], ensemble.base, dtype=np.float64)
    for tree in ensemble.trees:
        out += ensemble.params.learning_rate * reference_tree_values(tree, X)
    return out


def _prefix_gains(GL, HL, CL, G, H, C, lam, min_leaf):
    GR, HR, CR = G - GL, H - HL, C - CL
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = GL * GL / (HL + lam) + GR * GR / (HR + lam) - G * G / (H + lam)
    return np.where((CL >= min_leaf) & (CR >= min_leaf), gains, -np.inf)


def row_order_sum(v):
    return float(np.cumsum(v)[-1]) if len(v) else 0.0


def numeric_candidates(v, g, h, c, lam, min_leaf):
    """[(gain, threshold)] in threshold order."""
    order = np.argsort(v, kind="stable")
    sv = v[order]
    cut = np.nonzero(sv[:-1] != sv[1:])[0]
    gains = _prefix_gains(np.cumsum(g[order])[cut], np.cumsum(h[order])[cut],
                          np.cumsum(c[order])[cut], g.sum(), h.sum(), c.sum(), lam, min_leaf)
    return [(float(gains[i]), float(0.5 * (sv[cut[i]] + sv[cut[i] + 1])))
            for i in range(len(cut))]


def categorical_candidates(v, g, h, c, lam, min_leaf):
    """[(gain, frozenset of left codes)] in prefix-length order."""
    codes = v.astype(np.int64)
    uniq, inverse = np.unique(codes, return_inverse=True)
    Gc = np.bincount(inverse, weights=g)
    Hc = np.bincount(inverse, weights=h)
    Cc = np.bincount(inverse, weights=c)
    ratio = np.where(Hc > 0, Gc / np.maximum(Hc, 1e-300), 0.0)
    order = np.lexsort((uniq, ratio))
    gains = _prefix_gains(np.cumsum(Gc[order])[:-1], np.cumsum(Hc[order])[:-1],
                          np.cumsum(Cc[order])[:-1], g.sum(), h.sum(), c.sum(), lam, min_leaf)
    return [(float(gains[i]), frozenset(int(uniq[j]) for j in order[:i + 1]))
            for i in range(len(uniq) - 1)]


def node_candidates(X, kinds, g, h, c, lam, min_leaf):
    """Per feature, the candidate list of one node's rows."""
    return [(categorical_candidates if kind == "cat" else numeric_candidates)(
        X[:, f], g, h, c, lam, min_leaf) for f, kind in enumerate(kinds)]


def best_gain(X, kinds, g, h, c, lam, min_leaf):
    """The largest candidate gain of one node, or -inf without a candidate."""
    return max((gain for cands in node_candidates(X, kinds, g, h, c, lam, min_leaf)
                for gain, _ in cands), default=-np.inf)


def reference_grow_tree(X, kinds, g, h, idx, params, counts=None, log=None):
    if counts is None:
        counts = np.ones(len(g))

    def build(node_idx, depth, path):
        gg, hh, cc = g[node_idx], h[node_idx], counts[node_idx]
        if depth < params.max_depth:
            per_feature = node_candidates(X[node_idx], kinds, gg, hh, cc,
                                          params.lam, params.min_leaf)
            best = max((gain for cands in per_feature for gain, _ in cands), default=-np.inf)
            if best > 0.0:
                cutoff = best * (1.0 - TIE_RTOL)
                fid, (gain, payload) = next(
                    (f, cand) for f, cands in enumerate(per_feature)
                    for cand in cands if cand[0] >= cutoff)
                v = X[node_idx, fid]
                if kinds[fid] == "cat":
                    left = np.isin(v.astype(np.int64), list(payload))
                    split = Split(fid, "cat", None, payload, None, None, gain)
                else:
                    left = v < payload
                    split = Split(fid, "num", payload, None, None, None, gain)
                    path = path | {fid}
                split.left = build(node_idx[left], depth + 1, path)
                split.right = build(node_idx[~left], depth + 1, path)
                return split
        if params.linear_leaves:
            fids = sorted(path)
            Xn = X[np.ix_(node_idx, fids)] if fids else np.zeros((len(node_idx), 0))
            b0, lin_fids, coef, ok = fit_linear_leaf(Xn, fids, gg, hh, params.lam,
                                                     params.linear_ridge)
            if not ok and log is not None:
                log.append("linear leaf fell back to constant (singular system)")
            if lin_fids:
                return Leaf(b0, intercept=b0, lin_features=lin_fids, lin_coef=coef)
            return Leaf(b0)
        return Leaf(leaf_weight(row_order_sum(gg), row_order_sum(hh), params.lam))

    return build(np.asarray(idx), 0, frozenset())
