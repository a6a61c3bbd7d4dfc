"""Reference MLP passes: forward, backward, directional and Adam written
with reusable work buffers (``MlpScratch``) and the pre-activation kept in
the forward cache.

``ReferenceMlp`` draws its weights exactly as ``treecast.treenet.Mlp`` does,
so one seed gives both the same network.  Its passes write into an
``MlpScratch`` (a fresh one when none is given) and read the ReLU mask from
the pre-activation ``a``; ``treecast.treenet.Mlp`` builds its arrays with
plain numpy expressions and reads the mask from ``r``.  Tests compare the two
bit for bit.  With a shared scratch, only one forward cache may be live at a
time: the next forward overwrites it.
"""

import numpy as np

from treecast.treenet import Mlp


class MlpScratch:
    """Reusable full-batch work buffers (allocation is costly at N x hidden).

    Only one forward cache may be live at a time; the training loops respect
    that by finishing each backward/directional pass before the next forward.
    """

    def __init__(self, n, hidden, out):
        self.a = np.empty((n, hidden))
        self.r = np.empty((n, hidden))
        self.o = np.empty((n, out))
        self.bwd_do = np.empty((n, out))
        self.bwd_dr = np.empty((n, hidden))
        self.bwd_da = np.empty((n, hidden))
        self.dir_dr = np.empty((n, hidden))
        self.dir_do = np.empty((n, out))


class ReferenceMlp(Mlp):
    def forward(self, z, dropout=0.0, rng=None, scratch: MlpScratch | None = None):
        """Returns (output, cache); pass dropout > 0 only in training mode.

        Without ``scratch`` every pass writes into fresh buffers.
        """
        if scratch is None:
            scratch = MlpScratch(z.shape[0], *self.W2.shape)
        a, r, o = scratch.a, scratch.r, scratch.o
        np.matmul(z, self.W1, out=a)
        np.add(a, self.b1, out=a)
        np.maximum(a, 0.0, out=r)
        np.matmul(r, self.W2, out=o)
        np.add(o, self.b2, out=o)
        drop_scale = None
        if dropout > 0.0:
            keep = (rng.random(o.shape) >= dropout).astype(np.float64)
            drop_scale = keep / (1.0 - dropout)
            np.multiply(o, drop_scale, out=o)
        return o, (z, a, r, drop_scale)

    def backward(self, cache, upstream, scratch: MlpScratch | None = None):
        """Gradients of the scalar loss w.r.t. weights, given dL/d(output)."""
        z, a, r, drop_scale = cache
        if scratch is None:
            scratch = MlpScratch(z.shape[0], *self.W2.shape)
        do = upstream
        if drop_scale is not None:
            do = scratch.bwd_do
            np.multiply(upstream, drop_scale, out=do)
        dr, da = scratch.bwd_dr, scratch.bwd_da
        np.matmul(do, self.W2.T, out=dr)
        np.multiply(dr, a > 0, out=da)
        dW2 = r.T @ do
        db2 = do.sum(axis=0)
        dW1 = z.T @ da
        db1 = da.sum(axis=0)
        return dW1, db1, dW2, db2

    def directional(self, cache, dz, scratch: MlpScratch | None = None):
        """d(output)/d(epsilon) for an input perturbation z + eps*dz per row.

        dz is a (k,) direction shared by all rows; returns (N, P).
        """
        z, a, _, drop_scale = cache
        if scratch is None:
            scratch = MlpScratch(z.shape[0], *self.W2.shape)
        da = dz @ self.W1
        dr, do = scratch.dir_dr, scratch.dir_do
        np.multiply(a > 0, da, out=dr)
        np.matmul(dr, self.W2, out=do)
        if drop_scale is not None:
            np.multiply(do, drop_scale, out=do)
        return do

    def adam_step(self, grads, lr, betas=(0.9, 0.999), eps=1e-8):
        params = [self.W1, self.b1, self.W2, self.b2]
        if self._adam is None:
            self._adam = {
                "m": [np.zeros_like(p) for p in params],
                "v": [np.zeros_like(p) for p in params],
                "t": 0,
            }
        st = self._adam
        st["t"] += 1
        b1, b2 = betas
        for p, gr, m, v in zip(params, grads, st["m"], st["v"]):
            m *= b1
            m += (1 - b1) * gr
            v *= b2
            v += (1 - b2) * gr * gr
            mhat = m / (1 - b1 ** st["t"])
            vhat = v / (1 - b2 ** st["t"])
            p -= lr * mhat / (np.sqrt(vhat) + eps)
