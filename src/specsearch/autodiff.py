"""Minimal reverse-mode autodiff over dense matrices and fixed sparse operators.

Everything is a 2-D array: scalars are 1x1, column vectors n x 1, row vectors 1 x d.
Ops take Tensors only (a constant is a 1x1 Tensor; `power`'s exponent is a
number) and do not re-check shape rules that the DSL front end
(`dsl.check_shapes`) has proved: where the two disagree, numpy or scipy raises.
Sparse operators (graphs.SparseOp) appear only as the left factor of spmm and the
structure argument of edge_attn_agg; no gradient flows into their weights.

The tape records only where a gradient flows: an op's output requires a
gradient if and only if one of its inputs does, and an output that requires
none keeps no parents and no VJP. A VJP computes the gradients of the inputs
that require one and gives None for the others. `backward` spends the tape as
it sweeps it, so a tape can be swept once.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import NumericalError, ShapeMismatch

class Tensor:
    """A value on the tape. `vjp(g)` maps the gradient of `data` to one gradient
    per parent, in `parents` order, each of the parent's shape or of a shape
    that broadcasts from it, or None for a parent that requires no gradient;
    `backward` alone reduces and sums them into `.grad`.

    A leaf requires a gradient when it is made with `requires_grad=True`; an op's
    output does when one of its parents does. An output that requires none
    records nothing: it keeps no parents and no VJP.
    """

    __slots__ = ("data", "grad", "requires_grad", "parents", "vjp")

    def __init__(self, data, requires_grad=False, parents=(), vjp=None):
        if not np.all(np.isfinite(data)):
            raise NumericalError("non-finite value in forward computation")
        self.data = data
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self.parents = parents if self.requires_grad else ()
        self.vjp = vjp if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _reduce_broadcast(g, shape):
    """Sum `g` down to `shape` (which broadcasts against g's shape)."""
    if g.shape == shape:
        return g
    out = g
    if shape[0] == 1 and g.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def add(a, b):
    return Tensor(a.data + b.data, parents=(a, b), vjp=lambda g: (g, g))


def sub(a, b):
    return Tensor(a.data - b.data, parents=(a, b),
                  vjp=lambda g: (g if a.requires_grad else None,
                                 -g if b.requires_grad else None))


def mul(a, b):
    return Tensor(a.data * b.data, parents=(a, b),
                  vjp=lambda g: (g * b.data if a.requires_grad else None,
                                 g * a.data if b.requires_grad else None))


def div(a, b):
    if np.any(b.data == 0.0):
        raise NumericalError("division by zero")
    return Tensor(a.data / b.data, parents=(a, b),
                  vjp=lambda g: (g / b.data if a.requires_grad else None,
                                 -g * a.data / (b.data * b.data) if b.requires_grad else None))


def neg(a):
    return Tensor(-a.data, parents=(a,), vjp=lambda g: (-g,))


def matmul(a, b):
    return Tensor(a.data @ b.data, parents=(a, b),
                  vjp=lambda g: (g @ b.data.T if a.requires_grad else None,
                                 a.data.T @ g if b.requires_grad else None))


def spmm(op, x):
    """Fixed sparse operator times dense tensor; gradient flows only into x."""
    return Tensor(op.csr @ x.data, parents=(x,), vjp=lambda g: (op.csr.T @ g,))


def _unary(a, fval, fgrad):
    y = fval(a.data)
    return Tensor(y, parents=(a,), vjp=lambda g: (g * fgrad(a.data, y),))


def relu(a):
    return _unary(a, lambda x: np.maximum(x, 0.0), lambda x, y: (x > 0).astype(x.dtype))


def elu(a):
    def val(x):
        return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))
    return _unary(a, val, lambda x, y: np.where(x > 0, 1.0, y + 1.0).astype(x.dtype))


def tanh(a):
    return _unary(a, np.tanh, lambda x, y: 1.0 - y * y)


def sigmoid(a):
    def val(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out
    return _unary(a, val, lambda x, y: y * (1.0 - y))


def softmax_rows(a):
    z = a.data - a.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    y = ez / ez.sum(axis=1, keepdims=True)
    return Tensor(y, parents=(a,),
                  vjp=lambda g: (y * (g - (g * y).sum(axis=1, keepdims=True)),))


def sum_all(a):
    return Tensor(np.array([[a.data.sum()]], dtype=a.data.dtype), parents=(a,),
                  vjp=lambda g: (np.full_like(a.data, float(g[0, 0])),))


def sum_rows(a):
    """Row-wise sum: n x d -> n x 1."""
    return Tensor(a.data.sum(axis=1, keepdims=True), parents=(a,),
                  vjp=lambda g: (np.broadcast_to(g, a.shape).copy(),))


def power(a, exponent):
    """Raise a (typically scalar) tensor to a non-negative compile-time exponent."""
    m = float(exponent)
    if a.data.min() < 0 and m != int(m):
        raise NumericalError("fractional power of a negative value")

    def vjp(g):
        if m == 0.0:
            return (np.zeros_like(a.data),)
        return (g * m * np.power(a.data, m - 1.0),)
    return Tensor(np.power(a.data, m), parents=(a,), vjp=vjp)


def concat_cols(a, b):
    cut = a.shape[1]
    return Tensor(np.concatenate([a.data, b.data], axis=1), parents=(a, b),
                  vjp=lambda g: (g[:, :cut], g[:, cut:]))


def dropout(a, rate, rng):
    """Inverted dropout with mask drawn from `rng`; identity when rate == 0.
    `TrainConfig` holds the rate below 1."""
    if rate <= 0.0:
        return a
    mask = (rng.random(a.shape) >= rate).astype(a.data.dtype) / (1.0 - rate)
    return Tensor(a.data * mask, parents=(a,), vjp=lambda g: (g * mask,))


def cross_entropy_with_logits(logits, labels, index_set):
    """Mean cross-entropy of integer labels over the rows in index_set (max-stabilized)."""
    idx = np.asarray(index_set, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("index set must be non-empty")
    labels = np.asarray(labels, dtype=np.int64)
    z = logits.data[idx]
    zmax = z.max(axis=1, keepdims=True)
    zs = z - zmax
    lse = np.log(np.exp(zs).sum(axis=1, keepdims=True))
    y = labels[idx]
    losses = (lse - zs[np.arange(idx.size), y][:, None])

    def vjp(g):
        p = np.exp(zs - lse)
        p[np.arange(idx.size), y] -= 1.0
        full = np.zeros_like(logits.data)
        full[idx] = p * (float(g[0, 0]) / idx.size)
        return (full,)
    return Tensor(np.array([[losses.mean()]], dtype=logits.data.dtype), parents=(logits,),
                  vjp=vjp)


def _leaky_relu(x, slope=0.2):
    return np.where(x > 0, x, slope * x), np.where(x > 0, 1.0, slope).astype(x.dtype)


def edge_attn_agg(adj, scores_src, scores_dst, x):
    """Neighborhood attention: out_i = sum_j softmax_j(lrelu(s_src_i + s_dst_j)) * x_j.

    Neighborhoods come from the nonzero pattern of `adj`; isolated nodes get zero rows.
    The weights form a CSR matrix over that pattern, so the neighbour sum and its
    gradient are the CSR products that spmm computes.
    """
    n = adj.csr.shape[0]
    # Indexing by the edge list would silently accept oversized scores or
    # features, so these shapes are checked here as well as in the front end;
    # like numpy's own shape errors, a failure is an engine fault (ValueError).
    if scores_src.shape != (n, 1) or scores_dst.shape != (n, 1):
        raise ValueError(
            f"edge_attn_agg: scores must be {n}x1, got {scores_src.shape} and {scores_dst.shape}")
    if x.shape[0] != n:
        raise ValueError(f"edge_attn_agg: features must have {n} rows, got {x.shape}")
    r, c = np.repeat(np.arange(n), np.diff(adj.csr.indptr)), adj.csr.indices
    e_raw = scores_src.data[r, 0] + scores_dst.data[c, 0]
    e, dlrelu = _leaky_relu(e_raw)
    dtype = x.data.dtype
    rowmax = np.full(n, -np.inf, dtype=dtype)
    np.maximum.at(rowmax, r, e)
    safe_max = np.where(np.isfinite(rowmax), rowmax, 0.0)
    ez = np.exp(e - safe_max[r])
    denom = np.bincount(r, weights=ez, minlength=n).astype(dtype)  # bincount sums in float64
    alpha = ez / denom[r]
    weights = sp.csr_matrix((alpha, c, adj.csr.indptr), (n, n))

    def vjp(g):
        gs = gd = None
        if scores_src.requires_grad or scores_dst.requires_grad:
            dalpha = (g[r] * x.data[c]).sum(axis=1)
            srow = np.bincount(r, weights=alpha * dalpha, minlength=n).astype(dtype)
            de = alpha * (dalpha - srow[r]) * dlrelu
            if scores_src.requires_grad:
                gs = np.zeros_like(scores_src.data)
                np.add.at(gs[:, 0], r, de)
            if scores_dst.requires_grad:
                gd = np.zeros_like(scores_dst.data)
                np.add.at(gd[:, 0], c, de)
        return gs, gd, weights.T @ g if x.requires_grad else None
    return Tensor(weights @ x.data, parents=(scores_src, scores_dst, x), vjp=vjp)


def backward(loss):
    """Reverse-mode sweep from a scalar loss; fills .grad on the leaves that
    require a gradient.

    The one place gradients are summed: each node's `vjp` output is reduced to
    its parent's shape and added to the parent's gradient, never in place (one
    array may be handed to several parents, as `add` does). Parents that require
    no gradient get none. Nodes leave the reverse-DFS order one at a time, and
    an interior node (a tensor with parents) drops its gradient, parents and VJP
    once its VJP has run, so the activations it held are freed during the sweep.
    The tape is then spent: a second sweep from the same loss reaches no leaf.
    """
    if loss.shape != (1, 1):
        raise ShapeMismatch(f"backward requires a scalar loss, got shape {loss.shape}")
    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node.vjp is not None and node.grad is not None:
            g = node.grad
            if not np.all(np.isfinite(g)):
                raise NumericalError("non-finite gradient")
            for p, gp in zip(node.parents, node.vjp(g)):
                if p.requires_grad:     # a VJP gives None for the others
                    gp = _reduce_broadcast(gp, p.shape)
                    p.grad = gp if p.grad is None else p.grad + gp
        if node.parents:        # spent: only leaves keep their gradient
            node.grad, node.parents, node.vjp = None, (), None


# -- parameters and optimizer --------------------------------------------------


def init_array(spec, shape, rng, dtype=np.float64):
    """spec: 'glorot' (Glorot uniform) | 'normal' | ('const', value)."""
    if spec == "glorot":
        fan_in, fan_out = shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape).astype(dtype)
    if spec == "normal":
        return rng.normal(0.0, 0.1, size=shape).astype(dtype)
    if isinstance(spec, tuple) and spec[0] == "const":
        return np.full(shape, float(spec[1]), dtype=dtype)
    raise ValueError(f"unknown init spec {spec!r}")


class AdamState:
    def __init__(self):
        self.m = {}
        self.v = {}
        self.t = 0


def step_adam(params, state, lr=0.01, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
    """In-place Adam update from each parameter's `.grad`, which it clears (without
    one, a parameter does not move); L2 weight decay is folded into the gradient."""
    b1, b2 = betas
    state.t += 1
    t = state.t
    for name, tensor in params.items():
        g, tensor.grad = tensor.grad, None
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient for parameter {name!r}")
        if weight_decay:
            g = g + weight_decay * tensor.data
        if name not in state.m:
            state.m[name] = np.zeros_like(tensor.data)
            state.v[name] = np.zeros_like(tensor.data)
        m = state.m[name] = b1 * state.m[name] + (1 - b1) * g
        v = state.v[name] = b2 * state.v[name] + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        tensor.data = tensor.data - lr * mhat / (np.sqrt(vhat) + eps)
