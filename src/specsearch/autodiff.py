"""Minimal reverse-mode autodiff over dense matrices and fixed sparse operators.

Everything is a 2-D array: scalars are 1x1, column vectors n x 1, row vectors 1 x d.
Sparse operators (graphs.SparseOp) appear only as the left factor of spmm and the
structure argument of edge_attn_agg; no gradient flows into their weights.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, ShapeMismatch

class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "parents", "backward_fn")

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None):
        data = np.asarray(data)
        if data.ndim == 0:
            data = data.reshape(1, 1)
        elif data.ndim == 1:
            data = data.reshape(1, -1)
        if data.ndim != 2:
            raise ShapeMismatch(f"tensors are 2-D, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise NumericalError("non-finite value in forward computation")
        self.data = data
        self.grad = None
        self.requires_grad = requires_grad
        self.parents = parents
        self.backward_fn = backward_fn

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _coerce(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else np.float64
    return Tensor(np.asarray(x, dtype=dtype))


def _accum(t, g):
    if not (t.requires_grad or t.parents):
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


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


def _broadcast_check(a, b, opname):
    ra, ca = a.shape
    rb, cb = b.shape
    if (ra == rb or ra == 1 or rb == 1) and (ca == cb or ca == 1 or cb == 1):
        return
    raise ShapeMismatch(f"{opname}: shapes {a.shape} and {b.shape} do not broadcast")


def add(a, b):
    a, b = _coerce(a, b if isinstance(b, Tensor) else None), _coerce(b, a if isinstance(a, Tensor) else None)
    _broadcast_check(a, b, "add")
    out = Tensor(a.data + b.data, parents=(a, b))

    def bw(g):
        _accum(a, _reduce_broadcast(g, a.shape))
        _accum(b, _reduce_broadcast(g, b.shape))
    out.backward_fn = bw
    return out


def sub(a, b):
    a, b = _coerce(a, b if isinstance(b, Tensor) else None), _coerce(b, a if isinstance(a, Tensor) else None)
    _broadcast_check(a, b, "sub")
    out = Tensor(a.data - b.data, parents=(a, b))

    def bw(g):
        _accum(a, _reduce_broadcast(g, a.shape))
        _accum(b, -_reduce_broadcast(g, b.shape))
    out.backward_fn = bw
    return out


def mul(a, b):
    a, b = _coerce(a, b if isinstance(b, Tensor) else None), _coerce(b, a if isinstance(a, Tensor) else None)
    _broadcast_check(a, b, "mul")
    out = Tensor(a.data * b.data, parents=(a, b))

    def bw(g):
        _accum(a, _reduce_broadcast(g * b.data, a.shape))
        _accum(b, _reduce_broadcast(g * a.data, b.shape))
    out.backward_fn = bw
    return out


def div(a, b):
    a, b = _coerce(a, b if isinstance(b, Tensor) else None), _coerce(b, a if isinstance(a, Tensor) else None)
    _broadcast_check(a, b, "div")
    if np.any(b.data == 0.0):
        raise NumericalError("division by zero")
    out = Tensor(a.data / b.data, parents=(a, b))

    def bw(g):
        _accum(a, _reduce_broadcast(g / b.data, a.shape))
        _accum(b, _reduce_broadcast(-g * a.data / (b.data * b.data), b.shape))
    out.backward_fn = bw
    return out


def neg(a):
    a = _coerce(a)
    out = Tensor(-a.data, parents=(a,))
    out.backward_fn = lambda g: _accum(a, -g)
    return out


def matmul(a, b):
    a, b = _coerce(a), _coerce(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data, parents=(a, b))

    def bw(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)
    out.backward_fn = bw
    return out


def spmm(op, x):
    """Fixed sparse operator times dense tensor; gradient flows only into x."""
    x = _coerce(x)
    if op.cols != x.shape[0]:
        raise ShapeMismatch(f"spmm: operator is {op.rows}x{op.cols}, dense is {x.shape}")
    out = Tensor(op.csr @ x.data, parents=(x,))
    out.backward_fn = lambda g: _accum(x, op.csr.T @ g)
    return out


def _unary(a, fval, fgrad):
    a = _coerce(a)
    y = fval(a.data)
    out = Tensor(y, parents=(a,))
    out.backward_fn = lambda g: _accum(a, g * fgrad(a.data, y))
    return out


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
    a = _coerce(a)
    z = a.data - a.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    y = ez / ez.sum(axis=1, keepdims=True)
    out = Tensor(y, parents=(a,))

    def bw(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        _accum(a, y * (g - dot))
    out.backward_fn = bw
    return out


def sum_all(a):
    a = _coerce(a)
    out = Tensor(np.array([[a.data.sum()]], dtype=a.data.dtype), parents=(a,))
    out.backward_fn = lambda g: _accum(a, np.full_like(a.data, float(g[0, 0])))
    return out


def sum_rows(a):
    """Row-wise sum: n x d -> n x 1."""
    a = _coerce(a)
    out = Tensor(a.data.sum(axis=1, keepdims=True), parents=(a,))
    out.backward_fn = lambda g: _accum(a, np.broadcast_to(g, a.shape).copy())
    return out


def power(a, exponent):
    """Raise a (typically scalar) tensor to a non-negative compile-time exponent."""
    a = _coerce(a)
    m = float(exponent)
    if a.data.min() < 0 and m != int(m):
        raise NumericalError("fractional power of a negative value")
    y = np.power(a.data, m)
    out = Tensor(y, parents=(a,))

    def bw(g):
        if m == 0.0:
            _accum(a, np.zeros_like(a.data))
        else:
            base = np.power(a.data, m - 1.0)
            _accum(a, g * m * base)
    out.backward_fn = bw
    return out


def concat_cols(a, b):
    a, b = _coerce(a), _coerce(b)
    if a.shape[0] != b.shape[0]:
        raise ShapeMismatch(f"concat: row counts differ, {a.shape} vs {b.shape}")
    out = Tensor(np.concatenate([a.data, b.data], axis=1), parents=(a, b))

    def bw(g):
        _accum(a, g[:, :a.shape[1]])
        _accum(b, g[:, a.shape[1]:])
    out.backward_fn = bw
    return out


def dropout(a, rate, rng):
    """Inverted dropout with mask drawn from `rng`; identity when rate == 0."""
    a = _coerce(a)
    if rate <= 0.0:
        return a
    if rate >= 1.0:
        raise ValueError("dropout rate must be < 1")
    mask = (rng.random(a.shape) >= rate).astype(a.data.dtype) / (1.0 - rate)
    out = Tensor(a.data * mask, parents=(a,))
    out.backward_fn = lambda g: _accum(a, g * mask)
    return out


def cross_entropy_with_logits(logits, labels, index_set):
    """Mean cross-entropy of integer labels over the rows in index_set (max-stabilized)."""
    logits = _coerce(logits)
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
    out = Tensor(np.array([[losses.mean()]], dtype=logits.data.dtype), parents=(logits,))

    def bw(g):
        p = np.exp(zs - lse)
        p[np.arange(idx.size), y] -= 1.0
        full = np.zeros_like(logits.data)
        full[idx] = p * (float(g[0, 0]) / idx.size)
        _accum(logits, full)
    out.backward_fn = bw
    return out


def _leaky_relu(x, slope=0.2):
    return np.where(x > 0, x, slope * x), np.where(x > 0, 1.0, slope)


def edge_attn_agg(adj, scores_src, scores_dst, x):
    """Neighborhood attention: out_i = sum_j softmax_j(lrelu(s_src_i + s_dst_j)) * x_j.

    Neighborhoods come from the nonzero pattern of `adj`; isolated nodes get zero rows.
    """
    scores_src, scores_dst, x = _coerce(scores_src), _coerce(scores_dst), _coerce(x)
    n = adj.rows
    if scores_src.shape != (n, 1) or scores_dst.shape != (n, 1):
        raise ShapeMismatch(
            f"edge_attn_agg: scores must be {n}x1, got {scores_src.shape} and {scores_dst.shape}")
    if x.shape[0] != n:
        raise ShapeMismatch(f"edge_attn_agg: features must have {n} rows, got {x.shape}")
    r, c = adj.coords
    e_raw = scores_src.data[r, 0] + scores_dst.data[c, 0]
    e, dlrelu = _leaky_relu(e_raw)
    rowmax = np.full(n, -np.inf)
    np.maximum.at(rowmax, r, e)
    safe_max = np.where(np.isfinite(rowmax), rowmax, 0.0)
    ez = np.exp(e - safe_max[r])
    denom = np.bincount(r, weights=ez, minlength=n)
    alpha = ez / denom[r]
    y = np.zeros((n, x.shape[1]), dtype=x.data.dtype)
    np.add.at(y, r, alpha[:, None] * x.data[c])
    out = Tensor(y, parents=(scores_src, scores_dst, x))

    def bw(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, c, alpha[:, None] * g[r])
        _accum(x, gx)
        dalpha = (g[r] * x.data[c]).sum(axis=1)
        srow = np.bincount(r, weights=alpha * dalpha, minlength=n)
        de = alpha * (dalpha - srow[r]) * dlrelu
        gs = np.zeros_like(scores_src.data)
        np.add.at(gs[:, 0], r, de)
        _accum(scores_src, gs)
        gd = np.zeros_like(scores_dst.data)
        np.add.at(gd[:, 0], c, de)
        _accum(scores_dst, gd)
    out.backward_fn = bw
    return out


def backward(loss):
    """Reverse-mode sweep from a scalar loss; fills .grad on reachable tensors."""
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
    for node in reversed(topo):
        if node.backward_fn is not None and node.grad is not None:
            g = node.grad
            if not np.all(np.isfinite(g)):
                raise NumericalError("non-finite gradient")
            node.backward_fn(g)


# -- parameters and optimizer --------------------------------------------------


def glorot_uniform(shape, rng, dtype=np.float64):
    fan_in, fan_out = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def init_array(spec, shape, rng, dtype=np.float64):
    """spec: 'glorot' | 'normal' | ('const', value)."""
    if spec == "glorot":
        return glorot_uniform(shape, rng, dtype)
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


def step_adam(params, grads, state, lr=0.01, betas=(0.9, 0.999), eps=1e-8,
              weight_decay=0.0):
    """In-place Adam update; L2 weight decay is folded into the gradient."""
    b1, b2 = betas
    state.t += 1
    t = state.t
    for name, tensor in params.items():
        g = grads.get(name)
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
