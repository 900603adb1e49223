"""Compile a shape-checked program into an executable mechanism.

The program is lowered once, at compile time: the K-step loop is unrolled with
k bound, compile-time scalars (literals, consts, K, k and arithmetic or `pow`
over them) are folded to Python floats, and every tensor operation becomes one
entry of a flat op list. Graph operators and parameters are materialized once.
A forward pass replays the op list, so the autodiff tape grows linearly in K.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .. import autodiff as ad
from ..errors import NumericalError, ShapeMismatch
from ..graphs import LaplacianVariant, Variant, build_operator
from .nodes import Bin, Call, Index, Name, Num, Unary

_CTOR_TO_VARIANT = {
    "sym_norm": Variant.ADJ_SYM_NORM,
    "rw_norm": Variant.ADJ_RW_NORM,
    "laplacian": Variant.COMBINATORIAL,
    "sym_laplacian": Variant.SYM_LAPLACIAN,
    "scaled_laplacian": Variant.SCALED_LAPLACIAN,
    "pruned_norm": Variant.PRUNED_NORM,
}

_UNARY_CALLS = {"relu": ad.relu, "elu": ad.elu, "tanh": ad.tanh,
                "sigmoid": ad.sigmoid, "softmax_rows": ad.softmax_rows,
                "sum_rows": ad.sum_rows}

_TENSOR_OPS = {"+": ad.add, "-": ad.sub, "*": ad.mul, "/": ad.div, "@": ad.matmul,
               "spmm": ad.spmm, "pow": ad.power, "attn_agg": ad.edge_attn_agg,
               "concat": ad.concat_cols}

_SCALAR_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv, "pow": operator.pow}


def _fold(op, a, b):
    """Evaluate a scalar op at compile time; the result must be a finite float."""
    try:
        v = _SCALAR_OPS[op](a, b)
    except (ZeroDivisionError, OverflowError) as exc:
        raise NumericalError(f"{op} on compile-time scalars {a:g}, {b:g}: {exc}") from None
    if not (isinstance(v, float) and math.isfinite(v)):
        raise NumericalError(f"{op} on compile-time scalars {a:g}, {b:g} is not a finite real")
    return v


class CompiledMechanism:
    """Callable (X_in n x h, X_raw n x h) -> Tensor, owning its parameters.

    `slots` holds every value a forward pass can read: X and X_raw (slots 0 and
    1, filled per call), constants (floats, graph operators, parameters, 1x1
    tensors) and op results. Each entry of `ops` is (autodiff function, input
    slots, output slot), in evaluation order.
    """

    def __init__(self, typed, graph, seed=0, dtype=np.float64):
        prog = typed.program
        self.out_shape = typed.out_shape
        self.dtype = dtype
        self.slots = [None, None]
        self.ops = []
        # Compile-time state: name -> slot, or a float for a compile-time scalar;
        # array parameter name -> its slots, index i at [i - 1].
        self._env = env = {"X": 0, "X_raw": 1}
        self._arrays = arrays = {}
        self.params = {}                # flat name -> Tensor
        rng = np.random.default_rng(seed)
        for decl in prog.params:
            shp = typed.param_shapes[decl.name]
            if decl.array is None:
                t = ad.Tensor(ad.init_array(decl.init, shp, rng, dtype), requires_grad=True)
                self.params[decl.name] = t
                env[decl.name] = self._slot(t)
                continue
            length = prog.loop_count if decl.array == "K" else decl.array
            arrays[decl.name] = []
            for i in range(1, length + 1):
                t = ad.Tensor(ad.init_array(decl.init, shp, rng, dtype), requires_grad=True)
                self.params[f"{decl.name}[{i}]"] = t
                arrays[decl.name].append(self._slot(t))
        self.operators = {}
        for g in prog.graph_defs:
            variant = LaplacianVariant(_CTOR_TO_VARIANT[g.ctor], g.self_loop)
            self.operators[g.name] = build_operator(graph, variant, dtype)
            env[g.name] = self._slot(self.operators[g.name])
        env.update((name, float(v)) for name, v in prog.consts)
        env["K"] = float(prog.loop_count)
        self._lower_block(prog.init_block)
        if prog.has_step:
            for k in range(1, prog.loop_count + 1):
                env["k"] = float(k)
                self._lower_block(prog.step_block)
        self._lower_block(prog.final_block)
        self.out = self._lower(prog.out_expr)
        del self._env, self._arrays

    def forward(self, x_in, x_raw):
        vals = self.slots.copy()
        vals[0], vals[1] = x_in, x_raw
        for fn, args, out in self.ops:
            vals[out] = fn(*[vals[i] for i in args])
        return vals[self.out]

    __call__ = forward

    # -- lowering ------------------------------------------------------------

    def _slot(self, value=None):
        self.slots.append(value)
        return len(self.slots) - 1

    def _op(self, fn, *args):
        """Append fn(*args) to the op list; float args become constant slots."""
        args = tuple(self._slot(a) if isinstance(a, float) else a for a in args)
        out = self._slot()
        self.ops.append((fn, args, out))
        return out

    def _lower_block(self, stmts):
        for st in stmts:
            self._env[st.target] = self._lower(st.expr)

    def _lower(self, e):
        """A float for a compile-time scalar, else the slot holding e's value."""
        if isinstance(e, Num):
            return float(e.value)
        if isinstance(e, Name):
            return self._env[e.ident]
        if isinstance(e, Index):
            i = self._lower(e.index)
            slots = self._arrays[e.name]
            if not (i.is_integer() and 1 <= i <= len(slots)):
                raise ShapeMismatch(f"index {i:g} of {e.name!r} is not an integer in "
                                    f"1..{len(slots)}")
            return slots[int(i) - 1]
        if isinstance(e, Unary):
            v = self._lower(e.operand)
            return -v if isinstance(v, float) else self._op(ad.neg, v)
        if isinstance(e, Bin):
            a, b = self._lower(e.left), self._lower(e.right)
            if isinstance(a, float) and isinstance(b, float):
                return _fold(e.op, a, b)
            return self._op(_TENSOR_OPS[e.op], a, b)
        if isinstance(e, Call):
            args = [self._lower(a) for a in e.args]
            if e.fn in _UNARY_CALLS:
                if isinstance(args[0], float):
                    args[0] = self._slot(ad.Tensor(np.array([[args[0]]], dtype=self.dtype)))
                return self._op(_UNARY_CALLS[e.fn], args[0])
            if e.fn == "pow" and isinstance(args[0], float):
                return _fold("pow", *args)
            return self._op(_TENSOR_OPS[e.fn], *args)
        raise TypeError(f"not an expression node: {e!r}")


def compile_program(typed, graph, seed=0, dtype=np.float64):
    """Materialize operators and parameters and lower a shape-checked program."""
    return CompiledMechanism(typed, graph, seed=seed, dtype=dtype)
