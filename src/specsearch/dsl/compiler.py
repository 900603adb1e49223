"""The back end: materialise a lowered program as an executable mechanism.

`compile_program` reads no AST node. It draws the parameters of a
`TypedProgram` (see `checker.check_shapes`) in declaration order from one RNG,
builds its graph operators for one graph and dtype, and resolves each op of the
flat op list to its autodiff function. A forward pass replays the op list, so
the autodiff tape grows linearly in K.
"""

from __future__ import annotations

import numpy as np

from .. import autodiff as ad
from ..graphs import build_operator

_UNARY_CALLS = {"relu": ad.relu, "elu": ad.elu, "tanh": ad.tanh,
                "sigmoid": ad.sigmoid, "softmax_rows": ad.softmax_rows,
                "sum_rows": ad.sum_rows}

_TENSOR_OPS = {"+": ad.add, "-": ad.sub, "*": ad.mul, "/": ad.div, "@": ad.matmul,
               "neg": ad.neg, "spmm": ad.spmm, "pow": ad.power,
               "attn_agg": ad.edge_attn_agg, "concat": ad.concat_cols}


class CompiledMechanism:
    """Callable (X_in n x h, X_raw n x h) -> Tensor, owning its parameters.

    `slots` holds every value a forward pass can read: X and X_raw (slots 0 and
    1, filled per call), parameters, graph operators, constants (1x1 tensors in
    the run's dtype, built once here, and `pow` exponents as floats) and op
    results. Each entry of `ops` is (autodiff function, input slots, output
    slot), in evaluation order.
    """

    def __init__(self, typed, graph, seed=0, dtype=np.float64):
        self.out_shape = typed.out_shape
        self.out = typed.out
        self.slots = slots = [None] * typed.num_slots
        rng = np.random.default_rng(seed)
        self.params = {}                # flat name -> Tensor
        for slot, name, shape, init in typed.params:
            slots[slot] = self.params[name] = ad.Tensor(
                ad.init_array(init, shape, rng, dtype), requires_grad=True)
        self.operators = {}
        for slot, name, variant in typed.operators:
            slots[slot] = self.operators[name] = build_operator(graph, variant, dtype)
        for slot, value in typed.consts:
            slots[slot] = value
        for slot, value in typed.unit_tensors:
            slots[slot] = ad.Tensor(np.array([[value]], dtype=dtype))
        self.ops = [(_UNARY_CALLS.get(op.fn) or _TENSOR_OPS[op.fn], op.args, op.out)
                    for op in typed.ops]

    def forward(self, x_in, x_raw):
        vals = self.slots.copy()
        vals[0], vals[1] = x_in, x_raw
        for fn, args, out in self.ops:
            vals[out] = fn(*[vals[i] for i in args])
        return vals[self.out]

    __call__ = forward


def compile_program(typed, graph, seed=0, dtype=np.float64):
    """Materialise a lowered program's parameters and operators for one graph."""
    return CompiledMechanism(typed, graph, seed=seed, dtype=dtype)
