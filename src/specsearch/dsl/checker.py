"""The front end: lower a parsed program under concrete dims {n, f, h, c}.

One walk over the AST unrolls the K-step loop with k bound, folds compile-time
scalars (literals, consts, K, k and arithmetic or `pow` over them) to Python
floats, infers the static shape of every value and emits each tensor operation
as one entry of a flat op list. The result holds no array and no AST node:
`compiler.compile_program` materialises it for one graph, seed and dtype.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from dataclasses import dataclass

from ..errors import CompileError, NumericalError, ShapeMismatch, UndeclaredIdentifier
from ..graphs import LaplacianVariant, Variant
from .nodes import Bin, Call, Index, Name, Num, Unary
from .parser import CALLS

_SCALAR_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv, "pow": operator.pow}


# One tensor operation: `fn` ("+", "-", "*", "/", "@", "neg" or a call's name)
# of the slots `args`, written to slot `out`, whose value is `shape` (rows, cols).
Op = namedtuple("Op", "fn args out shape")


@dataclass
class TypedProgram:
    """A lowered program. Slots 0 and 1 are X and X_raw, bound per forward call;
    every other slot holds a parameter, a graph operator, a constant or an
    op's result."""
    params: tuple               # (slot, name, (rows, cols), init); W[K] gives W[1]..W[K]
    operators: tuple            # (slot, name, LaplacianVariant)
    consts: tuple               # (slot, float): a `pow` exponent, passed as a Python float
    unit_tensors: tuple         # (slot, float): any other constant, held as a 1x1 tensor
    ops: tuple                  # Op..., in evaluation order
    num_slots: int
    out: int                    # the slot of Y
    out_shape: tuple
    warnings: list


def _span(e):
    if getattr(e, "pos", None):
        return f" (line {e.pos[0]}, col {e.pos[1]})"
    return ""


def _fold(op, a, b):
    """Evaluate a scalar op at compile time; the result must be a finite float."""
    try:
        v = _SCALAR_OPS[op](a, b)
    except (ZeroDivisionError, OverflowError) as exc:
        raise NumericalError(f"{op} on compile-time scalars {a:g}, {b:g}: {exc}") from None
    if not (isinstance(v, float) and math.isfinite(v)):
        raise NumericalError(f"{op} on compile-time scalars {a:g}, {b:g} is not a finite real")
    return v


def _param_shape(decl, dims):
    """Concrete (rows, cols) of a parameter declaration."""
    if decl.kind == "scalar":
        return (1, 1)
    if decl.kind == "vector":
        d = dims.get(decl.dims[0], decl.dims[0])
        # vector(n) is a per-node column; any other vector is a row (bias-like).
        if decl.dims[0] == "n":
            return (d, 1)
        return (1, d)
    r = dims.get(decl.dims[0], decl.dims[0])
    c = dims.get(decl.dims[1], decl.dims[1])
    return (r, c)


class _Lowering:
    def __init__(self, prog, dims):
        self.prog = prog
        self.dims = dims
        n, h = dims["n"], dims["h"]
        # Slot shapes: ("mat", rows, cols) for tensors, ("graph", n) for sparse
        # operators, None for constants.
        self.shapes = [("mat", n, h), ("mat", n, h)]
        self.ops = []
        self.consts = []
        self.unit_tensors = []
        self.warnings = {}      # message -> None: once each, though steps unroll K times
        # Name -> slot, or a float for a compile-time scalar; array parameter
        # name -> its slots, index i at [i - 1].
        self.env = {"X": 0, "X_raw": 1}
        self.arrays = {}
        params = []
        for decl in prog.params:
            shape = _param_shape(decl, dims)
            if decl.array is None:
                self.env[decl.name] = slot = self._slot(("mat",) + shape)
                params.append((slot, decl.name, shape, decl.init))
                continue
            length = prog.loop_count if decl.array == "K" else decl.array
            self.arrays[decl.name] = [self._slot(("mat",) + shape) for _ in range(length)]
            params += [(slot, f"{decl.name}[{i}]", shape, decl.init)
                       for i, slot in enumerate(self.arrays[decl.name], start=1)]
        self.params = tuple(params)
        operators = []
        for g in prog.graph_defs:
            self.env[g.name] = slot = self._slot(("graph", n))
            operators.append((slot, g.name,
                              LaplacianVariant(Variant(g.ctor), g.self_loop)))
        self.operators = tuple(operators)
        self.env.update((name, float(v)) for name, v in prog.consts)
        self.env["K"] = float(prog.loop_count)

    def run(self):
        prog = self.prog
        self.block(prog.init_block)
        for k in range(1, prog.loop_count + 1) if prog.step_block else ():
            self.env["k"] = float(k)
            before = {st.target: self._shape(self.env[st.target])
                      for st in prog.step_block if st.target in self.env}
            self.block(prog.step_block)
            for st in prog.step_block:
                if st.target in before and before[st.target] != self._shape(self.env[st.target]):
                    raise ShapeMismatch(
                        f"{st.target} changes shape across loop iterations: "
                        f"{before[st.target]} -> {self._shape(self.env[st.target])}{_span(st)}")
        self.env.pop("k", None)
        self.block(prog.final_block)
        out = self.lower(prog.out_expr)
        n, h, c = self.dims["n"], self.dims["h"], self.dims["c"]
        shape = self._shape(out)
        if shape is None or shape[0] != "mat" or shape[1:] not in ((n, h), (n, c)):
            raise ShapeMismatch(
                f"output must be n x h or n x c, got {shape}")
        return TypedProgram(params=self.params, operators=self.operators,
                            consts=tuple(self.consts), unit_tensors=tuple(self.unit_tensors),
                            ops=tuple(self.ops), num_slots=len(self.shapes), out=out,
                            out_shape=shape[1:], warnings=list(self.warnings))

    def block(self, stmts):
        for st in stmts:
            self.env[st.target] = self.lower(st.expr)

    def _slot(self, shape=None):
        self.shapes.append(shape)
        return len(self.shapes) - 1

    def _shape(self, v):
        """A slot's shape; None for a compile-time scalar."""
        return None if isinstance(v, float) else self.shapes[v]

    def _mat(self, v, e, what):
        """(rows, cols) of a tensor value; a compile-time scalar is 1 x 1."""
        if isinstance(v, float):
            return (1, 1)
        if self.shapes[v][0] != "mat":
            raise ShapeMismatch(f"{what}: expected a tensor, got {self.shapes[v]}{_span(e)}")
        return self.shapes[v][1:]

    def _graph(self, v, e, what):
        """The node count of a graph-operator value."""
        if isinstance(v, float) or self.shapes[v][0] != "graph":
            raise ShapeMismatch(f"{what}: first argument must be a graph operator{_span(e)}")
        return self.shapes[v][1]

    def _op(self, fn, shape, *args):
        """Append fn(*args) to the op list; a float arg becomes a 1x1 tensor slot."""
        args = tuple(self._const(a, self.unit_tensors) if isinstance(a, float) else a
                     for a in args)
        out = self._slot(("mat",) + shape)
        self.ops.append(Op(fn, args, out, shape))
        return out

    def _const(self, value, table):
        slot = self._slot()
        table.append((slot, value))
        return slot

    def lower(self, e):
        """A float for a compile-time scalar, else the slot holding e's value."""
        if isinstance(e, Num):
            return float(e.value)
        if isinstance(e, Name):
            if e.ident in self.env:
                return self.env[e.ident]
            if e.ident in self.arrays:
                raise ShapeMismatch(
                    f"array parameter {e.ident!r} must be indexed{_span(e)}")
            raise UndeclaredIdentifier(f"undeclared identifier {e.ident!r}{_span(e)}")
        if isinstance(e, Index):
            if e.name not in self.arrays:
                raise UndeclaredIdentifier(
                    f"{e.name!r} is not an array parameter{_span(e)}")
            i = self.lower(e.index)
            if not isinstance(i, float):
                raise ShapeMismatch(f"array index must be a compile-time scalar{_span(e)}")
            slots = self.arrays[e.name]
            if not (i.is_integer() and 1 <= i <= len(slots)):
                raise CompileError(f"index {i:g} of {e.name!r} is not an integer in "
                                   f"1..{len(slots)}{_span(e)}")
            return slots[int(i) - 1]
        if isinstance(e, Unary):
            v = self.lower(e.operand)
            return -v if isinstance(v, float) else self._op("neg", self._mat(v, e, "-"), v)
        if isinstance(e, Bin):
            return self._bin(e, self.lower(e.left), self.lower(e.right))
        if isinstance(e, Call):
            if len(e.args) != CALLS[e.fn]:
                raise ShapeMismatch(
                    f"{e.fn} takes {CALLS[e.fn]} arguments, got {len(e.args)}{_span(e)}")
            return self._call(e, [self.lower(a) for a in e.args])
        raise TypeError(f"not an expression node: {e!r}")

    def _bin(self, e, a, b):
        op = e.op
        if op == "/" and not (isinstance(e.right, Num) and e.right.value != 0):
            self.warnings.setdefault(
                f"division whose denominator may reach zero{_span(e)}")
        if op == "@":
            if isinstance(a, float) or isinstance(b, float):
                raise ShapeMismatch(f"@ requires tensor operands{_span(e)}")
            lr, lc = self._mat(a, e, "matmul left")
            rr, rc = self._mat(b, e, "matmul right")
            if lc != rr:
                raise ShapeMismatch(
                    f"matmul inner dims differ: {lr}x{lc} @ {rr}x{rc}{_span(e)}")
            return self._op(op, (lr, rc), a, b)
        if isinstance(a, float) and isinstance(b, float):
            return _fold(op, a, b)
        lr, lc = self._mat(a, e, f"operand of {op}")
        rr, rc = self._mat(b, e, f"operand of {op}")
        if not ((lr == rr or lr == 1 or rr == 1) and (lc == rc or lc == 1 or rc == 1)):
            raise ShapeMismatch(
                f"{op}: shapes {lr}x{lc} and {rr}x{rc} do not broadcast{_span(e)}")
        return self._op(op, (max(lr, rr), max(lc, rc)), a, b)

    def _call(self, e, args):
        fn = e.fn
        if CALLS[fn] == 1:
            rows, cols = self._mat(args[0], e, fn)
            return self._op(fn, (rows, 1) if fn == "sum_rows" else (rows, cols), args[0])
        if fn == "pow":
            base, expo = args
            if not isinstance(expo, float):
                raise ShapeMismatch(f"pow exponent must be a compile-time scalar{_span(e)}")
            if isinstance(base, float):
                return _fold("pow", base, expo)
            rows, cols = self._mat(base, e, "pow")
            if (rows, cols) != (1, 1):
                raise ShapeMismatch(f"pow base must be scalar, got {rows}x{cols}{_span(e)}")
            return self._op(fn, (1, 1), base, self._const(expo, self.consts))
        if fn == "spmm":
            n = self._graph(args[0], e, fn)
            rows, cols = self._mat(args[1], e, fn)
            if rows != n:
                raise ShapeMismatch(
                    f"spmm: operator is {n}x{n}, dense has {rows} rows{_span(e)}")
            return self._op(fn, (rows, cols), *args)
        if fn == "attn_agg":
            n = self._graph(args[0], e, fn)
            s1 = self._mat(args[1], e, fn)
            s2 = self._mat(args[2], e, fn)
            rows, cols = self._mat(args[3], e, fn)
            if s1 != (n, 1) or s2 != (n, 1):
                raise ShapeMismatch(f"attn_agg: scores must be {n}x1{_span(e)}")
            if rows != n:
                raise ShapeMismatch(f"attn_agg: features must have {n} rows{_span(e)}")
            return self._op(fn, (rows, cols), *args)
        ra, ca = self._mat(args[0], e, fn)
        rb, cb = self._mat(args[1], e, fn)
        if ra != rb:
            raise ShapeMismatch(f"concat: row counts differ{_span(e)}")
        return self._op(fn, (ra, ca + cb), *args)


def check_shapes(prog, dims):
    """Lower a parsed program: the one walk over its AST.

    Raises ShapeMismatch or UndeclaredIdentifier for an inconsistent program,
    CompileError for an array index outside its array, and NumericalError for
    a compile-time scalar that is not a finite real.
    """
    for key in ("n", "f", "h", "c"):
        if key not in dims:
            raise ValueError(f"dims must bind {key}")
    return _Lowering(prog, dims).run()
