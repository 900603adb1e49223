"""Shape inference for parsed programs under concrete dims {n, f, h, c}."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ShapeMismatch, UndeclaredIdentifier
from .nodes import Bin, Call, Index, Name, Num, Unary

# Shape values: ("mat", rows, cols) for tensors, ("graph", n) for sparse
# operators, ("num",) for compile-time scalars (consts, literals, loop index).
NUM = ("num",)


@dataclass
class TypedProgram:
    program: object
    dims: dict
    param_shapes: dict          # name -> (rows, cols); arrays share one shape
    out_shape: tuple
    warnings: list = field(default_factory=list)


def _resolve_dim(d, dims, where):
    if isinstance(d, int):
        return d
    if d in dims:
        return dims[d]
    raise ShapeMismatch(f"{where}: unknown dimension symbol {d!r}")


def param_shape(decl, dims):
    """Concrete (rows, cols) of a parameter declaration."""
    if decl.kind == "scalar":
        return (1, 1)
    if decl.kind == "vector":
        d = _resolve_dim(decl.dims[0], dims, f"param {decl.name}")
        # vector(n) is a per-node column; any other vector is a row (bias-like).
        if decl.dims[0] == "n":
            return (d, 1)
        return (1, d)
    r = _resolve_dim(decl.dims[0], dims, f"param {decl.name}")
    c = _resolve_dim(decl.dims[1], dims, f"param {decl.name}")
    return (r, c)


def _span(e):
    if getattr(e, "pos", None):
        return f" (line {e.pos[0]}, col {e.pos[1]})"
    return ""


class _Checker:
    def __init__(self, prog, dims):
        self.prog = prog
        self.dims = dims
        self.warnings = []
        self.param_shapes = {}
        self.arrays = {}
        n, h = dims["n"], dims["h"]
        self.env = {"X": ("mat", n, h), "X_raw": ("mat", n, h)}
        for decl in prog.params:
            shp = param_shape(decl, dims)
            self.param_shapes[decl.name] = shp
            if decl.array is not None:
                length = prog.loop_count if decl.array == "K" else decl.array
                self.arrays[decl.name] = length
            else:
                self.env[decl.name] = ("mat",) + shp
        for g in prog.graph_defs:
            self.env[g.name] = ("graph", n)
        for cname, _ in prog.consts:
            self.env[cname] = NUM
        self.env["K"] = NUM

    def run(self):
        self.check_block(self.prog.init_block)
        if self.prog.has_step:
            self.env["k"] = NUM
            before = dict(self.env)
            self.check_block(self.prog.step_block)
            for st in self.prog.step_block:
                if st.target in before and before[st.target] != self.env[st.target]:
                    raise ShapeMismatch(
                        f"{st.target} changes shape across loop iterations: "
                        f"{before[st.target]} -> {self.env[st.target]}{_span(st)}")
            del self.env["k"]
        if self.prog.has_final:
            self.check_block(self.prog.final_block)
        out = self.infer(self.prog.out_expr)
        n, h, c = self.dims["n"], self.dims["h"], self.dims["c"]
        if out == NUM or out[0] != "mat" or (out[1], out[2]) not in ((n, h), (n, c)):
            raise ShapeMismatch(
                f"output must be n x h or n x c, got {out}")
        return TypedProgram(program=self.prog, dims=dict(self.dims),
                            param_shapes=dict(self.param_shapes),
                            out_shape=(out[1], out[2]),
                            warnings=self.warnings)

    def check_block(self, stmts):
        for st in stmts:
            self.env[st.target] = self.infer(st.expr)

    def _mat(self, s, e, what):
        if s == NUM:
            return ("mat", 1, 1)
        if s[0] != "mat":
            raise ShapeMismatch(f"{what}: expected a tensor, got {s}{_span(e)}")
        return s

    def infer(self, e):
        if isinstance(e, Num):
            return NUM
        if isinstance(e, Name):
            if e.ident not in self.env:
                if e.ident in self.arrays:
                    raise ShapeMismatch(
                        f"array parameter {e.ident!r} must be indexed{_span(e)}")
                raise UndeclaredIdentifier(f"undeclared identifier {e.ident!r}{_span(e)}")
            return self.env[e.ident]
        if isinstance(e, Index):
            if e.name not in self.arrays:
                raise UndeclaredIdentifier(
                    f"{e.name!r} is not an array parameter{_span(e)}")
            idx = self.infer(e.index)
            if idx != NUM:
                raise ShapeMismatch(f"array index must be a compile-time scalar{_span(e)}")
            return ("mat",) + self.param_shapes[e.name]
        if isinstance(e, Unary):
            return self.infer(e.operand)
        if isinstance(e, Bin):
            return self._infer_bin(e)
        if isinstance(e, Call):
            return self._infer_call(e)
        raise TypeError(f"not an expression node: {e!r}")

    def _infer_bin(self, e):
        ls = self.infer(e.left)
        rs = self.infer(e.right)
        op = e.op
        if op == "@":
            if NUM in (ls, rs):
                raise ShapeMismatch(f"@ requires tensor operands{_span(e)}")
            lm = self._mat(ls, e, "matmul left")
            rm = self._mat(rs, e, "matmul right")
            if lm[2] != rm[1]:
                raise ShapeMismatch(
                    f"matmul inner dims differ: {lm[1]}x{lm[2]} @ {rm[1]}x{rm[2]}{_span(e)}")
            return ("mat", lm[1], rm[2])
        if op == "/":
            if not (isinstance(e.right, Num) and e.right.value != 0):
                self.warnings.append(
                    f"division whose denominator may reach zero{_span(e)}")
        if ls == NUM and rs == NUM:
            return NUM
        lm = self._mat(ls, e, f"operand of {op}")
        rm = self._mat(rs, e, f"operand of {op}")
        (lr, lc), (rr, rc) = lm[1:], rm[1:]
        if not ((lr == rr or lr == 1 or rr == 1) and (lc == rc or lc == 1 or rc == 1)):
            raise ShapeMismatch(
                f"{op}: shapes {lr}x{lc} and {rr}x{rc} do not broadcast{_span(e)}")
        return ("mat", max(lr, rr), max(lc, rc))

    def _infer_call(self, e):
        fn = e.fn
        args = e.args

        def need(k):
            if len(args) != k:
                raise ShapeMismatch(f"{fn} takes {k} arguments, got {len(args)}{_span(e)}")

        if fn == "spmm":
            need(2)
            g = self.infer(args[0])
            if g[0] != "graph":
                raise ShapeMismatch(f"spmm: first argument must be a graph operator{_span(e)}")
            x = self._mat(self.infer(args[1]), e, "spmm")
            if x[1] != g[1]:
                raise ShapeMismatch(
                    f"spmm: operator is {g[1]}x{g[1]}, dense has {x[1]} rows{_span(e)}")
            return x
        if fn in ("relu", "elu", "tanh", "sigmoid", "softmax_rows"):
            need(1)
            return self._mat(self.infer(args[0]), e, fn)
        if fn == "sum_rows":
            need(1)
            m = self._mat(self.infer(args[0]), e, fn)
            return ("mat", m[1], 1)
        if fn == "pow":
            need(2)
            base = self.infer(args[0])
            expo = self.infer(args[1])
            if expo != NUM:
                raise ShapeMismatch(f"pow exponent must be a compile-time scalar{_span(e)}")
            if base == NUM:
                return NUM
            bm = self._mat(base, e, "pow")
            if bm[1:] != (1, 1):
                raise ShapeMismatch(f"pow base must be scalar, got {bm[1]}x{bm[2]}{_span(e)}")
            return bm
        if fn == "attn_agg":
            need(4)
            g = self.infer(args[0])
            if g[0] != "graph":
                raise ShapeMismatch(f"attn_agg: first argument must be a graph operator{_span(e)}")
            n = g[1]
            s1 = self._mat(self.infer(args[1]), e, "attn_agg")
            s2 = self._mat(self.infer(args[2]), e, "attn_agg")
            x = self._mat(self.infer(args[3]), e, "attn_agg")
            if s1[1:] != (n, 1) or s2[1:] != (n, 1):
                raise ShapeMismatch(f"attn_agg: scores must be {n}x1{_span(e)}")
            if x[1] != n:
                raise ShapeMismatch(f"attn_agg: features must have {n} rows{_span(e)}")
            return x
        if fn == "concat":
            need(2)
            a = self._mat(self.infer(args[0]), e, "concat")
            b = self._mat(self.infer(args[1]), e, "concat")
            if a[1] != b[1]:
                raise ShapeMismatch(f"concat: row counts differ{_span(e)}")
            return ("mat", a[1], a[2] + b[2])
        raise ShapeMismatch(f"unknown function {fn!r}{_span(e)}")


def check_shapes(prog, dims):
    """Infer a shape for every expression; raises on any inconsistency."""
    for key in ("n", "f", "h", "c"):
        if key not in dims:
            raise ValueError(f"dims must bind {key}")
    return _Checker(prog, dims).run()
