"""Tokenizer and recursive-descent parser for the propagation DSL."""

from __future__ import annotations

import re

from ..errors import DslSyntaxError
from .nodes import (Assign, Bin, Call, GraphDef, Index, Name, Num, ParamDecl,
                    Program, Unary)

KEYWORDS = {"mechanism", "consts", "params", "graph", "init", "step", "final",
            "out", "in", "scalar", "vector", "matrix", "glorot", "normal", "const"}

CALLS = {"spmm", "relu", "elu", "tanh", "sigmoid", "softmax_rows", "pow",
         "sum_rows", "attn_agg", "concat"}

GRAPH_CTORS = {"sym_norm", "rw_norm", "laplacian", "sym_laplacian",
               "scaled_laplacian", "pruned_norm"}

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<number>\d+(\.\d+)?([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>[{}()\[\];,=:@+\-*/])
""", re.VERBOSE)

K_MAX = 16


class _Tok:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"{self.kind}:{self.text!r}@{self.line}:{self.col}"


def _tokenize(text):
    toks = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DslSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        s = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(s)
        else:
            toks.append(_Tok(kind, s, line, col))
            col += len(s)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, msg, tok=None):
        tok = tok or self.peek()
        raise DslSyntaxError(msg, tok.line, tok.col)

    def expect(self, text):
        t = self.next()
        if t.text != text:
            self.fail(f"expected {text!r}, found {t.text!r}", t)
        return t

    def expect_ident(self):
        t = self.next()
        if t.kind != "ident":
            self.fail(f"expected identifier, found {t.text!r}", t)
        return t

    def at(self, text):
        return self.peek().text == text

    # -- grammar ---------------------------------------------------------

    def program(self):
        self.expect("mechanism")
        name = self.expect_ident().text
        self.expect("{")
        consts = self.consts_section() if self.at("consts") else ()
        params = self.params_section() if self.at("params") else ()
        graph_defs = self.graph_section() if self.at("graph") else ()
        if not self.at("init"):
            self.fail("every mechanism needs an init block")
        init_block = self.stmt_block("init")
        has_step = self.at("step")
        step_block = self.stmt_block("step") if has_step else ()
        has_final = self.at("final")
        final_block = self.stmt_block("final") if has_final else ()
        out_expr = self.out_section()
        self.expect("}")
        if self.peek().kind != "eof":
            self.fail(f"trailing input after mechanism: {self.peek().text!r}")
        prog = Program(name=name, consts=consts, params=params,
                       graph_defs=graph_defs, init_block=init_block,
                       step_block=step_block, has_step=has_step,
                       final_block=final_block, has_final=has_final,
                       out_expr=out_expr)
        self.validate(prog)
        return prog

    def consts_section(self):
        self.expect("consts")
        self.expect("{")
        out = []
        while not self.at("}"):
            name = self.expect_ident().text
            self.expect("=")
            out.append((name, self.signed_number()))
            self.expect(";")
        self.expect("}")
        return tuple(out)

    def signed_number(self):
        neg = False
        if self.at("-"):
            self.next()
            neg = True
        v = self.number(self.next())
        return -v if neg else v

    def number(self, t):
        if t.kind != "number":
            self.fail(f"expected number, found {t.text!r}", t)
        v = float(t.text)
        if v == float("inf"):
            self.fail(f"number {t.text} is too large", t)
        return v

    def params_section(self):
        self.expect("params")
        self.expect("{")
        out = []
        while not self.at("}"):
            out.append(self.param_decl())
            self.expect(";")
        self.expect("}")
        return tuple(out)

    def param_decl(self):
        name = self.expect_ident().text
        self.expect(":")
        t = self.next()
        if t.text == "scalar":
            kind, dims = "scalar", ()
        elif t.text == "vector":
            self.expect("(")
            dims = (self.dim(),)
            self.expect(")")
            kind = "vector"
        elif t.text == "matrix":
            self.expect("(")
            d1 = self.dim()
            self.expect(",")
            d2 = self.dim()
            self.expect(")")
            kind, dims = "matrix", (d1, d2)
        else:
            self.fail(f"expected scalar/vector/matrix, found {t.text!r}", t)
        array = None
        if self.at("["):
            self.next()
            it = self.next()
            if it.text == "K":
                array = "K"
            elif it.text.isdigit():
                array = int(it.text)
            else:
                self.fail(f"array bound must be K or an integer, found {it.text!r}", it)
            self.expect("]")
        self.expect("=")
        init = self.init_spec()
        return ParamDecl(name=name, kind=kind, dims=dims, array=array, init=init)

    def dim(self):
        t = self.next()
        if t.kind == "ident" and t.text in ("n", "f", "h", "c"):
            return t.text
        if t.text.isdigit():
            return int(t.text)
        self.fail(f"expected dimension n/f/h/c or integer, found {t.text!r}", t)

    def init_spec(self):
        t = self.next()
        if t.text == "glorot":
            return "glorot"
        if t.text == "normal":
            return "normal"
        if t.text == "const":
            self.expect("(")
            v = self.signed_number()
            self.expect(")")
            return ("const", v)
        self.fail(f"expected glorot/normal/const(..), found {t.text!r}", t)

    def graph_section(self):
        self.expect("graph")
        self.expect("{")
        out = []
        while not self.at("}"):
            name = self.expect_ident().text
            self.expect("=")
            ctor_tok = self.expect_ident()
            ctor = ctor_tok.text
            if ctor not in GRAPH_CTORS:
                self.fail(f"unknown graph constructor {ctor!r}", ctor_tok)
            self.expect("(")
            c = 0.0
            if not self.at(")"):
                ctok = self.expect_ident()
                if ctok.text != "c":
                    self.fail(f"graph constructors take only c=.., found {ctok.text!r}", ctok)
                self.expect("=")
                c = self.signed_number()
                if c < 0:
                    self.fail(f"self-loop weight c must be >= 0, got {c:g}", ctok)
            self.expect(")")
            self.expect(";")
            out.append(GraphDef(name=name, ctor=ctor, self_loop=c))
        self.expect("}")
        return tuple(out)

    def stmt_block(self, kw):
        self.expect(kw)
        self.expect("{")
        out = []
        while not self.at("}"):
            t = self.expect_ident()
            self.expect("=")
            e = self.expr()
            self.expect(";")
            out.append(Assign(target=t.text, expr=e, pos=(t.line, t.col)))
        self.expect("}")
        return tuple(out)

    def out_section(self):
        self.expect("out")
        self.expect("{")
        t = self.expect_ident()
        if t.text != "Y":
            self.fail(f"out block must assign Y, found {t.text!r}", t)
        self.expect("=")
        e = self.expr()
        self.expect(";")
        self.expect("}")
        return e

    # -- expressions -----------------------------------------------------

    def expr(self):
        left = self.mulexpr()
        while self.peek().text in ("+", "-"):
            op = self.next()
            right = self.mulexpr()
            left = Bin(op=op.text, left=left, right=right, pos=(op.line, op.col))
        return left

    def mulexpr(self):
        left = self.unary()
        while self.peek().text in ("*", "/", "@"):
            op = self.next()
            right = self.unary()
            left = Bin(op=op.text, left=left, right=right, pos=(op.line, op.col))
        return left

    def unary(self):
        if self.at("-"):
            t = self.next()
            return Unary(op="-", operand=self.unary(), pos=(t.line, t.col))
        return self.postfix()

    def postfix(self):
        a = self.atom()
        if self.at("[") and isinstance(a, Name):
            t = self.next()
            idx = self.expr()
            self.expect("]")
            return Index(name=a.ident, index=idx, pos=(t.line, t.col))
        return a

    def atom(self):
        t = self.next()
        if t.kind == "number":
            return Num(value=self.number(t), pos=(t.line, t.col))
        if t.kind == "ident":
            if self.at("("):
                if t.text not in CALLS:
                    self.fail(f"unknown function {t.text!r}", t)
                self.next()
                args = []
                if not self.at(")"):
                    args.append(self.expr())
                    while self.at(","):
                        self.next()
                        args.append(self.expr())
                self.expect(")")
                return Call(fn=t.text, args=tuple(args), pos=(t.line, t.col))
            if t.text in KEYWORDS and t.text != "in":
                self.fail(f"keyword {t.text!r} cannot appear in an expression", t)
            return Name(ident=t.text, pos=(t.line, t.col))
        if t.text == "(":
            e = self.expr()
            self.expect(")")
            return e
        self.fail(f"unexpected token {t.text!r}", t)

    # -- whole-program validation ---------------------------------------

    def validate(self, prog):
        seen = set()
        for cname, _ in prog.consts:
            if cname in seen:
                self.fail(f"duplicate const {cname!r}")
            seen.add(cname)
        pseen = set()
        for p in prog.params:
            if p.name in pseen:
                self.fail(f"duplicate parameter {p.name!r}")
            pseen.add(p.name)
        gseen = set()
        for g in prog.graph_defs:
            if g.name in gseen:
                self.fail(f"duplicate graph operator {g.name!r}")
            gseen.add(g.name)
        k = prog.const("K")
        needs_k = prog.has_step or any(p.array == "K" for p in prog.params)
        if needs_k and k is None:
            self.fail("K must be declared in consts when a step block or K-sized array is used")
        if k is not None:
            if k != int(k) or int(k) < 1:
                self.fail("K must be a positive integer")
            if int(k) > K_MAX:
                self.fail(f"K exceeds the cap of {K_MAX}")


def parse(text):
    """Parse DSL source into a Program AST."""
    if not isinstance(text, str):
        raise DslSyntaxError("program text must be a string")
    return _Parser(text).program()
