"""Canonical printer: one statement per line, two-space indent, minimal parentheses."""

from __future__ import annotations

from .nodes import Bin, Call, Index, Name, Num, Unary

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "@": 2}


def _fmt_num(v):
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _fmt_expr(e, parent_prec=0):
    if isinstance(e, Num):
        return _fmt_num(e.value)
    if isinstance(e, Name):
        return e.ident
    if isinstance(e, Index):
        return f"{e.name}[{_fmt_expr(e.index)}]"
    if isinstance(e, Call):
        return f"{e.fn}({', '.join(_fmt_expr(a) for a in e.args)})"
    if isinstance(e, Unary):
        inner = _fmt_expr(e.operand, parent_prec=3)
        s = f"-{inner}"
        return f"({s})" if parent_prec > 2 else s
    if isinstance(e, Bin):
        prec = _PREC[e.op]
        # Operators associate to the left, so a right operand of equal
        # precedence needs brackets: it is formatted one level tighter.
        s = f"{_fmt_expr(e.left, prec)} {e.op} {_fmt_expr(e.right, prec + 1)}"
        return f"({s})" if prec < parent_prec else s
    raise TypeError(f"not an expression node: {e!r}")


def _fmt_init(spec):
    return spec if isinstance(spec, str) else f"const({_fmt_num(spec[1])})"


def _fmt_param(p):
    ty = f"{p.kind}({', '.join(map(str, p.dims))})" if p.dims else p.kind
    arr = "" if p.array is None else f"[{p.array}]"
    return f"{p.name}: {ty}{arr} = {_fmt_init(p.init)}"


def _fmt_graph(g):
    arg = f"c={_fmt_num(g.self_loop)}" if g.self_loop != 0 else ""
    return f"{g.name} = {g.ctor}({arg})"


def print_program(prog):
    """Render a Program AST back to canonical DSL text. An optional section is
    printed only when it has entries."""
    lines = [f"mechanism {prog.name} {{"]

    def section(kw, items, optional=True):
        if items or not optional:
            lines.extend([f"  {kw} {{", *(f"    {item};" for item in items), "  }"])

    def stmts(block):
        return [f"{st.target} = {_fmt_expr(st.expr)}" for st in block]

    section("consts", [f"{name} = {_fmt_num(v)}" for name, v in prog.consts])
    section("params", [_fmt_param(p) for p in prog.params])
    section("graph", [_fmt_graph(g) for g in prog.graph_defs])
    section("init", stmts(prog.init_block), optional=False)
    section("step", stmts(prog.step_block))
    section("final", stmts(prog.final_block))
    section("out", [f"Y = {_fmt_expr(prog.out_expr)}"])
    lines.append("}")
    return "\n".join(lines) + "\n"
