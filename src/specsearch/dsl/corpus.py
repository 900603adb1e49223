"""Builtin propagation programs: classic seeds plus the searched per-dataset mechanisms."""

from __future__ import annotations

from ..errors import UnknownBuiltin

_CORPUS = {}
_IDEAS = {}


def _register(name, ideas, text):
    _CORPUS[name] = text.strip()
    _IDEAS[name] = ideas


_register("gcn", "Single symmetric-normalized convolution: a plain low-pass smoothing hop.", """
mechanism gcn {
  consts { K = 1; }
  params { W: matrix(h, h)[K] = glorot; }
  graph { Ahat = sym_norm(c=1); }
  init { Z = X; }
  step { Z = spmm(Ahat, Z) @ W[k]; }
  out { Y = Z; }
}
""")

_register("appnp", "Personalized-PageRank propagation: repeated smoothing with teleport back to the input.", """
mechanism appnp {
  consts { K = 4; alpha = 0.1; }
  graph { Ahat = sym_norm(c=1); }
  init { Z = X; }
  step { Z = (1 - alpha) * spmm(Ahat, Z) + alpha * X; }
  out { Y = Z; }
}
""")

_register("gpr", "Generalized PageRank: a learnable signed coefficient per propagation hop.", """
mechanism gpr {
  consts { K = 4; }
  params {
    gamma0: scalar = const(0.5);
    gamma: scalar[K] = const(0.125);
  }
  graph { Ahat = sym_norm(c=1); }
  init {
    H = X;
    Z = gamma0 * X;
  }
  step {
    H = spmm(Ahat, H);
    Z = Z + gamma[k] * H;
  }
  out { Y = Z; }
}
""")

_register("fagcn-lite", "Frequency-adaptive residual filter configured as a high-pass: each hop "
          "adds the difference between a node and its smoothed neighborhood.", """
mechanism fagcn_lite {
  consts { K = 2; eps = 0.2; }
  graph { Ahat = sym_norm(c=1); }
  init { Z = X; }
  step { Z = eps * X + (Z - spmm(Ahat, Z)); }
  out { Y = Z; }
}
""")

_register("cora-appnp-residual", "Full-spectrum mix: a damped-propagation series with a residual "
          "last hop and heavy self-loops.", """
mechanism cora_appnp_residual {
  # The accumulation below reads the published recurrence as a running sum:
  # each step adds alpha*(1-alpha)^k times the smoothed previous state.
  consts { K = 4; }
  params {
    alpha: scalar = const(0.15);
    W: matrix(h, h)[K] = glorot;
  }
  graph { Ahat = sym_norm(c=4); }
  init { Z = alpha * X; }
  step { Z = Z + (alpha * pow(1 - alpha, k)) * (spmm(Ahat, Z) @ W[k]); }
  final { Z = pow(1 - alpha, K) * (spmm(Ahat, Z) @ W[K]) + Z; }
  out { Y = Z; }
}
""")

_register("citeseer-att-residual", "Per-node gated residual propagation with a fixed raw-feature "
          "injection each hop.", """
mechanism citeseer_att_residual {
  consts { K = 4; }
  params {
    Att: vector(n) = const(1.0);
    W: matrix(h, h)[K] = glorot;
  }
  graph { Ahat = sym_norm(c=2); }
  init { Z = Att * X; }
  step { Z = Z + Att * (spmm(Ahat, Z) @ W[k]) + 0.2 * X_raw; }
  out { Y = Z; }
}
""")

_register("pubmed-pruned-residual", "Residual rectified propagation over a globally normalized, "
          "mean-minus-std pruned operator.", """
mechanism pubmed_pruned_residual {
  consts { K = 4; }
  params {
    alpha: scalar = const(0.25);
    beta: scalar = const(0.4);
    gamma: scalar = const(0.25);
    W: matrix(h, h)[K] = glorot;
  }
  graph { Abar = pruned_norm(c=2); }
  init { Z = alpha * X + gamma * X_raw; }
  step { Z = Z + beta * relu(spmm(Abar, Z) @ W[k]); }
  out { Y = Z; }
}
""")

_register("computer-gpr2", "Two-hop polynomial filter with normalized geometric coefficients.", """
mechanism computer_gpr2 {
  consts { K = 2; }
  params {
    alpha: scalar = const(0.1);
    W: matrix(h, h)[K] = glorot;
  }
  graph { Ahat = sym_norm(c=2); }
  init {
    denom = 1 + alpha + alpha * alpha;
    H1 = spmm(Ahat, X);
    H2 = spmm(Ahat, H1);
    Z = (1 / denom) * X + (alpha / denom) * (H1 @ W[1]) + ((alpha * alpha) / denom) * (H2 @ W[2]);
  }
  out { Y = Z; }
}
""")

_register("photo-scaled-residual", "Residual propagation whose hop strength is the product of two "
          "learnable gates.", """
mechanism photo_scaled_residual {
  consts { K = 3; }
  params {
    beta: scalar = const(0.7);
    gamma: scalar = const(0.3);
    W: matrix(h, h)[K] = glorot;
  }
  graph { Ahat = sym_norm(c=2); }
  init { Z = (beta + gamma) * X; }
  step { Z = Z + (beta * gamma) * (spmm(Ahat, Z) @ W[k]); }
  out { Y = Z; }
}
""")

_register("chameleon-gated", "Single-shot gated mix of a linear feature path and one smoothed "
          "raw-feature hop, squashed by tanh.", """
mechanism chameleon_gated {
  params {
    alpha: scalar = const(1.0);
    W1: matrix(h, h) = glorot;
    b: vector(h) = const(0.0);
    W2: matrix(h, h) = glorot;
  }
  graph { An = sym_norm(); }
  init { Z = tanh((X @ W1 + b) + sigmoid(alpha) * (spmm(An, X_raw) @ W2)); }
  out { Y = Z; }
}
""")

_register("squirrel-att-stack", "Two stacked smoothed linear layers modulated by a softmax feature "
          "attention mask; the last weight and bias are shared.", """
mechanism squirrel_att_stack {
  params {
    Att: vector(n) = normal;
    W0: matrix(h, h) = glorot;
    b0: vector(h) = const(0.0);
    W1: matrix(h, h) = glorot;
    W2: matrix(h, h) = glorot;
    b1: vector(h) = const(0.0);
    W3: matrix(h, h) = glorot;
  }
  graph { Ahat = sym_norm(c=2); }
  init {
    XAtt = softmax_rows(Att * X);
    Z0 = spmm(Ahat, X @ W0 + b0) @ W1;
    Z1 = spmm(Ahat, Z0 @ W2 + b1) @ W3;
    Z = (Z1 * XAtt) @ W3 + b1;
  }
  out { Y = Z; }
}
""")

_register("texas-powersum-att", "Power-sum of propagation hops added to transformed raw features, "
          "gated per node before the output transform.", """
mechanism texas_powersum_att {
  consts { K = 4; }
  params {
    Att: vector(n) = const(1.0);
    W1: matrix(h, h) = glorot;
    W2: matrix(h, h) = glorot;
  }
  graph { An = sym_norm(); }
  init {
    S = X;
    T = X_raw @ W1;
  }
  step {
    S = spmm(An, S);
    T = T + S;
  }
  out { Y = elu(Att * T) @ W2; }
}
""")

_register("cornell-attn-mix", "A smoothed linear path plus a learned-attention aggregation of raw "
          "neighbor features.", """
mechanism cornell_attn_mix {
  params {
    W1: matrix(h, h) = glorot;
    W2: matrix(h, h) = glorot;
    a1: matrix(h, 1) = glorot;
    a2: matrix(h, 1) = glorot;
  }
  graph { An = sym_norm(); }
  init {
    H = X_raw @ W2;
    Z = spmm(An, X) @ W1 + attn_agg(An, H @ a1, H @ a2, H);
  }
  out { Y = Z; }
}
""")

SEED_NAMES = ("gcn", "appnp", "gpr", "fagcn-lite")


def builtin_names():
    return tuple(_CORPUS)


def builtin(name):
    """Canonical source text of a builtin program."""
    if name not in _CORPUS:
        raise UnknownBuiltin(f"no builtin program named {name!r}")
    return _CORPUS[name]


def builtin_ideas(name):
    if name not in _IDEAS:
        raise UnknownBuiltin(f"no builtin program named {name!r}")
    return _IDEAS[name]
