"""Seeded inputs: dataset JSON files and replay scripts.

The inputs are built here, not by the program under test, so a change to the
program's own synthetic generator cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import json
import re

import numpy as np

# Seeds select one of this many input variants. Each variant has reference
# results in expected.json (see record.py); a seed outside the table would have
# no convergence digest to check against.
VARIANTS = 8


def sbm_dataset(name, n, classes, homophily, avg_degree, feature_dim, signal, seed):
    """Contextual block model in the dataset JSON layout `graphs.load_dataset` reads.

    Each edge is intra-class with probability `homophily`; features are a
    class mean of norm `signal * sqrt(feature_dim)` plus unit Gaussian noise,
    rounded to 4 decimals so the file stays small.
    """
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % classes)
    members = [np.flatnonzero(labels == c) for c in range(classes)]
    target = int(round(n * avg_degree / 2))
    keys = np.empty(0, dtype=np.int64)
    while keys.size < target:
        k = 2 * (target - keys.size) + 16
        u = rng.integers(n, size=k)
        same = rng.random(k) < homophily
        shift = rng.integers(1, classes, size=k)
        cls = np.where(same, labels[u], (labels[u] + shift) % classes)
        v = np.empty(k, dtype=np.int64)
        for c in range(classes):
            sel = cls == c
            v[sel] = members[c][rng.integers(members[c].size, size=int(sel.sum()))]
        keep = u != v
        lo, hi = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
        new = lo * n + hi
        _, first = np.unique(new, return_index=True)
        new = new[np.sort(first)]
        new = new[~np.isin(new, keys)]
        keys = np.concatenate([keys, new])[:target]
    # Orthonormal class directions: every pair of classes is equally far apart,
    # so the task is equally hard for every seed.
    basis, _ = np.linalg.qr(rng.standard_normal((feature_dim, classes)))
    means = signal * np.sqrt(feature_dim) * basis.T
    features = np.round(means[labels] + rng.standard_normal((n, feature_dim)), 4)
    return {
        "name": name,
        "num_nodes": n,
        "num_classes": classes,
        "feature_dim": feature_dim,
        "edges": np.stack([keys // n, keys % n], axis=1).tolist(),
        "features": features.tolist(),
        "labels": labels.tolist(),
    }


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _response(program_text):
    return f"A propagation design.\n```\n{program_text}\n```"


OPS = ("E1", "E2", "C1")
SLOTS = 4


def dup_replay(builtin):
    """One generation shaped like the test suite's full replay script.

    Slots 0 and 2 propose appnp with a new alpha (the same text under all three
    operators); slots 1 and 3 propose the gpr and gcn seeds verbatim. So 10 of
    the 12 proposals repeat a program that was already trained.
    """
    variants = [
        ("appnp", ("alpha = 0.1", "alpha = 0.12")),
        ("gpr", None),
        ("appnp", ("alpha = 0.1", "alpha = 0.13")),
        ("gcn", None),
    ]
    records = []
    for op in OPS:
        for slot in range(SLOTS):
            name, tweak = variants[slot]
            body = builtin(name)
            if tweak:
                body = body.replace(*tweak)
            records.append({"gen": 1, "op": op, "slot": slot, "text": _response(body)})
    return records


# Graph operators proposed under each prompt operator, one per response slot.
SPARSE_PLAN = {"E1": ("sym_norm(c=1)", "rw_norm(c=1)"),
               "E2": ("pruned_norm(c=2)", "scaled_laplacian()"),
               "C1": ("rw_norm(c=1)", "scaled_laplacian()")}

_SPARSE_TEMPLATES = {
    "E1": """mechanism damped_{slot} {{
  consts {{ K = 2; alpha = 0.15; }}
  graph {{ A = {ctor}; }}
  init {{ Z = X; }}
  step {{ Z = (1 - alpha) * spmm(A, Z) + alpha * X; }}
  out {{ Y = Z; }}
}}""",
    "E2": """mechanism series_{slot} {{
  consts {{ K = 2; }}
  params {{ gamma0: scalar = const(0.5); gamma: scalar[K] = const(0.25); }}
  graph {{ A = {ctor}; }}
  init {{ H = X; Z = gamma0 * X; }}
  step {{ H = spmm(A, H); Z = Z + gamma[k] * H; }}
  out {{ Y = Z; }}
}}""",
    "C1": """mechanism mixed_{slot} {{
  params {{ beta: scalar = const(0.5); }}
  graph {{ A = {ctor}; B = sym_norm(c=1); }}
  init {{ Z = X + beta * spmm(A, tanh(X)) + (1 - beta) * spmm(B, X_raw); }}
  out {{ Y = Z; }}
}}""",
}


def sparse_replay():
    """One generation of 6 distinct programs: a shape per operator, 2 graph operators each."""
    return [{"gen": 1, "op": op, "slot": slot,
             "text": _response(_SPARSE_TEMPLATES[op].format(slot=slot, ctor=ctor))}
            for op, ctors in SPARSE_PLAN.items() for slot, ctor in enumerate(ctors)]


def program_of(record):
    """The program text the search scores for a replay record (fence stripped)."""
    return record["text"].split("```\n", 1)[1].rsplit("```", 1)[0].strip()


_GRAPH_BLOCK = re.compile(r"\bgraph\s*\{([^}]*)\}")


def graph_def_count(program_text):
    """Number of operator definitions in a program's graph block."""
    m = _GRAPH_BLOCK.search(program_text)
    return m.group(1).count(";") if m else 0
