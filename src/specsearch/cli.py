"""Command-line entry points: search, eval, xeval, gen-data, inspect, bench."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from . import __version__, dsl, graphs, search, training
from .bridge import LiveBackend, ReplayBackend
from .dsl.corpus import builtin_names
from .errors import SpecSearchError, UnknownBuiltin


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_split(text):
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != 3:
        raise UsageError(f"--split needs three comma-separated numbers, got {text!r}")
    if sum(parts) > 1.0 + 1e-9:
        parts = [p / 100.0 for p in parts]
    return tuple(parts)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _config(cls, fields):
    """cls(**fields); an unknown field or a rejected value is a usage error."""
    try:
        return cls(**fields)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from None


def _cell(value):
    """A CSV accuracy cell: four decimals, or empty when there is no value."""
    return "" if value is None else f"{value:.4f}"


def _resolve_mechanism(spec):
    try:
        return spec, dsl.builtin(spec)
    except UnknownBuiltin:
        path = Path(spec)
        if path.exists():
            return path.stem, path.read_text(encoding="utf-8")
        raise SpecSearchError(
            f"{spec!r} is neither a builtin mechanism ({', '.join(builtin_names())}) "
            f"nor an existing file")


def _make_split(graph, ratios, seed, stratified=True, from_file=False):
    if from_file and graph.splits is None:
        raise SpecSearchError("dataset file carries no splits")
    try:
        split = graph.splits if from_file else graphs.make_split(
            graph.num_nodes, ratios, labels=graph.labels, seed=seed, stratified=stratified)
        training.check_split(split)
    except ValueError as exc:   # the fractions, or a split with no validation nodes
        raise UsageError(f"split: {exc}") from None
    return split


def _prepare_out_dir(out_dir, force):
    out = Path(out_dir)
    if out.exists() and any(out.iterdir()) and not force:
        raise SpecSearchError(f"output directory {out} is not empty (use --force)")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out, manifest):
    (out / "run_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _scoring_record(pool_size):
    """How candidates are scored: the worker pool size, the symbol of the BLAS
    `set_num_threads` that pins batches to one thread, and whether workers keep
    freed heap memory (`mallopt` found)."""
    blas = training.blas_threads()
    return {"pool_size": pool_size,
            "blas_pin": blas.set_num_threads.__name__ if blas is not None else None,
            "keep_freed_heap": training.libc_mallopt() is not None}


def _train_cfg_from(args, base=None):
    cfg = dict(base or {})
    if getattr(args, "timeout_secs", None) is not None:
        cfg["timeout_seconds"] = args.timeout_secs
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    return _config(training.TrainConfig, cfg)


def cmd_search(args):
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config {args.config}: malformed JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError(f"config {args.config}: expected a JSON object")
    dataset = args.dataset or cfg.get("dataset")
    if dataset is None:
        raise UsageError("search needs a dataset (config key 'dataset' or --dataset)")
    graph = graphs.load_dataset(dataset)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)

    split_spec = cfg.get("split", {"ratios": [0.025, 0.025, 0.95], "stratified": True})
    if args.split:
        split_spec = {"ratios": list(_parse_split(args.split)),
                      "stratified": split_spec.get("stratified", True)}
    split = _make_split(graph, tuple(split_spec.get("ratios", ())),
                        split_spec.get("seed", seed),
                        stratified=split_spec.get("stratified", True),
                        from_file=split_spec.get("from_file", False))

    train_over = dict(cfg.get("train", {}))
    train_over.setdefault("seed", seed)
    train_cfg = _train_cfg_from(args, train_over)

    search_over = dict(cfg.get("search", {}))
    search_over.setdefault("seed", seed)
    if args.generations is not None:
        search_over["generations"] = args.generations
    if "seed_programs" in search_over:
        search_over["seed_programs"] = tuple(search_over["seed_programs"])
    if "prompt_ops" in search_over:
        search_over["prompt_ops"] = tuple(search_over["prompt_ops"])
    search_cfg = _config(search.SearchConfig, search_over)

    backend_spec = cfg.get("backend", {})
    if args.replay_file:
        backend_spec = {"replay": args.replay_file}
    if "replay" in backend_spec:
        backend = ReplayBackend(backend_spec["replay"])
        backend_desc = {"replay": str(backend_spec["replay"])}
    elif "live" in backend_spec:
        live = backend_spec["live"]
        backend = LiveBackend(live["base_url"], live["model"],
                              temperature=live.get("temperature", 1.0),
                              max_concurrent=live.get("max_concurrent", 4))
        backend_desc = {"live": {"base_url": live["base_url"], "model": live["model"],
                                 "temperature": live.get("temperature", 1.0)}}
    else:
        raise UsageError("config must name exactly one backend (replay or live)")

    out_dir = args.out_dir or cfg.get("out_dir")
    if out_dir is None:
        raise UsageError("search needs --out-dir or config key 'out_dir'")
    out = _prepare_out_dir(out_dir, args.force)
    _write_manifest(out, {
        "command": "search", "version": __version__, "dataset": str(dataset),
        "split": split_spec, "seed": seed, "backend": backend_desc,
        "train": train_cfg.to_dict(), "search": search_cfg.to_dict(),
        "scoring": _scoring_record(search_cfg.pool_size),
    })
    report = search.run_search(graph, split, search_cfg, train_cfg, backend,
                               out_dir=out, log=lambda m: print(m, file=sys.stderr))
    print(json.dumps({"best_fitness": report.best.fitness,
                      "best_id": report.best.id,
                      "archive_size": len(report.archive)}))
    return 0


def cmd_eval(args):
    graph = graphs.load_dataset(args.dataset)
    _, text = _resolve_mechanism(args.mechanism)
    train_cfg = _train_cfg_from(args)
    if args.split == "from-file":
        split = _make_split(graph, None, train_cfg.seed, from_file=True)
    else:
        ratios = _parse_split(args.split) if args.split else (0.025, 0.025, 0.95)
        split = _make_split(graph, ratios, train_cfg.seed)
    res = training.score_individual(text, graph, split, train_cfg)
    if not res.ok:
        print(json.dumps({"status": res.reason}))
        return 2
    print(json.dumps({"fitness": res.fitness, "test_accuracy": res.test_accuracy}))
    return 0


def _matrix_rows(mech_specs, dataset_paths, args):
    train_cfg = _train_cfg_from(args)
    ratios = _parse_split(args.split) if args.split else (0.025, 0.025, 0.95)
    rows = []
    datasets = [(Path(p).stem, graphs.load_dataset(p)) for p in dataset_paths]
    for spec in mech_specs:
        name, text = _resolve_mechanism(spec)
        row = [name]
        for _, graph in datasets:
            split = _make_split(graph, ratios, train_cfg.seed)
            res = training.score_individual(text, graph, split, train_cfg)
            row.append(_cell(res.test_accuracy) if res.ok else res.reason)
        rows.append(row)
    return [["mechanism"] + [n for n, _ in datasets]] + rows


def _emit_csv(rows, args, command, **manifest_extra):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    text = buf.getvalue()
    if args.out_dir:
        out = _prepare_out_dir(args.out_dir, args.force)
        _write_manifest(out, {"command": command, "version": __version__,
                              "args": {k: v for k, v in vars(args).items()
                                       if k != "func" and v is not None},
                              **manifest_extra})
        (out / f"{command}.csv").write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def cmd_xeval(args):
    rows = _matrix_rows(args.mechanisms.split(","), args.datasets.split(","), args)
    _emit_csv(rows, args, "xeval")
    return 0


def cmd_bench(args):
    train_cfg = _train_cfg_from(args)
    graph = graphs.load_dataset(args.dataset)
    ratios = _parse_split(args.split) if args.split else (0.025, 0.025, 0.95)
    split = _make_split(graph, ratios, train_cfg.seed)
    texts = [dsl.builtin(n) for n in builtin_names()]
    results = training.evaluate_batch(texts, graph, split, train_cfg,
                                      pool_size=args.pool_size)
    rows = [["mechanism", "status", "fitness", "test_accuracy"]]
    for name, res in zip(builtin_names(), results):
        rows.append([name, "ok" if res.ok else res.reason,
                     _cell(res.fitness), _cell(res.test_accuracy)])
    _emit_csv(rows, args, "bench", scoring=_scoring_record(args.pool_size))
    return 0


def cmd_gen_data(args):
    try:
        graph = graphs.gen_synthetic(args.n, args.classes, args.homophily,
                                     args.avg_degree, args.feature_dim,
                                     args.signal, args.seed or 0)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    graphs.save_dataset(graph, args.out)
    print(json.dumps({"path": str(args.out), "num_nodes": graph.num_nodes,
                      "num_edges": len(graph.edges)}))
    return 0


def cmd_inspect(args):
    _, text = _resolve_mechanism(args.mechanism)
    prog = dsl.parse(text)
    dims = {"n": 50, "f": 10, "h": 16, "c": 3}
    typed = dsl.check_shapes(prog, dims)
    sys.stdout.write(dsl.print_program(prog))
    for w in typed.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def build_parser():
    parser = _Parser(prog="specsearch",
                     description="Discover spectral GNN propagation mechanisms")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--split", default=None, help="train,val,test fractions or percents")
        p.add_argument("--timeout-secs", type=float, default=None, dest="timeout_secs")
        p.add_argument("--out-dir", default=None, dest="out_dir")
        p.add_argument("--force", action="store_true")

    p = sub.add_parser("search", help="full evolutionary run")
    p.add_argument("--config", required=True)
    p.add_argument("--dataset", default=None)
    p.add_argument("--replay-file", default=None, dest="replay_file")
    p.add_argument("--generations", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("eval", help="train and score one mechanism")
    p.add_argument("--dataset", required=True)
    p.add_argument("--mechanism", required=True)
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("xeval", help="mechanisms x datasets accuracy matrix")
    p.add_argument("--datasets", required=True)
    p.add_argument("--mechanisms", required=True)
    common(p)
    p.set_defaults(func=cmd_xeval)

    p = sub.add_parser("gen-data", help="write a synthetic dataset JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--homophily", type=float, default=0.9)
    p.add_argument("--avg-degree", type=float, default=10.0, dest="avg_degree")
    p.add_argument("--feature-dim", type=int, default=16, dest="feature_dim")
    p.add_argument("--signal", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("inspect", help="parse and shape-check a program")
    p.add_argument("--mechanism", required=True)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("bench", help="evaluate the full builtin corpus")
    p.add_argument("--dataset", required=True)
    p.add_argument("--pool-size", type=_positive_int, default=training.USABLE_CORES,
                   dest="pool_size")
    common(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SpecSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
