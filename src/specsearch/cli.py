"""Command-line entry points: search, eval, xeval, gen-data, inspect, bench."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

from . import __version__, dsl, graphs, search, training
from .bridge import LiveBackend, ReplayBackend
from .dsl.corpus import builtin_names
from .errors import SpecSearchError, StratificationInfeasible, UnknownBuiltin


# train, val and test fractions when neither --split nor a search config names a split
DEFAULT_RATIOS = (0.025, 0.025, 0.95)


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


# What a config value of each Python type must be in JSON, and the test for it.
_JSON_KINDS = {
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple: ("a list of strings",
            lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v)),
}


def _typed(value, kind, key):
    """`value` as a config value of type `kind` (a tuple from a JSON list); a value
    of another JSON type is a usage error."""
    what, accepts = _JSON_KINDS[kind]
    if not accepts(value):
        raise UsageError(f"config key {key!r} must be {what}, got {value!r}")
    return tuple(value) if kind is tuple else value


def _config(cls, fields, section):
    """cls(**fields). Each field must have the type of its default (`_typed`);
    an unknown field or a rejected value is a usage error."""
    kinds = {f.name: type(f.default) for f in dataclasses.fields(cls)}
    fields = {name: _typed(value, kinds[name], f"{section}.{name}") if name in kinds
              else value for name, value in fields.items()}
    try:
        return cls(**fields)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from None


def _object(value, key):
    """A search config's JSON object under `key`; any other value is a usage error."""
    if not isinstance(value, dict):
        raise UsageError(f"config key {key!r} must be a JSON object, got {value!r}")
    return value


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
    """The run's split. Bad fractions, a class too small to stratify and a split
    no candidate can be scored on are usage errors."""
    if from_file and graph.splits is None:
        raise SpecSearchError("dataset file carries no splits")
    try:
        split = graph.splits if from_file else graphs.make_split(
            graph.num_nodes, ratios, labels=graph.labels, seed=seed, stratified=stratified)
        training.check_split(split)
    except (TypeError, ValueError, StratificationInfeasible) as exc:
        raise UsageError(f"split: {exc}") from None
    return split


def _split_from_flag(graph, flag, seed):
    """The split of eval, xeval and bench: `--split from-file` takes the
    dataset's stored split, fractions make a stratified one (DEFAULT_RATIOS
    without the flag)."""
    if flag == "from-file":
        return _make_split(graph, None, seed, from_file=True)
    return _make_split(graph, _parse_split(flag) if flag else DEFAULT_RATIOS, seed)


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
    return _config(training.TrainConfig, cfg, "train")


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
    graph = graphs.load_dataset(_typed(dataset, str, "dataset"))
    seed = _typed(args.seed if args.seed is not None else cfg.get("seed", 0), int, "seed")

    default_split = {"ratios": list(DEFAULT_RATIOS), "stratified": True}
    split_spec = _object(cfg.get("split", default_split), "split")
    if args.split == "from-file":
        split_spec = {"from_file": True}
    elif args.split:
        split_spec = {"ratios": list(_parse_split(args.split)),
                      "stratified": split_spec.get("stratified", True)}
    split = _make_split(graph, split_spec.get("ratios", ()),
                        split_spec.get("seed", seed),
                        stratified=_typed(split_spec.get("stratified", True), bool,
                                          "split.stratified"),
                        from_file=_typed(split_spec.get("from_file", False), bool,
                                         "split.from_file"))

    train_over = dict(_object(cfg.get("train", {}), "train"))
    train_over.setdefault("seed", seed)
    train_cfg = _train_cfg_from(args, train_over)

    search_over = dict(_object(cfg.get("search", {}), "search"))
    search_over.setdefault("seed", seed)
    if args.generations is not None:
        search_over["generations"] = args.generations
    search_cfg = _config(search.SearchConfig, search_over, "search")

    backend_spec = _object(cfg.get("backend", {}), "backend")
    if args.replay_file:
        backend_spec = {"replay": args.replay_file}
    if "replay" in backend_spec:
        if not isinstance(backend_spec["replay"], str):
            raise UsageError("config key 'backend.replay' must be a file path")
        backend = ReplayBackend(backend_spec["replay"])
        backend_desc = {"replay": backend_spec["replay"]}
    elif "live" in backend_spec:
        live = _object(backend_spec["live"], "backend.live")
        missing = [k for k in ("base_url", "model") if k not in live]
        if missing:
            raise UsageError(f"config key 'backend.live' needs {' and '.join(missing)}")
        base_url = _typed(live["base_url"], str, "backend.live.base_url")
        model = _typed(live["model"], str, "backend.live.model")
        temperature = _typed(live.get("temperature", 1.0), float, "backend.live.temperature")
        max_concurrent = _typed(live.get("max_concurrent", 4), int,
                                "backend.live.max_concurrent")
        if max_concurrent < 1:
            raise UsageError(f"config key 'backend.live.max_concurrent' must be at "
                             f"least 1, got {max_concurrent}")
        backend = LiveBackend(base_url, model, temperature=temperature,
                              max_concurrent=max_concurrent)
        backend_desc = {"live": {"base_url": base_url, "model": model,
                                 "temperature": temperature}}
    else:
        raise UsageError("config must name exactly one backend (replay or live)")

    out_dir = args.out_dir or cfg.get("out_dir")
    if out_dir is None:
        raise UsageError("search needs --out-dir or config key 'out_dir'")
    out = _prepare_out_dir(_typed(out_dir, str, "out_dir"), args.force)
    _write_manifest(out, {
        "command": "search", "version": __version__, "dataset": str(dataset),
        "split": split_spec, "seed": seed, "backend": backend_desc,
        "train": dataclasses.asdict(train_cfg), "search": dataclasses.asdict(search_cfg),
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
    split = _split_from_flag(graph, args.split, train_cfg.seed)
    (res,) = training.evaluate_batch([text], graph, split, train_cfg, pool_size=1)
    if not res.ok:
        print(json.dumps({"status": res.status}))
        return 2
    print(json.dumps({"fitness": res.fitness, "test_accuracy": res.test_accuracy}))
    return 0


def _matrix_rows(mech_specs, dataset_paths, args):
    """One row per mechanism, one test-accuracy column per dataset, each column
    scored as one batch."""
    train_cfg = _train_cfg_from(args)
    datasets = [(Path(p).stem, graphs.load_dataset(p)) for p in dataset_paths]
    mechs = [_resolve_mechanism(spec) for spec in mech_specs]
    rows = [[name] for name, _ in mechs]
    for _, graph in datasets:
        split = _split_from_flag(graph, args.split, train_cfg.seed)
        results = training.evaluate_batch([text for _, text in mechs], graph, split,
                                          train_cfg)
        for row, res in zip(rows, results):
            row.append(_cell(res.test_accuracy) if res.ok else res.status)
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
    _emit_csv(rows, args, "xeval", scoring=_scoring_record(training.USABLE_CORES))
    return 0


def cmd_bench(args):
    train_cfg = _train_cfg_from(args)
    graph = graphs.load_dataset(args.dataset)
    split = _split_from_flag(graph, args.split, train_cfg.seed)
    texts = [dsl.builtin(n) for n in builtin_names()]
    results = training.evaluate_batch(texts, graph, split, train_cfg,
                                      pool_size=args.pool_size)
    rows = [["mechanism", "status", "fitness", "test_accuracy"]]
    for name, res in zip(builtin_names(), results):
        rows.append([name, res.status,
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
        p.add_argument("--split", default=None, help="train,val,test fractions or "
                       "percents, or from-file (the dataset's split)")
        p.add_argument("--timeout-secs", type=float, default=None, dest="timeout_secs")

    def writes_out_dir(p):
        p.add_argument("--out-dir", default=None, dest="out_dir")
        p.add_argument("--force", action="store_true")

    p = sub.add_parser("search", help="full evolutionary run")
    p.add_argument("--config", required=True)
    p.add_argument("--dataset", default=None)
    p.add_argument("--replay-file", default=None, dest="replay_file")
    p.add_argument("--generations", type=int, default=None)
    common(p)
    writes_out_dir(p)
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
    writes_out_dir(p)
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
    writes_out_dir(p)
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
