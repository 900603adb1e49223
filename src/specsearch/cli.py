"""Command-line entry points: search, eval, xeval, gen-data, inspect, bench."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from pathlib import Path

from . import __version__, dsl, graphs, search, training
from .bridge import LiveBackend, ReplayBackend
from .dsl.corpus import builtin_names
from .errors import SpecSearchError, StratificationInfeasible, UnknownBuiltin


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _is_number(v):
    """A JSON number; `json.load` also reads the tokens NaN and Infinity, which are not."""
    return type(v) is int or type(v) is float and math.isfinite(v)


# What a config value must be in JSON, and the test for it, keyed by the text of
# its dataclass field's annotation (the config dataclasses' modules all use
# `from __future__ import annotations`, so annotations are text).
_JSON_KINDS = {
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a number", _is_number),
    "str": ("a string", lambda v: isinstance(v, str)),
    "tuple": ("a list of strings",
              lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v)),
    "tuple[float, ...]": ("a list of numbers",
                          lambda v: isinstance(v, list) and all(map(_is_number, v))),
    "dict": ("a JSON object", lambda v: isinstance(v, dict)),
}


def _config(cls, obj, section, **flags):
    """cls(**obj) for the config object `obj` (a dict) under `section` ("" at the
    top level). Each key must name a field of `cls` and hold a value of the
    field's JSON kind (`_JSON_KINDS`; a JSON list becomes a tuple). `flags` are
    command-line values, None when not given; a given one overrides its key.
    A field without a default must be set; anything else, and a value `cls`
    rejects, is a usage error."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for name, value in obj.items():
        key = f"{section}.{name}" if section else name
        if name not in fields:
            raise UsageError(f"config key {key!r} is not one of {', '.join(fields)}")
        what, accepts = _JSON_KINDS[fields[name].type]
        if not accepts(value):
            raise UsageError(f"config key {key!r} must be {what}, got {value!r}")
    values = {name: tuple(v) if isinstance(v, list) else v for name, v in obj.items()}
    values.update((name, v) for name, v in flags.items() if v is not None)
    missing = [name for name, f in fields.items()
               if f.default is dataclasses.MISSING and name not in values]
    if missing:
        raise UsageError(f"config key {section!r} needs {' and '.join(missing)}")
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from None


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """A search config's top level; each section is read by `_config` in turn."""
    dataset: str = None
    seed: int = 0
    split: dict = None
    train: dict = None
    search: dict = None
    backend: dict = None
    out_dir: str = None


@dataclasses.dataclass(frozen=True)
class SplitSpec:
    """A run's split: train, val and test `ratios` drawn with `seed` (stratified
    by class unless `stratified` is false), or the dataset's stored split when
    `from_file`."""
    ratios: tuple[float, ...] = (0.025, 0.025, 0.95)
    stratified: bool = True
    seed: int = 0
    from_file: bool = False

    def __post_init__(self):
        if len(self.ratios) != 3:
            raise ValueError(f"split.ratios needs three fractions (train, val, test), "
                             f"got {len(self.ratios)}")

    def with_flag(self, flag):
        """This spec with a --split flag applied: `from-file` takes the stored
        split, three fractions or percents replace the ratios. The numbers are
        percents when one of them exceeds 1, and fractions otherwise."""
        if flag is None:
            return self
        if flag == "from-file":
            return dataclasses.replace(self, from_file=True)
        try:
            parts = [float(p) for p in flag.split(",")]
        except ValueError:
            parts = []
        if len(parts) != 3:
            raise UsageError(f"--split needs three comma-separated numbers, got {flag!r}")
        if any(p > 1 for p in parts):
            parts = [p / 100.0 for p in parts]
        return dataclasses.replace(self, ratios=tuple(parts), from_file=False)


@dataclasses.dataclass(frozen=True)
class BackendSpec:
    """A search config's `backend`: a replay file path or a live backend's object."""
    replay: str = None
    live: dict = None

    def __post_init__(self):
        if (self.replay is None) == (self.live is None):
            raise ValueError("config key 'backend' must name exactly one of replay and live")


def _cell(value):
    """A CSV accuracy cell: four decimals, or empty when there is no value."""
    return "" if value is None else f"{value:.4f}"


def _resolve_mechanism(spec):
    try:
        return spec, dsl.builtin(spec)
    except UnknownBuiltin:
        path = Path(spec)
        if path.is_file():
            return path.stem, path.read_text(encoding="utf-8")
        raise SpecSearchError(
            f"{spec!r} is neither a builtin mechanism ({', '.join(builtin_names())}) "
            f"nor an existing file")


def _load(path, spec):
    """The dataset at `path` and the split `spec` names on it. A missing stored
    split, bad fractions, a class too small to stratify and a split no candidate
    can be scored on are usage errors."""
    graph = graphs.load_dataset(path)
    if spec.from_file and graph.splits is None:
        raise UsageError("split: dataset file carries no splits")
    try:
        split = graph.splits if spec.from_file else graphs.make_split(
            graph.num_nodes, spec.ratios, labels=graph.labels, seed=spec.seed,
            stratified=spec.stratified)
        training.check_split(split)
    except (ValueError, StratificationInfeasible) as exc:
        raise UsageError(f"split: {exc}") from None
    return graph, split


def _write_manifest(out_dir, force, command, split_spec, train_cfg, pool_size, **inputs):
    """The run directory `out_dir` (None without one; a non-empty one needs `force`),
    created with `run_manifest.json`: the command, the applied split and training
    settings, `scoring` (the pool size, the BLAS `set_num_threads` symbol that pins
    batches to one thread, whether workers keep freed heap), and the inputs."""
    if out_dir is None:
        return None
    out = Path(out_dir)
    if out.exists() and any(out.iterdir()) and not force:
        raise SpecSearchError(f"output directory {out} is not empty (use --force)")
    out.mkdir(parents=True, exist_ok=True)
    blas = training.blas_threads()
    manifest = {
        "command": command, "version": __version__,
        "split": {"from_file": True} if split_spec.from_file else dataclasses.asdict(split_spec),
        "train": dataclasses.asdict(train_cfg),
        "scoring": {"pool_size": pool_size,
                    "blas_pin": blas.set_num_threads.__name__ if blas is not None else None,
                    "keep_freed_heap": training.libc_mallopt() is not None},
        **inputs}
    (out / "run_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return out


def _section(cls, run, name, args, **flags):
    """cls from the config's `name` object. Its seed defaults to the run seed;
    --seed, like every flag, overrides the key it sets."""
    return _config(cls, {"seed": run.seed, **(getattr(run, name) or {})}, name,
                   seed=args.seed, **flags)


def _settings(args, run=RunConfig()):
    """A scoring command's applied SplitSpec and TrainConfig: the `split` and
    `train` objects of `run` (a search config; none for the other commands),
    then the run seed, then the flags."""
    split_spec = _section(SplitSpec, run, "split", args).with_flag(args.split)
    train_cfg = _section(training.TrainConfig, run, "train", args,
                         timeout_seconds=args.timeout_secs)
    return split_spec, train_cfg


def _score(texts, data, train_cfg, pool_size):
    """One batch of `texts` per (graph, split) of `data`, all under one BLAS pin."""
    with training.one_blas_thread():
        return [training.evaluate_batch(texts, graph, split, train_cfg, pool_size=pool_size)
                for graph, split in data]


def cmd_search(args):
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config {args.config}: malformed JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError(f"config {args.config}: expected a JSON object")
    run = _config(RunConfig, cfg, "", dataset=args.dataset, seed=args.seed,
                  out_dir=args.out_dir)
    if run.dataset is None:
        raise UsageError("search needs a dataset (config key 'dataset' or --dataset)")
    if run.out_dir is None:
        raise UsageError("search needs --out-dir or config key 'out_dir'")
    split_spec, train_cfg = _settings(args, run)
    search_cfg = _section(search.SearchConfig, run, "search", args,
                          generations=args.generations)
    backend_spec = _config(BackendSpec, {"replay": args.replay_file} if args.replay_file
                           else run.backend or {}, "backend")
    if backend_spec.replay is not None:
        backend = ReplayBackend(backend_spec.replay)
        backend_desc = {"replay": backend_spec.replay}
    else:
        backend = _config(LiveBackend, backend_spec.live, "backend.live")
        backend_desc = {"live": dataclasses.asdict(backend)}

    graph, split = _load(run.dataset, split_spec)
    out = _write_manifest(run.out_dir, args.force, "search", split_spec, train_cfg,
                          search_cfg.pool_size, dataset=run.dataset, seed=run.seed,
                          backend=backend_desc, search=dataclasses.asdict(search_cfg))
    report = search.run_search(graph, split, search_cfg, train_cfg, backend,
                               out_dir=out, log=lambda m: print(m, file=sys.stderr))
    print(json.dumps({"best_fitness": report.best.fitness,
                      "best_id": report.best.id,
                      "archive_size": len(report.archive)}))
    return 0


def cmd_eval(args):
    split_spec, train_cfg = _settings(args)
    _, text = _resolve_mechanism(args.mechanism)
    ((res,),) = _score([text], [_load(args.dataset, split_spec)], train_cfg, pool_size=1)
    if not res.ok:
        print(json.dumps({"status": res.status}))
        return 2
    print(json.dumps({"fitness": res.fitness, "test_accuracy": res.test_accuracy}))
    return 0


def _emit_csv(rows, out, command):
    """Print `rows` as CSV; write them to `command`.csv in the run directory `out`, if any."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    text = buf.getvalue()
    if out is not None:
        (out / f"{command}.csv").write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def cmd_xeval(args):
    """One row per mechanism, one test-accuracy column per dataset."""
    split_spec, train_cfg = _settings(args)
    paths, specs = args.datasets.split(","), args.mechanisms.split(",")
    mechs = [_resolve_mechanism(spec) for spec in specs]
    data = [_load(p, split_spec) for p in paths]
    out = _write_manifest(args.out_dir, args.force, "xeval", split_spec, train_cfg,
                          training.USABLE_CORES, datasets=paths, mechanisms=specs)
    columns = _score([text for _, text in mechs], data, train_cfg, training.USABLE_CORES)
    rows = [["mechanism"] + [Path(p).stem for p in paths]]
    for (name, _), results in zip(mechs, zip(*columns)):
        rows.append([name] + [_cell(r.test_accuracy) if r.ok else r.status for r in results])
    _emit_csv(rows, out, "xeval")
    return 0


def cmd_bench(args):
    split_spec, train_cfg = _settings(args)
    data = [_load(args.dataset, split_spec)]
    out = _write_manifest(args.out_dir, args.force, "bench", split_spec, train_cfg,
                          args.pool_size, dataset=args.dataset)
    (results,) = _score([dsl.builtin(n) for n in builtin_names()], data, train_cfg,
                        args.pool_size)
    rows = [["mechanism", "status", "fitness", "test_accuracy"]]
    for name, res in zip(builtin_names(), results):
        rows.append([name, res.status, _cell(res.fitness), _cell(res.test_accuracy)])
    _emit_csv(rows, out, "bench")
    return 0


def cmd_gen_data(args):
    try:
        graph = graphs.gen_synthetic(args.n, args.classes, args.homophily, args.avg_degree,
                                     args.feature_dim, args.signal, args.seed)
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (SpecSearchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
