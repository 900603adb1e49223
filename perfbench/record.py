"""Record the reference outputs that run.py's correctness gates compare against.

    python3 perfbench/record.py [--workload NAME|all]

For every input variant of a workload, scores one unit and stores the
per-candidate fitness and the sha256 of the search's convergence.csv in
expected.json. Run it only when the program's results are meant to change,
and say why in the change that commits the new file.
"""

from __future__ import annotations

import argparse
import json
import shutil

import run


def main(argv=None):
    run.import_program()
    import inputs
    from workloads import WORKLOADS, digest, make_inputs, run_unit, setup

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    args = parser.parse_args(argv)
    table = json.loads(run.EXPECTED.read_text()) if run.EXPECTED.is_file() else {}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        w = WORKLOADS[name]
        table[name] = {}
        for v in range(inputs.VARIANTS):
            run_dir = run.RUNS / f"record-{name}-v{v}"
            shutil.rmtree(run_dir, ignore_errors=True)
            run_dir.mkdir(parents=True)
            try:
                inp = make_inputs(w, v, run_dir)
                graph, split = setup(w, inp, v)
                u = run_unit(w, inp, graph, split, run_dir / "search-out")
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
            statuses = {r["status"] for r in u.records}
            if statuses != {run.EXPECTED_STATUS}:
                raise SystemExit(f"{name} variant {v}: statuses {sorted(statuses)}")
            entry = {"fitness": [r["fitness"] for r in u.records]}
            if w.float64:
                entry["convergence_sha256"] = digest(u.convergence)
            table[name][str(v)] = entry
            print(f"{name} variant {v}: best {u.best:.4f} wall {u.wall:.2f}s", flush=True)
    run.EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
