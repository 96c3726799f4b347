"""Benchmark of weakcomm: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload kernel-ladder --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; it imports ``weakcomm`` from ``src/`` of
that checkout and nothing else.  Set-up (a fresh import of the package and
the parse of every input presentation) is repeated and its median reported.
Then whole rounds of the workload's operations run, one after the other,
until the next round would end past ``--seconds``; at least one round runs.
Only calls into weakcomm are timed; the checks of each operation's outputs
run between the timed parts.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Both modes also
write a result file, and the traced mode its spans, to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 9

MODULES = {
    "words": "words",
    "pr": "presentations",
    "sm": "smith",
    "tc": "todd_coxeter",
    "fg": "finite_groups",
    "sk": "sidki",
    "ca": "carriers",
    "gr": "group_rings",
}

PER_LAYER = (
    "todd_coxeter.enumerate_s",
    "todd_coxeter.enumerate_calls",
    "todd_coxeter.definitions",
    "todd_coxeter.coincidences",
    "todd_coxeter.lookaheads",
    "todd_coxeter.cosets",
    "todd_coxeter.cosets_per_definition",
    "todd_coxeter.closure_audit_s",
    "sidki.kernel_s",
    "sidki.double_s",
    "sidki.maps_s",
    "presentations.parse_s",
    "presentations.direct_power_s",
    "smith.is_perfect_s",
    "finite_groups.realize_s",
    "finite_groups.subgroups_s",
    "finite_groups.classes_s",
    "sidki.families_s",
    "sidki.torsion_s",
    "group_rings.build_s",
    "group_rings.audit_s",
    "group_rings.pushforward_s",
    "group_rings.products_s",
    "group_rings.matrices",
    "group_rings.terms",
    "carriers.finite_carrier_s",
)


def unit(metric: str) -> str:
    if metric == "peak_rss_mib":
        return "MiB"
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_per_definition") else "count"


class MissingProgram(Exception):
    pass


def load_library() -> SimpleNamespace:
    """Import weakcomm afresh from ``src/`` of this checkout."""
    src = ROOT / "src"
    if not (src / "weakcomm" / "__init__.py").is_file():
        raise MissingProgram(f"no weakcomm package under {src}")
    if sys.path[:1] != [str(src)]:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "weakcomm" or n.startswith("weakcomm.")]:
        del sys.modules[name]
    lib = SimpleNamespace(
        **{alias: importlib.import_module(f"weakcomm.{mod}") for alias, mod in MODULES.items()}
    )
    if not Path(lib.pr.__file__).resolve().is_relative_to(src):
        raise MissingProgram(f"weakcomm was imported from {lib.pr.__file__}")
    return lib


def set_up(items, tracer) -> tuple[SimpleNamespace, list[float], list[float]]:
    """Import and parse SETUP_REPEATS times; keep the last import."""
    totals, parses = [], []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        lib = load_library()
        parse_start = perf_counter()
        for item in items:
            with tracer.span("presentations.parse"):
                item.presentation = lib.pr.parse_presentation(item.text)
        end = perf_counter()
        totals.append(end - start)
        parses.append(end - parse_start)
    return lib, totals, parses


def measure(ops, lib, tracer, seconds: float, log) -> dict:
    rounds = []
    attempted = failed = 0
    problems: list[str] = []
    details: list[dict] = []
    began = perf_counter()
    while True:
        gc.collect()
        round_start = perf_counter()
        mark = tracer.mark()
        wall = cpu = 0.0
        state: dict = {}
        for op in ops:
            attempted += 1
            op_mark = tracer.mark()
            w0, c0 = perf_counter(), process_time()
            try:
                with tracer.span("op"):
                    obs = op.run(lib, tracer, state)
            except Exception:  # a failed operation is counted, and the round goes on
                obs = None
                failed += 1
                print(f"FAILED {op.name}", file=sys.stderr)
                traceback.print_exc()
            wall += perf_counter() - w0
            cpu += process_time() - c0
            if obs is None:
                continue
            found = op.check(obs, lib)
            problems += found
            if tracer.enabled and not rounds:
                details.append(
                    {"op": op.name, **op.summary(obs), **tracer.since(op_mark), "problems": found}
                )
            del obs
        layers = tracer.since(mark) if tracer.enabled else {}
        rounds.append({"wall_s": wall, "cpu_s": cpu, "layers": layers})
        if len(rounds) == 1:
            # Later rounds reuse the freed memory but can fragment it further,
            # so the peak is taken over set-up and the first round only.
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        log(f"round {len(rounds)}: wall {wall:.4f} s, cpu {cpu:.4f} s")
        last = perf_counter() - round_start
        if perf_counter() - began + last > seconds:
            break
    return {
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "details": details,
        "peak_rss_mib": peak_rss_mib,
    }


def layer_metrics(result: dict, parses: list[float]) -> dict[str, float]:
    per_round = [r["layers"] for r in result["rounds"]]
    out = {}
    for name in PER_LAYER:
        if name == "presentations.parse_s":
            out[name] = statistics.median(parses)
        elif name == "todd_coxeter.cosets_per_definition":
            out[name] = statistics.median(
                r.get("todd_coxeter.cosets", 0) / max(r.get("todd_coxeter.definitions", 0), 1)
                for r in per_round
            )
        else:
            out[name] = statistics.median(r.get(name, 0) for r in per_round)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    def log(msg: str) -> None:
        print(msg, flush=True)

    tracer = spans.Tracer(bool(args.trace))
    items = workloads.make_items(args.workload, args.seed)
    try:
        lib, totals, parses = set_up(items, tracer)
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problems = [p for item in items for p in workloads.parse_problems(item)]
    for item in items:
        log(f"input {item.base.name}: {item.text}")
    start = perf_counter()
    ops = workloads.make_ops(args.workload, items, lib, args.seed)
    log(f"{args.workload}: {len(ops)} operations per round, seed {args.seed}, "
        f"inputs picked in {perf_counter() - start:.2f} s")

    result = measure(ops, lib, tracer, args.seconds, log)
    problems += result["problems"]
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    rounds = result["rounds"]
    if args.trace:
        metrics = layer_metrics(result, parses)
        for d in result["details"]:
            log(json.dumps(d, default=str))
    else:
        metrics = {
            "setup_s": statistics.median(totals),
            # The machine's speed drifts in spells of 10-20 s, so a median of
            # 3 s rounds follows whichever spell dominated the run; the mean
            # over the run weighs every spell by its length.
            "wall_s": statistics.fmean(r["wall_s"] for r in rounds),
            "cpu_s": statistics.fmean(r["cpu_s"] for r in rounds),
            "peak_rss_mib": result["peak_rss_mib"],
        }
    line = {
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "python": sys.version.split()[0],
        "setup_s": totals,
        "rounds": [{k: r[k] for k in ("wall_s", "cpu_s")} for r in rounds],
    }
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({**header, **line, "problems": problems, "details": result["details"]}, fh, default=str)
    if args.trace:
        tracer.write(OUT / f"spans-{stem}.json", header)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
