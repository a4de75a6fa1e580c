"""Command-line entry point wiring the engines, harness, bench, model and
advisor together.

Subcommands: verify, bench, model (fit | predict), advise, topo.
Exit codes: 0 pass, 1 verified failure, 2 usage or I/O error, 3 advisor
found no matching architecture.  File outputs are written atomically
(temp + rename).  DUOLOG_PROFILE={desk|full} selects bench duration
defaults.
"""

from __future__ import annotations

import argparse
import csv
import json
import platform
import sys
from pathlib import Path

from . import __version__
from . import advisor, bench, harness, model
from .exchbroker import validate_topology

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2
EXIT_NO_MATCH = 3


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def cmd_verify(args) -> int:
    try:
        payload = json.loads(Path(args.scenario).read_text())
        scenario = harness.Scenario.from_dict(payload)
        result = harness.run_scenario(scenario)
    except (OSError, json.JSONDecodeError, harness.ScenarioInvalid, KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    v = harness.verdict(result.report, scenario.qos)
    out = result.report.to_dict()
    out["verdict"] = "pass" if v.passed else f"fail:{v.reason}"
    print(json.dumps(out, indent=2))
    return EXIT_PASS if v.passed else EXIT_FAIL


# --------------------------------------------------------------------------
# bench
# --------------------------------------------------------------------------

def _parse_sweep(text: str) -> tuple[str, list]:
    """`param=v1,v2,...`; `bench` checks the parameter name."""
    if "=" not in text:
        raise ValueError("sweep must look like param=v1,v2,...")
    param, _, values = text.partition("=")
    parsed = []
    for v in values.split(","):
        v = v.strip()
        parsed.append(int(v) if v.lstrip("-").isdigit() else v)
    return param, parsed


def cmd_bench(args) -> int:
    try:
        sweep = _parse_sweep(args.sweep)
        spec = bench.WorkloadSpec(
            producers=args.producers,
            consumers=args.consumers,
            record_size_bytes=args.size,
            partitions=args.partitions,
            duration_s=args.duration,
            warmup_s=args.warmup,
            seed=args.seed,
            messages_per_producer=args.messages,
        ).resolved()
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR

    out_path = Path(args.out)
    try:
        if args.mode == "harness":
            return _bench_harness_mode(args.engine, spec, sweep, out_path)
        results = bench.run_throughput(args.engine, spec, sweep)
        bench.export(results, out_path, "CSV")
        meta = {
            "tool_version": __version__,
            "python": platform.python_version(),
            "host": platform.node(),
            "seed": args.seed,
            "engine": args.engine,
            "sweep": {"param": sweep[0], "values": sweep[1]},
            "workload": spec.config_snapshot(),
        }
        bench.atomic_write(out_path.with_suffix(".meta.json"), json.dumps(meta, indent=2))
    except (bench.BenchError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    print(f"wrote {out_path} ({len(results)} rows)")
    return EXIT_PASS


def _bench_harness_mode(engine: str, spec, sweep: tuple[str, list], out_path: Path) -> int:
    """Deterministic mode: run the sweep's one point through the scenario
    runner, write its journals and grade them; same seed, same bytes."""
    param, values = sweep
    point = bench.apply_sweep(spec, param, values[0]).resolved()
    # a scenario runs one topic, and on the exchange one queue
    lanes = point.topics if engine == "log" else point.topics * point.partitions
    if len(values) != 1 or point.messages_per_producer is None or lanes != 1:
        raise ValueError("--mode harness needs --messages, one sweep point and one topic or queue")
    scenario = harness.Scenario(
        engine=engine,
        workload=harness.Workload(
            point.producers, point.consumers, point.record_size_bytes, point.messages_per_producer
        ),
        qos=point.qos(),
        topology=bench.topology(point),
        seed=point.seed,
    )
    result = harness.run_scenario(scenario)
    bench.atomic_write(out_path, result.journals_blob())
    v = harness.verdict(result.report, scenario.qos)
    graded = "pass" if v.passed else f"fail:{v.reason}"
    print(f"wrote {out_path} (deterministic journals, seed {point.seed}, verdict {graded})")
    return EXIT_PASS if v.passed else EXIT_FAIL


# --------------------------------------------------------------------------
# model
# --------------------------------------------------------------------------

def _read_fit_csv(path: Path, form: str) -> list:
    """Explicit-column CSV: rabbit needs producers,size_bytes,pps; kafka
    needs producers,partitions,topics,effective_size,pps."""
    samples = []
    with open(path) as fh:
        for row in csv.DictReader(fh):
            if form == "rabbit":
                inputs = (int(row["producers"]), float(row["size_bytes"]))
            else:
                inputs = (
                    int(row["producers"]),
                    int(row["partitions"]),
                    int(row["topics"]),
                    float(row["effective_size"]),
                )
            samples.append((inputs, float(row["pps"])))
    return samples


def _load_constants(args, form: str):
    if args.preset:
        try:
            return model.PRESETS[args.preset]
        except KeyError:
            raise ValueError(
                f"unknown preset {args.preset!r}; have {sorted(model.PRESETS)}"
            ) from None
    if not args.constants:
        raise ValueError("need --constants fit.json or --preset NAME")
    payload = json.loads(Path(args.constants).read_text())
    consts = payload.get("constants", payload)
    if form == "rabbit":
        return model.RabbitThroughputModel(**consts)
    return model.KafkaThroughputModel(**consts)


def cmd_model(args) -> int:
    try:
        if args.model_cmd == "fit":
            samples = _read_fit_csv(Path(args.infile), args.form)
            result = model.fit(samples, args.form)
            bench.atomic_write(Path(args.out), json.dumps(result.to_dict(), indent=2))
            print(
                f"fitted {args.form} constants from {result.samples_used} samples, "
                f"mean relative error {result.mean_relative_error:.4f}"
            )
            return EXIT_PASS
        form = args.form
        m = _load_constants(args, form)
        if form == "rabbit":
            pps = model.predict_rabbit(args.producers, args.size, m)
        else:
            eff = args.effective_size
            if eff is None:
                eff = model.effective_size(args.batch_bytes or 0, args.size)
            pps = model.predict_kafka(args.producers, args.partitions, args.topics, eff, m)
        print(f"{pps:.1f}")
        return EXIT_PASS
    except (model.FitError, OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


# --------------------------------------------------------------------------
# advise
# --------------------------------------------------------------------------

_ADVISE_FLAGS = (
    ("latency", "predictable_latency"),
    ("routing", "complex_routing"),
    ("storage", "long_term_storage"),
    ("topic-throughput", "very_large_throughput_per_topic"),
    ("order", "packet_order_important"),
    ("elasticity", "dynamic_elasticity"),
    ("throughput", "system_throughput"),
    ("at-least-once", "at_least_once"),
    ("availability", "high_availability"),
)


def cmd_advise(args) -> int:
    try:
        fv = advisor.FeatureVector(**{
            feature: getattr(args, flag.replace("-", "_")) for flag, feature in _ADVISE_FLAGS
        })
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    matches = advisor.recommend(fv)
    for rec in matches:
        print(rec)
    return EXIT_PASS if matches else EXIT_NO_MATCH


# --------------------------------------------------------------------------
# topo
# --------------------------------------------------------------------------

def cmd_topo(args) -> int:
    try:
        topology = json.loads(Path(args.file).read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    problems = validate_topology(topology)
    if problems:
        for p in problems:
            print(p)
        return EXIT_FAIL
    print("topology ok")
    return EXIT_PASS


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duolog",
        description="dual-paradigm pub/sub broker kit: verify, bench, model, advise",
    )
    parser.add_argument("--version", action="version", version=f"duolog {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("verify", help="run a scenario file and check its journals")
    p.add_argument("scenario", help="scenario JSON file")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="run a throughput/latency sweep")
    p.add_argument("--engine", choices=("log", "exch"), required=True)
    p.add_argument("--sweep", required=True, help="param=v1,v2,... "
                   f"(params: {', '.join(bench.SWEEP_PARAMS)})")
    p.add_argument("--producers", type=int, default=2)
    p.add_argument("--consumers", type=int, default=2)
    p.add_argument("--size", type=int, default=100, help="record size in bytes")
    p.add_argument("--partitions", type=int, default=1)
    p.add_argument("--duration", type=float, default=None, help="seconds per point")
    p.add_argument("--warmup", type=float, default=None, help="warmup seconds")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--messages", type=int, default=None,
                   help="cap messages per producer (required for --mode harness)")
    p.add_argument("--mode", choices=("threads", "harness"), default="threads")
    p.add_argument("--out", required=True, help="output CSV (or journal blob)")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("model", help="fit or evaluate throughput models")
    msub = p.add_subparsers(dest="model_cmd", required=True)

    f = msub.add_parser("fit", help="fit constants from a CSV of measurements")
    f.add_argument("--form", choices=("rabbit", "kafka"), required=True)
    f.add_argument("--in", dest="infile", required=True)
    f.add_argument("--out", required=True, help="fit.json output")
    f.set_defaults(fn=cmd_model)

    predict = msub.add_parser("predict", help="evaluate a model form")
    psub = predict.add_subparsers(dest="form", required=True)
    for form in ("rabbit", "kafka"):
        pp = psub.add_parser(form, help=f"predict pps with the {form} form")
        pp.add_argument("--producers", type=int, required=True)
        pp.add_argument("--size", type=int, required=True)
        if form == "kafka":
            pp.add_argument("--partitions", type=int, required=True)
            pp.add_argument("--topics", type=int, required=True)
            pp.add_argument("--effective-size", dest="effective_size", type=float)
            pp.add_argument("--batch-bytes", dest="batch_bytes", type=float)
        pp.add_argument("--constants", help="fit.json with the constants")
        pp.add_argument("--preset", help=f"one of {sorted(model.PRESETS)}")
        pp.set_defaults(fn=cmd_model, form=form, model_cmd="predict")

    p = sub.add_parser("advise", help="match requirements against the determination table")
    for flag, _ in _ADVISE_FLAGS:
        choices = ("L", "XL") if flag == "throughput" else ("Y", "N")
        p.add_argument(f"--{flag}", required=True, choices=choices)
    p.set_defaults(fn=cmd_advise)

    p = sub.add_parser("topo", help="validate a topology JSON file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_topo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    return args.fn(args)


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
