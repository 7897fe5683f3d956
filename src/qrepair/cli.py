"""Command-line interface.

Exit codes: 0 success, 1 runtime failure, 2 completed repair run that solved
zero neurons, 64 usage errors. The QNNREPAIR_LOG environment variable sets
the log level (debug/info/warning/error).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import experiment as exp
from .data import load_dataset
from .evaluate import accuracy
from .localize import METRICS, compare_at_layer, importance_scores, spectra_csv
from .model import load_model, model_from_json, read_model_json
from .quantize import load_qmodel, qmodel_from_json, quantize_model, save_qmodel
from .repair import RepairConfig, repair

log = logging.getLogger("qrepair")

USAGE_ERROR = 64
RUNTIME_ERROR = 1
ZERO_REPAIRS = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _setup_logging():
    level = os.environ.get("QNNREPAIR_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _load_any_model(path):
    """A model file is quantized iff any layer's weight tensor carries int8 codes."""
    obj = read_model_json(path)
    base_dir = Path(path).parent
    if any(isinstance(layer, dict) and isinstance(layer.get("weights"), dict)
           and "data_i8" in layer["weights"] for layer in obj["layers"]):
        return qmodel_from_json(obj, base_dir)
    return model_from_json(obj, base_dir)


def build_parser() -> _Parser:
    parser = _Parser(prog="qrepair", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_quant = sub.add_parser("quantize", help="quantize a float model to int8")
    p_quant.add_argument("--model", required=True)
    p_quant.add_argument("--out", required=True)

    p_eval = sub.add_parser("eval", help="accuracy (and fidelity) on a dataset")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--ref-model", help="second model for fidelity")
    p_eval.add_argument("--out", help="write the result JSON here")

    p_loc = sub.add_parser("localize", help="rank neurons by suspiciousness")
    p_loc.add_argument("--float", dest="float_model", required=True)
    p_loc.add_argument("--quant", required=True)
    p_loc.add_argument("--repair-set", required=True)
    p_loc.add_argument("--layer", type=int, help="dense layer index (default: last)")
    p_loc.add_argument("--metric", choices=METRICS, default="dstar")
    p_loc.add_argument("--out", help="write the spectra CSV here")

    p_rep = sub.add_parser("repair", help="repair a quantized model")
    p_rep.add_argument("--float", dest="float_model", required=True)
    p_rep.add_argument("--quant", required=True)
    p_rep.add_argument("--repair-set", required=True)
    p_rep.add_argument("--val", required=True)
    p_rep.add_argument("--metric", choices=METRICS, default="dstar")
    p_rep.add_argument("--top", type=int, default=10)
    p_rep.add_argument("--layer", type=int)
    p_rep.add_argument("--epsilon", type=float, default=1e-3)
    p_rep.add_argument("--time-budget", type=float, default=60.0)
    p_rep.add_argument("--patch-mode", choices=("float_patch", "requantize"),
                       default="float_patch")
    p_rep.add_argument("--max-constraints", type=int, default=64)
    p_rep.add_argument("--delta-bound", type=float)
    p_rep.add_argument("--lp-dir", help="dump every generated LP file here")
    p_rep.add_argument("--out", required=True, help="output directory")

    p_exp = sub.add_parser("experiment", help="train/quantize/repair harness")
    p_exp.add_argument("--preset", choices=exp.PRESETS, default="mlp-blobs")
    p_exp.add_argument("--seed", type=int, default=42)
    p_exp.add_argument("--trials", type=int, default=10,
                       help="random-selection baseline repetitions")
    p_exp.add_argument("--data-dir", help="IDX files for the mnist-mini preset")
    p_exp.add_argument("--out", required=True, help="output directory")
    return parser


def cmd_quantize(args) -> int:
    save_qmodel(quantize_model(load_model(args.model)), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_eval(args) -> int:
    model = _load_any_model(args.model)
    dataset = load_dataset(args.data, num_classes=model.num_classes)
    ref = _load_any_model(args.ref_model) if args.ref_model else None
    result = accuracy(model, dataset, dataset_id=str(args.data), reference=ref)
    obj = {"dataset": result.dataset_id, "n": result.n, "correct": result.correct,
           "accuracy": result.accuracy, "fidelity": result.fidelity}
    text = json.dumps(obj, indent=2) + "\n"
    if args.out:
        if str(args.out).endswith(".csv"):
            fid = "" if result.fidelity is None else f"{result.fidelity:.6g}"
            Path(args.out).write_text(
                "dataset,n,correct,accuracy,fidelity\n"
                f"{result.dataset_id},{result.n},{result.correct},"
                f"{result.accuracy:.6g},{fid}\n"
            )
        else:
            Path(args.out).write_text(text)
    print(text, end="")
    return 0


def cmd_localize(args) -> int:
    fmodel = load_model(args.float_model)
    qmodel = load_qmodel(args.quant)
    dataset = load_dataset(args.repair_set, num_classes=fmodel.num_classes)
    layer = args.layer if args.layer is not None else fmodel.last_dense_index()
    counters = compare_at_layer(fmodel, qmodel, dataset, layer).spectra()
    csv_text = spectra_csv(counters, importance_scores(counters, args.metric), args.metric)
    if args.out:
        Path(args.out).write_text(csv_text)
    print(csv_text, end="")
    return 0


def cmd_repair(args) -> int:
    config = RepairConfig(
        target_layer=args.layer, metric=args.metric, top_n=args.top,
        epsilon=args.epsilon, time_budget=args.time_budget,
        patch_mode=args.patch_mode, max_constraints=args.max_constraints,
        delta_bound=args.delta_bound, lp_dir=args.lp_dir,
    )
    fmodel = load_model(args.float_model)
    qmodel = load_qmodel(args.quant)
    repair_set = load_dataset(args.repair_set, num_classes=fmodel.num_classes)
    val = load_dataset(args.val, num_classes=fmodel.num_classes)
    if config.lp_dir:
        Path(config.lp_dir).mkdir(parents=True, exist_ok=True)
    patched, report = repair(fmodel, qmodel, repair_set, val, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "repair_report.json").write_text(report.to_json())
    save_qmodel(patched, out / "repaired_model.json")
    print(report.table(), end="")
    return 0 if report.count("optimal") > 0 else ZERO_REPAIRS


def cmd_experiment(args) -> int:
    report = exp.run_experiment(preset=args.preset, seed=args.seed, out_dir=args.out,
                                trials=args.trials, data_dir=args.data_dir)
    print(exp.comparison_table(report), end="")
    return 0


def cli_main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return USAGE_ERROR
    handlers = {
        "quantize": cmd_quantize,
        "eval": cmd_eval,
        "localize": cmd_localize,
        "repair": cmd_repair,
        "experiment": cmd_experiment,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError, RuntimeError) as e:
        log.error("%s", e)
        print(f"error: {e}", file=sys.stderr)
        return RUNTIME_ERROR


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
