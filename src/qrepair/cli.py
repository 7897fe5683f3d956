"""Command-line interface.

Exit codes: 0 success, 1 runtime failure, 2 completed repair run that solved
zero neurons, 64 usage errors. The QNNREPAIR_LOG environment variable sets
the log level (debug/info/warning/error).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from pathlib import Path

from . import experiment as exp
from .data import load_dataset
from .evaluate import accuracy
from .localize import METRICS, compare_at_layer, importance_scores, spectra_csv
from .model import load_model
from .quantize import load_qmodel, quantize_model, save_qmodel
from .repair import PATCH_MODES, RepairConfig, repair

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


def build_parser() -> _Parser:
    """The parser. A repair, localize or experiment option left out is absent
    from the parsed namespace, so `RepairConfig` and `run_experiment` supply
    its default; those options are named after the fields they set."""
    parser = _Parser(prog="qrepair", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    leave_out = {"argument_default": argparse.SUPPRESS}  # a flag left out stays absent

    p_quant = sub.add_parser("quantize", help="quantize a float model to int8")
    p_quant.set_defaults(func=cmd_quantize)
    p_quant.add_argument("--model", required=True)
    p_quant.add_argument("--out", required=True)

    p_eval = sub.add_parser("eval", help="accuracy (and fidelity) on a dataset")
    p_eval.set_defaults(func=cmd_eval)
    p_eval.add_argument("--model", required=True, help="a float or a quantized model")
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--ref-model", help="second model for fidelity")
    p_eval.add_argument("--out", help="write the result JSON (or, for *.csv, CSV) here")

    p_loc = sub.add_parser("localize", help="rank neurons by suspiciousness", **leave_out)
    p_loc.set_defaults(func=cmd_localize)
    p_rep = sub.add_parser("repair", help="repair a quantized model", **leave_out)
    p_rep.set_defaults(func=cmd_repair)
    for p in (p_loc, p_rep):
        p.add_argument("--float", dest="float_model", required=True)
        p.add_argument("--quant", required=True)
        p.add_argument("--repair-set", required=True)
        p.add_argument("--layer", dest="target_layer", type=int,
                       help="dense layer index (default: last)")
        p.add_argument("--metric", choices=METRICS)
    p_loc.add_argument("--out", default=None, help="write the spectra CSV here")

    p_rep.add_argument("--val", required=True)
    p_rep.add_argument("--top", dest="top_n", type=int)
    p_rep.add_argument("--epsilon", type=float)
    p_rep.add_argument("--time-budget", type=float)
    p_rep.add_argument("--patch-mode", choices=PATCH_MODES)
    p_rep.add_argument("--max-constraints", type=int)
    p_rep.add_argument("--delta-bound", type=float)
    p_rep.add_argument("--lp-dir", help="dump every generated LP file here")
    p_rep.add_argument("--out", dest="out_dir", required=True, help="output directory")

    p_exp = sub.add_parser("experiment", help="train/quantize/repair harness", **leave_out)
    p_exp.set_defaults(func=cmd_experiment)
    p_exp.add_argument("--preset", choices=exp.PRESETS)
    p_exp.add_argument("--seed", type=int)
    p_exp.add_argument("--trials", type=int, help="random-selection baseline repetitions")
    p_exp.add_argument("--data-dir", help="IDX files for the mnist-mini preset")
    p_exp.add_argument("--out", dest="out_dir", required=True, help="output directory")
    return parser


def cmd_quantize(model, out) -> int:
    save_qmodel(quantize_model(load_model(model)), out)
    print(f"wrote {out}")
    return 0


def cmd_eval(model, data, ref_model, out) -> int:
    net = load_qmodel(model)
    dataset = load_dataset(data, num_classes=net.num_classes)
    ref = load_qmodel(ref_model) if ref_model else None
    result = accuracy(net, dataset, reference=ref)
    obj = {"dataset": str(data), "n": result.n, "correct": result.correct,
           "accuracy": result.accuracy, "fidelity": result.fidelity}
    text = json.dumps(obj, indent=2) + "\n"
    if out:
        if str(out).endswith(".csv"):
            fid = "" if result.fidelity is None else f"{result.fidelity:.6g}"
            with open(out, "w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows([
                    ["dataset", "n", "correct", "accuracy", "fidelity"],
                    [data, result.n, result.correct, f"{result.accuracy:.6g}", fid]])
        else:
            Path(out).write_text(text)
    print(text, end="")
    return 0


def cmd_localize(float_model, quant, repair_set, out, **options) -> int:
    config = RepairConfig(**options)
    fmodel = load_model(float_model)
    qmodel = load_qmodel(quant)
    dataset = load_dataset(repair_set, num_classes=fmodel.num_classes)
    counters = compare_at_layer(fmodel, qmodel, dataset, config.target_layer).spectra()
    csv_text = spectra_csv(counters, importance_scores(counters, config.metric), config.metric)
    if out:
        Path(out).write_text(csv_text)
    print(csv_text, end="")
    return 0


def cmd_repair(float_model, quant, repair_set, val, out_dir, **options) -> int:
    config = RepairConfig(**options)
    fmodel = load_model(float_model)
    qmodel = load_qmodel(quant)
    repair_rows = load_dataset(repair_set, num_classes=fmodel.num_classes)
    val_rows = load_dataset(val, num_classes=fmodel.num_classes)
    patched, report = repair(fmodel, qmodel, repair_rows, val_rows, config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "repair_report.json").write_text(report.to_json())
    save_qmodel(patched, out / "repaired_model.json")
    print(report.table(), end="")
    return 0 if report.count("optimal") > 0 else ZERO_REPAIRS


def cmd_experiment(**options) -> int:
    print(exp.comparison_table(exp.run_experiment(**options)), end="")
    return 0


def cli_main(argv=None) -> int:
    _setup_logging()
    try:
        options = vars(build_parser().parse_args(argv))
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return USAGE_ERROR
    del options["command"]
    handler = options.pop("func")
    try:
        return handler(**options)
    except (OSError, ValueError, RuntimeError) as e:
        log.error("%s", e)
        print(f"error: {e}", file=sys.stderr)
        return RUNTIME_ERROR


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
