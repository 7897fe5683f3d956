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
from .model import load_model, save_model
from .quantize import quantize_model
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


COMMANDS = ("quantize", "eval", "localize", "repair", "experiment")


def _add_model_pair(p: _Parser) -> None:
    """The options `localize` and `repair` share."""
    p.add_argument("--float", dest="float_model", required=True)
    p.add_argument("--quant", required=True)
    p.add_argument("--repair-set", required=True)
    p.add_argument("--layer", dest="target_layer", type=int,
                   help="dense layer index (default: last)")
    p.add_argument("--metric", choices=METRICS)


def build_parser(argv=()) -> _Parser:
    """The parser for `argv`: when it starts with a command, only that command's
    subparser is added, and otherwise every one, so help and usage errors
    read the same either way. A repair, localize or experiment option left out
    is absent from the parsed namespace, so `RepairConfig` and
    `run_experiment` supply its default; those options are named after the
    fields they set."""
    parser = _Parser(prog="qrepair", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    leave_out = {"argument_default": argparse.SUPPRESS}  # a flag left out stays absent
    wanted = argv[:1] if argv[:1] and argv[0] in COMMANDS else COMMANDS
    if "quantize" in wanted:
        p = sub.add_parser("quantize", help="quantize a float model to int8")
        p.set_defaults(func=cmd_quantize)
        p.add_argument("--model", required=True)
        p.add_argument("--out", required=True)
    if "eval" in wanted:
        p = sub.add_parser("eval", help="accuracy (and fidelity) on a dataset")
        p.set_defaults(func=cmd_eval)
        p.add_argument("--model", required=True, help="a float or a quantized model")
        p.add_argument("--data", required=True)
        p.add_argument("--ref-model", help="second model for fidelity")
        p.add_argument("--out", help="write the result JSON (or, for *.csv, CSV) here")
    if "localize" in wanted:
        p = sub.add_parser("localize", help="rank neurons by suspiciousness", **leave_out)
        p.set_defaults(func=cmd_localize)
        _add_model_pair(p)
        p.add_argument("--out", default=None, help="write the spectra CSV here")
    if "repair" in wanted:
        p = sub.add_parser("repair", help="repair a quantized model", **leave_out)
        p.set_defaults(func=cmd_repair)
        _add_model_pair(p)
        p.add_argument("--val", required=True)
        p.add_argument("--top", dest="top_n", type=int)
        p.add_argument("--epsilon", type=float)
        p.add_argument("--time-budget", type=float)
        p.add_argument("--patch-mode", choices=PATCH_MODES)
        p.add_argument("--max-constraints", type=int)
        p.add_argument("--delta-bound", type=float)
        p.add_argument("--lp-dir", help="dump every generated LP file here")
        p.add_argument("--out", dest="out_dir", required=True, help="output directory")
    if "experiment" in wanted:
        p = sub.add_parser("experiment", help="train/quantize/repair harness", **leave_out)
        p.set_defaults(func=cmd_experiment)
        p.add_argument("--preset", choices=exp.PRESETS)
        p.add_argument("--seed", type=int)
        p.add_argument("--trials", type=int, help="random-selection baseline repetitions")
        p.add_argument("--data-dir", help="IDX files for the mnist-mini preset")
        p.add_argument("--out", dest="out_dir", required=True, help="output directory")
    return parser


def cmd_quantize(model, out) -> int:
    save_model(quantize_model(load_model(model)), out)
    print(f"wrote {out}")
    return 0


def cmd_eval(model, data, ref_model, out) -> int:
    net = load_model(model)
    dataset = load_dataset(data, num_classes=net.num_classes)
    ref = load_model(ref_model) if ref_model else None
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
    qmodel = load_model(quant)
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
    qmodel = load_model(quant)
    repair_rows = load_dataset(repair_set, num_classes=fmodel.num_classes)
    val_rows = load_dataset(val, num_classes=fmodel.num_classes)
    patched, report = repair(fmodel, qmodel, repair_rows, val_rows, config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "repair_report.json").write_text(report.to_json())
    save_model(patched, out / "repaired_model.json")
    print(report.table(), end="")
    return 0 if report.count("optimal") > 0 else ZERO_REPAIRS


def cmd_experiment(**options) -> int:
    print(exp.comparison_table(exp.run_experiment(**options)), end="")
    return 0


def cli_main(argv=None) -> int:
    _setup_logging()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        options = vars(build_parser(argv).parse_args(argv))
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
