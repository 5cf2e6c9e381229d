"""Command-line runner: train, compare, poolcheck, gradcheck.

Config precedence: built-in defaults < config file (key=value lines) <
command-line flags; the data root can also come from NIRMALPOOL_DATA_ROOT.
`harness.RunConfig` rejects a bad setting when built, before any data is read.

Exit codes: 0 success, 2 config error, 3 data error, 4 divergence,
1 failed checks (gradcheck).
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import data, gradcheck, harness, nn

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGENCE = 4


def parse_pool_targets(text: str) -> tuple:
    """Comma-separated per-stage targets, e.g. '13x13,5x5' or 'half,5x5'."""
    stages = []
    for part in text.split(","):
        part = part.strip()
        if part == "half":
            stages.append(None)
        else:
            h, _, w = part.partition("x")
            stages.append((int(h), int(w)))
    return tuple(stages)


# One row per RunConfig field: its command-line flag (None: config file
# only), the parser that the flag and a config-file value share, and further
# add_argument keywords.
SETTINGS = {
    "dataset": ("--dataset", str, {"choices": harness.DATASETS}),
    "pooling_variant": ("--variant", str, {"choices": nn.VARIANTS}),
    "activation_placement": ("--activation-placement", str, {"choices": nn.PLACEMENTS}),
    "epochs": ("--epochs", int, {}),
    "batch_size": ("--batch-size", int, {}),
    "val_fraction": ("--val-fraction", float, {}),
    "seed": ("--seed", int, {}),
    "lr": ("--lr", float, {}),
    "beta1": ("--beta1", float, {}),
    "beta2": ("--beta2", float, {}),
    "epsilon": ("--epsilon", float, {}),
    "pool_targets": ("--pool-targets", parse_pool_targets,
                     {"help": "per-stage targets, e.g. '13x13,5x5' or 'half,half'"}),
    "train_limit": (None, int, {}),
    "test_limit": (None, int, {}),
    "data_root": ("--data-root", str, {}),
    "output_dir": ("--output-dir", str, {}),
}


def parse_config_file(path) -> dict:
    """key=value lines; '#' starts a comment; unknown keys are rejected."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in SETTINGS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        _, parse, _ = SETTINGS[key]
        values[key] = parse(value)
    return values


def add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file")
    for name, (flag, parse, extras) in SETTINGS.items():
        if flag is not None:
            parser.add_argument(flag, dest=name, type=parse, **extras)
    parser.add_argument("--desk-scale", action="store_true",
                        help="subsample data and epochs for a fast run")


def build_config(args: argparse.Namespace) -> harness.RunConfig:
    values = {}
    if args.config:
        values.update(parse_config_file(args.config))
    for name in SETTINGS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    if getattr(args, "desk_scale", False):
        values.setdefault("train_limit", 10000)
        values.setdefault("test_limit", 2000)
        values["epochs"] = min(values.get("epochs", harness.RunConfig.epochs), 3)
    return harness.RunConfig(**values)


def cmd_train(args) -> int:
    config = build_config(args)
    report = harness.train(config, verbose=True)
    path = harness.write_report(report, config.output_dir)
    print(f"test loss {report.test_loss:.4f}  accuracy {report.test_accuracy:.4f}")
    print(f"report written to {path}")
    return EXIT_OK


def cmd_compare(args) -> int:
    config = build_config(args)
    reports = harness.compare(config, verbose=True)
    for report in reports.values():
        harness.write_report(report, config.output_dir)
    print(harness.comparison_table(reports))
    shape = (1, *harness.DATASETS[config.dataset])
    specs = [harness.build_model_spec(replace(config, pooling_variant=v)) for v in nn.VARIANTS]
    # Each variant's pools (window, stride, output size) and fused ReLUs, stage by stage.
    if len({tuple((s.pool, s.relu) for s in nn.plan(spec, shape)) for spec in specs}) == 1:
        print("both variants build the same network: the same pool windows, strides, "
              "output sizes and fused ReLUs at every stage")
    return EXIT_OK


def cmd_poolcheck(args) -> int:
    rows = harness.poolcheck(args.max_dim)
    print(f"{'in':>4} {'target':>7} {'window':>7} {'stride':>7} {'out':>5}  flag")
    for row in rows:
        flag = "DEVIATES" if row.deviates else ""
        print(f"{row.h_in:>4} {row.target:>7} {row.window:>7} {row.stride:>7} "
              f"{row.achieved:>5}  {flag}")
    deviating = sum(r.deviates for r in rows)
    print(f"{len(rows)} cases, {deviating} deviate from the requested size")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = gradcheck.run_all(seed=args.seed)
    worst = EXIT_OK
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<28} max rel err {r.max_rel_error:.3e} "
              f"(tol {r.tolerance:.0e})  {status}")
        if not r.passed:
            worst = EXIT_CHECK_FAILED
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nirmalpool",
        description="Adaptive-pooling vs max-pooling benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one variant and report metrics")
    add_config_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_compare = sub.add_parser("compare", help="train both variants side by side")
    add_config_flags(p_compare)
    p_compare.set_defaults(func=cmd_compare)

    p_pool = sub.add_parser("poolcheck", help="sweep adaptive pooling parameters")
    p_pool.add_argument("--max-dim", type=int, default=64)
    p_pool.set_defaults(func=cmd_poolcheck)

    p_grad = sub.add_parser("gradcheck", help="run the finite-difference suite")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(func=cmd_gradcheck)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (harness.DataPathError, data.FormatError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except harness.DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (ValueError, TypeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
