"""Command-line runner: train, compare, poolcheck, gradcheck.

Config precedence: built-in defaults < config file (key=value lines) <
command-line flags; the data root can also come from NIRMALPOOL_DATA_ROOT.
`harness.RunConfig` rejects a bad setting when built, before any data is read.

Exit codes: 0 success, 2 config error, 3 data error, 4 divergence,
1 failed checks (gradcheck).
"""

import argparse
import sys
from collections import Counter
from dataclasses import replace
from itertools import product
from pathlib import Path

from . import data, gradcheck, harness, nn, pooling

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGENCE = 4


def parse_pool_targets(text: str) -> tuple:
    """Comma-separated per-stage targets, e.g. '13x13,5x5' or 'half,5x5'. Text
    that does not parse raises ArgumentTypeError, whose reason argparse shows."""
    stages = []
    for part in text.split(","):
        part = part.strip()
        if part == "half":
            stages.append(None)
        else:
            h, _, w = part.partition("x")
            try:
                stages.append((int(h), int(w)))
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"each stage is 'half' or HxW, got {part!r}") from None
    return tuple(stages)


# One row per RunConfig field: its command-line flag (None: config file
# only), the parser that the flag and a config-file value share, and further
# add_argument keywords.
SETTINGS = {
    "dataset": ("--dataset", str, {"choices": harness.DATASETS}),
    "pooling_variant": ("--variant", str, {"choices": nn.VARIANTS,
                                           "help": "train only: compare trains every variant"}),
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
        try:
            values[key] = parse(value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
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
    if getattr(args, "command", None) == "compare" and "pooling_variant" in values:
        raise ValueError("compare trains every variant; "
                         "--variant and pooling_variant are for train")
    if getattr(args, "desk_scale", False):
        values.setdefault("train_limit", 10000)
        values.setdefault("test_limit", 2000)
        values["epochs"] = min(values.get("epochs", harness.RunConfig.epochs), 3)
    return harness.RunConfig(**values)


def _train_and_write(config: harness.RunConfig) -> harness.RunReport:
    """Train one run, printing each epoch's line, then write its report and CSV row."""
    report = harness.train(config, on_epoch=lambda m: print(
        f"epoch {m.epoch}: train loss {m.train_loss:.4f} acc {m.train_accuracy:.4f} | "
        f"val loss {m.val_loss:.4f} acc {m.val_accuracy:.4f}"))
    path = harness.write_report(report, config.output_dir)
    print(f"test loss {report.test_loss:.4f}  accuracy {report.test_accuracy:.4f}")
    print(f"report written to {path}")
    return report


def cmd_train(args) -> int:
    _train_and_write(build_config(args))
    return EXIT_OK


def cmd_compare(args) -> int:
    config = build_config(args)
    configs = {v: replace(config, pooling_variant=v) for v in nn.VARIANTS}
    reports = {v: _train_and_write(c) for v, c in configs.items()}
    print(f"{'variant':<10} {'loss':>10} {'accuracy':>10}")
    for variant, rep in reports.items():
        print(f"{variant:<10} {rep.test_loss:>10.4f} {rep.test_accuracy:>10.4f}")
    shape = (1, *harness.DATASETS[config.dataset])
    plans = {v: nn.plan(harness.build_model_spec(c), shape) for v, c in configs.items()}
    # Each variant's pool (window, stride, output size) and fused ReLU, stage
    # by stage; both rows of a stage where the variants differ are marked.
    print(f"{'stage':>5} {'variant':<8} {'window':>7} {'stride':>7} {'out':>7} {'relu':>5}")
    same = True
    for idx, stages in enumerate(zip(*plans.values()), start=1):
        differs = len({(s.pool, s.relu) for s in stages}) > 1
        same = same and not differs
        for variant, s in zip(plans, stages):
            p = s.pool
            line = (f"{idx:>5} {variant:<8} {f'{p.window_h}x{p.window_w}':>7} "
                    f"{f'{p.stride_h}x{p.stride_w}':>7} {f'{p.out_h}x{p.out_w}':>7} "
                    f"{'yes' if s.relu else 'no':>5}")
            print(f"{line}  differs" if differs else line)
    if same:
        print("both variants build the same network: the same pool windows, strides, "
              "output sizes and fused ReLUs at every stage")
    return EXIT_OK


def cmd_poolcheck(args) -> int:
    if args.max_dim < 1:
        raise ValueError(f"max_dim must be >= 1, got {args.max_dim}")
    print(f"{'in':>4} {'target':>7} {'window':>7} {'stride':>7} {'out':>5}  flag")
    deltas = Counter()  # achieved - requested: rows per difference, 0 included
    # Each square (input, target) pair, by input then target, derived as it is printed.
    for h_in, target in product(range(1, args.max_dim + 1), repeat=2):
        p = pooling.compute_pool_params(h_in, h_in, target, target)
        deltas[p.out_h - target] += 1
        flag = "DEVIATES" if p.out_h != target else ""
        print(f"{h_in:>4} {target:>7} {p.window_h:>7} {p.stride_h:>7} {p.out_h:>5}  {flag}")
    print("deviation histogram (achieved - requested):")
    for delta in sorted(deltas.keys() - {0}):
        print(f"  {delta:+3d}: {deltas[delta]} cases")
    print(f"{deltas.total()} cases, {deltas.total() - deltas[0]} deviate from the requested size")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.seed < 0:  # numpy's own message would not name the flag
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    results = gradcheck.run_all(seed=args.seed)
    worst = EXIT_OK
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<28} max rel err {r.max_rel_error:.3e} "
              f"(tol {gradcheck.TOL:.0e})  {status}")
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
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
