"""Command-line front end.

Four subcommands run suite groups against a JSON config:

    premetric check        conservation + intermediate identities
    premetric split        3+1 split / recompose roundtrips
    premetric constitutive phi_u vanishing under the configured law
    premetric reciprocity  star_z suite + Hodge factorization

A "suites" list in the config overrides the per-command default.  Exit
status: 0 all checks passed, 1 at least one check failed, 2 usage,
config or expression errors.  Nothing is written on an error: the run
either produces a complete report or a diagnostic on stderr.
"""

import argparse
import sys
from functools import cache

from .config import COMMANDS, load_config
from .errors import (ConfigError, FormSyntaxError, MetricError,
                     StructuralError)
from .report import Report
from .suites import run_suites


def _seed_type(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer: {text!r}")
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


@cache
def build_parser():
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="premetric",
        description="exact verification suites for pre-metric field identities")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (text, _) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, metavar="PATH",
                       help="JSON run configuration (see docs/config.md)")
        p.add_argument("--seed", type=_seed_type, default=None, metavar="U64",
                       help="override the config seed")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write the report here instead of stdout")
        p.add_argument("--format", choices=("text", "structured"), default=None,
                       help="report rendering (default from config: text)")
    return parser


def run(command, cfg):
    """Build the full report for one command; raises on any setup error."""
    return Report(command, cfg.seed, run_suites(cfg, cfg.suites_for(command)))


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out = args.out
        if args.format is not None:
            cfg.format = args.format
        report = run(args.command, cfg)
        rendered = (report.render_structured() if cfg.format == "structured"
                    else report.render_text())
    except (ConfigError, FormSyntaxError, MetricError, StructuralError) as e:
        print(f"premetric: error: {e}", file=sys.stderr)
        return 2
    if cfg.out is not None:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as e:
            print(f"premetric: error: cannot write report: {e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return 0 if report.all_passed() else 1


if __name__ == "__main__":
    sys.exit(main())
