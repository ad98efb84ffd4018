"""Command line interface: scenario execution and catalog listing.

    resokit run <config-or-builtin-name> [--out-dir DIR] [--format csv|json]
                [--seed N] [--bless]
    resokit list [--json]

Errors from the library are reported as a single JSON object on stderr
so wrapping tools can parse failures; schema and configuration problems
exit with status 2, runtime failures with 1.  No option sets a numerical
tolerance; an unknown flag exits with status 2 and argparse's usage
message.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import ConfigurationError, ResokitError, SchemaError
from .scenarios import list_scenarios, load_config, run_scenario


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parsing keeps no
    state in it."""
    parser = argparse.ArgumentParser(
        prog="resokit",
        description="Resonance toolkit scenario runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario config")
    run.add_argument("config", help="path to a JSON config, or a built-in scenario name")
    run.add_argument("--out-dir", default=".", help="directory for outputs (default: .)")
    run.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="data file format (default: csv)")
    run.add_argument("--seed", type=int, default=None,
                     help="override the scenario seed")
    run.add_argument("--bless", action="store_true",
                     help="copy outputs into the golden directory")

    lst = sub.add_parser("list", help="list built-in scenarios")
    lst.add_argument("--json", action="store_true", help="machine readable listing")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            rows = list_scenarios()
            if args.json:
                print(json.dumps(rows, indent=1))
            else:
                width = max((len(r["name"]) for r in rows), default=4)
                kind_w = max((len(r["kind"]) for r in rows), default=4)
                for r in rows:
                    print(f"{r['name']:<{width}}  {r['kind']:<{kind_w}}  {r['summary']}")
            return 0

        config = load_config(args.config)
        manifest = run_scenario(
            config,
            out_dir=args.out_dir,
            fmt=args.format,
            seed=args.seed,
            bless=args.bless,
        )
        for name in manifest["outputs"]:
            print(f"wrote {args.out_dir}/{name}")
        print(f"config sha256 {manifest['config_sha256'][:16]}  "
              f"wall {manifest['wall_time_s']:.3f}s")
        return 0
    except ResokitError as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(payload), file=sys.stderr)
        return 2 if isinstance(exc, (SchemaError, ConfigurationError)) else 1


if __name__ == "__main__":
    sys.exit(main())
