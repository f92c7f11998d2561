"""Command-line entry point.

Exit status contract: 0 no findings, 1 findings but no errors, 2 error
findings present, 3 tool failure (bad configuration or usage, unreadable
inputs, or an internal fault).
"""

from __future__ import annotations

import argparse
import sys

from microweave import __version__
from microweave.config import load_config
from microweave.errors import ConfigError, MicroweaveError
from microweave.runner import OUTPUT_FORMATS, run

EXIT_CLEAN = 0
EXIT_WARNINGS = 1
EXIT_ERRORS = 2
EXIT_FAILURE = 3


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):
        # argparse would exit 2, which the contract reserves for error findings.
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="analyze",
        description=(
            "Static analysis for microservice codebases: extracts per-service "
            "models, infers cross-service communication, and reports "
            "consistency findings and coupling metrics."
        ),
    )
    parser.add_argument("--config", help="path to the JSON run configuration")
    parser.add_argument("--out", help="output directory (overrides the config)")
    parser.add_argument("--services",
                        help="comma-separated subset of services to analyze")
    parser.add_argument("--format", dest="formats", default=",".join(OUTPUT_FORMATS),
                        help="comma-separated output families: dot,json,text")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.config:
            raise ConfigError("--config is required")
        formats = {f.strip() for f in args.formats.split(",") if f.strip()}
        unknown = sorted(formats - set(OUTPUT_FORMATS))
        if unknown:
            raise ConfigError(f"--format: unknown output family {unknown[0]!r}")
        if not formats:
            raise ConfigError("--format must select at least one output family")
        services_filter = None
        if args.services:
            services_filter = [s.strip() for s in args.services.split(",") if s.strip()]
        config = load_config(args.config, services_filter=services_filter,
                             output_override=args.out)
        return run(config, formats=formats)
    except ConfigError as exc:
        print(f"analyze: configuration error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except MicroweaveError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as exc:
        print(f"analyze: i/o failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except Exception as exc:  # an internal fault must not read as "warnings only"
        detail = " ".join(str(exc).splitlines())
        print(f"analyze: internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
