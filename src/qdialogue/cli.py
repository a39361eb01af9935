"""Command-line driver.

Subcommands:

* ``run``      -- execute one seeded experiment and write its document
* ``sweep``    -- repeat an experiment across values of one parameter
* ``formulas`` -- print the analytic tables only, no simulation
* ``selftest`` -- fast verification of the core identities

Exit codes: 0 all statistical comparisons within tolerance, 1 some
comparison failed, 2 configuration error.

Options can come from a flat ``key = value`` config file (--config);
explicit flags override file values. A relative --out path lands in the
directory named by the QDIALOGUE_OUT_DIR environment variable when set.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .harness import (
    FIELD_TYPES,
    FORMATS,
    SWEEPABLE,
    ConfigError,
    ExperimentConfig,
    formulas_text,
    run_experiment,
    selftest,
    sweep,
    write_document,
)
from .protocol import DETECTION_POLICIES


def load_config_file(path: str) -> dict:
    """Parse a flat ``key = value`` file; keys mirror the CLI flags."""
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
                key, _, value = line.partition("=")
                key = key.strip().replace("-", "_")
                value = value.strip()
                if key == "seed":
                    key = "master_seed"
                if key not in FIELD_TYPES:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = _coerce(key, value, f"{path}:{lineno}")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return values


def _coerce(key: str, value: str, where: str):
    kind = FIELD_TYPES[key]
    try:
        if kind is bool:
            if value.lower() in ("1", "true", "yes"):
                return True
            if value.lower() in ("0", "false", "no"):
                return False
            raise ValueError(value)
        return kind(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {value!r}") from exc


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="flat key=value config file")
    parser.add_argument("--attack", help="strategy name (default none)")
    parser.add_argument("--beta2", type=float, help="probe weight, entangle-measure only")
    parser.add_argument("--c", type=float, help="control-run probability in (0,1)")
    parser.add_argument("--n-pairs", type=int, dest="n_pairs", help="message half-length N")
    parser.add_argument("--trials", type=int, help="number of dialogues")
    parser.add_argument("--seed", type=int, dest="master_seed", help="master seed")
    parser.add_argument(
        "--detection-policy",
        dest="detection_policy",
        choices=DETECTION_POLICIES,
        help="what a failed control check does",
    )
    parser.add_argument("--max-restarts", type=int, dest="max_restarts")
    parser.add_argument("--out", help="output path; '-' or omitted writes to stdout")
    parser.add_argument("--format", choices=FORMATS, help="output format")
    parser.add_argument("--workers", type=int, help="parallel trial workers")
    parser.add_argument("--verbose", action="store_const", const=True, help="embed per-trial reports")


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {}
    if args.config:
        values.update(load_config_file(args.config))
    for key in FIELD_TYPES:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value
    # run_experiment validates each config it runs, a sweep's points included.
    return ExperimentConfig(**values)


@functools.cache  # parsing does not change the parser, so in-process callers share one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdialogue",
        description="Simulate the entangled two-way dialogue protocol and check its security numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="one experiment")
    _add_experiment_flags(run_p)

    sweep_p = sub.add_parser("sweep", help="experiments across one parameter")
    _add_experiment_flags(sweep_p)
    sweep_p.add_argument("--vary", required=True, choices=SWEEPABLE)
    sweep_p.add_argument(
        "--values", required=True, help="comma-separated values for the varied parameter"
    )

    sub.add_parser("formulas", help="print analytic tables only")
    sub.add_parser("selftest", help="verify core identities")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "formulas":
        print(formulas_text(), end="")
        return 0

    if args.command == "selftest":
        ok, lines = selftest()
        for line in lines:
            print(line)
        print("selftest:", "PASS" if ok else "FAIL")
        return 0 if ok else 1

    try:
        config = _build_config(args)
        if args.command == "run":
            doc = run_experiment(config)
        else:
            cast = FIELD_TYPES[args.vary]
            try:
                values = [cast(v.strip()) for v in args.values.split(",") if v.strip()]
            except ValueError as exc:
                raise ConfigError(f"bad sweep value in {args.values!r}") from exc
            doc = sweep(config, args.vary, values)
        path = write_document(doc, config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if path is not None:
        print(f"wrote {path}", file=sys.stderr)
    verdict = doc["all_within_tolerance"]
    print(f"comparisons within tolerance: {verdict}", file=sys.stderr)
    return 0 if verdict else 1


if __name__ == "__main__":
    raise SystemExit(main())
