"""Command-line surface: run, batch, verify-log, validate.

Exit codes: 0 all checks pass, 1 violations or verification failure,
2 usage / file errors, each an ``error:`` line on stderr (a bad option
value, a scenario that does not parse or validate, an unreadable file,
a report or log that is not one).
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import batch, run_scenario, verify_log
from .scenario import ParseError, ValidationError, load_scenario


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="fedledger",
                                 description="Two-tier federated ledger simulator")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="execute one scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="report JSON path")
    p.add_argument("--log", default=None, help="event log path")
    p.add_argument("--csv", default=None, help="CSV metrics path")

    p = sub.add_parser("batch", help="Monte-Carlo batch over consecutive seeds")
    p.add_argument("--scenario", required=True)
    p.add_argument("--runs", type=_positive_int, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify-log", help="replay a stored event log")
    p.add_argument("--report", required=True)
    p.add_argument("--log", required=True)

    p = sub.add_parser("validate", help="parse and validate a scenario file")
    p.add_argument("--scenario", required=True)

    args = ap.parse_args(argv)

    try:
        if args.cmd == "validate":
            load_scenario(args.scenario)
            print("ok")
            return 0
        if args.cmd == "run":
            scn = load_scenario(args.scenario)
            report = run_scenario(scn, seed=args.seed, report_path=args.out,
                                  log_path=args.log, csv_path=args.csv)
            print(report.to_json(), end="")
            return 0 if report.safety_violations == 0 and report.conservation_delta == 0 else 1
        if args.cmd == "batch":
            scn = load_scenario(args.scenario)
            agg = batch(scn, args.runs, report_path=args.out)
            print(json.dumps(agg, sort_keys=True, indent=2))
            return 0 if agg["violations_total"] == 0 else 1
        if args.cmd == "verify-log":
            ok, failures = verify_log(args.report, args.log)
            if ok:
                print("pass")
                return 0
            for f in failures:
                print(f"fail: {f}")
            return 1
    except (ParseError, ValidationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
