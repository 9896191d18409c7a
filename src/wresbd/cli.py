"""Command-line interface.

    wresbd verify --family {dirac|signature} [--seeds 1,2,3]
                  [--format {text|json}] [--case ID] [--out PATH]

Runs the exact boundary computation for the chosen operator family,
cross-checks every tabulated quantity against the independent numeric
oracle at the given seeds, and writes the verification ledger.  The exit
status is 0 when every entry agrees with the oracle, 1 when one does not,
and 2 on bad input, which is reported before any computation, or when the
report cannot be written.

Seeds are nonnegative integers in ASCII decimal digits, at most
sys.get_int_max_str_digits() of them (4300 by default); they default to
the WRESBD_SEEDS environment variable (comma-separated) and then to
"1,2,3".
"""

import argparse
import contextlib
import os
import sys

from .boundary import CASES
from .ledger import build_ledger, render_json, render_text

__all__ = ["main"]

_CASE_IDS = tuple(c.case_id for c in CASES)


def _parse_seeds(text):
    seeds = [s.strip() for s in text.split(",") if s.strip() != ""]
    if not seeds:
        raise argparse.ArgumentTypeError("at least one seed is required")
    # ASCII digits only: int() would also read "1_0" as 10 and "\u0661" as 1
    if not all(s.isascii() and s.isdigit() for s in seeds):
        raise argparse.ArgumentTypeError(
            "seeds must be comma-separated nonnegative integers in ASCII "
            "digits: %r" % text)
    try:
        return [int(s) for s in seeds]
    except ValueError:  # over sys.get_int_max_str_digits() digits
        raise argparse.ArgumentTypeError(
            "seeds must have at most %d ASCII digits"
            % sys.get_int_max_str_digits()) from None


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="wresbd",
        description="Exact boundary-term engine for residue pairings of "
                    "twisted Dirac-type operators, with numeric "
                    "cross-checking.")
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser(
        "verify", help="evaluate all boundary cases and verify against "
                       "the numeric oracle")
    verify.add_argument("--family", required=True,
                        choices=("dirac", "signature"))
    verify.add_argument("--seeds", type=_parse_seeds, default=None,
                        help="comma-separated integer seeds "
                             "(default: WRESBD_SEEDS or 1,2,3)")
    verify.add_argument("--format", choices=("text", "json"),
                        default="text")
    verify.add_argument("--case", choices=_CASE_IDS, default=None,
                        help="restrict to one boundary case")
    verify.add_argument("--out", default=None,
                        help="write the report to this path instead of "
                             "standard output")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    seeds = args.seeds
    if seeds is None:
        env = os.environ.get("WRESBD_SEEDS", "").strip()
        try:
            seeds = _parse_seeds(env) if env else [1, 2, 3]
        except argparse.ArgumentTypeError as exc:
            parser.error("WRESBD_SEEDS: %s" % exc)
    # opened after every other input is checked, so bad seeds never
    # truncate an existing report, and before any computation
    try:
        out = (open(args.out, "w") if args.out is not None
               else contextlib.nullcontext(sys.stdout))
    except OSError as exc:
        parser.error("argument --out: %s" % exc)
    case_ids = {args.case} if args.case else None
    with out as fh:
        ledger = build_ledger(args.family, seeds, case_ids=case_ids)
        report = (render_json(ledger) if args.format == "json"
                  else render_text(ledger))
        try:
            fh.write(report)
            fh.flush()
        except OSError as exc:
            # closed here, so that neither the with block nor the flush of
            # stdout at exit retries the lost write
            with contextlib.suppress(OSError):
                fh.close()
            sys.stderr.write("wresbd: error: cannot write report: %s\n"
                             % exc)
            return 2
    return 0 if ledger["all_match_oracle"] else 1


if __name__ == "__main__":
    sys.exit(main())
