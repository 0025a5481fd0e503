"""Command-line interface.

Subcommands: enumerate, count, verify, validate, map, section, fiber, park,
act, involute.  Chains are written ``"(3 8)(5 7)(1 8)(3 7)"`` or as JSON
``{"n": 8, "steps": [[3, 8], ...]}``; pairs use ``--a 1,3,7,1 --b
1,3,5,6,7`` or JSON ``{"n": 8, "a": [...], "b": [...]}``.  Exit status is 0
on success, 1 on domain errors (including a failed ``verify``) and on a
closed output pipe, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .chains import Chain, DEFAULT_CAP, _walk, involute, validate
from .counting import count_formula
from .action import apply_generator, apply_permutation
from .parking import ParkingInput, _shift, park, park_trace
from .perms import Permutation
from .surjection import PairAB, _verify_rows, gamma, section, verify

__all__ = ["run", "main"]


class UsageError(Exception):
    """A bad flag combination, reported with exit status 2."""


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _format_ints(values) -> str:
    return ",".join(str(x) for x in values)


def _json(text: str) -> object:
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def _chain_from_args(args: argparse.Namespace) -> Chain:
    raw = args.chain.strip()
    if raw.startswith("{"):
        chain = Chain.from_json(_json(raw))
        if args.n is not None and args.n != chain.n:
            raise UsageError(f"-n {args.n} contradicts the chain JSON (n={chain.n})")
        return chain
    if args.n is None:
        raise UsageError("-n is required when --chain is given in text form")
    return Chain.parse(raw, args.n)


def _pair_from_args(args: argparse.Namespace) -> PairAB:
    if args.pair is not None:
        if args.a is not None or args.b is not None:
            raise UsageError("--pair excludes --a/--b")
        pair = PairAB.from_json(_json(args.pair))
        if args.n is not None and args.n != pair.n:
            raise UsageError(f"-n {args.n} contradicts the pair JSON (n={pair.n})")
        return pair
    if args.b is None:
        raise UsageError("either --pair or --b is required")
    if args.n is None:
        raise UsageError("-n is required with --a/--b")
    return PairAB(args.n, _ints(args.a or ""), frozenset(_ints(args.b)))


def _print_chain(chain: Chain, fmt: str) -> None:
    print(json.dumps(chain.to_json()) if fmt == "json" else str(chain))


def _print_ab(n: int, a: tuple[int, ...], b: frozenset[int], fmt: str) -> None:
    print(json.dumps({"n": n, "a": list(a), "b": sorted(b)}) if fmt == "json"
          else f"a={_format_ints(a)} b={_format_ints(sorted(b))}")


def _cmd_count(args: argparse.Namespace) -> int:
    # Decimal prints every digit past CPython's 4300-digit limit on str() of
    # an int (3.10.7 and later); imported here, as only count needs its 0.2 MiB
    import decimal

    # Decimal(x) is quadratic in the digits, so an x past `small` bits is split
    # by bit length and joined as hi * 2**w + lo, exactly, at the largest precision
    small = 40_000
    powers: dict[int, decimal.Decimal] = {}

    def power(w: int) -> decimal.Decimal:  # 2**w, for w a power of 2
        if w not in powers:
            powers[w] = decimal.Decimal(1 << w) if w <= small else power(w // 2) ** 2
        return powers[w]

    def convert(x: int) -> decimal.Decimal:
        if x.bit_length() <= small:
            return decimal.Decimal(x)
        w = 1 << (x.bit_length() - 1).bit_length() - 1  # largest power of 2 below x's bit length
        return convert(x >> w) * power(w) + convert(x & (1 << w) - 1)

    with decimal.localcontext() as context:
        context.prec, context.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        print(convert(count_formula(args.n, args.k)))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    # a line is a chain's line plus one of its suffixes, so a batch goes out as
    # one string; a JSON step carries the ", " after it and a leaf the "]}"
    # that ends the line
    if args.format == "json":
        root, leaf, empty = f'{{"n": {args.n}, "steps": [', "[{}, {}]]}}", "]}"
        grow = lambda acc, i, j: f"{acc}[{i}, {j}], "
    else:
        root, leaf, empty = "", "({} {})", ""
        grow = lambda acc, i, j: f"{acc}({i} {j})"
    batches = _walk(args.n, args.k, args.cap, root, grow, leaf.format)
    write = sys.stdout.write
    if args.k == 0:  # the empty chain, which no batch holds
        write(root + empty + "\n")
    for acc, lines in batches:
        write(acc + lines.replace("\n", "\n" + acc) + "\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.format == "json":
        report = verify(args.n, args.cap)
        print(json.dumps(report.to_json()))
        return 0 if report.passed else 1

    def mark(ok: bool) -> str:
        return "ok" if ok else "FAIL"

    # n and --cap are checked before the header; each row is flushed as its k
    # is checked, so the rows written stay written if a later one fails
    rows = _verify_rows(args.n, args.cap)
    print(f"{'k':>3} {'formula':>10} {'enumerated':>10} {'counts':>7} {'sections':>9} {'fibres':>7}",
          flush=True)
    passed = True
    for row in rows:
        print(
            f"{row.k:>3} {row.formula:>10} {row.enumerated:>10} "
            f"{mark(row.counts_match):>7} {mark(row.sections_ok):>9} {mark(row.fibers_ok):>7}",
            flush=True,
        )
        passed = passed and row.passed
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    report = validate(_chain_from_args(args))
    if args.format == "json":
        print(json.dumps(report.to_json()))
    else:
        for name, ok in report.to_json().items():
            print(f"{name.removeprefix('is_')}: {'yes' if ok else 'no'}")
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    _print_chain(gamma(_pair_from_args(args)), args.format)
    return 0


def _cmd_section(args: argparse.Namespace) -> int:
    s = section(_chain_from_args(args))
    _print_ab(s.n, s.a, s.b, args.format)
    return 0


def _cmd_fiber(args: argparse.Namespace) -> int:
    # fiber()'s orbit one rotation at a time; the section is checked, so its rotations are not
    s = section(_chain_from_args(args))
    for t in range(s.n):
        _print_ab(s.n, *_shift(s.a, s.b, t, s.n), args.format)
    return 0


def _cmd_park(args: argparse.Namespace) -> int:
    if args.b is None:
        raise UsageError("--b (open spaces) is required")
    inp = ParkingInput(args.n, _ints(args.a or ""), frozenset(_ints(args.b)))
    # the probe lists are O(n) long, so only --trace builds them
    outcome, visits = park_trace(inp) if args.trace else (park(inp), ())
    if args.format == "json":
        payload = outcome.to_json()
        if args.trace:
            payload["trace"] = [v.to_json() for v in visits]
        print(json.dumps(payload))
    else:
        if args.trace:
            for idx, v in enumerate(visits, start=1):
                probed = " ".join(str(x) for x in v.probed)
                print(f"car {idx}: enters after {v.entry}, probes {probed}, parks at {v.parked}")
        print(f"spaces: {_format_ints(outcome.spaces)}")
        print(f"residue: {outcome.residue}")
    return 0


def _parse_position_permutation(text: str, k: int) -> Permutation:
    if "(" in text:
        return Permutation.parse(text, k)
    return Permutation(_ints(text))


def _cmd_act(args: argparse.Namespace) -> int:
    chain = _chain_from_args(args)
    if args.generator is not None:
        result = apply_generator(chain, args.generator)
    else:
        p = _parse_position_permutation(args.perm, len(chain))
        result = apply_permutation(chain, p)
    _print_chain(result, args.format)
    return 0


def _cmd_involute(args: argparse.Namespace) -> int:
    _print_chain(involute(_chain_from_args(args)), args.format)
    return 0


def _add_common(sub: argparse.ArgumentParser, *, n_required: bool = False,
                chain: bool = False, cap: bool = False) -> None:
    sub.add_argument("-n", type=int, required=n_required, default=None,
                     help="ground-set size")
    sub.add_argument("--format", choices=("text", "json"), default="text",
                     help="output format (default text)")
    if chain:
        sub.add_argument("--chain", required=True, help="chain text or JSON")
    if cap:
        sub.add_argument("--cap", type=int, default=DEFAULT_CAP,
                         help="refuse enumerations larger than this (default 10^7)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minfact",
        description="Prefixes of minimal transposition factorizations of the n-cycle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="closed-form count of k-prefixes")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("enumerate", help="list every k-prefix, one per line")
    _add_common(p, n_required=True, cap=True)
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("verify", help="check counts and fibre structure for all k < n")
    _add_common(p, n_required=True, cap=True)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("validate", help="report the membership conditions of a chain")
    _add_common(p, chain=True)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("map", help="map a pair (A, B) to its chain")
    _add_common(p)
    p.add_argument("--a", default=None, help="comma-separated sequence A")
    p.add_argument("--b", default=None, help="comma-separated set B")
    p.add_argument("--pair", default=None, help="pair as JSON")
    p.set_defaults(handler=_cmd_map)

    p = sub.add_parser("section", help="the residue-1 pair of a chain's fibre")
    _add_common(p, chain=True)
    p.set_defaults(handler=_cmd_section)

    p = sub.add_parser("fiber", help="all n pairs mapping to a chain")
    _add_common(p, chain=True)
    p.set_defaults(handler=_cmd_fiber)

    p = sub.add_parser("park", help="run the circular parking process")
    _add_common(p, n_required=True)
    p.add_argument("--a", default=None, help="comma-separated entry points")
    p.add_argument("--b", default=None, help="comma-separated open spaces")
    p.add_argument("--trace", action="store_true", help="print one line per car")
    p.set_defaults(handler=_cmd_park)

    p = sub.add_parser("act", help="act on a chain by a position permutation")
    _add_common(p, chain=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("-l", "--generator", type=int, default=None,
                       help="apply the single adjacent transposition (l, l+1)")
    group.add_argument("--perm", default=None,
                       help="position permutation, cycle notation or one-line")
    p.set_defaults(handler=_cmd_act)

    p = sub.add_parser("involute", help="reverse a chain and reflect its entries")
    _add_common(p, chain=True)
    p.set_defaults(handler=_cmd_involute)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:
        # CapExceeded, JSONDecodeError, malformed JSON input and an n past C's
        # sizes land here
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (``minfact enumerate ... | head``): point
        # stdout at devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
