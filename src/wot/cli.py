"""Command-line entry points.

Every command, like every library call, draws its secrets from the
operating system's random source (see ``wot.symcrypto``); none can be seeded.
"""

from __future__ import annotations

import argparse
import logging
import sys

from . import net
from .auditor import VERDICT_UNSAFE, audit_prices
from .catalog import MODES, load_catalog
from .errors import WotError
from .group import setup_params
from .harness import privacy_experiment
from .protocol import load_bundle, load_manifest, load_secrets, publish, save_bundle
from .symcrypto import KEY_BITS_CHOICES
from .weights import approx_reduce, candidate_divisors, gcd_reduce


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise WotError(f"{what}: {text!r} is not an integer") from None


def _read_prices(path: str) -> list[int]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
    except OSError as exc:
        raise WotError(f"cannot read prices file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise WotError(f"cannot read prices file {path}: "
                       f"not UTF-8 text (byte {exc.start})") from None
    return [_int(line, f"{path}:{lineno}") for lineno, line in enumerate(lines, start=1)
            if line and not line.startswith("#")]


def _parse_host_port(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit() or int(port) > 65535:
        raise WotError(f"expected HOST:PORT with a port up to 65535, got {text!r}")
    return host, int(port)


def _int_list(text: str, what: str) -> list[int]:
    return [_int(x, what) for x in text.split(",") if x != ""]


def cmd_publish(args) -> int:
    catalog = load_catalog(args.catalog)
    params = setup_params(args.group)
    bundle, secrets = publish(catalog, args.mode, params, key_bits=args.key_bits)
    save_bundle(bundle, args.out, secrets=secrets)
    print(f"published {catalog.n} items, {catalog.total_weight} shares,"
          f" mode={args.mode}, group={args.group} -> {args.out}")
    print("keep sender_secrets.bin private; ship only manifest.bin and *.ct")
    return 0


def cmd_serve(args) -> int:
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(name)s %(message)s")
    bundle = load_bundle(args.bundle, verify=False)  # SenderServer verifies it
    secrets = load_secrets(args.bundle)
    host, port = _parse_host_port(args.listen)
    server = net.SenderServer((host, port), bundle, secrets)
    print(f"serving on {host}:{server.port}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    return 0


def cmd_buy(args) -> int:
    host, port = _parse_host_port(args.server)
    item_ids = [x for x in args.items.split(",") if x]
    result = net.buy(host, port, item_ids, args.out, cache_dir=args.bundle)
    for item_id, _ in result.items:
        print(f"wrote {args.out}/{item_id}")
    print(f"total paid: {result.total}")
    return 0


def cmd_audit(args) -> int:
    report = audit_prices(_read_prices(args.prices))
    print(report.to_text(), end="")
    return 1 if report.verdict == VERDICT_UNSAFE else 0


def cmd_reduce(args) -> int:
    prices = _read_prices(args.prices)
    if args.q is not None:
        report = approx_reduce(prices, args.q)
    else:
        report = gcd_reduce(prices)
        if report.q == 1:
            hints = candidate_divisors(prices)
            if hints:
                print(f"# gcd is 1; candidate divisors to negotiate: "
                      f"{', '.join(map(str, hints))}")
    print(report.to_text(), end="")
    return 0


def cmd_privacy_test(args) -> int:
    report = privacy_experiment(_int_list(args.weights, "--weights"),
                                _int_list(args.choice_a, "--choice-a"),
                                _int_list(args.choice_b, "--choice-b"),
                                args.sessions, setup_params(args.group))
    print(report.to_text(), end="")
    return 0 if report.verdict == "PASS" else 1


def cmd_manifest(args) -> int:
    print(load_manifest(args.bundle).to_text(), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wot",
        description="Sell and buy priced digital goods; the seller learns only the total price.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("publish", help="encrypt a catalog into a bundle directory")
    p.add_argument("--catalog", required=True, help="catalog directory with items.tsv")
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--out", required=True, help="bundle output directory")
    p.add_argument("--lambda", dest="key_bits", type=int, choices=KEY_BITS_CHOICES, default=128)
    p.add_argument("--group", default="modp-2048")
    p.set_defaults(func=cmd_publish)

    p = sub.add_parser("serve", help="answer purchases from a bundle directory")
    p.add_argument("--bundle", required=True)
    p.add_argument("--listen", required=True, metavar="HOST:PORT")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("buy", help="purchase items from a running server")
    p.add_argument("--server", required=True, metavar="HOST:PORT")
    p.add_argument("--items", required=True, help="comma-separated item ids")
    p.add_argument("--out", required=True, help="output directory for plaintexts")
    p.add_argument("--bundle", default=None,
                   help="previously downloaded bundle directory, used if it matches")
    p.set_defaults(func=cmd_buy)

    p = sub.add_parser("audit", help="report what billed totals leak about choices")
    p.add_argument("--prices", required=True, help="file with one integer price per line")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("reduce", help="shrink a price vector by a common divisor")
    p.add_argument("--prices", required=True)
    p.add_argument("--q", type=int, default=None,
                   help="divisor for approximate reduction (default: exact gcd)")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("privacy-test", help="transcript indistinguishability experiment")
    p.add_argument("--weights", required=True, help="comma-separated weights")
    p.add_argument("--choice-a", required=True, help="comma-separated item indices")
    p.add_argument("--choice-b", required=True)
    p.add_argument("--sessions", type=int, default=100_000)
    p.add_argument("--group", default="p23")
    p.set_defaults(func=cmd_privacy_test)

    p = sub.add_parser("manifest", help="dump a bundle manifest as text")
    p.add_argument("--bundle", required=True)
    p.set_defaults(func=cmd_manifest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (WotError, OSError) as exc:  # OSError: a path, port or host the arguments named
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
