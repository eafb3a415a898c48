"""Command-line front door: simulations, sweeps, and certificate tooling.

All randomness flows from --seed; sub-streams are derived by stable labels,
so identical invocations produce byte-identical outputs. Verification
failures exit 1; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

from .coverlp import (certified_inflation, check_file_n, contract_expand, covered_power,
                      extend_cover, load_certificate, lookahead_cover, quadratic_inflation,
                      save_certificate, solve_cover_lp, verify_certificate)
from .engine import (competitive_report, exact_expectation, simulate,
                     write_report_csv, BranchingLimitExceeded)
from .gallery import make_instance
from .graphs import format_rational, instance_to_json, load_instance, save_instance
from .masks import cycle_power
from .offline import arrival_window_matching_value, offline_optimum
from .policies import POLICY_FACTORIES, infer_roles, make_policy


class UsageError(Exception):
    """A flag combination the command cannot run: one line, exit 2."""


def _parse_params(items):
    params = {}
    for item in items or ():
        if "=" not in item:
            raise UsageError(f"--param expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        params[key] = value  # make_instance parses it exactly
    return params


def _at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _load_target(spec: str, cert):
    """C_N^D for the spec "cycle:N:D", built only once N is the certificate's
    n and D is at most its batch size d + 1, where `covered_power` stops."""
    kind, *rest = spec.split(":")
    if kind == "cycle" and len(rest) == 2:
        try:
            size, d = map(int, rest)
        except ValueError:
            pass
        else:
            if size != cert.n:
                raise ValueError("target size disagrees with the certificate")
            if d > cert.d + 1:
                raise ValueError(f"target power {d} exceeds the batch size {cert.d + 1}")
            return cycle_power(size, d)
    raise UsageError(f"unknown target spec {spec!r}; use cycle:N:D")


def _resolve_instance(args):
    if getattr(args, "instance", None):
        instance = load_instance(args.instance)
        name = args.instance
    elif getattr(args, "gallery", None):
        named = make_instance(args.gallery, **_parse_params(args.param))
        instance, name = named.instance, named.name
    else:
        raise UsageError("need --instance PATH or --gallery NAME")
    return name, _with_roles(instance)


def _with_roles(instance):
    """The instance with seller/buyer roles inferred when it declares none."""
    if instance.roles is None:
        try:
            return dataclasses.replace(instance, roles=infer_roles(instance))
        except ValueError:
            pass  # not constrained bipartite; role-based policies will refuse
    return instance


def _add_instance_flags(parser):
    parser.add_argument("--instance", help="instance JSON path")
    parser.add_argument("--gallery", help="named instance from the gallery")
    parser.add_argument("--param", action="append", metavar="K=V",
                        help="gallery parameter, repeatable")


def cmd_simulate(args) -> int:
    """Report every policy in turn: its line on stdout, under the name of
    the policy its spec builds ("batching:0" reads "batching"), or its
    error on stderr. Exits 1 if any policy failed."""
    name, instance = _resolve_instance(args)
    opt = arrival_window_matching_value(instance.graph, instance.order.slots, instance.deadline)
    failed = False
    for spec in args.policy.split(","):
        try:
            policy_name = make_policy(spec).name
            value, mode = _policy_value(instance, spec, args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            failed = True
            continue
        ratio = format_rational(value / opt) if opt else "n/a"
        print(f"instance={name} policy={policy_name} ({mode}) "
              f"E={format_rational(value)} OPT={format_rational(opt)} ratio={ratio}")
    return 1 if failed else 0


def _policy_value(instance, spec: str, args) -> tuple[Fraction, str]:
    if args.exact:
        return exact_expectation(instance, make_policy(spec)), "exact"
    total = Fraction(0)
    for s in range(args.seeds):
        total += simulate(instance, make_policy(spec), seed=args.seed + s).collected
    return total / args.seeds, f"{args.seeds} runs"


def cmd_sweep(args) -> int:
    instances = []
    for path in args.instance or ():
        instances.append((path, _with_roles(load_instance(path))))
    if args.gallery:
        named = make_instance(args.gallery, **_parse_params(args.param))
        instances.append((named.name, _with_roles(named.instance)))
    if not instances:
        raise UsageError("sweep needs at least one --instance or --gallery")
    policies = [(make_policy(spec).name, (lambda s=spec: make_policy(s)))
                for spec in args.policy.split(",")]
    rows = competitive_report(instances, policies,
                              arrival_model=args.arrival,
                              seeds=0 if args.exact else args.seeds,
                              base_seed=args.seed)
    write_report_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_offline(args) -> int:
    name, instance = _resolve_instance(args)
    matching = offline_optimum(instance)
    pairs = " ".join(f"({i},{j})" for i, j in matching.sorted_pairs())
    print(f"instance={name} OPT={format_rational(matching.weight)} pairs={pairs or '-'}")
    return 0


def cmd_cover_lp(args) -> int:
    flag = "d" if args.variant == "lp" else "k"
    parameter = getattr(args, flag)
    if parameter is None:
        raise UsageError(f"--variant {args.variant} needs --{flag}")
    result = solve_cover_lp(args.variant, parameter)
    print(f"alpha = {format_rational(result.alpha)}")
    print(f"n={result.n} target=cycle:{result.n}:{result.target_power} "
          f"columns={result.column_count} orbits={result.orbit_count}")
    if args.out:
        save_certificate(result.certificate, args.out)
        reloaded = load_certificate(args.out)
        report = verify_certificate(reloaded, cycle_power(result.n, result.target_power))
        if not report.ok:
            print(f"re-verification failed: {report}", file=sys.stderr)
            return 1
        print(f"certificate written to {args.out} (re-verified)")
    return 0


def cmd_verify_cert(args) -> int:
    cert = load_certificate(args.cert)
    target = _load_target(args.target, cert)
    report = verify_certificate(cert, target)
    if report.ok:
        print(f"OK alpha={format_rational(cert.alpha)} columns={len(cert.columns)}")
        return 0
    print(f"FAIL: {report}")
    return 1


def _write_and_verify(cert, out, target) -> int:
    """Check `cert` against `target`, write it, check it again."""
    report = verify_certificate(cert, target)
    if not report.ok:
        print(f"FAIL: {report}", file=sys.stderr)
        return 1
    save_certificate(cert, out)
    reloaded = load_certificate(out)
    again = verify_certificate(reloaded, target)
    if not again.ok:
        print(f"FAIL after round-trip: {again}", file=sys.stderr)
        return 1
    print(f"alpha = {format_rational(cert.alpha)}")
    print(f"certificate written to {out} (verified against n={target.n})")
    return 0


def cmd_extend_cert(args) -> int:
    cert = load_certificate(args.cert)
    check_file_n(args.n)
    extended = extend_cover(cert, args.n)
    # by default C_n^power: the input covers C_n1^power, and extend_cover has checked C_n^power
    target = (_load_target(args.target, extended) if args.target
              else cycle_power(extended.n, max(extended.d, covered_power(cert) or 0)))
    return _write_and_verify(extended, args.out, target)


def cmd_contract_cert(args) -> int:
    cert = load_certificate(args.cert)
    k = cert.d + 1
    check_file_n(cert.n // k * (args.d + 1))  # the lifted size
    lifted = contract_expand(cert, args.d)
    v = (args.d + 1) % k
    if v:
        print("subset-family inflation: "
              f"certified {format_rational(certified_inflation(args.d, k))}, "
              f"squared-loss formula {format_rational(quadratic_inflation(args.d, k))}")
    target = (_load_target(args.target, lifted) if args.target
              else cycle_power(lifted.n, lifted.d))
    return _write_and_verify(lifted, args.out, target)


def cmd_lookahead_cert(args) -> int:
    check_file_n(args.n)
    cert = lookahead_cover(args.n, args.d, args.l)
    target = _load_target(args.target, cert) if args.target else cycle_power(args.n, args.d)
    return _write_and_verify(cert, args.out, target)


def cmd_gallery(args) -> int:
    named = make_instance(args.name, **_parse_params(args.param))
    if args.out:
        save_instance(named.instance, args.out)
        print(f"instance '{named.name}' written to {args.out}")
    else:
        print(json.dumps(instance_to_json(named.instance), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    policy_help = "comma list: " + ",".join(
        "batching[:l]" if name == "batching" else name for name in POLICY_FACTORIES)
    parser = argparse.ArgumentParser(
        prog="deadline-matching",
        description="Online maximum-weight matching with deadlines: "
                    "simulators, sweeps, and covering certificates.")
    # shared by every subcommand so it can be given after the subcommand;
    # exact abbreviation matching keeps --seed and --seeds distinct
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--seed", type=int, default=0,
                        help="master seed; all randomness derives from it")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        p = sub.add_parser(name, parents=[common], allow_abbrev=False, **kwargs)
        return p

    p = add_parser("simulate", help="run policies on one instance")
    _add_instance_flags(p)
    p.add_argument("--policy", required=True, help=policy_help)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true",
                       help="exact expectation: one forward pass over merged coin states")
    group.add_argument("--seeds", type=_at_least(1), default=1,
                       help="Monte Carlo runs when not exact")
    p.set_defaults(func=cmd_simulate)

    p = add_parser("sweep", help="competitive report over instances")
    p.add_argument("--instance", action="append", help="instance path, repeatable")
    p.add_argument("--gallery", help="named instance")
    p.add_argument("--param", action="append", metavar="K=V")
    p.add_argument("--policy", required=True, help=policy_help)
    p.add_argument("--arrival", choices=["fixed", "uniform"], default="fixed")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true")
    group.add_argument("--seeds", type=_at_least(0), default=0)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_sweep)

    p = add_parser("offline", help="exact offline optimum of an instance")
    _add_instance_flags(p)
    p.set_defaults(func=cmd_offline)

    p = add_parser("cover-lp", help="solve a covering LP exactly")
    p.add_argument("--variant", choices=["lp", "lp-prime"], default="lp")
    p.add_argument("--d", type=int, help="batch deadline for --variant lp")
    p.add_argument("--k", type=int, help="batch size for --variant lp-prime")
    p.add_argument("--out", help="certificate JSON path")
    p.set_defaults(func=cmd_cover_lp)

    p = add_parser("verify-cert", help="verify a certificate against a target")
    p.add_argument("--cert", required=True)
    p.add_argument("--target", required=True, help="cycle:N:D")
    p.set_defaults(func=cmd_verify_cert)

    p = add_parser("extend-cert", help="extend a periodic cover to larger n")
    p.add_argument("--cert", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target", help="cycle:N:D (default: the largest power up to "
                   "d+1 that the input covers, at least d)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extend_cert)

    p = add_parser("contract-cert",
                       help="lift a batch-size-k cover to a larger deadline")
    p.add_argument("--cert", required=True)
    p.add_argument("--d", type=int, required=True, help="target deadline")
    p.add_argument("--target", help="cycle:N:D (default: the lifted header)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_contract_cert)

    p = add_parser("lookahead-cert",
                       help="shift-family cover for batching with lookahead")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--target", help="cycle:N:D (default: cycle:n:d)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lookahead_cert)

    p = add_parser("gallery", help="emit a named instance as JSON")
    p.add_argument("--name", required=True)
    p.add_argument("--param", action="append", metavar="K=V")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gallery)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, BranchingLimitExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
