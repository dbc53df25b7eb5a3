"""Command line front end.

Subcommands generate instances, verify every structural identity,
and export transfer series, characteristic series and simulation
trajectories as JSON.  All output is byte-deterministic for a fixed
invocation.

``verify`` loads any well-formed instance and reports every identity.
``transfer``, ``charfn`` and ``simulate`` export series that the theory
defines only for a coisometric lifting, so they refuse an instance
whose lifting identities exceed ``linalg.TOL_EQ`` (1e-8), the
threshold of verify's ``lifting_identities`` row, or whose defect rank
of C or E is decided inside the band ``(TOL_RANK, TOL_EQ]``.  No
command takes a tolerance.

Numerical imports happen inside the handlers, so ``--help`` and usage
errors do not load numpy.  The BLAS thread count is read from the
usual ``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and
``MKL_NUM_THREADS`` variables.

Exit codes: 0 on success, 1 when verification ran but a check
failed, 2 for usage, file, schema or infeasibility errors and for an
allocation that runs out of memory.
"""

from __future__ import annotations

import argparse
import functools
import sys


def _emit(output: str | None, tree) -> None:
    from . import serialize

    if output:
        serialize.save(output, tree)
    else:
        sys.stdout.write(serialize.dump_text(tree))


def _load_instance(args, strict: bool):
    from . import serialize

    return serialize.instance_from_json(serialize.load(args.input), strict=strict)


def cmd_generate(args) -> int:
    from . import serialize
    from .lifting import generate

    inst = generate(
        args.d, args.dim_c, args.dim_a, seed=args.seed, a_scale=args.a_scale
    )
    _emit(args.output, serialize.instance_to_json(inst))
    return 0


def cmd_verify(args) -> int:
    from . import serialize
    from .verify import all_passed, render_report, run_all_checks

    inst = _load_instance(args, strict=False)
    results = run_all_checks(inst, args.depth, args.seed)
    sys.stdout.write(render_report(results))
    if args.report:
        serialize.save(args.report, serialize.report_to_json(results))
    return 0 if all_passed(results) else 1


def cmd_transfer(args) -> int:
    from . import serialize
    from .transfer import build_colligation, transfer_series

    inst = _load_instance(args, strict=True)
    series = transfer_series(build_colligation(inst), args.depth)
    _emit(args.output, serialize.series_to_json(series))
    return 0


def cmd_charfn(args) -> int:
    from . import serialize
    from .charfn import charfn_series

    inst = _load_instance(args, strict=True)
    series = charfn_series(inst, args.depth)
    _emit(args.output, serialize.series_to_json(series))
    return 0


def cmd_simulate(args) -> int:
    from . import serialize
    from .ncsystem import simulate
    from .transfer import build_colligation, random_series

    inst = _load_instance(args, strict=True)
    coll = build_colligation(inst)
    if args.signal:
        signal = serialize.series_from_json(serialize.load(args.signal), inst.d)
        depth = args.depth if args.depth is not None else signal.depth
    else:
        depth = args.depth if args.depth is not None else 3
        signal = random_series(coll.in_dim, 1, inst.d, depth, args.seed)
    traj = simulate(coll, signal, depth)
    _emit(args.output, serialize.trajectory_to_json(traj))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ncscatter",
        description=(
            "Dilations, scattering data, transfer and characteristic "
            "functions of coisometric liftings, at finite Fock depth."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="draw a random instance and print it")
    gen.add_argument("--d", type=int, default=2, help="number of operators")
    gen.add_argument("--dim-c", type=int, default=2, help="base space dimension")
    gen.add_argument("--dim-a", type=int, default=1, help="corner space dimension")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--a-scale", type=float, default=0.9, help="corner contraction strength"
    )
    gen.add_argument("-o", "--output", help="write JSON here instead of stdout")
    gen.set_defaults(handler=cmd_generate)

    ver = sub.add_parser("verify", help="run every structural check on an instance")
    ver.add_argument("--input", required=True, help="instance JSON file")
    ver.add_argument("--depth", type=int, default=3, help="Fock truncation depth")
    ver.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    ver.add_argument("--report", help="also write a JSON report here")
    ver.set_defaults(handler=cmd_verify)

    tra = sub.add_parser("transfer", help="export the transfer series")
    tra.add_argument("--input", required=True)
    tra.add_argument("--depth", type=int, default=3)
    tra.add_argument("-o", "--output")
    tra.set_defaults(handler=cmd_transfer)

    cha = sub.add_parser("charfn", help="export the characteristic series")
    cha.add_argument("--input", required=True)
    cha.add_argument("--depth", type=int, default=3)
    cha.add_argument("-o", "--output")
    cha.set_defaults(handler=cmd_charfn)

    sim = sub.add_parser("simulate", help="run the state recursion on a signal")
    sim.add_argument("--input", required=True)
    sim.add_argument(
        "--signal", help="input series JSON; a seeded random signal otherwise"
    )
    sim.add_argument(
        "--depth", type=int, default=None, help="defaults to the signal depth"
    )
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("-o", "--output")
    sim.set_defaults(handler=cmd_simulate)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
