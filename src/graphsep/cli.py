"""Command-line front end.

Subcommands: ``build`` dumps graph matrices, ``check`` evaluates symmetry
and decomposition-condition properties, ``decompose`` writes a certified
decomposition record, ``verify`` re-checks a stored record against its
graph, and ``gen`` emits corpus graphs.

Exit codes are a stable contract: 0 pass, 1 property false or verification
failed, 2 precondition unmet, 3 internal certificate failure, 4 I/O, usage
or parse error.  A handler returns 0 or 1 and raises for the rest; ``main``
alone maps each error class to its code.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .errors import ConstructionError, GraphFormatError
from .generators import (
    gen_degree_symmetric_only,
    gen_partially_symmetric,
    gen_theorem_graph,
)
from .graphs import (
    DimensionProfile,
    adjacency_matrix,
    degree_matrix,
    density_matrix,
    format_graph,
    format_matrix,
    laplacian,
    parse_graph,
    signless_laplacian,
)
from .separability import (
    certify_decomposition,
    check_theorem_conditions,
    decompose,
    format_decomposition,
    parse_decomposition,
)
from .transforms import gtpt_matrix_identity, is_degree_symmetric, is_partially_symmetric

EXIT_PASS = 0
EXIT_FALSE = 1
EXIT_PRECONDITION = 2
EXIT_CONSTRUCTION = 3
EXIT_USAGE = 4


class _Parser(argparse.ArgumentParser):
    # Usage errors belong to the parse-error exit class, not the default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load(path: str, parse):
    """Read a UTF-8 text file and parse it; decode and parse errors name the file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse(handle.read())
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None


def _tolerance(text: str) -> float:
    """``--tol`` value: a finite number > 0 (anything else is a usage error)."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return tol


def _budget(text: str) -> int:
    """``--budget`` value: an integer >= 0 (anything else is a usage error)."""
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if budget < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return budget


def _parse_dims(text: str) -> DimensionProfile:
    try:
        return DimensionProfile(tuple(int(t) for t in text.split(",")))
    except ValueError as exc:
        raise GraphFormatError(f"bad --dims value {text!r}: {exc}") from None


def _kv(pairs) -> str:
    return "\n".join(f"{key}={value}" for key, value in pairs)


def _flag(value: bool) -> str:
    return "true" if value else "false"


def cmd_build(args) -> int:
    graph = _load(args.graph, parse_graph)
    builders = {
        "A": adjacency_matrix,
        "D": degree_matrix,
        "L": laplacian,
        "Q": signless_laplacian,
        "rho_l": lambda g: density_matrix(g, "combinatorial").matrix,
        "rho_q": lambda g: density_matrix(g, "signless").matrix,
    }
    sys.stdout.write(format_matrix(builders[args.matrix](graph)))
    return EXIT_PASS


def cmd_check(args) -> int:
    graph = _load(args.graph, parse_graph)
    axis, n = args.axis, graph.profile.n
    if not 1 <= axis <= n:  # for theorem-conditions too, which reads every axis
        raise ValueError(f"axis {axis} out of range 1..{n}")
    if args.what == "theorem-conditions":
        report = check_theorem_conditions(graph)
        holds = report.holds
        pairs = [
            ("property", args.what),
            ("partially_symmetric", _flag(report.partially_symmetric)),
            ("no_intra_layer_edges", _flag(report.no_intra_layer_edges)),
            ("uniform_blocks", _flag(report.uniform_blocks)),
            ("uniform_layer_degrees", _flag(report.uniform_layer_degrees)),
            (
                "layer_degrees",
                ",".join(str(d) for d in report.layer_degrees)
                if report.layer_degrees is not None
                else "mixed",
            ),
            ("overall", _flag(report.overall)),
            ("holds", _flag(holds)),
        ]
        human = [
            f"theorem conditions: {report.failure_summary()}",
            f"partially symmetric: {_flag(report.partially_symmetric)}",
            f"holds: {_flag(holds)}",
        ]
    else:
        if args.what == "gtpt-identity":
            report = gtpt_matrix_identity(graph, axis)
            name = "adjacency/partial-transpose identity"
            witnesses = [("first_difference", report.first_difference)]
        elif args.what == "degree-sym":
            report = is_degree_symmetric(graph, axis)
            name = "degree symmetric"
            witnesses = [
                (
                    "degree_changes",
                    ";".join(f"{v}:{b}->{a}" for v, b, a in report.changed[:8]),
                )
            ]
        else:  # partial-sym
            report = is_partially_symmetric(graph, axis)
            name = "partially symmetric"
            witnesses = [
                ("violating_edge", report.violating_edge),
                ("missing_partner", report.missing_partner),
            ]
        holds = bool(report)
        detail = [] if holds else witnesses
        pairs = [("property", args.what), ("axis", axis), ("holds", _flag(holds))] + detail
        human = [f"{name} on axis {axis}: {_flag(holds)}"]
        human += [f"  {key}: {value}" for key, value in detail]
    print(_kv(pairs) if args.format == "kv" else "\n".join(human))
    return EXIT_PASS if holds else EXIT_FALSE


def cmd_decompose(args) -> int:
    graph = _load(args.graph, parse_graph)
    # Verified inside decompose with --tol; main maps a PreconditionError to
    # exit 2 and a failed certificate, a ConstructionError, to exit 3.
    decomposition = decompose(graph, tol=args.tol)
    # PT on axis k keeps D and maps A(G) to A(gtpt_k G), so it leaves rho in
    # place exactly when G is fixed by the axis-k rewrite; rho is PSD for every
    # graph, as Q = D + A = R R^T (R the vertex-edge incidence matrix).  A graph
    # decompose accepts is the Kronecker product of symmetric patterns, so it
    # is fixed by the rewrite on every axis: PPT holds on each.
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(format_decomposition(decomposition))
    pairs = [
        ("terms", len(decomposition.terms)),
        ("residual", f"{decomposition.residual:.3e}"),
        ("verified", "pass"),
    ]
    pairs.extend((f"ppt_axis_{axis}", "pass") for axis in range(1, graph.profile.n + 1))
    pairs.append(("out", args.out))
    print(_kv(pairs))
    return EXIT_PASS


def cmd_verify(args) -> int:
    graph = _load(args.graph, parse_graph)
    decomposition = _load(args.dec, parse_decomposition)
    # Profiles first, then the factored bound; rho only for the dense path.
    certificate = certify_decomposition(decomposition, graph, tol=args.tol)
    pairs = [
        ("terms", len(decomposition.terms)),
        ("residual", f"{certificate.residual:.3e}"),
        ("relative_residual", f"{certificate.relative_residual:.3e}"),
        ("verified", "pass" if certificate.passed else "fail"),
    ]
    print(_kv(pairs))
    for failure in certificate.failures:
        print(f"failure: {failure}", file=sys.stderr)
    return EXIT_PASS if certificate.passed else EXIT_FALSE


def cmd_gen(args) -> int:
    profile = _parse_dims(args.dims)
    if args.family == "psym":
        graph = gen_partially_symmetric(profile, args.budget, args.seed)
    elif args.family == "theorem":
        graph = gen_theorem_graph(profile, args.seed)
    else:  # dsym
        graph = gen_degree_symmetric_only(profile, args.seed)
    text = format_graph(graph)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_PASS


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process (parsing leaves it unchanged)."""
    parser = _Parser(
        prog="graphsep",
        description=(
            "Multipartite graph density matrices: matrix dumps, layer-swap"
            " symmetry checks, certified separable decompositions, and"
            " corpus generation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="print a matrix of the graph")
    p_build.add_argument("graph", help="graph file")
    p_build.add_argument(
        "--matrix",
        choices=["A", "D", "L", "Q", "rho_l", "rho_q"],
        default="A",
        help="which matrix to print",
    )
    p_build.set_defaults(handler=cmd_build)

    p_check = sub.add_parser("check", help="evaluate a graph property")
    p_check.add_argument("graph", help="graph file")
    p_check.add_argument(
        "what",
        choices=["gtpt-identity", "degree-sym", "partial-sym", "theorem-conditions"],
        help="property to check",
    )
    p_check.add_argument("--axis", type=int, default=1, help="subsystem axis (default 1)")
    p_check.add_argument(
        "--format", choices=["human", "kv"], default="human", help="output style"
    )
    p_check.set_defaults(handler=cmd_check)

    p_dec = sub.add_parser(
        "decompose", help="write a certified separable decomposition"
    )
    p_dec.add_argument("graph", help="graph file")
    p_dec.add_argument("out", help="output decomposition file")
    p_dec.add_argument(
        "--tol", type=_tolerance, default=1e-8, help="relative reassembly tolerance"
    )
    p_dec.set_defaults(handler=cmd_decompose)

    p_ver = sub.add_parser("verify", help="re-check a stored decomposition")
    p_ver.add_argument("graph", help="graph file")
    p_ver.add_argument("dec", help="decomposition file")
    p_ver.add_argument(
        "--tol", type=_tolerance, default=1e-8, help="relative reassembly tolerance"
    )
    p_ver.set_defaults(handler=cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a corpus graph")
    p_gen.add_argument(
        "family",
        choices=["psym", "theorem", "dsym"],
        help="swap-closed, fully conforming, or degree-symmetric-only",
    )
    p_gen.add_argument("--dims", required=True, help="comma-separated dimensions")
    p_gen.add_argument("--seed", type=int, default=0, help="generator seed")
    p_gen.add_argument(
        "--budget", type=_budget, default=8, help="edge draws for the psym family"
    )
    p_gen.add_argument("-o", "--out", help="output file (default stdout)")
    p_gen.set_defaults(handler=cmd_gen)
    parser.commands = sub.choices  # command name -> its parser
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    try:
        if command is None:  # help, or a missing or unknown command
            args = parser.parse_args(argv)
        else:
            # What the full parser does with a known command: its own parser
            # reads the rest, and leftovers are refused at the top level.
            args, extras = command.parse_known_args(
                argv[1:], argparse.Namespace(command=argv[0])
            )
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (GraphFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except ValueError as exc:  # a PreconditionError among them
        print(f"precondition unmet: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
