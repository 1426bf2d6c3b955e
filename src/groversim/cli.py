"""Command-line front end.

Subcommands: `grover run`, `grover scan`, `classical`, and
`circuit verify|run|invert`. Exit codes: 0 success, 2 usage or validation
error, 3 resource cap exceeded. The GROVERSIM_MAX_QUBITS environment
variable overrides the default qubit cap. Identical flags and seed always
produce byte-identical stdout.
"""
from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Iterator, Sequence, TextIO

from .documents import parse_circuit_document, render_circuit_document
from .grover import (
    GroverConfig,
    Oracle,
    classical_baseline,
    run_grover,
    scan_probabilities,
    success_probability,
)
from .reversible import (
    ReversibleCircuit,
    circuit_to_permutation,
    inverse_circuit,
    run_circuit,
)
# Unused here, but bench/spans.py patches these under these names.
from .documents import render_trace_document  # noqa: F401
from .reversible import check_bijection, index_to_bits  # noqa: F401
from .state import DEFAULT_MAX_QUBITS, ResourceLimitError, _is_permutation, _require_qubits


def _qubit_cap() -> int:
    raw = os.environ.get("GROVERSIM_MAX_QUBITS")
    if raw is None:
        return DEFAULT_MAX_QUBITS
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"GROVERSIM_MAX_QUBITS must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"GROVERSIM_MAX_QUBITS must be >= 1, got {cap}")
    return cap


def _marked_arg(text: str) -> frozenset[int]:
    try:
        return frozenset(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _iterations_arg(text: str):
    if text == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'auto', got {text!r}") from None


def _parse_bitstring(text: str) -> list[int]:
    if not text or any(ch not in "01" for ch in text):
        raise ValueError(f"input must be a non-empty string of 0s and 1s, got {text!r}")
    return [int(ch) for ch in text]


def _load_circuit(path: str) -> ReversibleCircuit:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ValueError(f"cannot read circuit document {path!r}: {reason}") from None
    return parse_circuit_document(text)


@contextmanager
def _output_file(path: str, kind: str) -> Iterator[TextIO]:
    """A new file beside path that replaces path when the block ends. If
    anything fails first, the file is removed and path is left as it was;
    an OSError becomes a ValueError naming the document. An empty path or
    a directory at path is refused before the file is made."""
    tmp = f"{path}.{os.getpid()}.tmp"
    made = False
    try:
        if not path:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        with open(tmp, "x", encoding="utf-8") as out:
            made = True
            yield out
        os.replace(tmp, path)
    except OSError as exc:
        raise ValueError(f"cannot write {kind} document {path!r}: {exc.strerror or exc}") from None
    finally:
        if made and os.path.lexists(tmp):
            os.remove(tmp)


def _search_config(args: argparse.Namespace, **options) -> GroverConfig:
    """The capped config of `grover run` and `grover scan`; options go to
    GroverConfig, which checks them."""
    cap = _qubit_cap()
    # Over the cap is exit 3, however large; Oracle refuses n > 62 with exit 2.
    _require_qubits(args.qubits, cap)
    oracle = Oracle(args.qubits, marked=args.marked)
    return GroverConfig(args.qubits, oracle, max_qubits=cap, **options)


def cmd_grover_run(args: argparse.Namespace) -> int:
    config = _search_config(args, iterations=args.iterations, seed=args.seed)
    # The run writes into a trace file opened before it, so an unwritable path
    # costs no work, and the report is printed once the file has PATH's name.
    with _output_file(args.trace, "trace") if args.trace is not None else nullcontext() as out:
        trace = run_grover(config, out)
    if trace.degenerate:
        print(
            "note: at least half the space is marked; the auto iteration count is degenerate",
            file=sys.stderr,
        )
    report = {
        "iterations": trace.iterations,
        "outcome": trace.outcome,
        "success_probability": success_probability(trace.final_state, config.oracle),
        "oracle_evals": trace.oracle_evals,
    }
    if args.format == "json":
        print(json.dumps(report, separators=(",", ":")))
    else:
        print("\n".join(f"{key}: {value!r}" for key, value in report.items()))
    return 0


def cmd_grover_scan(args: argparse.Namespace) -> int:
    series = scan_probabilities(_search_config(args), args.max_iterations)
    print("t,success_probability", *(f"{t},{p:.15g}" for t, p in series), sep="\n")
    return 0


def cmd_classical(args: argparse.Namespace) -> int:
    result = classical_baseline(
        args.size, args.marked, args.iterations, args.trials, args.seed, _qubit_cap()
    )
    print(f"empirical: {result.empirical!r}")
    print(f"analytic: {result.analytic!r}")
    return 0


def cmd_circuit_verify(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.path)
    perm = circuit_to_permutation(circuit, _qubit_cap())
    verdict = "true" if _is_permutation(perm) else "false"
    print(f"reversible: {verdict}")
    return 0


def cmd_circuit_run(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.path)
    bits = _parse_bitstring(args.input)
    out = run_circuit(circuit, bits)
    print("".join(str(b) for b in out))
    return 0


def cmd_circuit_invert(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.path)
    text = render_circuit_document(inverse_circuit(circuit))
    if args.output is not None:
        with _output_file(args.output, "circuit") as out:
            out.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groversim",
        description="State-vector search simulator and reversible-circuit tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    grover = sub.add_parser("grover", help="quantum search commands")
    gsub = grover.add_subparsers(dest="grover_command", required=True)

    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--qubits", type=int, required=True, metavar="N",
                        help="register width; the search space has 2**N states")
    search.add_argument("--marked", type=_marked_arg, required=True, metavar="R[,R...]",
                        help="comma-separated marked basis indices")

    run_p = gsub.add_parser("run", parents=[search], help="run the search once and measure")
    run_p.add_argument("--iterations", type=_iterations_arg, default="auto", metavar="T",
                       help="iteration count or 'auto' for the optimum (default: auto)")
    run_p.add_argument("--seed", type=int, default=0, metavar="S",
                       help="measurement seed (default: 0)")
    run_p.add_argument("--trace", metavar="PATH",
                       help="also write a step-by-step trace document to PATH")
    run_p.add_argument("--format", choices=("text", "json"), default="text",
                       help="stdout format (default: text)")
    run_p.set_defaults(handler=cmd_grover_run)

    scan_p = gsub.add_parser("scan", parents=[search],
                             help="tabulate success probability against iteration count")
    scan_p.add_argument("--max-iterations", type=int, required=True, metavar="T",
                        help="scan t = 0..T (T >= 1)")
    scan_p.add_argument("--format", choices=("csv",), default="csv",
                        help="output format (default: csv)")
    scan_p.set_defaults(handler=cmd_grover_scan)

    classical_p = sub.add_parser("classical", help="random-guess baseline for the same search")
    classical_p.add_argument("--size", type=int, required=True, metavar="N",
                             help="number of states searched")
    classical_p.add_argument("--marked", type=_marked_arg, default=frozenset({0}), metavar="R[,R...]",
                             help="comma-separated marked indices (default: 0)")
    classical_p.add_argument("--iterations", type=int, required=True, metavar="K",
                             help="uniform draws per trial")
    classical_p.add_argument("--trials", type=int, default=100000, metavar="M",
                             help="Monte Carlo trials (default: 100000)")
    classical_p.add_argument("--seed", type=int, default=0, metavar="S",
                             help="sampling seed (default: 0)")
    classical_p.set_defaults(handler=cmd_classical)

    circuit = sub.add_parser("circuit", help="reversible-circuit tools")
    csub = circuit.add_subparsers(dest="circuit_command", required=True)

    verify_p = csub.add_parser("verify", help="exhaustively check a circuit document for reversibility")
    verify_p.add_argument("path", help="circuit document (JSON)")
    verify_p.set_defaults(handler=cmd_circuit_verify)

    crun_p = csub.add_parser("run", help="run a circuit document on a classical input")
    crun_p.add_argument("path", help="circuit document (JSON)")
    crun_p.add_argument("--input", required=True, metavar="BITS",
                        help="bit string; the leftmost character is wire 0")
    crun_p.set_defaults(handler=cmd_circuit_run)

    invert_p = csub.add_parser("invert", help="emit the inverse circuit document")
    invert_p.add_argument("path", help="circuit document (JSON)")
    invert_p.add_argument("--output", metavar="PATH",
                          help="write here instead of stdout")
    invert_p.set_defaults(handler=cmd_circuit_invert)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() reuses, built on its first call. It holds only
    flag declarations and handlers; the cap, the library functions and the
    help width are all looked up per call."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
