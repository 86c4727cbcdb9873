"""Command line front end.

Subcommands: show, apply, achieve, check, matrix, sat, enumerate;
``decrement --version`` prints the version and the kernel backend.  Layer
tables print the highest layer first, so the most plausible worlds appear
on the bottom row.  Machine-readable JSON goes to stdout (or --out where
supported).  Exit codes: 0 success, 1 an --expect-pass check failed,
2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import tempfile
from contextlib import contextmanager, suppress
from functools import partial

from decrement import __version__, kernel_backend
from decrement._kernel import weak_order_count
from decrement.checker import (
    ALL_POSTULATES,
    DomainTooLargeError,
    PostulateId,
    conformance_matrix,
    successor_satisfiability,
)
from decrement.logic import MAX_ATOMS, FormulaError, Signature, parse_formula
from decrement.operators import OperatorKind, achieve, iterate
from decrement.preorder import UniverseTooLargeError, enumerate_preorders
from decrement.state import (
    EpistemicState,
    StateFormatError,
    layers_to_bits,
    state_from_doc,
    state_to_doc,
)


class CliError(Exception):
    """Input or usage problem; maps to exit code 2."""


def _load_state(path: str) -> EpistemicState:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read state file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"state file is not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise CliError(f"state file is not UTF-8: {exc}") from None
    try:
        return state_from_doc(doc)
    except StateFormatError as exc:
        raise CliError(f"bad state file: {exc}") from None


def _parse_against(state: EpistemicState, text: str):
    try:
        return parse_formula(text, state.sig)
    except FormulaError as exc:
        raise CliError(f"bad formula: {exc}") from None


def _operator(name: str) -> OperatorKind:
    try:
        return OperatorKind(name)
    except ValueError:
        raise CliError(f"unknown operator {name!r} (choose type1, type2, instant)") from None


def _render_layers(doc_layers: list[list[str]], indent: str = "  ") -> str:
    lines = []
    for i in range(len(doc_layers) - 1, -1, -1):
        lines.append(f"{indent}layer {i} | {' '.join(doc_layers[i])}")
    return "\n".join(lines)


def _print_state(state: EpistemicState, title: str) -> None:
    doc = state_to_doc(state)
    print(f"{title}:")
    print(_render_layers(doc["layers"]))


def _write_out(text: str, out_path: str | None) -> None:
    """Write text to the --out file, or to stdout when there is none."""
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write --out file: {exc}") from None


def _stage_beside(out_path: str) -> str | None:
    """A temporary file beside ``out_path`` for a new path or a regular
    file with one link, with the mode and owner the target has (or, for a
    new path, the mode open() would give it).  Any other target (a device,
    pipe, symlink, hard-linked file, or a file whose directory takes no new
    file) is written through instead: it is opened for appending, which
    truncates nothing, to check that it can be written, and None returned."""
    try:
        st = os.lstat(out_path)
    except FileNotFoundError:
        st = None
    if st is None or (stat.S_ISREG(st.st_mode) and st.st_nlink == 1):
        try:
            fd, staged = tempfile.mkstemp(
                prefix=".", suffix=".tmp", dir=os.path.dirname(os.path.abspath(out_path))
            )
        except PermissionError:
            if st is None:
                raise
        else:
            if st is None:
                umask = os.umask(0)
                os.umask(umask)
                os.fchmod(fd, 0o666 & ~umask)  # mkstemp's mode is 0o600
            else:
                with suppress(OSError):  # only root may give a file away
                    os.fchown(fd, st.st_uid, st.st_gid)
                os.fchmod(fd, stat.S_IMODE(st.st_mode))
            os.close(fd)
            return staged
    with open(out_path, "a", encoding="utf-8"):
        pass
    return None


@contextmanager
def _staged_out(out_path: str | None):
    """The path to write the --out text to: None without --out, else, for
    a new path or a regular file, a temporary file beside ``out_path``
    made before the block runs (see ``_stage_beside``).  It replaces
    ``out_path`` when the block ends and is removed if it raises, so an
    unwritable target is reported before any work or output, and a failed
    run leaves ``out_path`` as it was.  Other targets are checked the same
    way up front and then written through."""
    if not out_path:
        yield None
        return
    try:
        staged = _stage_beside(out_path)
    except OSError as exc:
        raise CliError(f"cannot write --out file: {OSError(exc.errno, exc.strerror, out_path)}") from None
    if staged is None:
        yield out_path
        return
    try:
        yield staged
        os.replace(staged, out_path)
    except BaseException:
        with suppress(OSError):
            os.unlink(staged)
        raise


def _emit_json(doc: dict, out_path: str | None) -> None:
    _write_out(json.dumps(doc, ensure_ascii=False) + "\n", out_path)


def _postulate_list(spec: str) -> list[PostulateId]:
    if spec.strip().lower() == "all":
        return list(ALL_POSTULATES)
    out = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            out.append(PostulateId(token))
        except ValueError:
            raise CliError(f"unknown postulate {token!r}") from None
    if not out:
        raise CliError("empty postulate list")
    return out


# --- subcommands --------------------------------------------------------------

def cmd_show(args) -> int:
    state = _load_state(args.state)
    _print_state(state, "state")
    _emit_json(state_to_doc(state), args.out)
    return 0


def _apply_common(args, do_achieve: bool) -> int:
    state = _load_state(args.state)
    alpha = _parse_against(state, args.formula)
    kind = _operator(args.op)
    doc = {
        "operator": kind.value,
        "formula": args.formula,
        "before": state_to_doc(state),
    }
    _print_state(state, "before")
    if do_achieve:
        result = achieve(state, alpha, kind)
        doc["n"] = result.steps
        doc["after"] = state_to_doc(result.state)
        _print_state(result.state, f"after achieving (n={result.steps})")
    else:
        out = iterate(state, alpha, kind, args.steps)
        doc["steps"] = args.steps
        doc["after"] = state_to_doc(out)
        _print_state(out, f"after {args.steps} step(s) of {kind.value} on {args.formula!r}")
    _emit_json(doc, args.out)
    return 0


def cmd_apply(args) -> int:
    if args.achieve and args.steps is not None:
        raise CliError("--steps and --achieve are mutually exclusive")
    if args.steps is None:
        args.steps = 1
    return _apply_common(args, do_achieve=args.achieve)


def cmd_achieve(args) -> int:
    return _apply_common(args, do_achieve=True)


def _run_matrix(args, kinds: list[OperatorKind]) -> int:
    sig = _signature_for_atoms(args.atoms)
    postulates = _postulate_list(args.postulates)
    try:
        matrix = conformance_matrix(kinds, postulates, sig, workers=args.workers)
    except DomainTooLargeError as exc:
        raise CliError(str(exc)) from None
    _write_out(matrix.to_json(), args.out)
    if args.expect_pass and matrix.failures():
        failed = ", ".join(f"{r.operator}/{r.postulate}" for r in matrix.failures())
        print(f"expect-pass violated: {failed}", file=sys.stderr)
        return 1
    return 0


def _signature_for_atoms(n: int) -> Signature:
    if not 1 <= n <= MAX_ATOMS:
        raise CliError(f"--atoms must be between 1 and {MAX_ATOMS}")
    return Signature(chr(ord("a") + i) for i in range(n))


def cmd_check(args) -> int:
    return _run_matrix(args, [_operator(args.op)])


def cmd_matrix(args) -> int:
    if args.ops.strip().lower() == "all":
        kinds = list(OperatorKind)
    else:
        kinds = [_operator(tok.strip()) for tok in args.ops.split(",") if tok.strip()]
        if not kinds:
            raise CliError("empty operator list")
    return _run_matrix(args, kinds)


def cmd_sat(args) -> int:
    state = _load_state(args.state)
    alpha = _parse_against(state, args.formula)
    constraints = [tok.strip() for tok in args.constraints.split(",") if tok.strip()]
    if not constraints:
        raise CliError("empty constraint list")
    try:
        successors = successor_satisfiability(state, alpha, constraints)
    except ValueError as exc:  # not a DR8..DR15 id, or more than 8 worlds
        raise CliError(str(exc)) from None
    print(f"count: {len(successors)}")
    docs = []
    for i, tpo in enumerate(successors[: args.limit]):
        layers = layers_to_bits(tpo.ranks, state.sig.n_atoms)
        docs.append(layers)
        print(f"successor {i}:")
        print(_render_layers(layers))
    _emit_json({"count": len(successors), "successors": docs}, args.out)
    return 0


def cmd_enumerate(args) -> int:
    sig = _signature_for_atoms(args.atoms)
    try:
        if args.count:
            print(weak_order_count(sig.n_worlds))
            return 0
        stream = enumerate_preorders(sig.n_worlds)
    except UniverseTooLargeError as exc:
        raise CliError(str(exc)) from None
    emitted = 0
    for tpo in stream:
        if args.limit is not None and emitted >= args.limit:
            break
        print(json.dumps(layers_to_bits(tpo.ranks, sig.n_atoms)))
        emitted += 1
    return 0


# --- argument parsing -----------------------------------------------------------

def _count(text: str, low: int = 0) -> int:
    """argparse type for step, output and worker counts of at least ``low``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < low:
        bound = "nonnegative" if low == 0 else f"at least {low}"
        raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
    return value


def _add_check_flags(sub) -> None:
    sub.add_argument("--postulates", default="all", help="comma list of postulate ids, or 'all'")
    sub.add_argument("--atoms", type=int, required=True, help="signature size")
    sub.add_argument(
        "--workers",
        type=partial(_count, low=1),
        default=1,
        help="parallel worker processes (at most one per CPU)",
    )
    sub.add_argument("--expect-pass", action="store_true", help="exit 1 if any cell fails")
    sub.add_argument("--out", help="write JSON to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decrement",
        description="Gradual belief contraction operators and a postulate conformance checker.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"decrement {__version__} (kernel backend: {kernel_backend})",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("show", help="print a state file as a layer table")
    p.add_argument("state")
    p.add_argument("--out", help="write the state JSON to this file")
    p.set_defaults(func=cmd_show)

    p = subs.add_parser("apply", help="apply operator steps to a state")
    p.add_argument("state")
    p.add_argument("--formula", required=True)
    p.add_argument("--op", required=True, help="type1, type2, or instant")
    p.add_argument("--steps", type=_count, default=None, help="number of steps (default 1)")
    p.add_argument("--achieve", action="store_true", help="repeat until the belief drops")
    p.add_argument("--out", help="write the result JSON to this file")
    p.set_defaults(func=cmd_apply)

    p = subs.add_parser("achieve", help="apply steps until the formula is no longer believed")
    p.add_argument("state")
    p.add_argument("--formula", required=True)
    p.add_argument("--op", required=True)
    p.add_argument("--out", help="write the result JSON to this file")
    p.set_defaults(func=cmd_achieve)

    p = subs.add_parser("check", help="check postulates for one operator")
    p.add_argument("--op", required=True)
    _add_check_flags(p)
    p.set_defaults(func=cmd_check)

    p = subs.add_parser("matrix", help="conformance matrix over several operators")
    p.add_argument("--ops", default="all", help="comma list of operators, or 'all'")
    _add_check_flags(p)
    p.set_defaults(func=cmd_matrix)

    p = subs.add_parser("sat", help="enumerate successor orders satisfying DR constraints")
    p.add_argument("state")
    p.add_argument("--formula", required=True)
    p.add_argument("--constraints", required=True, help="comma list from DR8..DR15")
    p.add_argument("--limit", type=_count, default=10, help="successors to print")
    p.add_argument("--out", help="write the result JSON to this file")
    p.set_defaults(func=cmd_sat)

    p = subs.add_parser("enumerate", help="stream every total preorder for a signature size")
    p.add_argument("--atoms", type=int, required=True)
    p.add_argument("--limit", type=_count, default=None)
    p.add_argument("--count", action="store_true", help="print only the number of preorders")
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every command writes its --out through a file staged before it runs
        with _staged_out(getattr(args, "out", None)) as args.out:
            return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
