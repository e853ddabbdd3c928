"""Command line front end.

Subcommands: verify, norm, matel, extremal, export, rpa.  Every command
emits a single JSON document (JSONL for export) with exact rationals as
"num/den" strings; --pretty switches to a human-readable rendering.  Output
is byte-identical across runs and across --jobs settings.  Exit codes:
0 success, 1 verification sweep recorded failures, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import contextmanager, nullcontext
from fractions import Fraction

import numpy as np

from .algebra import AlgebraKind, bargmann_inner, check_heisenberg, format_poly
from .contraction import SparseRepMatrix, _rep_matrices, default_generators, \
    verify_contraction
from .determinants import CAPELLI_SIDES, verify_capelli
from .extremal import (ExtremalLabel, extremal_poly, matel_bruteforce,
                       matel_extremal, matel_shifted_weight,
                       matel_step_variable, norm_closed_form)
from .rpa import B_CONVENTIONS, FockCutoffError, QuadraticBosonHamiltonian, \
    RpaError, fock_oracle, solve_rpa

JOBS_ENV = "CAPELLI_JOBS"


def _default_jobs() -> int:
    try:
        return max(1, int(os.environ.get(JOBS_ENV, "1")))
    except ValueError:
        return 1


def _kind_from_args(args: argparse.Namespace) -> AlgebraKind:
    if args.type == "I":
        if args.N is not None:
            if args.p is not None or args.q is not None:
                raise ValueError("kind I takes --p and --q or square --N, "
                                 "not both")
            return AlgebraKind.type_i(args.N, args.N)
        if args.p is None or args.q is None:
            raise ValueError("kind I needs --p and --q (or square --N)")
        return AlgebraKind.type_i(args.p, args.q)
    if args.N is None:
        raise ValueError(f"kind {args.type} needs --N")
    if args.p is not None or args.q is not None:
        raise ValueError(f"kind {args.type} takes --N, not --p/--q")
    ctor = AlgebraKind.type_ii if args.type == "II" else AlgebraKind.type_iii
    return ctor(args.N)


def _quote(text: str) -> str:
    """text by its first 40 characters, so a refused huge number is not echoed."""
    return repr(text[:40]) + ("..." if len(text) > 40 else "")


def _argument_type(convert, message: str):
    """An argparse type: convert(text), or an error that quotes text short."""
    def parse(text: str):
        try:
            return convert(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(message.format(_quote(text))) from None
    return parse


# CPython's default int-string digit limit, which already refuses an input
# integer of more digits; the same bound caps a decimal exponent.
_MAX_DIGITS = 4300


def _rational(text: str) -> Fraction:
    """Fraction(text), but first refuse a decimal exponent above _MAX_DIGITS:
    Fraction expands 1e<N> in full, in time that grows faster than N."""
    _, e, exponent = text.lower().partition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if e and digits.isdigit() and (len(digits) > len(str(_MAX_DIGITS))
                                   or int(digits) > _MAX_DIGITS):
        raise argparse.ArgumentTypeError(
            f"exponent above {_MAX_DIGITS}: {_quote(text)}")
    return Fraction(text)


_parse_nu = _argument_type(
    lambda text: tuple(int(part) for part in text.split(",") if part.strip() != ""),
    "must be comma-separated integers, got {}")
_parse_rational = _argument_type(_rational, "not a rational number: {}")
_parse_int = _argument_type(int, "invalid int value: {}")


@contextmanager
def _any_size_ints():
    """Lift CPython's int-to-string digit limit meanwhile: main parses its
    arguments under the limit, then writes exact results of any size."""
    saved = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    set_limit(0)
    try:
        yield
    finally:
        set_limit(saved)


def _dumps(doc) -> str:
    # Every document is a fresh tree of dicts, lists, strings and numbers
    # built for this call, so it holds no cycle and the check is skipped.
    return json.dumps(doc, separators=(",", ":"), check_circular=False)


# Each _cmd_* returns (exit code, JSON document, --pretty lines) and reports
# a usage error by raising ValueError before it returns; main resolves
# args.kind for the commands that take --type, and renders and writes the
# result.  export's document is an iterator of JSON documents, so main
# renders and writes each matrix before the next is built.

# ---- verify ----

# The verify options that only one identity takes.
_IDENTITY_OPTIONS = {"n": "capelli", "variant": "capelli", "k": "contraction"}


def _cmd_verify(args: argparse.Namespace) -> tuple:
    kind = args.kind
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    for option, identity in _IDENTITY_OPTIONS.items():
        if getattr(args, option) is not None and args.identity != identity:
            raise ValueError(f"--{option} only applies to the {identity} identity")
    if args.identity == "capelli":
        if args.n is None:
            raise ValueError("--n is required for the capelli identity")
        if args.n > kind.det_bound:
            raise ValueError(f"--n {args.n} exceeds the minor range "
                             f"{kind.det_bound} of {kind.label}")
        sides = CAPELLI_SIDES if args.variant in (None, "both") else [args.variant]
        reports = [verify_capelli(kind, args.n, side, args.dmax, jobs=args.jobs)
                   for side in sides]
    elif args.identity == "heisenberg":
        reports = [check_heisenberg(kind, args.dmax, jobs=args.jobs)]
    else:
        k = 1 if args.k is None else args.k
        reports = [verify_contraction(kind, args.dmax, k, jobs=args.jobs)]
    lines = []
    for r in reports:
        detail = " ".join(f"{key}={val}" for key, val in r.params.items())
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.identity} {r.kind} {detail}: "
                     f"checked={r.checked_count} failures={len(r.failures)} {status}")
    code = 0 if all(r.passed for r in reports) else 1
    return code, {"reports": [r.to_json() for r in reports]}, lines


# ---- norm ----

def _add_oracle(doc: dict, lines: list, key: str, oracle, expected) -> None:
    """Record an oracle under key, whether it matches, and its --pretty line."""
    doc[key] = str(oracle)
    doc["match"] = oracle == expected
    lines.append(f"{key.replace('_', ' ')} {doc[key]} "
                 f"({'match' if doc['match'] else 'MISMATCH'})")


def _cmd_norm(args: argparse.Namespace) -> tuple:
    kind = args.kind
    label = ExtremalLabel(kind, args.nu)
    # the state first, so an exponent overflow is refused naming the exponent
    # limit, not the closed form's weight limit (test_input_errors pins this)
    psi = extremal_poly(label) if args.oracle else None
    value = norm_closed_form(label)
    doc = {"kind": kind.label, "nu": list(args.nu), "value": str(value)}
    lines = [str(value)]
    if args.oracle:
        _add_oracle(doc, lines, "oracle", bargmann_inner(psi, psi), value)
    return 0, doc, lines


# ---- matel ----

def _pretty_radical(coeff: Fraction, radicand: Fraction) -> str:
    if radicand == 1 or not coeff:
        return str(coeff)
    return f"{coeff}*sqrt({radicand})"


def _cmd_matel(args: argparse.Namespace) -> tuple:
    kind = args.kind
    value = matel_extremal(kind, args.nu, args.k)
    doc = {"kind": kind.label, "nu": list(args.nu), "k": args.k}
    doc.update(value.to_json())
    lines = [_pretty_radical(value.coeff, value.radicand)]
    if args.oracle:
        shifted = matel_shifted_weight(kind, args.nu, args.k)
        if shifted is None:
            oracle_sq = Fraction(0)
        else:
            ket = extremal_poly(ExtremalLabel(kind, args.nu))
            bra = extremal_poly(ExtremalLabel(kind, shifted))
            a, b = matel_step_variable(kind, args.k)
            amp = matel_bruteforce(bra, ("z", a, b), ket)
            oracle_sq = amp * amp / (bargmann_inner(bra, bra)
                                     * bargmann_inner(ket, ket))
        _add_oracle(doc, lines, "oracle_squared", oracle_sq, value.squared())
    return 0, doc, lines


# ---- extremal ----

def _cmd_extremal(args: argparse.Namespace) -> tuple:
    kind = args.kind
    text = format_poly(extremal_poly(ExtremalLabel(kind, args.nu)))
    return 0, {"kind": kind.label, "nu": list(args.nu), "polynomial": text}, [text]


# ---- export ----

def _cmd_export(args: argparse.Namespace) -> tuple:
    kind = args.kind
    gens = default_generators(kind, args.k)
    # _rep_matrices refuses a bad --dmax here; main then builds and renders
    # one matrix at a time
    matrices = _rep_matrices(kind, gens, args.dmax)
    return 0, map(SparseRepMatrix.to_json, matrices), None


# ---- rpa ----

def _matrix_json(arr) -> list | None:
    if arr is None:
        return None
    a = np.asarray(arr)
    if np.iscomplexobj(a):
        if a.size and np.max(np.abs(a.imag)) < 1e-12:
            a = a.real
        else:
            return [[[float(x.real), float(x.imag)] for x in row] for row in a]
    return a.tolist()


def _matrix_from_json(rows) -> np.ndarray:
    """A matrix of numbers or of [re, im] pairs, as _matrix_json writes it."""
    a = np.array(rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1] if a.ndim == 3 and a.shape[2] == 2 else a


def _cmd_rpa(args: argparse.Namespace) -> tuple:
    try:
        with open(args.input, encoding="utf-8") as fh:
            data = json.load(fh)
        H = QuadraticBosonHamiltonian(float(data["E0"]),
                                      _matrix_from_json(data["V"]),
                                      _matrix_from_json(data["W"]))
        sol = solve_rpa(H, b_convention=args.b_convention)
    except (OSError, KeyError, TypeError, ValueError, OverflowError,
            RpaError) as exc:
        raise ValueError(f"bad --input: {exc}") from None
    doc = {
        "arithmetic": "float64",
        "stable": sol.stable,
        "frequencies": [float(w) for w in sol.frequencies],
        "delta_E": sol.delta_E,
        "X": _matrix_json(sol.X),
        "Y": _matrix_json(sol.Y),
        "raw_eigenvalues": [[float(w.real), float(w.imag)]
                            for w in sol.raw_eigenvalues],
    }
    lines = [f"stable: {sol.stable}"]
    if sol.stable:
        lines.append("frequencies: "
                     + " ".join(f"{w:.12g}" for w in sol.frequencies))
        lines.append(f"delta_E: {sol.delta_E:.12g}")
    else:
        lines.append("raw eigenvalues: "
                     + " ".join(f"{w:.6g}" for w in sol.raw_eigenvalues))
    if args.fock_check is not None:
        try:
            evs = fock_oracle(H, args.fock_check, b_convention=args.b_convention)
        except FockCutoffError as exc:
            raise ValueError(f"--fock-check {args.fock_check}: {exc}; "
                             "raise NMAX") from None
        except (ValueError, RpaError) as exc:
            raise ValueError(f"--fock-check {args.fock_check}: {exc}") from None
        gaps = [float(e - evs[0]) for e in evs[1:]]
        deviation = max(min(abs(g - w) for g in gaps) for w in sol.frequencies)
        doc["fock_gaps"] = gaps[:4 * H.modes]
        doc["fock_max_deviation"] = deviation
        lines.append(f"fock max deviation: {deviation:.3e}")
    return 0, doc, lines


# ---- wiring ----

def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


def _build_parsers() -> tuple:
    """The capelli parser and its verify subparser."""
    parser = argparse.ArgumentParser(
        prog="capelli",
        description="Exact operator-identity verification, extremal-state "
                    "closed forms, contracted representation export, and a "
                    "small RPA solver.")
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", default="-")
    pretty = argparse.ArgumentParser(add_help=False)
    pretty.add_argument("--pretty", action="store_true")
    kind = argparse.ArgumentParser(add_help=False)
    kind.add_argument("--type", required=True, choices=["I", "II", "III"],
                      help="algebra kind")
    kind.add_argument("--p", type=_parse_int, help="row count (kind I)")
    kind.add_argument("--q", type=_parse_int, help="column count (kind I)")
    kind.add_argument("--N", type=_parse_int,
                      help="matrix size (square; sets p=q for kind I)")
    nu = argparse.ArgumentParser(add_help=False)
    nu.add_argument("--nu", type=_parse_nu, required=True,
                    help="weight, comma separated")

    def command(name: str, func, summary: str,
                *parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[output, *parents], help=summary)
        p.set_defaults(func=func, parser=p)
        return p

    p = command("verify", _cmd_verify, "sweep an operator identity", pretty, kind)
    p.add_argument("--identity", choices=["capelli", "heisenberg", "contraction"],
                   default="capelli")
    p.add_argument("--n", type=_parse_int, help="minor size (capelli)")
    p.add_argument("--variant", choices=[*CAPELLI_SIDES, "both"],
                   help="capelli variant (default both)")
    p.add_argument("--dmax", type=_parse_int, required=True, help="monomial degree bound")
    p.add_argument("--k", type=_parse_rational,
                   help="contraction constant, rational (default 1)")
    p.add_argument("--jobs", type=_parse_int, default=_default_jobs(),
                   help=f"worker processes (default ${JOBS_ENV} or 1)")

    p = command("norm", _cmd_norm, "closed-form extremal self-pairing",
                pretty, kind, nu)
    p.add_argument("--oracle", action="store_true",
                   help="also compute the brute-force pairing and compare")

    p = command("matel", _cmd_matel, "closed-form raising matrix element",
                pretty, kind, nu)
    p.add_argument("--k", type=_parse_int, required=True, help="raising position")
    p.add_argument("--oracle", action="store_true",
                   help="also compute the brute-force squared ratio and compare")

    command("extremal", _cmd_extremal, "print an extremal state polynomial",
            pretty, kind, nu)

    p = command("export", _cmd_export, "write generator matrices as JSONL", kind)
    p.add_argument("--dmax", type=_parse_int, required=True, help="basis degree bound")
    p.add_argument("--k", type=_parse_rational, default=Fraction(1),
                   help="contraction constant, rational (default 1)")

    p = command("rpa", _cmd_rpa, "solve a quadratic boson Hamiltonian", pretty)
    p.add_argument("--input", required=True,
                   help="JSON file with fields E0, V, W")
    p.add_argument("--b-convention", choices=B_CONVENTIONS, default="sum",
                   help='two-boson convention: B = W + W^T ("sum") or B = W')
    p.add_argument("--fock-check", type=_parse_int, metavar="NMAX",
                   help="cross-check frequencies against the Fock oracle")
    return parser, sub.choices["verify"]


# main builds its parser once per process, binding each subcommand's _cmd_*
# at the first call, and reads $CAPELLI_JOBS again on every call.
_parsers = functools.cache(_build_parsers)


def main(argv=None) -> int:
    parser, verify = _parsers()
    verify.set_defaults(jobs=_default_jobs())
    args = parser.parse_args(argv)
    with _any_size_ints():
        try:
            if hasattr(args, "type"):
                args.kind = _kind_from_args(args)
            code, doc, lines = args.func(args)
        except ValueError as exc:
            # Library calls validate their inputs by raising ValueError; each
            # is a usage error of the subcommand that made the call.
            args.parser.error(str(exc))
        if getattr(args, "pretty", False):
            texts = lines
        elif isinstance(doc, dict):
            texts = [_dumps(doc)]
        else:  # export: each matrix is built and rendered as its line is written
            texts = map(_dumps, doc)
        try:
            with (nullcontext(sys.stdout) if args.output == "-"
                  else open(args.output, "w", encoding="utf-8")) as out:
                for text in texts:
                    out.write(text)
                    out.write("\n")
        except OSError as exc:
            args.parser.error(f"cannot write --output {args.output}: {exc}")
    return code


if __name__ == "__main__":
    sys.exit(main())
