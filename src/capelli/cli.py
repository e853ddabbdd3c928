"""Command line front end.

Subcommands: verify, norm, matel, extremal, export, rpa.  Every command
emits a single JSON document (JSONL for export) with exact rationals as
"num/den" strings; --pretty switches to a human-readable rendering.  Output
is byte-identical across runs and across --jobs settings.  Exit codes:
0 success, 1 verification sweep recorded failures, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import numpy as np

from .algebra import AlgebraKind, bargmann_inner, check_heisenberg, format_poly
from .contraction import build_rep_matrices, default_generators, verify_contraction
from .determinants import verify_capelli
from .extremal import (ExtremalLabel, extremal_poly, matel_bruteforce,
                       matel_extremal, matel_shifted_weight,
                       matel_step_variable, norm_closed_form)
from .rpa import FockCutoffError, QuadraticBosonHamiltonian, fock_oracle, \
    solve_rpa

JOBS_ENV = "CAPELLI_JOBS"


def _default_jobs() -> int:
    try:
        return max(1, int(os.environ.get(JOBS_ENV, "1")))
    except ValueError:
        return 1


def _add_kind_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--type", required=True, choices=["I", "II", "III"],
                   help="algebra kind")
    p.add_argument("--p", type=int, help="row count (kind I)")
    p.add_argument("--q", type=int, help="column count (kind I)")
    p.add_argument("--N", type=int, help="matrix size (square; sets p=q for kind I)")


def _kind_from_args(parser: argparse.ArgumentParser,
                    args: argparse.Namespace) -> AlgebraKind:
    if args.type == "I":
        if args.N is not None and args.p is None and args.q is None:
            return AlgebraKind.type_i(args.N, args.N)
        if args.p is None or args.q is None:
            parser.error("kind I needs --p and --q (or square --N)")
        return AlgebraKind.type_i(args.p, args.q)
    if args.N is None:
        parser.error(f"kind {args.type} needs --N")
    if args.p is not None or args.q is not None:
        parser.error(f"kind {args.type} takes --N, not --p/--q")
    ctor = AlgebraKind.type_ii if args.type == "II" else AlgebraKind.type_iii
    return ctor(args.N)


def _parse_nu(parser: argparse.ArgumentParser, text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        parser.error(f"--nu must be comma-separated integers, got {text!r}")


def _parse_rational(parser: argparse.ArgumentParser, text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        parser.error(f"not a rational number: {text!r}")


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _dumps(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


# ---- verify ----

def _cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    kind = _kind_from_args(parser, args)
    if args.identity == "capelli":
        if args.n is None:
            parser.error("--n is required for the capelli identity")
        if args.n > kind.det_bound:
            parser.error(f"--n {args.n} exceeds the minor range "
                         f"{kind.det_bound} of {kind.label}")
        sides = ["XD", "DX"] if args.variant in (None, "both") else [args.variant]
        reports = [verify_capelli(kind, args.n, side, args.dmax, jobs=args.jobs)
                   for side in sides]
    else:
        if args.n is not None:
            parser.error("--n only applies to the capelli identity")
        if args.variant is not None:
            parser.error("--variant only applies to the capelli identity")
        if args.identity == "heisenberg":
            if args.k is not None:
                parser.error("--k only applies to the contraction identity")
            reports = [check_heisenberg(kind, args.dmax, jobs=args.jobs)]
        else:
            k = _parse_rational(parser, args.k) if args.k is not None else Fraction(1)
            reports = [verify_contraction(kind, args.dmax, k, jobs=args.jobs)]
    if args.pretty:
        lines = []
        for r in reports:
            detail = " ".join(f"{key}={val}" for key, val in r.params.items())
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"{r.identity} {r.kind} {detail}: "
                         f"checked={r.checked_count} failures={len(r.failures)} {status}")
        _emit(args, "\n".join(lines))
    else:
        _emit(args, _dumps({"reports": [r.to_json() for r in reports]}))
    return 0 if all(r.passed for r in reports) else 1


# ---- norm ----

def _cmd_norm(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    kind = _kind_from_args(parser, args)
    nu = _parse_nu(parser, args.nu)
    label = ExtremalLabel(kind, nu)
    value = norm_closed_form(label)
    doc = {"kind": kind.label, "nu": list(nu), "value": str(value)}
    if args.oracle:
        psi = extremal_poly(label)
        oracle = bargmann_inner(psi, psi)
        doc["oracle"] = str(oracle)
        doc["match"] = oracle == value
    if args.pretty:
        lines = [str(value)]
        if args.oracle:
            lines.append(f"oracle {doc['oracle']} "
                         f"({'match' if doc['match'] else 'MISMATCH'})")
        _emit(args, "\n".join(lines))
    else:
        _emit(args, _dumps(doc))
    return 0


# ---- matel ----

def _pretty_radical(coeff: Fraction, radicand: Fraction) -> str:
    if radicand == 1 or not coeff:
        return str(coeff)
    return f"{coeff}*sqrt({radicand})"


def _cmd_matel(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    kind = _kind_from_args(parser, args)
    nu = _parse_nu(parser, args.nu)
    value = matel_extremal(kind, nu, args.k)
    doc = {"kind": kind.label, "nu": list(nu), "k": args.k}
    doc.update(value.to_json())
    if args.oracle:
        shifted = matel_shifted_weight(kind, nu, args.k)
        if shifted is None:
            oracle_sq = Fraction(0)
        else:
            ket = extremal_poly(ExtremalLabel(kind, nu))
            bra = extremal_poly(ExtremalLabel(kind, shifted))
            a, b = matel_step_variable(kind, args.k)
            amp = matel_bruteforce(bra, ("z", a, b), ket)
            oracle_sq = amp * amp / (bargmann_inner(bra, bra)
                                     * bargmann_inner(ket, ket))
        doc["oracle_squared"] = str(oracle_sq)
        doc["match"] = oracle_sq == value.squared()
    if args.pretty:
        lines = [_pretty_radical(value.coeff, value.radicand)]
        if args.oracle:
            lines.append(f"oracle squared {doc['oracle_squared']} "
                         f"({'match' if doc['match'] else 'MISMATCH'})")
        _emit(args, "\n".join(lines))
    else:
        _emit(args, _dumps(doc))
    return 0


# ---- extremal ----

def _cmd_extremal(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    kind = _kind_from_args(parser, args)
    nu = _parse_nu(parser, args.nu)
    text = format_poly(extremal_poly(ExtremalLabel(kind, nu)))
    if args.pretty:
        _emit(args, text)
    else:
        _emit(args, _dumps({"kind": kind.label, "nu": list(nu),
                            "polynomial": text}))
    return 0


# ---- export ----

def _cmd_export(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    kind = _kind_from_args(parser, args)
    k = _parse_rational(parser, args.k) if args.k is not None else Fraction(1)
    mats = build_rep_matrices(kind, default_generators(kind, k), args.dmax)
    lines = "\n".join(_dumps(m.to_json()) for m in mats)
    _emit(args, lines)
    return 0


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


def _cmd_rpa(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    try:
        with open(args.input, encoding="utf-8") as fh:
            data = json.load(fh)
        H = QuadraticBosonHamiltonian(float(data["E0"]),
                                      np.array(data["V"], dtype=float),
                                      np.array(data["W"], dtype=float))
        sol = solve_rpa(H, b_convention=args.b_convention)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        parser.error(f"bad --input: {exc}")
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
    if args.fock_check is not None:
        if not sol.stable:
            parser.error("--fock-check needs a stable Hamiltonian")
        try:
            evs = fock_oracle(H, args.fock_check, b_convention=args.b_convention)
        except FockCutoffError as exc:
            parser.error(f"--fock-check {args.fock_check}: {exc}; "
                         "raise NMAX")
        except ValueError as exc:
            parser.error(f"--fock-check {args.fock_check}: {exc}")
        gaps = [float(e - evs[0]) for e in evs[1:]]
        deviation = max(min(abs(g - w) for g in gaps) for w in sol.frequencies)
        doc["fock_gaps"] = gaps[:4 * H.modes]
        doc["fock_max_deviation"] = deviation
    if args.pretty:
        lines = [f"stable: {sol.stable}"]
        if sol.stable:
            lines.append("frequencies: "
                         + " ".join(f"{w:.12g}" for w in sol.frequencies))
            lines.append(f"delta_E: {sol.delta_E:.12g}")
        else:
            lines.append("raw eigenvalues: "
                         + " ".join(f"{w:.6g}" for w in sol.raw_eigenvalues))
        if "fock_max_deviation" in doc:
            lines.append(f"fock max deviation: {doc['fock_max_deviation']:.3e}")
        _emit(args, "\n".join(lines))
    else:
        _emit(args, _dumps(doc))
    return 0


# ---- wiring ----

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capelli",
        description="Exact operator-identity verification, extremal-state "
                    "closed forms, contracted representation export, and a "
                    "small RPA solver.")
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", default="-")

    def command(name: str, func, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[output], help=summary)
        p.set_defaults(func=func, parser=p)
        return p

    p = command("verify", _cmd_verify, "sweep an operator identity")
    _add_kind_arguments(p)
    p.add_argument("--identity", choices=["capelli", "heisenberg", "contraction"],
                   default="capelli")
    p.add_argument("--n", type=int, help="minor size (capelli)")
    p.add_argument("--variant", choices=["XD", "DX", "both"],
                   help="capelli variant (default both)")
    p.add_argument("--dmax", type=int, required=True, help="monomial degree bound")
    p.add_argument("--k", help="contraction constant, rational (default 1)")
    p.add_argument("--jobs", type=int, default=_default_jobs(),
                   help=f"worker processes (default ${JOBS_ENV} or 1)")
    p.add_argument("--pretty", action="store_true")

    p = command("norm", _cmd_norm, "closed-form extremal self-pairing")
    _add_kind_arguments(p)
    p.add_argument("--nu", required=True, help="weight, comma separated")
    p.add_argument("--oracle", action="store_true",
                   help="also compute the brute-force pairing and compare")
    p.add_argument("--pretty", action="store_true")

    p = command("matel", _cmd_matel, "closed-form raising matrix element")
    _add_kind_arguments(p)
    p.add_argument("--nu", required=True, help="weight, comma separated")
    p.add_argument("--k", type=int, required=True, help="raising position")
    p.add_argument("--oracle", action="store_true",
                   help="also compute the brute-force squared ratio and compare")
    p.add_argument("--pretty", action="store_true")

    p = command("extremal", _cmd_extremal, "print an extremal state polynomial")
    _add_kind_arguments(p)
    p.add_argument("--nu", required=True, help="weight, comma separated")
    p.add_argument("--pretty", action="store_true")

    p = command("export", _cmd_export, "write generator matrices as JSONL")
    _add_kind_arguments(p)
    p.add_argument("--dmax", type=int, required=True, help="basis degree bound")
    p.add_argument("--k", help="contraction constant, rational (default 1)")

    p = command("rpa", _cmd_rpa, "solve a quadratic boson Hamiltonian")
    p.add_argument("--input", required=True,
                   help="JSON file with fields E0, V, W")
    p.add_argument("--b-convention", choices=["sum", "direct"], default="sum",
                   help='two-boson convention: B = W + W^T ("sum") or B = W')
    p.add_argument("--fock-check", type=int, metavar="NMAX",
                   help="cross-check frequencies against the Fock oracle")
    p.add_argument("--pretty", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args.parser, args)
    except ValueError as exc:
        # Library calls validate their inputs by raising ValueError; each is
        # a usage error of the subcommand that made the call.
        args.parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
