"""Command line front end.

Subcommands: cf (certified expansions), pair (integer pairings), sequence
(exactness of the builtin six-term sequences), tower (refinement towers
with exact trace weights), rep-dump (generator matrices).

Reports are written to stdout as deterministic JSON: keys sorted, floats
rendered with %.17g, no locale or hash-order dependence, so identical
invocations produce byte-identical bytes.  Timing goes to stderr.

Exit codes: 0 success, 2 bad input, 3 unstable numerics, 4 failed
mathematical self-check.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import zlattice
from .af_tower import build_tower, inverse_limit_coefficients, pairing_along_tower, trace_weights
from .errors import InputError, InstabilityError, InvalidInput, MathCheckError
from .exact_arith import cf_expand, convergents, golden_string, parse_theta
from .fredholm import (
    canonical_even,
    canonical_odd,
    dirac_even_pairing,
    dirac_module,
    even_pairing,
    odd_pairing,
)
from .torus_rep import ClockShiftRep, clock_shift, dirac_data, rieffel_projection, truncated_rep

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNSTABLE = 3
EXIT_MATHCHECK = 4


# --- deterministic JSON ----------------------------------------------------------

def render_json(obj) -> str:
    """Recursive writer with sorted keys and fixed float formatting."""
    pieces: list[str] = []
    _render(obj, pieces)
    return "".join(pieces)


def _render(obj, out: list) -> None:
    # exact types first: they are nearly everything a report holds
    kind = type(obj)
    if kind is float:
        out.append("%.17g" % obj)
    elif kind is list or kind is tuple:
        _render_items(obj, out)
    elif kind is dict:
        _render_dict(obj, out)
    elif kind is int:
        out.append(str(obj))
    elif kind is str:
        out.append(_quote(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append("%.17g" % float(obj))
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, Fraction):
        out.append(_quote(str(obj)))
    elif isinstance(obj, (list, tuple)):
        _render_items(obj, out)
    elif isinstance(obj, dict):
        _render_dict(obj, out)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _render_items(obj, out: list) -> None:
    for item in obj:
        if type(item) is not float:
            break
    else:  # a flat run of floats, such as an [re, im] pair, in one join
        out.append("[" + ",".join(["%.17g" % item for item in obj]) + "]")
        return
    out.append("[")
    for i, item in enumerate(obj):
        if i:
            out.append(",")
        _render(item, out)
    out.append("]")


def _render_dict(obj, out: list) -> None:
    out.append("{")
    for i, key in enumerate(sorted(obj)):
        if not isinstance(key, str):
            raise TypeError(f"JSON object keys must be strings, got {key!r}")
        if i:
            out.append(",")
        out.append(_quote(key))
        out.append(":")
        _render(obj[key], out)
    out.append("}")


def _matrix_dump(mat: np.ndarray) -> list:
    """Row-major [re, im] pairs."""
    m = np.asarray(mat, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


# --- argument helpers --------------------------------------------------------------

def _theta_text(raw: str) -> str:
    if raw == "golden":
        text = os.environ.get("NCG_TORUS_PRECISION", "60")
        try:
            nd = int(text)
        except ValueError:
            raise InvalidInput(
                f"NCG_TORUS_PRECISION={text!r} is not an integer") from None
        return golden_string(nd)  # rejects nd < 1
    return raw


def _clock_rep(raw: str) -> ClockShiftRep:
    """The clock-shift rep at an exact rational angle n/d, as (n mod d)/d."""
    value, radius = parse_theta(_theta_text(raw))
    if radius != 0:
        raise InvalidInput(
            f"this command needs an exact rational angle, got {raw!r}")
    return clock_shift(value.numerator % value.denominator, value.denominator)


# --- subcommands --------------------------------------------------------------------

def cmd_cf(args) -> dict:
    theta = _theta_text(args.theta)
    cf = cf_expand(theta, args.depth)
    table = convergents(cf)
    return {
        "theta": theta,
        "expansion": {
            "a0": cf.a0,
            "digits": list(cf.digits),
            "terminated": cf.terminated,
            "display": str(cf),
        },
        "convergents": table.to_json_obj(),
    }


def _pair_even_trivial(klass: str) -> dict:
    mod = canonical_even({"U": np.eye(1), "V": np.eye(1)})
    e = np.eye(1) if klass == "1" else np.zeros((1, 1))
    res = even_pairing(mod, e)
    return res.to_json_obj()


def _pair_even_clock(rep: ClockShiftRep, klass: str) -> dict:
    mod = canonical_even({"U": rep.U, "V": rep.V})
    if klass == "1":
        e = np.eye(rep.q)
    else:
        e = rieffel_projection(rep.theta, rep).matrix
    return even_pairing(mod, e).to_json_obj()


def cmd_pair(args) -> dict:
    theta = _theta_text(args.theta)
    parse_theta(theta)  # z0 reads no angle, but junk is rejected everywhere
    klass = args.klass
    if args.power != 1 and args.module not in ("z1", "z1prime"):
        raise InvalidInput(f"module {args.module} takes no --power")
    if args.module in ("z0", "z0prime"):
        if klass not in ("1", "p"):
            raise InvalidInput(f"module {args.module} pairs with classes 1 and p")
        if args.module == "z0":
            body = _pair_even_trivial(klass)
        else:
            body = _pair_even_clock(_clock_rep(args.theta), klass)
    elif args.module in ("z1", "z1prime"):
        if klass not in ("U", "V"):
            raise InvalidInput(f"module {args.module} pairs with classes U and V")
        mod = canonical_odd(truncated_rep(theta, args.N, args.module))
        body = odd_pairing(mod, f"{klass}^{args.power}",
                           stability_check=not args.no_stability).to_json_obj()
    else:
        if klass not in ("1", "p"):
            raise InvalidInput("module dirac pairs with classes 1 and p")
        mod = dirac_module(theta, args.N)
        token = "one" if klass == "1" else "trace-theta"
        body = dirac_even_pairing(
            mod, token, stability_check=not args.no_stability).to_json_obj()
    return {"module": args.module, "class": klass, "theta": theta,
            "result": body}


def _parse_perturbation(spec: str, seq: zlattice.CyclicSequence):
    name, sep, entries = spec.partition("=")
    if not sep:
        raise InvalidInput(f"perturbation {spec!r} is not name=e1,e2,...")
    current = seq.map_by_name(name).matrix
    rows, cols = len(current), len(current[0]) if current else 0
    try:
        flat = [int(tok) for tok in entries.split(",")]
    except ValueError:
        raise InvalidInput(f"non-integer entry in perturbation {spec!r}") from None
    if len(flat) != rows * cols:
        raise InvalidInput(
            f"map {name} is {rows}x{cols}, got {len(flat)} entries")
    matrix = tuple(tuple(flat[r * cols + c] for c in range(cols))
                   for r in range(rows))
    return name, matrix


def cmd_sequence(args) -> dict:
    if args.which == "khomology":
        seq = zlattice.builtin_khomology_sequence()
    else:
        seq = zlattice.builtin_ktheory_sequence()
    for spec in args.perturb or []:
        name, matrix = _parse_perturbation(spec, seq)
        seq = seq.with_matrix(name, matrix)
    reports = seq.check_all()
    return {
        "which": args.which,
        "perturbations": list(args.perturb or []),
        "maps": seq.to_json_obj(),
        "reports": [r.to_json_obj() for r in reports],
        "exact": all(r.exact for r in reports),
    }


def cmd_tower(args) -> dict:
    theta = _theta_text(args.theta)
    cf = cf_expand(theta, args.depth)
    tower = build_tower(cf, args.depth)
    coeffs = inverse_limit_coefficients(tower)
    weights = trace_weights(tower, args.level, args.horizon)
    out = {
        "theta": theta,
        "tower": tower.to_json_obj(),
        "coefficients": coeffs.to_json_obj(),
        "pairing_identity": pairing_along_tower(tower, tower.identity_class(1),
                                                coeffs),
        "pairing_min_projection": pairing_along_tower(tower, (1, 0), coeffs),
        "trace_weights": weights.to_json_obj(),
    }
    if args.dot:
        try:
            with open(args.dot, "w") as fh:
                fh.write(tower.to_dot())
        except OSError as exc:
            raise InvalidInput(f"cannot write {args.dot!r}: {exc.strerror}") from None
        out["dot_written"] = args.dot
    return out


def cmd_rep_dump(args) -> dict:
    theta = _theta_text(args.theta)
    if args.rep == "clock":
        rep = _clock_rep(args.theta)
        return {"rep": "clock", "dim": rep.dim, "theta": theta,
                "U": _matrix_dump(rep.U), "V": _matrix_dump(rep.V)}
    if args.rep in ("z1", "z1prime"):
        rep = truncated_rep(theta, args.N, args.rep)
        return {"rep": args.rep, "dim": rep.dim, "theta": theta, "N": rep.N,
                "defective_generator": rep.defective_generator,
                "U": _matrix_dump(rep.U), "V": _matrix_dump(rep.V)}
    rep = dirac_data(theta, args.N)
    return {"rep": "dirac", "dim": rep.dim, "theta": theta, "N": rep.N,
            "U": _matrix_dump(rep.U), "V": _matrix_dump(rep.V),
            "F0_diag": _matrix_dump(rep.F0_diag)}


# --- driver -----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ncg-torus",
        description="integer invariants of rotation algebras, numerically")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("cf", help="certified continued fraction expansion")
    c.add_argument("--theta", required=True,
                   help="m/n, a decimal string, or 'golden'")
    c.add_argument("--depth", type=int, default=20)

    c = sub.add_parser("pair", help="pair a module with a K-theory class")
    c.add_argument("--module", required=True,
                   choices=["z0", "z0prime", "z1", "z1prime", "dirac"])
    c.add_argument("--class", dest="klass", required=True,
                   help="1, p, U or V depending on the module")
    c.add_argument("--theta", default="golden")
    c.add_argument("--power", type=int, default=1,
                   help="exponent for the U/V classes")
    c.add_argument("--N", type=int, default=16, help="truncation radius")
    c.add_argument("--no-stability", action="store_true",
                   help="skip the larger-truncation recomputation")

    c = sub.add_parser("sequence", help="exactness reports for builtin sequences")
    c.add_argument("--which", required=True, choices=["khomology", "ktheory"])
    c.add_argument("--perturb", action="append", metavar="NAME=E1,E2,...",
                   help="replace a map by row-major integer entries")

    c = sub.add_parser("tower", help="refinement tower with exact trace weights")
    c.add_argument("--theta", required=True)
    c.add_argument("--depth", type=int, default=20)
    c.add_argument("--level", type=int, default=1)
    c.add_argument("--horizon", type=int, default=None)
    c.add_argument("--dot", help="write a Graphviz rendering to this path")

    c = sub.add_parser("rep-dump", help="generator matrices as [re, im] pairs")
    c.add_argument("--rep", required=True,
                   choices=["clock", "z1", "z1prime", "dirac"])
    c.add_argument("--theta", required=True)
    c.add_argument("--N", type=int, default=4)
    return p


_DISPATCH = {
    "cf": cmd_cf,
    "pair": cmd_pair,
    "sequence": cmd_sequence,
    "tower": cmd_tower,
    "rep-dump": cmd_rep_dump,
}


#: the parser ``main`` reuses; built on the first call, not at import
_parser: argparse.ArgumentParser | None = None


def _join_negative_theta(argv: list) -> list:
    """``--theta -3/7`` as ``--theta=-3/7``: argparse takes a separate
    token that starts with "-" for an option unless it is a plain number."""
    out: list = []
    for tok in argv:
        if out and out[-1] == "--theta" and re.match(r"-[0-9.]", tok):
            out[-1] = "--theta=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(
        _join_negative_theta(sys.argv[1:] if argv is None else argv))
    started = time.perf_counter()
    try:
        report = _DISPATCH[args.command](args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InstabilityError as exc:
        print(f"instability: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except MathCheckError as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return EXIT_MATHCHECK
    finally:
        elapsed = time.perf_counter() - started
        print(f"wall time: {elapsed:.3f} s", file=sys.stderr)
    sys.stdout.write(render_json(report) + "\n")
    if args.command == "sequence" and not report["exact"]:
        print("sequence is not exact", file=sys.stderr)
        return EXIT_MATHCHECK
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
