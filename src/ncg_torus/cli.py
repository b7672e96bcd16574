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
from json.encoder import encode_basestring_ascii as _quote

from . import zlattice
from .af_tower import build_tower, inverse_limit_coefficients, pairing_along_tower, trace_weights
from .errors import InputError, InstabilityError, InvalidInput, MathCheckError
from .exact_arith import cf_expand, convergents, golden_string, parse_theta

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
    # the exact builtin types a report holds; subclasses of the builtins,
    # numpy scalars, fractions and non-finite floats are not written
    kind = type(obj)
    if kind is float:
        text = "%.17g" % obj
        if "n" in text:  # of the %.17g texts only nan, inf and -inf hold an n
            raise ValueError(f"JSON has no float {text}")
        out.append(text)
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
    elif kind is bool:
        out.append("true" if obj else "false")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _render_items(obj, out: list) -> None:
    for item in obj:
        if type(item) is not float:
            break
    else:  # a flat run of floats, such as an [re, im] pair, in one join
        text = ",".join(["%.17g" % item for item in obj])
        if "n" in text:
            raise ValueError(f"JSON has no float in [{text}]")
        out.append("[" + text + "]")
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


def _matrix_dump(mat) -> list:
    """Row-major [re, im] pairs."""
    return mat.astype(complex, order="C").view(float).reshape(mat.shape + (2,)).tolist()


# --- argument helpers --------------------------------------------------------------

def _theta_text(raw: str) -> str:
    if raw == "golden":
        text = os.environ.get("NCG_TORUS_PRECISION", "60")
        try:
            nd = int(text)
        except ValueError:
            raise InvalidInput(
                f"NCG_TORUS_PRECISION={text!r} is not an integer") from None
        limit = sys.get_int_max_str_digits()  # 0: no limit
        if limit and nd > limit:  # refused before any digit is computed
            raise InvalidInput(f"NCG_TORUS_PRECISION={nd} is past the {limit}-digit int limit")
        return golden_string(nd)  # rejects nd < 1
    return raw


def _clock_rep(raw: str):
    """The clock-shift rep at an exact rational angle n/d, as (n mod d)/d."""
    from . import torus_rep
    value, radius = parse_theta(_theta_text(raw))
    if radius != 0:
        raise InvalidInput(
            f"this command needs an exact rational angle, got {raw!r}")
    return torus_rep.clock_shift(value.numerator % value.denominator, value.denominator)


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


#: the classes each module pairs with, in ``--module``'s order
_CLASSES = {"z0": ("1", "p"), "z0prime": ("1", "p"), "z1": ("U", "V"),
            "z1prime": ("U", "V"), "dirac": ("1", "p")}


def cmd_pair(args) -> dict:
    from . import fredholm, torus_rep
    theta = _theta_text(args.theta)
    parse_theta(theta)  # z0 reads no angle, but junk is rejected everywhere
    module, klass = args.module, args.klass
    classes = _CLASSES[module]
    odd, clock = classes == ("U", "V"), module in ("z0", "z0prime")
    # the clock modules are exact: no truncation to set or recheck
    for option, used, read in (("--power", args.power != 1, odd),
                               ("--N", args.N is not None, not clock),
                               ("--no-stability", args.no_stability, not clock)):
        if used and not read:
            raise InvalidInput(f"module {module} takes no {option}")
    if klass not in classes:
        raise InvalidInput(
            f"module {module} pairs with classes {' and '.join(classes)}")
    N = 16 if args.N is None else args.N
    if odd:
        res = fredholm.odd_pairing(
            fredholm.canonical_odd(torus_rep.truncated_rep(theta, N, module)),
            f"{klass}^{args.power}", stability_check=not args.no_stability)
    elif clock:
        # a clock module is its dimension q; z0 is the one at q = 1, where p is 0
        rep = torus_rep.clock_shift(0, 1) if module == "z0" else _clock_rep(args.theta)
        if (module, klass) == ("z0prime", "p"):
            res = fredholm.even_pairing(fredholm.EvenFredholmModule(rep.q),
                                        torus_rep.rieffel_projection(rep.theta, rep))
        else:  # the identity, of trace q, or p at q = 1: exact, with no defect
            n = rep.q if klass == "1" else 0
            if n > sys.float_info.max:  # the raw trace is a float
                raise InvalidInput(f"the trace of 1 at theta {theta!r} does not fit in a float")
            res = fredholm.PairingResult(n, "trace-formula", rep.q, None, True, {
                "raw_trace": float(n), "idempotency_defect": 0.0, "adjoint_defect": 0.0})
    else:
        res = fredholm.dirac_even_pairing(fredholm.dirac_module(theta, N),
                                          "one" if klass == "1" else "trace-theta",
                                          stability_check=not args.no_stability)
    return {"module": module, "class": klass, "theta": theta,
            "result": res.to_json_obj()}


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
    from . import torus_rep
    theta = _theta_text(args.theta)
    out = {"rep": args.rep, "theta": theta}
    if args.rep == "clock":
        rep = _clock_rep(args.theta)
    elif args.rep == "dirac":
        rep = torus_rep.dirac_data(theta, args.N)
    else:
        rep = torus_rep.truncated_rep(theta, args.N, args.rep)
        out["defective_generator"] = rep.defective_generator
    # refused before any generator is built: the U and V lists and their
    # JSON peak at 500 bytes a matrix entry (ru_maxrss)
    torus_rep._refuse_beyond_memory(512 * rep.dim**2, f"a dump of {rep.dim**2} matrix entries")
    out.update(dim=rep.dim, U=_matrix_dump(rep.U), V=_matrix_dump(rep.V))
    if args.rep != "clock":
        out["N"] = rep.N
    if args.rep == "dirac":
        out["F0_diag"] = _matrix_dump(rep.F0_diag)
    return out


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
                   choices=list(_CLASSES))
    c.add_argument("--class", dest="klass", required=True,
                   help="1, p, U or V depending on the module")
    c.add_argument("--theta", default="golden")
    c.add_argument("--power", type=int, default=1,
                   help="exponent for the U/V classes")
    c.add_argument("--N", type=int,
                   help="truncation radius of z1, z1prime and dirac (default 16)")
    c.add_argument("--no-stability", action="store_true",
                   help="skip the larger-truncation recomputation of z1, z1prime and dirac")

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
