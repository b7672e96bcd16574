"""The three workloads: seeded inputs, one operation, and its check.

Every workload exposes the same interface to run.py:

* ``Workload(nt, seed)`` builds the inputs from the seed, calling into the
  package ``nt`` only through names in ``ncg_torus.__all__``;
* ``next_round()`` returns the operations of one round (every round of a
  workload repeats the same operations, except that box_pair draws a fresh
  angle for each operation);
* ``run(op)`` performs one operation and returns its output;
* ``check(op, out)`` returns the list of problems found in the output,
  computed apart from the program (see reference.py);
* ``calibration`` names the calibrate.py kernel that is like the
  workload's own work.

All program calls go through attribute lookups on ``nt`` and ``nt.cli`` at
call time, so the traced run sees them.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
from fractions import Fraction

import reference as ref

# --- box_pair -------------------------------------------------------------------

BOX_N = 12
BOX_RECHECK_N = BOX_N + 4

#: Angles on which the box route certifies -1 at N = 12 and N = 16 with room
#: to spare (sigma_min <= 0.8 rank_tol, sigma_next >= 0.5, |eigenvalue - 1/2|
#: >= 1e-3 in both passes), produced by vet_angles.py on the grid
#: 0.3000:0.7000:0.0025.  Nearby angles such as 0.33, 0.40 and 0.60 raise
#: UnstableIndex, and 0.1 and 0.9 certify a wrong 0, so angles cannot be
#: drawn from an interval.  "golden" is the 60-digit golden mean.
BOX_ANGLES = (
    "golden",
    "0.3100", "0.3250", "0.3350", "0.3375", "0.3425", "0.3475", "0.3500", "0.3525",
    "0.3550", "0.3600", "0.3625", "0.3650", "0.3725", "0.3750", "0.3775", "0.3800",
    "0.3825", "0.3850", "0.3950", "0.3975", "0.4050", "0.4075", "0.4125", "0.4150",
    "0.4175", "0.4200", "0.4225", "0.4275", "0.4300", "0.4325", "0.4375", "0.4400",
    "0.4425", "0.4450", "0.4500", "0.4550", "0.4575", "0.4600", "0.4675", "0.4700",
    "0.4750", "0.4775", "0.4800", "0.4850", "0.4875", "0.4900", "0.4925", "0.4950",
    "0.4975", "0.5025", "0.5050", "0.5075", "0.5100", "0.5125", "0.5150", "0.5200",
    "0.5225", "0.5250", "0.5300", "0.5325", "0.5400", "0.5425", "0.5450", "0.5500",
    "0.5550", "0.5575", "0.5600", "0.5625", "0.5675", "0.5700", "0.5725", "0.5775",
    "0.5800", "0.5825", "0.5850", "0.5875", "0.5925", "0.5950", "0.6025", "0.6050",
    "0.6150", "0.6175", "0.6200", "0.6225", "0.6250", "0.6275", "0.6350", "0.6375",
    "0.6400", "0.6450", "0.6475", "0.6500", "0.6525", "0.6575", "0.6625", "0.6650",
    "0.6750", "0.6900",
)


class BoxPair:
    name = "box_pair"
    calibration = "dense"

    def __init__(self, nt, seed: int):
        self.nt = nt
        rng = random.Random(f"box_pair:{seed}")
        pool = [nt.golden_string(60) if a == "golden" else a for a in BOX_ANGLES]
        rng.shuffle(pool)
        self.angles = pool
        self.next_angle = 0

    def next_round(self) -> list:
        # a fresh angle per operation, so the (theta, N) cache of the box
        # route never serves a whole operation (the pool wraps only after
        # len(BOX_ANGLES) operations in one process)
        theta = self.angles[self.next_angle % len(self.angles)]
        self.next_angle += 1
        return [theta]

    def run(self, theta):
        nt = self.nt
        module = nt.dirac_module(theta, BOX_N)
        return nt.dirac_even_pairing(module, "trace-theta")

    def check(self, theta, res) -> list[str]:
        d = res.details
        bad = []
        if res.value != -1:
            bad.append(f"value {res.value}, expected -1")
        if not res.stable or d.get("value_recheck") != res.value:
            bad.append(f"recheck {d.get('value_recheck')} does not confirm {res.value}")
        if d.get("N_recheck") != BOX_RECHECK_N:
            bad.append(f"recheck at N = {d.get('N_recheck')}, expected {BOX_RECHECK_N}")
        smin, snext = d.get("sigma_min"), d.get("sigma_next")
        if smin is None or snext is None or not smin < res.rank_tol < snext:
            bad.append(f"rank_tol {res.rank_tol} does not separate "
                       f"sigma_min {smin} from sigma_next {snext}")
        return bad


# --- light_cli --------------------------------------------------------------------

#: single-entry bumps (first entry + 1) of the builtin sequences' maps; each
#: one breaks exactness somewhere
KHOMOLOGY_BUMPS = ("i0=2,0", "alpha0=1", "d0=1,1", "i1=2,0", "alpha1=1", "d1=1,1")
KTHEORY_BUMPS = ("alpha0=1", "i0=2,0", "delta0=1,1", "alpha1=1", "i1=2,0",
                 "delta1=1,1")


def _decimal_theta(rng: random.Random) -> str:
    return f"0.{rng.randrange(10**9, 10**10)}"


def _check_pair(expected: int, stable_recheck: bool):
    def check(obj) -> list[str]:
        res = obj["result"]
        bad = []
        if res["value"] != expected:
            bad.append(f"value {res['value']}, expected {expected}")
        if not res["stable"]:
            bad.append("not stable")
        if stable_recheck and res["details"].get("value_recheck") != expected:
            bad.append(f"recheck {res['details'].get('value_recheck')}")
        return bad
    return check


def _check_cf(value: Fraction):
    def check(obj) -> list[str]:
        exp = obj["expansion"]
        got = ref.fold(exp["a0"], exp["digits"])
        bad = [] if got == value else [f"digits fold to {got}, not {value}"]
        if not exp["terminated"]:
            bad.append("expansion of a rational did not terminate")
        return bad
    return check


def _check_golden_tower(obj) -> list[str]:
    levels = obj["tower"]["levels"]
    q = ref.convergents(0, [1] * len(levels))
    bad = [f"level {lv['level']} dims {lv['dims']}" for lv in levels
           if lv["dims"] != [q[lv["level"]][1], q[lv["level"] - 1][1]]]
    if len(levels) != 20:
        bad.append(f"default depth gave {len(levels)} levels")
    if (obj["pairing_identity"], obj["pairing_min_projection"]) != (1, 0):
        bad.append("tower pairings are not (1, 0)")
    return bad


def _check_sequence(exact: bool):
    def check(obj) -> list[str]:
        return [] if obj["exact"] is exact else [f"exact is {obj['exact']}"]
    return check


def _close(pair, z: complex) -> bool:
    return abs(complex(*pair) - z) <= 1e-12


def _check_clock_dump(m: int, q: int):
    lam = cmath.exp(2j * math.pi * m / q)

    def check(obj) -> list[str]:
        ok = obj["dim"] == q and all(
            _close(obj["U"][r][c], 1 if r == (c + 1) % q else 0)
            and _close(obj["V"][r][c], lam ** r if r == c else 0)
            for r in range(q) for c in range(q))
        return [] if ok else ["clock matrices differ from the shift and clock"]
    return check


def _check_line_dump(theta: str, N: int, variant: str):
    lam = cmath.exp(2j * math.pi * float(Fraction(theta)))
    dim = 2 * N + 1

    def entry(shift: bool, sign: int, r: int, c: int) -> complex:
        if shift:
            return 1 if r == c + 1 else 0
        return lam ** (sign * (r - N)) if r == c else 0

    def check(obj) -> list[str]:
        u_shift = variant == "z1"
        ok = obj["dim"] == dim and all(
            _close(obj["U"][r][c], entry(u_shift, -1, r, c))
            and _close(obj["V"][r][c], entry(not u_shift, 1, r, c))
            for r in range(dim) for c in range(dim))
        return [] if ok else [f"{variant} matrices differ from shift and diagonal"]
    return check


def _check_box_dump(N: int):
    side = 2 * N + 1
    phase = [1 if m == n == 0 else complex(m, n) / math.hypot(m, n)
             for m in range(-N, N + 1) for n in range(-N, N + 1)]

    def check(obj) -> list[str]:
        ok = (obj["dim"] == side * side and len(obj["U"]) == side * side
              and all(_close(f, z) for f, z in zip(obj["F0_diag"], phase)))
        return [] if ok else ["box dump has the wrong size or phase"]
    return check


class LightCli:
    name = "light_cli"
    calibration = "python"

    def __init__(self, nt, seed: int):
        self.nt = nt  # with nt.cli imported
        rng = random.Random(f"light_cli:{seed}")
        ops = []

        def add(argv, code, check):
            ops.append((len(ops), argv, code, check))

        for N in (8, 12, 16, 20, 24, 28, 32):
            for module, winding in (("z1", "U"), ("z1prime", "V")):
                klass, power = rng.choice("UV"), rng.randint(-3, 3)
                add(["pair", "--module", module, "--class", klass,
                     f"--power={power}", "--N", str(N), "--theta", _decimal_theta(rng)],
                    0, _check_pair(-power if klass == winding else 0, True))
        for q in (7, 13, 19, 25, 31, 40):
            m = rng.choice([m for m in range(1, q) if math.gcd(m, q) == 1])
            for klass, expected in (("p", m), ("1", q)):
                add(["pair", "--module", "z0prime", "--class", klass,
                     "--theta", f"{m}/{q}"], 0, _check_pair(expected, False))
        for klass, expected in (("1", 1), ("p", 0)):
            add(["pair", "--module", "z0", "--class", klass], 0,
                _check_pair(expected, False))
        for N in (3, 5):
            add(["pair", "--module", "dirac", "--class", "1", "--N", str(N),
                 "--theta", _decimal_theta(rng)], 0, _check_pair(0, False))
        for lo in (10, 100, 1000, 5000):
            n = rng.randrange(lo, 2 * lo)
            m = rng.randrange(1, 3 * n)
            add(["cf", "--theta", f"{m}/{n}", "--depth", "40"], 0,
                _check_cf(Fraction(m, n)))
        add(["tower", "--theta", "golden"], 0, _check_golden_tower)
        for which, bumps in (("khomology", KHOMOLOGY_BUMPS),
                             ("ktheory", KTHEORY_BUMPS)):
            add(["sequence", "--which", which], 0, _check_sequence(True))
            add(["sequence", "--which", which, "--perturb", rng.choice(bumps)],
                4, _check_sequence(False))
        q = rng.randrange(3, 7)
        m = rng.choice([m for m in range(1, q) if math.gcd(m, q) == 1])
        add(["rep-dump", "--rep", "clock", "--theta", f"{m}/{q}"], 0,
            _check_clock_dump(m, q))
        variant, theta = rng.choice(("z1", "z1prime")), _decimal_theta(rng)
        add(["rep-dump", "--rep", variant, "--theta", theta, "--N", "3"], 0,
            _check_line_dump(theta, 3, variant))
        add(["rep-dump", "--rep", "dirac", "--theta", _decimal_theta(rng),
             "--N", "2"], 0, _check_box_dump(2))
        rng.shuffle(ops)
        self.ops = ops
        self.verified: dict = {}  # op index -> stdout already checked

    def next_round(self) -> list:
        return self.ops

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.nt.cli.main(op[1])
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
        return code, out.getvalue()

    def check(self, op, result) -> list[str]:
        index, argv, want_code, check = op
        code, stdout = result
        if code != want_code:
            return [f"{' '.join(argv)}: exit {code}, expected {want_code}"]
        if self.verified.get(index) == stdout:
            return []
        bad = [f"{' '.join(argv)}: {b}" for b in check(json.loads(stdout))]
        if not bad:
            self.verified[index] = stdout
        return bad


# --- exact_tower ------------------------------------------------------------------

#: every cf operation expands one decimal of each length, so all of them
#: cost about the same and the median operation does not depend on the seed
CF_LENGTHS = (100, 200, 300)
CF_RANDOM_OPS = 3
TOWER_DEPTHS = (200, 300, 400)
MATRIX_SIZES = (3, 4, 5, 6)


def _random_decimal(rng: random.Random, ndigits: int) -> str:
    return "0." + "".join(rng.choice("0123456789") for _ in range(ndigits))


def _tower_digits(depth: int, rng: random.Random) -> tuple:
    """A seeded order of a fixed multiset of partial quotients.

    The multiset is the certified expansion of a fixed random decimal, so
    its digits follow the Gauss-Kuzmin law of a typical real; fixing it
    keeps the size of q_depth, and with it the cost of a tower, nearly the
    same for every seed.
    """
    fixed = random.Random(f"tower digits:{depth}")
    prefix = ref.certified_prefix(_random_decimal(fixed, depth + 60))
    while len(prefix) <= depth:
        prefix = ref.certified_prefix(_random_decimal(fixed, depth + 60))
    digits = list(prefix[1:depth + 1])
    rng.shuffle(digits)
    return tuple(digits)


def _cf_case(text: str) -> tuple:
    """(text, depth, expected a0, expected digits) for cf_expand."""
    prefix = ref.certified_prefix(text)
    return text, len(prefix) - 1, prefix[0], tuple(prefix[1:])


class ExactTower:
    name = "exact_tower"
    calibration = "python"

    def __init__(self, nt, seed: int):
        self.nt = nt
        rng = random.Random(f"exact_tower:{seed}")
        squares = {k * k for k in range(32)}
        bundles = [[_random_decimal(rng, n) for n in CF_LENGTHS]
                   for _ in range(CF_RANDOM_OPS)]
        bundles.append([ref.golden_decimal(n) for n in CF_LENGTHS])
        bundles.append([ref.sqrt_frac_decimal(
            rng.choice([d for d in range(2, 1000) if d not in squares]), n)
            for n in CF_LENGTHS])
        ops = [("cf", tuple(_cf_case(t) for t in texts)) for texts in bundles]
        for depth in TOWER_DEPTHS:
            digits = _tower_digits(depth, rng)
            ops.append(("tower", nt.CFExpansion(0, digits),
                        ref.convergents(0, digits)))
        for _ in range(2):
            cases = []
            for n in MATRIX_SIZES:
                m = tuple(tuple(rng.randint(-9, 9) for _ in range(n))
                          for _ in range(n))
                gens = tuple(tuple(rng.randint(-9, 9) for _ in range(n))
                             for _ in range(n + 1))
                moved = ref.matmul(ref.unimodular(n + 1, rng), gens)
                cases.append((m, gens, moved, n))
            ops.append(("lattice", tuple(cases)))
        ops.append(("sequences",))
        rng.shuffle(ops)
        self.ops = ops

    def next_round(self) -> list:
        return self.ops

    def run(self, op):
        nt = self.nt
        kind = op[0]
        if kind == "cf":
            return [nt.cf_expand(text, depth) for text, depth, _, _ in op[1]]
        if kind == "tower":
            cf = op[1]
            depth = len(cf.digits)
            table = nt.convergents(cf)
            tower = nt.build_tower(cf, depth)
            coeffs = nt.inverse_limit_coefficients(tower)
            # level-1 classes: the identity (q_1, q_0) = (a_1, 1) and a
            # minimal projection (1, 0)
            unit = nt.pairing_along_tower(tower, (cf.digits[0], 1), coeffs)
            minimal = nt.pairing_along_tower(tower, (1, 0), coeffs)
            weights = nt.trace_weights(tower, 1, depth)
            return table, tower, unit, minimal, weights
        if kind == "lattice":
            return [(nt.smith_normal_form(m),
                     nt.hermite_normal_form(gens, n),
                     nt.hermite_normal_form(moved, n))
                    for m, gens, moved, n in op[1]]
        return (nt.builtin_khomology_sequence().check_all(),
                nt.builtin_ktheory_sequence().check_all())

    def check(self, op, out) -> list[str]:
        kind = op[0]
        if kind == "cf":
            return [f"cf_expand of a {len(text) - 2}-digit decimal differs from "
                    "the common prefix of its endpoint expansions"
                    for (text, _, a0, digits), cf in zip(op[1], out)
                    if (cf.a0, tuple(cf.digits), cf.terminated) != (a0, digits, False)]
        if kind == "tower":
            rows = op[2]
            table, tower, unit, minimal, weights = out
            depth = len(rows) - 1
            bad = []
            if [(p, q) for _, p, q in table.rows] != rows:
                bad.append("convergent table differs from the recursion")
            dims = [(lv.dim_big, lv.dim_small) for lv in tower.levels]
            if dims != [(rows[n][1], rows[n - 1][1]) for n in range(1, depth + 1)]:
                bad.append("tower dimensions are not the convergent denominators")
            if (unit, minimal) != (1, 0):
                bad.append(f"pairings ({unit}, {minimal}), expected (1, 0)")
            if weights.beta_big != Fraction(*rows[depth]):
                bad.append(f"beta_big at horizon {depth} is not p_h/q_h")
            return bad
        if kind == "lattice":
            bad = []
            for (m, _, _, _), (snf, h, h_moved) in zip(op[1], out):
                bad += ref.smith_problems(m, *snf) + ref.hermite_problems(h)
                if h != h_moved:
                    bad.append("HNF changed under a unimodular change of generators")
            return bad
        return [f"builtin sequence {i} reported not exact" for i, reports in
                enumerate(out) if len(reports) != 6 or not all(r.exact for r in reports)]


WORKLOADS = {w.name: w for w in (BoxPair, LightCli, ExactTower)}
