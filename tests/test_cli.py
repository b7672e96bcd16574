import hashlib
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncg_torus import cli, fredholm, torus_rep, zlattice
from ncg_torus.cli import main, render_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*argv):
    """A fresh interpreter on this checkout's src/, without NCG_TORUS_PRECISION."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("NCG_TORUS_PRECISION", None)
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


class TestJsonWriter:
    def test_sorted_keys_and_float_format(self):
        s = render_json({"b": 1.5, "a": [True, None, "x"], "c": 0.1})
        assert s == '{"a":[true,null,"x"],"b":1.5,"c":0.10000000000000001}'

    def test_round_trips_through_stdlib(self):
        obj = {"nested": {"v": [1, 2.25, "s", False]}, "empty": []}
        assert json.loads(render_json(obj)) == obj

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            render_json({"x": object()})
        with pytest.raises(TypeError):
            render_json({1: "non-string key"})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_floats(self, bad):
        # JSON has no nan or inf: the writer refuses one as a scalar, inside a
        # flat [re, im] run and inside nested lists on both of its paths
        for obj in (bad, {"x": bad}, [0.5, bad], [[1.0, -0.0], [bad, 2.0]],
                    [["s", bad]], {"m": [[0.0, 1.0], [2.0, bad]]}):
            with pytest.raises(ValueError):
                render_json(obj)


def _oracle_render(obj, out: list) -> None:
    """The writer as it was before the exact-type dispatch, narrowed to
    Python's JSON types with finite floats, kept as the reference for
    ``render_json``'s bytes."""
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float) and math.isfinite(obj):
        out.append("%.17g" % obj)
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _oracle_render(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _oracle_render(obj[key], out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1e308])
_FLOATS = st.one_of(_EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False))
_SCALARS = st.one_of(
    _FLOATS, st.none(), st.booleans(), st.integers(), st.text(max_size=5))
_REPORTS = st.recursive(_SCALARS, lambda kids: st.one_of(
    st.lists(_FLOATS), st.lists(_FLOATS).map(tuple), st.lists(kids),
    st.lists(kids).map(tuple), st.dictionaries(st.text(max_size=5), kids)),
    max_leaves=30)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(obj=_REPORTS)
def test_render_json_matches_the_recursive_writer(obj):
    pieces: list = []
    _oracle_render(obj, pieces)
    assert render_json(obj) == "".join(pieces)


def _box_report(klass):
    return fredholm.dirac_even_pairing(fredholm.dirac_module("0.45", 12), klass)


def _clock_report(dense):
    rep = torus_rep.clock_shift(2, 5)
    spec = torus_rep.rieffel_projection(Fraction(2, 5), rep)
    if dense:
        mod = fredholm.canonical_even({"U": rep.U, "V": rep.V})
        return fredholm.even_pairing(mod, spec.matrix)
    return fredholm.even_pairing(fredholm.EvenFredholmModule(rep.q), spec)


@pytest.mark.parametrize("pair", [
    lambda: _box_report("trace-theta"),
    lambda: _box_report("one"),
    lambda: fredholm.odd_pairing(
        fredholm.canonical_odd(torus_rep.truncated_rep("0.45", 8)), "U"),
    lambda: _clock_report(dense=False),
    lambda: _clock_report(dense=True),
], ids=["box-trace-theta", "box-one", "odd", "even-clock-spec", "even-dense"])
def test_every_pairing_report_holds_only_json_types(pair):
    obj = pair().to_json_obj()
    assert json.loads(json.dumps(obj)) == obj
    assert json.loads(render_json(obj)) == obj
    # the writer writes nothing else, so a leaked scalar fails here
    for value in (np.int64(1), np.float64(0.5), Fraction(1, 3)):
        with pytest.raises(TypeError):
            render_json(value)


class TestCfCommand:
    def test_rational_expansion(self, capsys):
        code, out, err = run_cli(capsys, "cf", "--theta", "15/11")
        assert code == 0
        report = json.loads(out)
        assert report["expansion"]["a0"] == 1
        assert report["expansion"]["digits"] == [2, 1, 3]
        assert report["expansion"]["terminated"] is True
        assert report["convergents"][-1] == {"n": 3, "p": "15", "q": "11"}
        assert "wall time" in err

    def test_output_is_byte_identical_across_runs(self, capsys):
        _, first, _ = run_cli(capsys, "cf", "--theta", "golden", "--depth", "12")
        _, second, _ = run_cli(capsys, "cf", "--theta", "golden", "--depth", "12")
        assert first == second

    def test_golden_precision_env(self, capsys, monkeypatch):
        monkeypatch.setenv("NCG_TORUS_PRECISION", "20")
        code, out, _ = run_cli(capsys, "cf", "--theta", "golden", "--depth", "10")
        assert code == 0
        assert json.loads(out)["expansion"]["digits"] == [1] * 10
        # twenty digits cannot certify a deep expansion: abort, not guess
        code, _, err = run_cli(capsys, "cf", "--theta", "golden", "--depth", "50")
        assert code == 2
        assert "input error" in err

    @pytest.mark.parametrize("value", ["abc", "2.5", "0", "-3"])
    def test_bad_precision_env_exits_2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("NCG_TORUS_PRECISION", value)
        code, out, err = run_cli(capsys, "cf", "--theta", "golden")
        assert code == 2
        assert out == ""
        assert "input error" in err

    def test_uncertifiable_decimal_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "cf", "--theta", "0.333", "--depth", "9")
        assert code == 2

    @pytest.mark.parametrize("theta", ["1e4400", "1e-5000", "1e999999999"])
    def test_exponent_past_the_int_limit_exits_2(self, capsys, theta):
        # refused before 10 ** exponent is built, so the huge one is instant
        code, out, err = run_cli(capsys, "cf", "--theta", theta, "--depth", "3")
        assert (code, out) == (2, "")
        assert "int limit" in err

    def test_exponent_within_the_int_limit_is_expanded(self, capsys):
        code, out, _ = run_cli(capsys, "cf", "--theta", "1e4200", "--depth", "3")
        assert code == 0
        expansion = json.loads(out)["expansion"]
        assert (expansion["a0"], expansion["terminated"]) == (10 ** 4200, True)

    def test_precision_past_the_int_limit_exits_2_at_once(self, capsys, monkeypatch):
        # refused before the golden digits are computed: 11 s at this precision
        monkeypatch.setenv("NCG_TORUS_PRECISION", "1000000")
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "cf", "--theta", "golden", "--depth", "3")
        assert time.perf_counter() - started < 1
        assert (code, out) == (2, "")
        assert f"{sys.get_int_max_str_digits()}-digit int limit" in err

    @pytest.mark.parametrize("theta", ["0." + "1" * 4301, "2" * 4301, "1/" + "3" * 4301,
                                       "0." + "0" * 4300 + "1"],
                             ids=["decimal", "integer", "rational", "leading zeros"])
    def test_digits_past_the_int_limit_are_named_briefly(self, capsys, theta):
        code, out, err = run_cli(capsys, "cf", "--theta", theta, "--depth", "3")
        assert (code, out) == (2, "")
        assert len(err.encode()) < 300
        assert "4301 digits" in err and "4300-digit int limit" in err

    def test_digits_within_the_int_limit_are_expanded(self, capsys, monkeypatch):
        monkeypatch.setenv("NCG_TORUS_PRECISION", "4300")
        code, out, _ = run_cli(capsys, "cf", "--theta", "golden", "--depth", "3")
        assert code == 0 and json.loads(out)["expansion"]["digits"] == [1, 1, 1]

    def test_a_zero_int_limit_is_no_limit(self, capsys, monkeypatch):
        # 4301 golden digits pass the precision check and parse_theta
        monkeypatch.setenv("NCG_TORUS_PRECISION", "4301")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            code, out, _ = run_cli(capsys, "cf", "--theta", "golden", "--depth", "3")
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0 and json.loads(out)["expansion"]["digits"] == [1, 1, 1]


@pytest.mark.parametrize("argv", [
    ("pair", "--module", "z1", "--class", "U"),
    ("pair", "--module", "dirac", "--class", "1", "--N", "2"),
    ("rep-dump", "--rep", "z1", "--N", "1"),
], ids=["pair z1", "pair dirac", "rep-dump z1"])
def test_theta_beyond_float_range_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--theta", "1e400")
    assert (code, out) == (2, "")
    assert "does not fit in a float" in err


class TestPairCommand:
    def test_even_table(self, capsys):
        code, out, _ = run_cli(capsys, "pair", "--module", "z0", "--class", "1",
                               "--theta", "1/3")
        assert code == 0 and json.loads(out)["result"]["value"] == 1
        code, out, _ = run_cli(capsys, "pair", "--module", "z0", "--class", "p",
                               "--theta", "1/3")
        assert code == 0 and json.loads(out)["result"]["value"] == 0
        code, out, _ = run_cli(capsys, "pair", "--module", "z0prime",
                               "--class", "1", "--theta", "2/5")
        assert code == 0 and json.loads(out)["result"]["value"] == 5
        code, out, _ = run_cli(capsys, "pair", "--module", "z0prime",
                               "--class", "p", "--theta", "2/5")
        assert code == 0 and json.loads(out)["result"]["value"] == 2

    def test_odd_classes_with_power(self, capsys):
        code, out, _ = run_cli(capsys, "pair", "--module", "z1", "--class", "U",
                               "--N", "8")
        body = json.loads(out)
        assert code == 0
        assert body["result"]["value"] == -1
        assert body["result"]["method"] == "kernel-index"
        code, out, _ = run_cli(capsys, "pair", "--module", "z1", "--class", "U",
                               "--N", "8", "--power", "-2")
        assert json.loads(out)["result"]["value"] == 2
        code, out, _ = run_cli(capsys, "pair", "--module", "z1prime",
                               "--class", "U", "--N", "8")
        assert json.loads(out)["result"]["value"] == 0

    def test_class_validation(self, capsys):
        code, _, err = run_cli(capsys, "pair", "--module", "z0", "--class", "U",
                               "--theta", "1/3")
        assert code == 2 and "input error" in err
        code, _, _ = run_cli(capsys, "pair", "--module", "z1", "--class", "p")
        assert code == 2

    @pytest.mark.parametrize("module", ["z0", "z0prime", "z1", "z1prime", "dirac"])
    @pytest.mark.parametrize("klass", ["1", "p", "U", "V"])
    def test_pairing_table(self, capsys, module, klass):
        # the clock modules take no --N
        size = () if module in ("z0", "z0prime") else ("--N", "3")
        code, out, err = run_cli(capsys, "pair", "--module", module, "--class",
                                 klass, *size, "--theta", "2/7")
        # exit 2 exactly off the table; a pairing on it may still be refused
        # as unstable (exit 3), which is not this test's business
        odd = module in ("z1", "z1prime")
        valid = (klass in ("U", "V")) == odd
        assert (code == 2) != valid
        if not valid:
            pair = "U and V" if odd else "1 and p"
            assert out == ""
            assert f"module {module} pairs with classes {pair}" in err

    @pytest.mark.parametrize("module,klass", [("z0", "1"), ("z0prime", "p"),
                                              ("dirac", "1")])
    def test_even_module_refuses_a_power(self, capsys, module, klass):
        code, out, err = run_cli(capsys, "pair", "--module", module, "--class",
                                 klass, "--power", "3", "--N", "3", "--theta", "2/7")
        assert code == 2 and out == ""
        assert "--power" in err

    @pytest.mark.parametrize("module,klass", [("z1", "V"), ("z1prime", "U")])
    @pytest.mark.parametrize("power", [10**17, 10**18, 10**30])
    def test_diagonal_power_past_64_bits_pairs_to_zero(self, capsys, module,
                                                       klass, power):
        # the diagonal phases keep unit modulus at any power, so no mode of
        # either side is near the kernel
        code, out, _ = run_cli(capsys, "pair", "--module", module, "--class",
                               klass, f"--power={power}", "--N", "8")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["value"] == 0
        assert result["details"]["kernel"] == result["details"]["cokernel"] == 0

    def test_large_diagonal_power_pairs_to_zero(self, capsys):
        code, out, _ = run_cli(capsys, "pair", "--module", "z1", "--class", "V",
                               f"--power={2**40}", "--N", "8")
        assert code == 0 and json.loads(out)["result"]["value"] == 0

    def test_power_past_the_window_leaves_no_bulk(self, capsys):
        # U^33 on |k| <= 16 used to realize to the zero matrix
        code, out, err = run_cli(capsys, "pair", "--module", "z1", "--class", "U",
                                 "--power", "33", "--N", "16")
        assert code == 3 and out == ""
        assert "bandwidth 33" in err

    @pytest.mark.parametrize("module,klass", [("z0", "1"), ("z0prime", "p")])
    @pytest.mark.parametrize("option", [("--N", "3"), ("--no-stability",)],
                             ids=["N", "no-stability"])
    def test_clock_modules_refuse_truncation_options(self, capsys, module, klass,
                                                     option):
        # a clock module is exact and has no truncation to set or recheck
        code, out, err = run_cli(capsys, "pair", "--module", module, "--class",
                                 klass, "--theta", "2/5", *option)
        assert (code, out) == (2, "")
        assert f"module {module} takes no {option[0]}" in err

    @pytest.mark.parametrize("module,klass", [("dirac", "1"), ("z1", "U")])
    def test_truncated_modules_take_truncation_options(self, capsys, module, klass):
        code, out, _ = run_cli(capsys, "pair", "--module", module, "--class", klass,
                               "--theta", "0.3", "--N", "3", "--no-stability")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["truncation"] == 3
        assert "N_recheck" not in result["details"]

    def test_clock_module_requires_exact_rational(self, capsys):
        code, _, err = run_cli(capsys, "pair", "--module", "z0prime",
                               "--class", "p", "--theta", "golden")
        assert code == 2
        assert "rational" in err

    def test_dirac_small_truncation_is_flagged_unstable(self, capsys):
        # at N = 8 the kernel mode has not yet separated from the bulk, the
        # N + 4 recheck disagrees, and that must surface as exit code 3
        code, out, err = run_cli(capsys, "pair", "--module", "dirac",
                                 "--class", "p", "--N", "8")
        assert code == 3
        assert out == ""
        assert "instability" in err

    @pytest.mark.parametrize("argv", [("--theta", "1/2", "--N", "4"),
                                      ("--theta", "0.5", "--N", "3")])
    def test_dirac_eigenvalue_at_one_half_exits_3(self, capsys, argv):
        # at theta = 1/2 an eigenvalue of the box projection sits on the
        # 1/2 cut, so rounding would pick the rank: refuse to certify
        code, out, err = run_cli(capsys, "pair", "--module", "dirac",
                                 "--class", "p", *argv)
        assert code == 3
        assert out == ""
        assert "1/2" in err

    @pytest.mark.parametrize("theta", ["0.1", "0.9"])
    def test_dirac_bulk_modes_on_both_sides_exit_3(self, capsys, theta):
        # the pass at N = 12 resolves no mode; the recheck at N = 16 finds one
        # near-kernel pair with bulk mass on both sides, which used to give
        # a certified 0 where the class pairs to -1
        code, out, err = run_cli(capsys, "pair", "--module", "dirac",
                                 "--class", "p", "--theta", theta, "--N", "12")
        assert (code, out) == (3, "")
        assert "both sides" in err

    @pytest.mark.parametrize("argv,rank", [
        (("--theta", "0.01", "--N", "8"), "rank 0 of 289"),
        (("--theta", "0.99", "--N", "8"), "rank 289 of 289"),
        (("--theta", "1e-5", "--N", "4"), "rank 0 of 81"),  # an empty polynomial
    ], ids=["0.01", "0.99", "1e-5"])
    def test_dirac_degenerate_rank_exits_3(self, capsys, argv, rank):
        # a rank-0 or full-rank box projection compresses the phase to the
        # zero map or to itself, index 0 either way; these used to certify
        # 0 where the class pairs to -1, or to crash on the empty polynomial
        code, out, err = run_cli(capsys, "pair", "--module", "dirac",
                                 "--class", "p", *argv)
        assert (code, out) == (3, "")
        assert rank in err

    @pytest.mark.parametrize("theta,rank", [("1e-310", 0), ("0.99999", 81)])
    def test_dirac_extreme_angle_refuses_without_warnings(self, capsys, theta, rank):
        # the bump pair evaluates each branch at every sample, and x / delta
        # overflows where delta is subnormal; warnings are errors under pytest,
        # so stderr must hold the refusal and the wall time only
        code, out, err = run_cli(capsys, "pair", "--module", "dirac",
                                 "--class", "p", "--theta", theta, "--N", "4")
        assert (code, out) == (3, "")
        lines = err.splitlines()
        assert lines[0] == (f"instability: the box projection at N = 4 has rank {rank} "
                            "of 81, so its compression decides nothing")
        assert len(lines) == 2 and lines[1].startswith("wall time:")

    @pytest.mark.parametrize("argv,exit_code", [
        (("--theta", "0", "--N", "4"), 2),
        (("--theta", "1", "--N", "4"), 2),
        (("--theta", "0", "--N", "1"), 2),  # the angle is checked first
        (("--N", "1"), 3),
    ])
    def test_dirac_box_gates(self, capsys, argv, exit_code):
        code, out, _ = run_cli(capsys, "pair", "--module", "dirac",
                               "--class", "p", *argv)
        assert code == exit_code
        assert out == ""

    @pytest.mark.parametrize("theta", ["bogus", "7/0"])
    def test_z0_rejects_a_malformed_theta(self, capsys, theta):
        code, out, err = run_cli(capsys, "pair", "--module", "z0",
                                 "--class", "1", "--theta", theta)
        assert code == 2 and out == ""
        assert "input error" in err

    def test_box_pairing_does_not_import_scipy(self):
        code = ("import sys\n"
                "from ncg_torus import dirac_even_pairing, dirac_module\n"
                "dirac_even_pairing(dirac_module('0.45', 4), 'trace-theta',\n"
                "                   stability_check=False)\n"
                "print('scipy' in sys.modules)\n")
        run = run_python("-c", code)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "False"

    def test_exact_subcommands_do_not_import_numpy(self):
        # the numeric layer loads on the first numeric call, not at import
        code = ("import sys\n"
                "import ncg_torus, ncg_torus.cli as cli\n"
                "numeric = ('numpy', 'ncg_torus.fredholm', 'ncg_torus.torus_rep')\n"
                "for argv in (['cf', '--theta', 'golden'],\n"
                "             ['tower', '--theta', 'golden', '--depth', '12'],\n"
                "             ['sequence', '--which', 'khomology']):\n"
                "    assert cli.main(argv) == 0\n"
                "seen = [[name in sys.modules for name in numeric]]\n"
                "assert cli.main(['pair', '--module', 'z1', '--class', 'U']) == 0\n"
                "seen.append([name in sys.modules for name in numeric])\n"
                "print(seen)\n")
        run = run_python("-c", code)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "[[False, False, False], [True, True, True]]"

    @pytest.mark.parametrize("argv", [
        ("cf", "--theta", "golden", "--depth", "12"),
        ("pair", "--module", "z1", "--class", "U", "--power", "2")], ids=["cf", "pair"])
    def test_module_entry_point_matches_main(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("NCG_TORUS_PRECISION", raising=False)
        code, out, _ = run_cli(capsys, *argv)
        run = run_python("-m", "ncg_torus.cli", *argv)
        assert code == run.returncode == 0
        assert run.stdout == out != ""

    def test_dirac_unit_class(self, capsys):
        code, out, _ = run_cli(capsys, "pair", "--module", "dirac",
                               "--class", "1", "--N", "6")
        assert code == 0 and json.loads(out)["result"]["value"] == 0


class TestSequenceCommand:
    def test_builtin_sequences_are_exact(self, capsys):
        for which in ("khomology", "ktheory"):
            code, out, _ = run_cli(capsys, "sequence", "--which", which)
            assert code == 0
            report = json.loads(out)
            assert report["exact"] is True
            assert all(r["exact"] for r in report["reports"])

    def test_perturbation_breaks_exactness_and_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "sequence", "--which", "khomology",
                                 "--perturb", "d0=1,1")
        assert code == 4
        report = json.loads(out)  # the report still prints before exiting
        assert report["exact"] is False
        broken = [r for r in report["reports"] if not r["exact"]]
        assert broken and all("witness" in r for r in broken)

    @pytest.mark.parametrize("perturb", [(), ("--perturb", "d0=1,1")],
                             ids=["exact", "perturbed"])
    def test_exactness_is_checked_once(self, capsys, monkeypatch, perturb):
        calls = []
        check_all = zlattice.CyclicSequence.check_all

        def spy(seq):
            calls.append(seq)
            return check_all(seq)

        monkeypatch.setattr(zlattice.CyclicSequence, "check_all", spy)
        code, out, _ = run_cli(capsys, "sequence", "--which", "khomology",
                               *perturb)
        assert code == (4 if perturb else 0)
        assert json.loads(out)["exact"] == (not perturb)
        assert len(calls) == 1

    def test_perturbation_parsing_errors(self, capsys):
        assert run_cli(capsys, "sequence", "--which", "khomology",
                       "--perturb", "d0:1,1")[0] == 2
        assert run_cli(capsys, "sequence", "--which", "khomology",
                       "--perturb", "d0=1,2,3")[0] == 2
        assert run_cli(capsys, "sequence", "--which", "khomology",
                       "--perturb", "nosuch=1")[0] == 2
        assert run_cli(capsys, "sequence", "--which", "khomology",
                       "--perturb", "d0=a,b")[0] == 2


class TestTowerCommand:
    def test_golden_tower_report(self, capsys):
        code, out, _ = run_cli(capsys, "tower", "--theta", "golden",
                               "--depth", "12", "--horizon", "10")
        assert code == 0
        report = json.loads(out)
        assert report["pairing_identity"] == 1
        assert report["pairing_min_projection"] == 0
        assert report["coefficients"]["matches_closed_form"] is False
        # horizon 10 transports down to the tenth convergent, 55/89
        assert report["trace_weights"]["beta_big"] == "55/89"

    def test_dot_export(self, capsys, tmp_path):
        target = tmp_path / "tower.dot"
        code, out, _ = run_cli(capsys, "tower", "--theta", "15/11",
                               "--depth", "3", "--horizon", "3",
                               "--dot", str(target))
        assert code == 0
        text = target.read_text()
        assert text.startswith("digraph tower {")
        assert json.loads(out)["dot_written"] == str(target)

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unwritable_dot_path_exits_2(self, capsys, tmp_path, where):
        target = tmp_path / "no" / "x.dot" if where == "missing" else tmp_path
        code, out, err = run_cli(capsys, "tower", "--theta", "golden",
                                 "--dot", str(target))
        assert code == 2 and out == ""
        assert "input error" in err

    def test_rational_runs_out_of_floors(self, capsys):
        code, _, err = run_cli(capsys, "tower", "--theta", "15/11",
                               "--depth", "10")
        assert code == 2 and "input error" in err


class TestRepDumpCommand:
    def test_clock_half(self, capsys):
        code, out, _ = run_cli(capsys, "rep-dump", "--rep", "clock",
                               "--theta", "1/2")
        assert code == 0
        rep = json.loads(out)
        assert rep["dim"] == 2
        assert rep["U"] == [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
        assert rep["V"][0][0] == [1, 0]
        assert rep["V"][1][1][0] == pytest.approx(-1.0)

    def test_truncated_and_box_shapes(self, capsys):
        code, out, _ = run_cli(capsys, "rep-dump", "--rep", "z1prime",
                               "--theta", "1/3", "--N", "2")
        rep = json.loads(out)
        assert code == 0 and rep["dim"] == 5
        assert rep["defective_generator"] == "V"
        code, out, _ = run_cli(capsys, "rep-dump", "--rep", "dirac",
                               "--theta", "1/3", "--N", "1")
        rep = json.loads(out)
        assert code == 0 and rep["dim"] == 9
        assert len(rep["F0_diag"]) == 9
        assert rep["F0_diag"][4] == [1, 0]  # the origin site

    def test_clock_rejects_irrational(self, capsys):
        assert run_cli(capsys, "rep-dump", "--rep", "clock",
                       "--theta", "golden")[0] == 2


@pytest.mark.parametrize("argv", [
    ("rep-dump", "--rep", "clock", "--theta", "1/300"),
    ("rep-dump", "--rep", "dirac", "--theta", "0.3", "--N", "4"),
    ("rep-dump", "--rep", "z1", "--theta", "0.3", "--N", "100"),
    ("pair", "--module", "dirac", "--class", "p", "--N", "8"),
    ("pair", "--module", "z0prime", "--class", "p", "--theta", "1/20000"),
    ("rep-dump", "--rep", "clock", "--theta", "1/1" + "0" * 400),
    ("rep-dump", "--rep", "z1", "--theta", "0.3", "--N", "1" + "0" * 200),
    ("rep-dump", "--rep", "dirac", "--theta", "0.3", "--N", "1" + "0" * 200),
    ("pair", "--module", "dirac", "--class", "p", "--theta", "0.3", "--N", "1" + "0" * 200),
], ids=["clock dump", "box dump", "line dump", "box pass", "clock projection",
        "huge clock dump", "huge line dump", "huge box dump", "huge box pass"])
def test_requests_beyond_memory_exit_2(capsys, monkeypatch, argv):
    # a 1 MiB ceiling refuses each call before its build; without the guard
    # each of the first five would need only a few MB, and the last four
    # need more GiB than a float holds
    monkeypatch.setattr(torus_rep, "_physical_memory", lambda: 2**20)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "physical memory" in err


@pytest.mark.parametrize("argv,maker", [
    (("rep-dump", "--rep", "dirac", "--theta", "0.3", "--N", "4"), "dirac_data"),
    (("rep-dump", "--rep", "z1", "--theta", "0.3", "--N", "100"), "truncated_rep"),
    (("pair", "--module", "z0prime", "--class", "p", "--theta", "1/20000"),
     "clock_shift"),
], ids=["box dump", "line dump", "clock projection"])
def test_refusals_come_before_any_generator(capsys, monkeypatch, argv, maker):
    # under a 1 MiB ceiling the box and line generators alone would fit
    # (105 kB, 646 kB) but the dumps would not, and the clock projection's
    # 72 bytes a sample would not either: each refusal must come from the
    # rep's size, before U or V is built
    monkeypatch.setattr(torus_rep, "_physical_memory", lambda: 2**20)
    reps = []
    make = getattr(torus_rep, maker)
    monkeypatch.setattr(torus_rep, maker, lambda *a: reps.append(make(*a)) or reps[-1])
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and "physical memory" in err
    assert len(reps) == 1
    assert not {"U", "V"} & set(vars(reps[0]))


def test_clock_class_1_pairs_from_q_alone(capsys, monkeypatch):
    # the identity's trace is q and it has no defect, so no q x q array is
    # built: a 1 MiB ceiling, below the 2.9 MB of the generators at q = 300,
    # still pairs
    sizes = []
    eye = np.eye
    monkeypatch.setattr(np, "eye", lambda n, *a, **k: sizes.append(n) or eye(n, *a, **k))
    monkeypatch.setattr(torus_rep, "_physical_memory", lambda: 2**20)
    code, out, _ = run_cli(capsys, "pair", "--module", "z0prime", "--class", "1",
                           "--theta", "1/300")
    assert code == 0 and json.loads(out)["result"]["value"] == 300
    assert sizes == []


def test_clock_class_1_value_is_the_exact_q(capsys):
    # 2^53 + 1 has no float of its own: the value is the int, the raw trace
    # its nearest float
    q = 2**53 + 1
    code, out, _ = run_cli(capsys, "pair", "--module", "z0prime", "--class", "1",
                           "--theta", f"1/{q}")
    result = json.loads(out)["result"]
    assert code == 0 and result["value"] == result["truncation"] == q
    assert result["details"] == {"adjoint_defect": 0.0, "idempotency_defect": 0.0,
                                 "raw_trace": float(q)}


def test_clock_class_1_beyond_float_range_exits_2(capsys):
    # the raw trace is q as a float: the largest float pairs, 10^400 has none
    top = int(sys.float_info.max)
    code, out, _ = run_cli(capsys, "pair", "--module", "z0prime", "--class", "1",
                           "--theta", f"1/{top}")
    assert code == 0 and json.loads(out)["result"]["details"]["raw_trace"] == float(top)
    code, out, err = run_cli(capsys, "pair", "--module", "z0prime", "--class", "1",
                             "--theta", "1/1" + "0" * 400)
    assert (code, out) == (2, "")
    assert "does not fit in a float" in err


def test_clock_projection_pairs_in_o_of_q_memory(capsys, monkeypatch):
    # a 1 MiB ceiling, below the 2.9 MB of the generators at q = 300 and the
    # 11.5 MB of the dense projection: the blocks need 72 bytes a sample
    monkeypatch.setattr(torus_rep, "_physical_memory", lambda: 2**20)
    code, out, _ = run_cli(capsys, "pair", "--module", "z0prime", "--class", "p",
                           "--theta", "1/300")
    assert code == 0 and json.loads(out)["result"]["value"] == 1


@pytest.mark.parametrize("module,klass,theta", [
    ("z0", "1", "2/7"), ("z0", "p", "2/7"), ("z0prime", "1", "13/40"),
    ("z0prime", "p", "13/40")])
def test_clock_pairings_read_only_what_they_pair(capsys, monkeypatch, module, klass,
                                                  theta):
    # the module is its dimension q and the projection its samples, so no
    # generator is built
    reps = []
    make = torus_rep.clock_shift
    monkeypatch.setattr(torus_rep, "clock_shift", lambda *a: reps.append(make(*a)) or reps[-1])
    code, _, _ = run_cli(capsys, "pair", "--module", module, "--class", klass,
                         "--theta", theta)
    assert code == 0 and len(reps) == 1
    assert not {"U", "V"} & set(vars(reps[0]))


#: every coprime m/q with q <= 60, then the golden convergents 55/89 ... 377/610
CLOCK_GRID = [(m, q) for q in range(1, 61) for m in range(q) if math.gcd(m, q) == 1] + [
    (55, 89), (89, 144), (144, 233), (233, 377), (377, 610)]


def test_clock_pairings_match_the_generator_module(capsys):
    # the dense library route is the oracle: canonical_even checks the
    # generators, and even_pairing measures the realized projection
    for m, q in CLOCK_GRID:
        rep = torus_rep.clock_shift(m, q)
        mod = fredholm.canonical_even({"U": rep.U, "V": rep.V})
        for klass in ("1", "p") if q > 1 else ("1",):
            e = (np.eye(q) if klass == "1" else
                 torus_rep.rieffel_projection(rep.theta, rep).matrix)
            want = fredholm.even_pairing(mod, e).to_json_obj()
            code, out, _ = run_cli(capsys, "pair", "--module", "z0prime",
                                   "--class", klass, "--theta", f"{m}/{q}")
            got = json.loads(out)["result"]
            details, want_details = got.pop("details"), want.pop("details")
            assert code == 0 and got == want, (m, q)
            assert details.keys() == want_details.keys()
            for key, value in details.items():
                assert abs(value - want_details[key]) <= 1e-12, (m, q, key)


#: sha256 of stdout for calls whose output holds no BLAS-dependent float,
#: so the bytes are the same on every host; a change to any of them is a
#: change to the CLI's output
PINNED_STDOUT = [
    (("cf", "--theta", "15/11", "--depth", "10"), 0,
     "2e8e845568f4419af32e256310059cb32fa6e8c6d44855a4e58cf9cb1b52691d"),
    (("cf", "--theta", "golden", "--depth", "30"), 0,
     "da5e1bc15913c596b649914721263fb64586b19af2376595e419b10be9a6c372"),
    (("tower", "--theta", "golden", "--depth", "12", "--horizon", "10"), 0,
     "2484dbc311ce424e92d3c98768d029ac7211d8dbd9a5ace2377012784383928b"),
    (("sequence", "--which", "khomology", "--perturb", "d0=1,1"), 4,
     "28ab0ecbb56240280c2dd4c903e7921c2367a51164415d5a6a63c4b8032dce09"),
    (("sequence", "--which=khomology"), 0,
     "573221ce1036dbb525a13a1a52fc0d36f9621c881911460b10ae9f23d5b2ed7b"),
    (("sequence", "--which", "ktheory"), 0,
     "59e726f122659d58168ca669b725b5ee069b07475d49c2845d0750756b72fb06"),
    (("pair", "--module", "z1", "--class", "U", "--power", "2", "--N", "16"), 0,
     "afa9be249e1a1c91614373203bef77584b9e7fbd53a81d1c51ecc6fbc9d89bcb"),
    (("rep-dump", "--rep", "dirac", "--theta", "0.3", "--N", "2"), 0,
     "bbde3b63722ff412c63a9bafd9c8c3ea1cb9b9fcfe07f9af9496442a8fbadf6b"),
    # lambda^m for |m| >= 3 in V: numpy's vectorized power differs from
    # Python's scalar one there, so this dump pins which one builds V
    (("rep-dump", "--rep", "dirac", "--theta", "0.3", "--N", "5"), 0,
     "814f451a189a4bec1b025e4d768e5c481cc526b27b81c47a5ceaab21325e8799"),
    (("rep-dump", "--rep", "clock", "--theta=-3/7"), 0,
     "5404d0e027454a55fab814650e7ae002ec22c847f270728738f67b6302cb755f"),
    (("pair", "--module", "z1prime", "--class", "V", "--power", "-3", "--N", "12"),
     0, "365d19b736e1ff1046b0ef4c74c1eb3c0df4c2ed5d70d25637aae237d3d98a78"),
    (("pair", "--no-stability", "--module", "z1", "--class", "V", "--N", "8"), 0,
     "2754c69dbffb851e77bd1b861f39bcb49a9728868b4fcb3aad0915c73dd0eac3"),
    (("cf", "--theta", "1e4200", "--depth", "3"), 0,
     "89a52cda2467b588635c40d83237427408394463be1fb4f7896147c0592feb72"),
    # the diagonal generator of each variant, at a power other than 1
    (("pair", "--N", "10", "--module", "z1prime", "--class", "U", "--power", "-2"),
     0, "0cde16c5315bf6d5ceed8f911e52d20af251ded7eec9ec16faff71470d283ee2"),
    (("pair", "--N", "6", "--module", "z1", "--class", "V", "--power", "0"), 0,
     "e5482c4897da4912c579205038a47542d9d8a8478363de4c306820f57ddcfed8"),
    # the clock projection's defects are norms of its 1x1 and 2x2 blocks,
    # computed from the samples of f and g without BLAS
    (("pair", "--module", "z0prime", "--class", "p", "--theta", "7/25"), 0,
     "b773db7bc4d3329088e5e127b76895ff354c80abca57d31142330724a74bc246"),
    (("rep-dump", "--rep", "z1prime", "--theta", "golden", "--N", "3"), 0,
     "389a2948ab179040810a3d1949a593fddfdadbb4a5e108725255f7b2e5d91610"),
    # one call per even route, each printing exact floats only
    (("pair", "--module", "z0", "--class", "p", "--theta", "1/3"), 0,
     "9f1f639f848f3db9452600beaa6bdfca53ef3a4f93a30ab21c0f3aed9d0e8753"),
    (("pair", "--theta", "2/5", "--module", "z0prime", "--class", "1"), 0,
     "1cf05f8c817052b110ada2047d7bc79c9f34d77c0f3e46e0c109eca2f4d0f5f1"),
    (("pair", "--module", "dirac", "--class", "1", "--N", "3", "--theta", "0.3"), 0,
     "7136878e75b646c51574b83b819a12f4656d634db071abf309565ec30f5e716a"),
]

PINNED = {argv: (code, digest) for argv, code, digest in PINNED_STDOUT}


def _pinned_id(argv: tuple) -> str:
    """The argv's first three words, or the whole argv where another pinned
    call starts with the same three."""
    shared = sum(other[:3] == argv[:3] for other in PINNED) > 1
    return " ".join(argv if shared else argv[:3])


@pytest.mark.parametrize("argv,exit_code,digest", PINNED_STDOUT,
                         ids=[_pinned_id(c[0]) for c in PINNED_STDOUT])
def test_stdout_bytes_are_pinned(capsys, monkeypatch, argv, exit_code, digest):
    monkeypatch.delenv("NCG_TORUS_PRECISION", raising=False)
    code, out, _ = run_cli(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _assert_pinned(capsys, argv, *, as_argv=None):
    code, out, _ = run_cli(capsys, *(as_argv or argv))
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINNED[argv]


def test_negative_theta_as_a_separate_value(capsys, monkeypatch):
    monkeypatch.delenv("NCG_TORUS_PRECISION", raising=False)
    _assert_pinned(capsys, ("rep-dump", "--rep", "clock", "--theta=-3/7"),
                   as_argv=("rep-dump", "--rep", "clock", "--theta", "-3/7"))


def test_theta_followed_by_a_flag_still_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pair", "--module", "z1", "--class", "U", "--theta", "--N", "4"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_parser_reuse_leaks_no_state(capsys, monkeypatch):
    monkeypatch.delenv("NCG_TORUS_PRECISION", raising=False)
    # --perturb appends to a list: the next call must start without it
    _assert_pinned(capsys, ("sequence", "--which", "khomology", "--perturb", "d0=1,1"))
    _assert_pinned(capsys, ("sequence", "--which=khomology"))
    with pytest.raises(SystemExit) as exc:
        main(["pair", "--module", "nosuch", "--class", "U"])
    assert exc.value.code == 2
    capsys.readouterr()
    _assert_pinned(capsys, ("cf", "--theta", "15/11", "--depth", "10"))


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    for _ in range(3):
        _assert_pinned(capsys, ("cf", "--theta", "15/11", "--depth", "10"))
    assert len(built) == 1
