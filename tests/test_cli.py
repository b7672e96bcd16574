import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncg_torus import cli, zlattice
from ncg_torus.cli import main, render_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def _oracle_render(obj, out: list) -> None:
    """The writer as it was before the exact-type dispatch, kept as the
    reference for ``render_json``'s bytes."""
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append("%.17g" % float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, Fraction):
        out.append(json.dumps(str(obj)))
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


_EDGE_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0,
                                5e-324, -2.2250738585072009e-308, 1e308])
_FLOATS = st.one_of(_EDGE_FLOATS, st.floats(allow_nan=True, allow_infinity=True))
_SCALARS = st.one_of(
    _FLOATS, st.none(), st.booleans(), st.integers(), st.text(max_size=5),
    st.fractions(), _FLOATS.map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64))
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

    @pytest.mark.parametrize("module,klass", [("z0", "1"), ("z0prime", "p"),
                                              ("dirac", "1")])
    def test_even_module_refuses_a_power(self, capsys, module, klass):
        code, out, err = run_cli(capsys, "pair", "--module", module, "--class",
                                 klass, "--power", "3", "--N", "3", "--theta", "2/7")
        assert code == 2 and out == ""
        assert "--power" in err

    def test_power_past_64_bits_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "pair", "--module", "z1", "--class", "V",
                                 f"--power={10**30}", "--N", "8")
        assert (code, out) == (2, "")
        assert "64-bit" in err

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
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "False"

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
    # "=" keeps the test id apart from the perturbed call above
    (("sequence", "--which=khomology"), 0,
     "573221ce1036dbb525a13a1a52fc0d36f9621c881911460b10ae9f23d5b2ed7b"),
    (("sequence", "--which", "ktheory"), 0,
     "59e726f122659d58168ca669b725b5ee069b07475d49c2845d0750756b72fb06"),
    (("pair", "--module", "z1", "--class", "U", "--power", "2", "--N", "16"), 0,
     "afa9be249e1a1c91614373203bef77584b9e7fbd53a81d1c51ecc6fbc9d89bcb"),
    (("rep-dump", "--rep", "dirac", "--theta", "0.3", "--N", "2"), 0,
     "bbde3b63722ff412c63a9bafd9c8c3ea1cb9b9fcfe07f9af9496442a8fbadf6b"),
    # "=" keeps the test id apart from the separate-value call below
    (("rep-dump", "--rep", "clock", "--theta=-3/7"), 0,
     "5404d0e027454a55fab814650e7ae002ec22c847f270728738f67b6302cb755f"),
    (("pair", "--module", "z1prime", "--class", "V", "--power", "-3", "--N", "12"),
     0, "365d19b736e1ff1046b0ef4c74c1eb3c0df4c2ed5d70d25637aae237d3d98a78"),
    # the flag goes first so that the test id differs from the z1 call above
    (("pair", "--no-stability", "--module", "z1", "--class", "V", "--N", "8"), 0,
     "2754c69dbffb851e77bd1b861f39bcb49a9728868b4fcb3aad0915c73dd0eac3"),
    (("cf", "--theta", "1e4200", "--depth", "3"), 0,
     "89a52cda2467b588635c40d83237427408394463be1fb4f7896147c0592feb72"),
    # the diagonal generator of each variant, at a power other than 1; --N
    # goes first so that the test ids differ from the calls above
    (("pair", "--N", "10", "--module", "z1prime", "--class", "U", "--power", "-2"),
     0, "0cde16c5315bf6d5ceed8f911e52d20af251ded7eec9ec16faff71470d283ee2"),
    (("pair", "--N", "6", "--module", "z1", "--class", "V", "--power", "0"), 0,
     "e5482c4897da4912c579205038a47542d9d8a8478363de4c306820f57ddcfed8"),
    # the idempotency and adjoint defects are SVD norms of BLAS products, so
    # this one pins the operator-norm rule on this numpy/OpenBLAS build
    (("pair", "--module", "z0prime", "--class", "p", "--theta", "7/25"), 0,
     "174857d01b306377d83659c511091a2a7751a8f0688fbcbeaf858e01cb7fa7db"),
    (("rep-dump", "--rep", "z1prime", "--theta", "golden", "--N", "3"), 0,
     "389a2948ab179040810a3d1949a593fddfdadbb4a5e108725255f7b2e5d91610"),
]

PINNED = {argv: (code, digest) for argv, code, digest in PINNED_STDOUT}


@pytest.mark.parametrize("argv,exit_code,digest", PINNED_STDOUT,
                         ids=[" ".join(c[0][:3]) for c in PINNED_STDOUT])
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
