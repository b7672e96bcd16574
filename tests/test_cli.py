import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    (("pair", "--module", "z1", "--class", "U", "--power", "2", "--N", "16"), 0,
     "afa9be249e1a1c91614373203bef77584b9e7fbd53a81d1c51ecc6fbc9d89bcb"),
    (("rep-dump", "--rep", "dirac", "--theta", "0.3", "--N", "2"), 0,
     "bbde3b63722ff412c63a9bafd9c8c3ea1cb9b9fcfe07f9af9496442a8fbadf6b"),
]


@pytest.mark.parametrize("argv,exit_code,digest", PINNED_STDOUT,
                         ids=[" ".join(c[0][:3]) for c in PINNED_STDOUT])
def test_stdout_bytes_are_pinned(capsys, monkeypatch, argv, exit_code, digest):
    monkeypatch.delenv("NCG_TORUS_PRECISION", raising=False)
    code, out, _ = run_cli(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
