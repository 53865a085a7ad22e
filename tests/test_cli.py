"""End-to-end tests for the command-line interface.

Everything runs in-process through ``main(argv)`` so exit codes and
stdout/stderr can be asserted without spawning subprocesses.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gsep
from _expm_fixtures import random_cm, random_separable_cm
from gsep.cli import _build_parser, _tolerances, main
from gsep.engine import _shifted
from gsep.gaussian import BipartiteCM, tmss
from gsep.io import _canonical, dump_certificate, dump_cm, parse_certificate, parse_cm
from gsep.matlin import DEFAULT_TOL

EPS_STAR_R1 = 1.0 - np.exp(-2.0)
FIXTURE = Path(__file__).parent / "fixtures" / "ppt_entangled_2x2.json"


def write_cm(tmp_path, cm, name="state.json"):
    path = tmp_path / name
    path.write_text(dump_cm(cm), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_separable_verdict(self, tmp_path, capsys):
        cm = random_separable_cm(1, 1, seed=0)[0]
        code, out, err = run(capsys, "check", "--input", write_cm(tmp_path, cm))
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["verdict"] == "separable"
        assert len(doc["c_opnorm_history"]) == doc["step"]

    def test_entangled_verdict(self, tmp_path, capsys):
        code, out, _ = run(capsys, "check", "--input", write_cm(tmp_path, tmss(1.0)))
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "entangled"
        assert doc["step"] == 1
        assert doc["margin"] == pytest.approx(-1.0, abs=1e-9)

    def test_robust_mode(self, tmp_path, capsys):
        cm = random_separable_cm(1, 1, seed=0)[0]
        code, out, _ = run(capsys, "check", "--eps", "1e-6",
                           "--input", write_cm(tmp_path, cm))
        assert code == 0
        assert json.loads(out)["verdict"] == "separable"

    def test_undecided_at_low_iteration_cap(self, tmp_path, capsys):
        cm = random_cm(2, 2, "mixed", seed=341)
        code, out, _ = run(capsys, "check", "--max-iter", "2",
                           "--input", write_cm(tmp_path, cm))
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "undecided"
        assert doc["reason"] == "iteration limit reached"

    def test_default_tolerances_are_the_library_defaults(self):
        args = _build_parser().parse_args(["check", "--input", "state.json"])
        assert _tolerances(args) == DEFAULT_TOL

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "verdict.json"
        code, out, _ = run(capsys, "check", "--output", str(path),
                           "--input", write_cm(tmp_path, tmss(0.3)))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["verdict"] == "entangled"


class TestCheckFailures:
    def test_malformed_document(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 1}', encoding="utf-8")
        code, out, err = run(capsys, "check", "--input", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "missing keys" in err

    def test_integer_past_the_float_range(self, tmp_path, capsys):
        # one line on stderr and exit 2, not an OverflowError traceback
        doc = json.loads(dump_cm(tmss(1.0)))
        doc["gamma"][0][0] = 10 ** 400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "check", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == "error: 'gamma' contains non-finite entries\n"

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "check", "--input", str(tmp_path / "nope.json"))
        assert code == 2
        assert err.startswith("error:")

    def test_non_state_input(self, tmp_path, capsys):
        cm = BipartiteCM.from_gamma(0.5 * np.eye(4), 1, 1)
        code, _, err = run(capsys, "check", "--input", write_cm(tmp_path, cm))
        assert code == 2
        assert "refusing to classify" in err


class TestCertify:
    def test_separable_emits_certificate(self, tmp_path, capsys):
        cm = random_separable_cm(2, 1, seed=3)[0]
        code, out, _ = run(capsys, "certify", "--input", write_cm(tmp_path, cm))
        assert code == 0
        cert, margins = parse_certificate(out)
        assert cert.gamma_A.shape == (4, 4)
        assert cert.gamma_B.shape == (2, 2)
        assert all(x >= -1e-8 for x in margins)

    def test_rejected_certificate_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # gamma_A - t I with P + t I oplus 0 still reproduces gamma, but
        # gamma_A - t I fails the CM test
        cm = random_separable_cm(2, 1, seed=3)[0]
        t = 10.0

        def tampered(trace, tol):
            cert = gsep.reconstruct(trace, tol)
            shift = np.zeros_like(cert.P)
            shift[:4, :4] = t * np.eye(4)
            return gsep.SeparabilityCertificate(cert.gamma_A - t * np.eye(4), cert.gamma_B,
                                                cert.P + shift)

        monkeypatch.setattr(gsep.cli, "reconstruct", tampered)
        code, out, err = run(capsys, "certify", "--input", write_cm(tmp_path, cm))
        assert code == 3
        assert out == ""
        cert = tampered(gsep.decide(cm).trace, DEFAULT_TOL)
        report = gsep.verify_certificate(cm, cert)
        assert not report.valid and report.checks[0].lambda_min < 0
        assert err.startswith("numerical failure: certificate fails verification")
        assert ", ".join(f"{margin:.3e}" for margin in report.margins) in err

    def test_entangled_emits_witness(self, tmp_path, capsys):
        code, out, _ = run(capsys, "certify", "--input", write_cm(tmp_path, tmss(1.0)))
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "entangled"
        assert doc["lambda_min"] == pytest.approx(-1.0, abs=1e-9)
        assert len(doc["witness_real"]) == 2 and len(doc["witness_imag"]) == 2

    def test_witness_eigenvalue_is_the_fired_margin(self, tmp_path, capsys):
        # criterion 3's population: most entangled verdicts there are
        # cone exits, whose A-block is a valid CM
        rng = np.random.default_rng(303)
        reasons = []
        for k in range(500):
            cm = random_cm(1, 1, "mixed", rng=rng)
            verdict = gsep.decide(cm)
            if verdict.kind is not gsep.VerdictKind.ENTANGLED:
                continue
            code, out, _ = run(capsys, "certify", "--input", write_cm(tmp_path, cm))
            assert code == 0
            doc = json.loads(out)
            assert doc["verdict"] == "entangled"
            assert doc["lambda_min"] < 0, k
            assert abs(doc["lambda_min"] - verdict.margin) <= 1e-12, k
            cone = verdict.reason == gsep.engine.REASON_CONE_ENTANGLED
            assert len(doc["witness_real"]) == (4 if cone else 2) * cm.n
            reasons.append(verdict.reason)
        assert len(reasons) == 180
        assert reasons.count(gsep.engine.REASON_CONE_ENTANGLED) == 120

    def test_npt_state_inside_old_slack_gets_a_witness(self, tmp_path, capsys):
        # transpose-test margin -1e-9: entangled, not a certificate
        cm = _shifted(tmss(1.0), EPS_STAR_R1 - 1e-9)
        code, out, _ = run(capsys, "certify", "--input", write_cm(tmp_path, cm))
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "entangled"
        assert doc["lambda_min"] < -DEFAULT_TOL.decision_margin
        assert abs(doc["lambda_min"] - gsep.decide(cm).margin) <= 1e-12

    def test_undecided_reports_margin(self, tmp_path, capsys):
        cm = random_cm(2, 2, "mixed", seed=341)
        code, out, _ = run(capsys, "certify", "--max-iter", "2",
                           "--input", write_cm(tmp_path, cm))
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "undecided"
        assert "margin" in doc


class TestSweep:
    def test_explicit_eps_values(self, tmp_path, capsys):
        code, out, _ = run(capsys, "sweep", "--eps", "1.0", "--eps", "0.5",
                           "--input", write_cm(tmp_path, tmss(1.0)))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "eps,verdict,steps"
        assert lines[1].startswith("0.5,entangled,")
        assert lines[2].startswith("1.0,separable,")

    def test_linear_grid(self, tmp_path, capsys):
        code, out, _ = run(capsys, "sweep", "--eps-grid", "0.5:1.0:3",
                           "--input", write_cm(tmp_path, tmss(1.0)))
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 3
        assert [r.split(",")[1] for r in rows] == ["entangled", "entangled", "separable"]

    def test_log_grid(self, tmp_path, capsys):
        code, out, _ = run(capsys, "sweep", "--eps-grid", "0.25:1.0:3:log",
                           "--input", write_cm(tmp_path, tmss(1.0)))
        assert code == 0
        rows = out.strip().splitlines()[1:]
        eps = [float(r.split(",")[0]) for r in rows]
        assert eps == pytest.approx([0.25, 0.5, 1.0])

    def test_stop_after_separable(self, tmp_path, capsys):
        code, out, _ = run(capsys, "sweep", "--eps-grid", "0.5:2.0:16",
                           "--stop-after-separable",
                           "--input", write_cm(tmp_path, tmss(1.0)))
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) < 16
        assert rows[-1].split(",")[1] == "separable"
        assert all(r.split(",")[1] == "entangled" for r in rows[:-1])

    @pytest.mark.parametrize("spec", ["1.0:0.5:3", "0.5:1.0:1", "0:1:3:log", "a:b:c"])
    def test_bad_grid_spec(self, tmp_path, capsys, spec):
        code, _, err = run(capsys, "sweep", "--eps-grid", spec,
                           "--input", write_cm(tmp_path, tmss(1.0)))
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("spec", ["0.5:1.0", "0:1:3:lin", "0:inf:3", "0:1:2.5", "0:1:1e9",
                                      "1e-3:1:nan"])
    def test_malformed_grid_spec_names_the_format(self, tmp_path, capsys, spec):
        code, _, err = run(capsys, "sweep", "--eps-grid", spec,
                           "--input", write_cm(tmp_path, tmss(1.0)))
        assert code == 2
        assert err.startswith(f"error: --eps-grid must look like LO:HI:POINTS or "
                              f"LO:HI:POINTS:log, got {spec!r}")

    def test_missing_eps_arguments(self, tmp_path, capsys):
        code, _, err = run(capsys, "sweep", "--input", write_cm(tmp_path, tmss(1.0)))
        assert code == 2
        assert "sweep needs" in err

    def test_eps_and_eps_grid_are_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--eps", "0.1", "--eps-grid", "0.5:1:3",
                  "--input", write_cm(tmp_path, tmss(1.0))])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--eps-grid: not allowed with argument --eps" in captured.err


@pytest.mark.usefixtures("probe_budget")
class TestThreshold:
    def test_tmss_identity_threshold(self, tmp_path, capsys):
        code, out, _ = run(capsys, "threshold",
                           "--input", write_cm(tmp_path, tmss(1.0)))
        assert code == 0
        assert json.loads(out)["threshold"] == pytest.approx(EPS_STAR_R1, abs=1e-6)

    def test_already_separable_is_zero(self, tmp_path, capsys):
        cm = random_separable_cm(1, 1, seed=0)[0]
        code, out, _ = run(capsys, "threshold", "--input", write_cm(tmp_path, cm))
        assert code == 0
        assert json.loads(out)["threshold"] == 0.0

    def test_useless_perturbation_is_numerical_failure(self, tmp_path, capsys):
        zero = BipartiteCM.from_gamma(np.zeros((4, 4)), 1, 1)
        code, _, err = run(capsys, "threshold",
                           "--input", write_cm(tmp_path, tmss(1.0)),
                           "--perturbation", write_cm(tmp_path, zero, "pert.json"),
                           "--eps-max", "1e3")
        assert code == 3
        assert err.startswith("numerical failure:")

    def test_eps_max_below_threshold_is_numerical_failure(self, tmp_path, capsys):
        code, out, err = run(capsys, "threshold", "--input", write_cm(tmp_path, tmss(1.0)),
                             "--eps-max", "0.5")
        assert code == 3 and out == ""
        assert "eps_max=0.5" in err


class TestGen:
    def test_tmss_round_trip(self, tmp_path, capsys):
        code, out, _ = run(capsys, "gen", "tmss", "--r", "0.8")
        assert code == 0
        np.testing.assert_allclose(parse_cm(out).gamma, tmss(0.8).gamma, atol=0)

    @pytest.mark.parametrize("r", ["inf", "nan", "-1", "400"])
    def test_tmss_rejects_r_outside_its_range(self, capsys, r):
        code, out, err = run(capsys, "gen", "tmss", "--r", r)
        assert code == 2 and out == ""
        assert err.startswith("error: squeezing parameter r must lie in [0, 354]")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["random", "separable"])
    def test_rejects_empty_party(self, capsys, kind):
        code, out, err = run(capsys, "gen", kind, "--n", "1", "--m", "0")
        assert code == 2 and out == ""
        assert err == "error: both parties need at least one mode, got n=1 and m=0\n"

    def test_seed_determinism(self, capsys):
        code1, out1, _ = run(capsys, "gen", "random", "--n", "2", "--seed", "5")
        code2, out2, _ = run(capsys, "gen", "random", "--n", "2", "--seed", "5")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_separable_kind_decides_separable(self, tmp_path, capsys):
        code, out, _ = run(capsys, "gen", "separable", "--seed", "2",
                           "--output", str(tmp_path / "sep.json"))
        assert code == 0 and out == ""
        code, out, _ = run(capsys, "check", "--input", str(tmp_path / "sep.json"))
        assert code == 0
        assert json.loads(out)["verdict"] == "separable"

    def test_rejects_decision_flags(self, tmp_path, capsys):
        # gen decides nothing, so the tolerance flags are usage errors
        with pytest.raises(SystemExit) as info:
            main(["gen", "tmss", "--margin", "1e-3"])
        assert info.value.code == 2
        assert "--margin" in capsys.readouterr().err
        code, _, _ = run(capsys, "check", "--margin", "1e-3",
                         "--input", write_cm(tmp_path, tmss(1.0)))
        assert code == 0


class TestCanonicalOutput:
    # one case per JSON document the CLI writes itself
    @pytest.mark.parametrize("argv, state", [
        (("check",), "separable"),
        (("certify",), "entangled"),
        (("certify", "--max-iter", "2"), "multi-step"),
        (("threshold",), "entangled"),
    ])
    def test_json_is_sorted_indented_and_newline_terminated(self, tmp_path, capsys,
                                                             argv, state):
        cm = {"separable": random_separable_cm(2, 1, seed=3)[0],
              "entangled": tmss(1.0),
              "multi-step": random_cm(2, 2, "mixed", seed=341)}[state]
        code, out, _ = run(capsys, *argv, "--input", write_cm(tmp_path, cm))
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def _check_doc(verdict):
    return _canonical({"verdict": verdict.kind.value, "step": verdict.step,
                       "margin": verdict.margin, "reason": verdict.reason,
                       "c_opnorm_history": list(verdict.trace.c_opnorm_history)})


def _certify_doc(cm, max_iter=200):
    verdict = gsep.decide(cm, max_iter=max_iter)
    if verdict.kind is gsep.VerdictKind.SEPARABLE:
        cert = gsep.reconstruct(verdict.trace)
        return dump_certificate(cert, gsep.verify_certificate(cm, cert).margins)
    if verdict.kind is gsep.VerdictKind.ENTANGLED:
        lambda_min, vector = gsep.witness(verdict.trace)
        return _canonical({"verdict": "entangled", "step": verdict.step,
                           "lambda_min": lambda_min, "witness_real": vector.real.tolist(),
                           "witness_imag": vector.imag.tolist()})
    return _canonical({"verdict": "undecided", "step": verdict.step,
                       "margin": verdict.margin, "reason": verdict.reason})


def _sweep_csv(cm, grid, **kwargs):
    points = gsep.sweep(cm, np.eye(2 * (cm.n + cm.m)), grid, **kwargs)
    return "eps,verdict,steps\n" + "".join(f"{p.eps!r},{p.kind.value},{p.steps}\n"
                                            for p in points)


class TestOutputMatchesLibrary:
    # each subcommand prints exactly what the library computes on its input
    STATES = {"separable": lambda: random_separable_cm(2, 1, seed=3)[0],
              "entangled": lambda: tmss(1.0),
              "multi-step": lambda: random_cm(2, 2, "mixed", seed=341),
              "ppt-entangled": lambda: gsep.load_cm(str(FIXTURE))}

    @pytest.mark.parametrize("argv, state, expected", [
        (("check",), "separable", lambda cm: _check_doc(gsep.decide(cm))),
        (("check",), "multi-step", lambda cm: _check_doc(gsep.decide(cm))),
        (("check", "--eps", "1e-6"), "separable",
         lambda cm: _check_doc(gsep.decide_robust(cm, 1e-6))),
        (("check", "--eps", "1e-6"), "entangled",
         lambda cm: _check_doc(gsep.decide_robust(cm, 1e-6))),
        (("certify",), "separable", _certify_doc),
        (("certify",), "entangled", _certify_doc),
        (("certify",), "ppt-entangled", _certify_doc),
        (("certify", "--max-iter", "2"), "multi-step", lambda cm: _certify_doc(cm, 2)),
        (("threshold",), "entangled",
         lambda cm: _canonical({"threshold": gsep.find_threshold(cm)})),
        (("threshold",), "ppt-entangled",
         lambda cm: _canonical({"threshold": gsep.find_threshold(cm)})),
        (("sweep", "--eps", "1.0", "--eps", "0.5"), "entangled",
         lambda cm: _sweep_csv(cm, [1.0, 0.5])),
        (("sweep", "--eps-grid", "0.5:2.0:16", "--stop-after-separable"), "entangled",
         lambda cm: _sweep_csv(cm, np.linspace(0.5, 2.0, 16), stop_after_separable=True)),
    ], ids=["check-separable", "check-undecided", "check-robust-separable",
            "check-robust-entangled", "certify-separable", "certify-entangled",
            "certify-ppt-entangled", "certify-undecided", "threshold-tmss",
            "threshold-ppt-entangled", "sweep-eps", "sweep-grid"])
    def test_decision_commands(self, tmp_path, capsys, argv, state, expected):
        cm = self.STATES[state]()
        code, out, err = run(capsys, *argv, "--input", write_cm(tmp_path, cm))
        assert (code, err) == (0, "")
        assert out == expected(cm)

    @pytest.mark.parametrize("argv, cm", [
        (("gen", "tmss", "--r", "0.8"), lambda: tmss(0.8)),
        (("gen", "random", "--n", "2", "--purity", "pure", "--seed", "1"),
         lambda: gsep.gaussian.random_cm(2, 1, purity="pure", seed=1)),
        (("gen", "separable", "--m", "2", "--seed", "1"),
         lambda: gsep.gaussian.random_separable_cm(1, 2, seed=1)[0]),
    ], ids=["tmss", "random", "separable"])
    def test_gen(self, capsys, argv, cm):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == dump_cm(cm())


class TestColdStart:
    def test_import_and_cli_runs_leave_scipy_unloaded(self, tmp_path):
        separable = write_cm(tmp_path, random_separable_cm(2, 1, seed=3)[0])
        code = (
            "import sys, gsep\n"
            "from gsep.cli import main\n"
            "out = sys.argv[1]\n"
            "for i, path in enumerate(sys.argv[2:]):\n"
            "    for command in ('check', 'certify'):\n"
            "        assert main([command, '--input', path,\n"
            "                     '--output', f'{out}/{i}-{command}.json']) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        src = str(Path(gsep.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path), separable, str(FIXTURE)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=120, check=True)
        assert proc.stdout.strip() == "[]"
        assert "gamma_A" in (tmp_path / "0-certify.json").read_text()
        assert "witness_real" in (tmp_path / "1-certify.json").read_text()


    def test_runs_with_scipy_unimportable(self, tmp_path):
        # numpy is the only runtime dependency: gen, check and certify
        # all work in an interpreter where importing scipy fails
        code = (
            "import sys\n"
            "class NoScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'scipy' or name.startswith('scipy.'):\n"
            "            raise ImportError('scipy blocked')\n"
            "sys.meta_path.insert(0, NoScipy())\n"
            "import gsep\n"
            "from gsep.cli import main\n"
            "out = sys.argv[1]\n"
            "for kind in ('tmss', 'random', 'separable'):\n"
            "    path = f'{out}/{kind}.json'\n"
            "    assert main(['gen', kind, '--seed', '1', '--output', path]) == 0\n"
            "    for command in ('check', 'certify'):\n"
            "        assert main([command, '--input', path,\n"
            "                     '--output', f'{out}/{kind}-{command}.json']) == 0\n"
        )
        src = str(Path(gsep.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "gamma_A" in (tmp_path / "separable-certify.json").read_text()


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("gsep ")
