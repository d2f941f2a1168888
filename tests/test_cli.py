import csv
import json
import os
import warnings

import numpy as np
import pytest

from densgeo import cli, epdiff, geodesic, io, presets, spectral as sp, \
    validation


def write_config(path, text):
    path.write_text(text)
    return str(path)


def density(grid, spec):
    """A preset normalized to unit mass, as the CLI loads a density."""
    vals = presets.raw_preset(grid, spec)
    return sp.ScalarField(grid, vals / vals.mean())


SHOOT_CFG = """
[run]
seed = 0
[grid]
dim = 1
n = 32
[metric]
k = 1
[time]
T = 0.2
dt = 0.01
[initial]
rho = cos-bump amplitude 0.5 mode 1
p = sin-bump amplitude 0.2 mode 1
[output]
snapshot_stride = 10
"""


class TestShootCommand:
    def test_uniform_rest_run(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", """
[run]
seed = 0
[grid]
dim = 1
n = 32
[metric]
k = 1
[time]
T = 0.2
dt = 0.01
[initial]
rho = uniform
p = zero
""")
        out = str(tmp_path / "out")
        assert cli.main(["shoot", "--config", cfg, "--output-dir", out]) == 0
        status = io.read_json(os.path.join(out, "status.json"))
        assert status["status"] == "ok"
        rho = io.read_field(os.path.join(out, "rho_00000.field"))
        assert np.all(rho.values == 1.0)
        # constant trajectory: last snapshot equals the first
        last = sorted(f for f in os.listdir(out) if f.startswith("rho_"))[-1]
        rho_end = io.read_field(os.path.join(out, last))
        assert np.array_equal(rho_end.values, rho.values)

    def test_artifacts_and_diagnostics(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", SHOOT_CFG)
        out = str(tmp_path / "out")
        assert cli.main(["shoot", "--config", cfg, "--output-dir", out,
                         "--quiet"]) == 0
        manifest = io.read_json(os.path.join(out, "manifest.json"))
        assert manifest["grid"] == {"dim": 1, "n": 32}
        with open(os.path.join(out, "diagnostics.csv")) as fh:
            header = fh.readline().strip()
        assert header == "t,mass,energy,min_rho,max_abs_p,spectral_tail"

    def test_manifest_records_step_taken(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini",
                           SHOOT_CFG.replace("dt = 0.01", "dt = 0.03"))
        out = str(tmp_path / "out")
        assert cli.main(["shoot", "--config", cfg, "--output-dir", out,
                         "--quiet"]) == 0
        manifest = io.read_json(os.path.join(out, "manifest.json"))
        assert manifest["dt"] == 0.2 / 7
        assert manifest["config"]["time"]["dt"] == "0.03"
        with open(os.path.join(out, "diagnostics.csv")) as fh:
            last = fh.read().strip().splitlines()[-1]
        assert float(last.split(",")[0]) == pytest.approx(0.2, rel=1e-15)

    def test_nonpositive_T_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini",
                           SHOOT_CFG.replace("T = 0.2", "T = 0"))
        rc = cli.main(["shoot", "--config", cfg, "--output-dir",
                       str(tmp_path / "out")])
        assert rc == 2

    def test_infinite_T_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini",
                           SHOOT_CFG.replace("T = 0.2", "T = inf"))
        out = tmp_path / "out"
        rc = cli.main(["shoot", "--config", cfg, "--output-dir", str(out)])
        assert rc == 2
        assert "config error: [time]" in capsys.readouterr().err
        assert (out / "error.json").exists()
        assert not (out / "status.json").exists()

    def test_output_dir_naming_a_file_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini", SHOOT_CFG)
        out = tmp_path / "out"
        out.write_text("not a directory")
        rc = cli.main(["shoot", "--config", cfg, "--output-dir", str(out)])
        assert rc == 2
        assert "config error: output directory" in capsys.readouterr().err
        assert out.read_text() == "not a directory"

    def test_malformed_config_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini",
                           SHOOT_CFG.replace("k = 1", "k = -2"))
        out = str(tmp_path / "out")
        rc = cli.main(["shoot", "--config", cfg, "--output-dir", out])
        assert rc != 0
        assert not os.path.exists(os.path.join(out, "diagnostics.csv"))

    def test_missing_config_file(self, tmp_path):
        rc = cli.main(["shoot", "--config", str(tmp_path / "nope.ini")])
        assert rc == 2

    def test_reproducible_artifacts(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", SHOOT_CFG)
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert cli.main(["shoot", "--config", cfg, "--output-dir", out,
                             "--quiet"]) == 0
            outs.append(out)
        for fname in os.listdir(outs[0]):
            if fname == "status.json":  # wall_time differs
                continue
            with open(os.path.join(outs[0], fname), "rb") as fa, \
                    open(os.path.join(outs[1], fname), "rb") as fb:
                assert fa.read() == fb.read(), fname


    def test_aborted_shoot_keeps_the_snapshots_it_reached(self, tmp_path):
        # k = -1 steep data loses positivity at t = 0.25: the snapshots at
        # t = 0, 0.1 and 0.2 are written as the flow reaches them, and are
        # those of a shoot that ends at t = 0.2
        text = (SHOOT_CFG.replace("k = 1", "k = -1")
                .replace("amplitude 0.5", "amplitude 0.3")
                .replace("amplitude 0.2", "amplitude 2"))
        outs = {}
        for T, rc in (("1", 1), ("0.2", 0)):
            cfg = write_config(tmp_path / f"{T}.ini",
                               text.replace("T = 0.2", f"T = {T}"))
            outs[T] = str(tmp_path / T)
            assert cli.main(["shoot", "--config", cfg, "--output-dir",
                             outs[T], "--quiet"]) == rc
        status = io.read_json(os.path.join(outs["1"], "status.json"))
        assert status["message"].startswith("t=0.25: positivity lost")
        kept = sorted(os.listdir(outs["1"]))
        assert kept == sorted(os.listdir(outs["0.2"])) == sorted(
            ["manifest.json", "status.json", "diagnostics.csv"]
            + [f"{f}_{i:05d}.field" for f in ("rho", "p") for i in range(3)])
        for fname in kept:
            if fname not in ("manifest.json", "status.json"):
                with open(os.path.join(outs["1"], fname), "rb") as fa, \
                        open(os.path.join(outs["0.2"], fname), "rb") as fb:
                    assert fa.read() == fb.read(), fname
        with open(os.path.join(outs["1"], "diagnostics.csv")) as fh:
            assert len(fh.read().splitlines()) == 1 + 3  # header, 3 rows


    def test_interrupted_shoot_keeps_its_snapshots(self, tmp_path,
                                                   monkeypatch):
        # the sink is interrupted after the second of 3 snapshots: the
        # interrupt reaches the caller, status.json says so, and the two
        # snapshots written stay
        shoot = geodesic.shoot

        def interrupted(*args, out, **kw):
            def sink(*snapshot):
                out(*snapshot)
                written.append(snapshot[0])
                if len(written) == 2:
                    raise KeyboardInterrupt
            written = []
            return shoot(*args, out=sink, **kw)

        monkeypatch.setattr(geodesic, "shoot", interrupted)
        cfg = write_config(tmp_path / "c.ini", SHOOT_CFG)
        out = str(tmp_path / "out")
        with pytest.raises(KeyboardInterrupt):
            cli.main(["shoot", "--config", cfg, "--output-dir", out,
                      "--quiet"])
        status = io.read_json(os.path.join(out, "status.json"))
        assert status["status"] == "interrupted"
        assert sorted(os.listdir(out)) == sorted(
            ["manifest.json", "status.json", "diagnostics.csv"]
            + [f"{f}_{i:05d}.field" for f in ("rho", "p") for i in range(2)])
        with open(os.path.join(out, "diagnostics.csv")) as fh:
            assert len(fh.read().splitlines()) == 1 + 2

    def test_overflow_prints_only_the_abort_line(self, tmp_path, capsys):
        # a momentum of amplitude 1e150 overflows the one step: the run
        # exits 1 and its stderr is the abort line alone, with no numpy
        # warning before it (warnings are errors here, so one would escape)
        text = (SHOOT_CFG.replace("T = 0.2", "T = 1")
                .replace("dt = 0.01", "dt = 1")
                .replace("cos-bump amplitude 0.5 mode 1", "uniform")
                .replace("amplitude 0.2", "amplitude 1e150"))
        cfg = write_config(tmp_path / "c.ini", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["shoot", "--config", cfg, "--output-dir",
                           str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "aborted: t=1: state is no longer finite\n")


class TestFieldFileInputs:
    def test_file_input_roundtrip(self, tmp_path):
        g = sp.make_grid(1, 32)
        rho = density(g, "cos-bump amplitude 0.4 mode 1")
        rho_path = str(tmp_path / "rho.field")
        io.write_field(rho_path, rho)
        cfg = write_config(tmp_path / "c.ini", f"""
[run]
seed = 0
[grid]
dim = 1
n = 32
[metric]
k = 1
[time]
T = 0.1
dt = 0.01
[initial]
rho = file:{rho_path}
p = zero
""")
        out = str(tmp_path / "out")
        assert cli.main(["shoot", "--config", cfg, "--output-dir", out,
                         "--quiet"]) == 0

    def test_corrupted_field_file_rejected(self, tmp_path):
        g = sp.make_grid(1, 32)
        rho = density(g, "uniform")
        rho_path = str(tmp_path / "rho.field")
        io.write_field(rho_path, rho)
        with open(rho_path, "r+b") as fh:  # truncate the payload
            fh.truncate(os.path.getsize(rho_path) - 16)
        cfg = write_config(tmp_path / "c.ini", f"""
[run]
seed = 0
[grid]
dim = 1
n = 32
[metric]
k = 1
[time]
T = 0.1
dt = 0.01
[initial]
rho = file:{rho_path}
p = zero
""")
        rc = cli.main(["shoot", "--config", cfg,
                       "--output-dir", str(tmp_path / "out")])
        assert rc == 2

    def test_nan_field_file_rejected(self, tmp_path, capsys):
        g = sp.make_grid(1, 32)
        vals = np.ones(g.shape)
        vals[7] = np.nan
        rho_path = str(tmp_path / "rho.field")
        io.write_field(rho_path, sp.ScalarField(g, vals))
        with pytest.raises(io.FieldFormatError):
            io.read_field(rho_path)
        cfg = write_config(tmp_path / "c.ini", f"""
[grid]
dim = 1
n = 32
[metric]
k = 1
[time]
T = 0.1
dt = 0.01
[initial]
rho = file:{rho_path}
p = zero
""")
        rc = cli.main(["shoot", "--config", cfg,
                       "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "[initial] rho:" in capsys.readouterr().err

    def test_checksum_mismatch_rejected(self, tmp_path):
        g = sp.make_grid(1, 32)
        rho = density(g, "uniform")
        rho_path = str(tmp_path / "rho.field")
        io.write_field(rho_path, rho)
        cfg = write_config(tmp_path / "c.ini", f"""
[run]
seed = 0
[grid]
dim = 1
n = 32
[metric]
k = 1
[time]
T = 0.1
dt = 0.01
[initial]
rho = file:{rho_path}
rho_checksum = 0000000000000000000000000000000000000000000000000000000000000000
p = zero
""")
        rc = cli.main(["shoot", "--config", cfg,
                       "--output-dir", str(tmp_path / "out")])
        assert rc == 2


VALIDATE_CFG = """
[run]
seed = 5
[grid]
dim = 1
n = 32
[metric]
k = 1
"""


class TestValidateCommand:
    def test_all_pass_and_bitwise_reproducible(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", VALIDATE_CFG)
        reports = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert cli.main(["validate", "--config", cfg, "--output-dir",
                             out, "--quiet"]) == 0
            with open(os.path.join(out, "validation.json"), "rb") as fh:
                reports.append(fh.read())
        assert reports[0] == reports[1]
        report = json.loads(reports[0])
        assert report["all_passed"]

    def test_2d_k2_passes(self, tmp_path):
        # the horizontality check once failed here on roundoff alone: its
        # tolerance now scales with the roundoff that A amplifies
        cfg = write_config(tmp_path / "c.ini", VALIDATE_CFG.replace(
            "seed = 5", "seed = 0").replace("dim = 1", "dim = 2").replace(
            "k = 1", "k = 2"))
        out = str(tmp_path / "out")
        assert cli.main(["validate", "--config", cfg, "--output-dir", out,
                         "--quiet"]) == 0
        report = io.read_json(os.path.join(out, "validation.json"))
        assert report["grid"] == {"dim": 2, "n": 32} and report["k"] == 2

    def test_seed_change_same_verdicts(self, tmp_path):
        cfg_a = write_config(tmp_path / "a.ini", VALIDATE_CFG)
        cfg_b = write_config(tmp_path / "b.ini",
                             VALIDATE_CFG.replace("seed = 5", "seed = 99"))
        verdicts = []
        for cfg, name in ((cfg_a, "va"), (cfg_b, "vb")):
            out = str(tmp_path / name)
            assert cli.main(["validate", "--config", cfg, "--output-dir",
                             out, "--quiet"]) == 0
            report = io.read_json(os.path.join(out, "validation.json"))
            verdicts.append({k: v["passed"]
                             for k, v in report["checks"].items()})
        assert verdicts[0] == verdicts[1]

    def test_aborting_checks_keep_every_verdict(self, tmp_path):
        # on 1-D n 32 at k 8 the CG solve and the EPDiff flow abort: each
        # aborting check fails with its abort's message, and every other
        # check still runs and gives its verdict; the symmetry check
        # passes, its tolerance following the roundoff A amplifies, and the
        # equivariance check's roundoff is too large for a verdict
        cfg = write_config(tmp_path / "c.ini", VALIDATE_CFG.replace(
            "seed = 5", "seed = 0").replace("k = 1", "k = 8"))
        out = str(tmp_path / "out")
        assert cli.main(["validate", "--config", cfg, "--output-dir", out,
                         "--quiet"]) == 1
        checks = io.read_json(os.path.join(out, "validation.json"))["checks"]
        assert sorted(checks) == sorted(name for name, _ in validation.CHECKS)
        aborts = {name: c["abort"] for name, c in checks.items()
                  if "abort" in c}
        assert sorted(aborts) == ["epdiff-energy-conservation",
                                  "solve-apply-roundtrip"]
        assert aborts["solve-apply-roundtrip"].startswith(
            "CG did not converge")
        assert "Jacobian lost positivity" in aborts[
            "epdiff-energy-conservation"]
        for name in aborts:
            assert checks[name]["passed"] is False
            assert checks[name]["measured"] is None
        status = io.read_json(os.path.join(out, "status.json"))
        assert status["status"] == "aborted"
        assert checks["inertia-self-adjoint-positive"]["passed"] is True
        assert checks["multiplier-translation-equivariance"][
            "unresolved"] is True
        assert status["message"] == (
            "invariant checks failed: multiplier-translation-equivariance "
            "(unresolved), solve-apply-roundtrip (aborted), "
            "epdiff-energy-conservation (aborted)")

    def test_overflow_prints_only_the_verdict(self, tmp_path, capsys):
        # at k 100 the CG solve overflows: its abort reports it, with no
        # numpy warning beside the command's own line; the symbol checks'
        # roundoff is too large for a verdict
        cfg = write_config(tmp_path / "c.ini", VALIDATE_CFG.replace(
            "seed = 5", "seed = 0").replace("k = 1", "k = 100"))
        assert cli.main(["validate", "--config", cfg, "--output-dir",
                         str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "aborted: invariant checks failed: inertia-self-adjoint-positive "
            "(unresolved), multiplier-translation-equivariance (unresolved), "
            "solve-apply-roundtrip (aborted), epdiff-energy-conservation "
            "(aborted)\n")

    @pytest.mark.parametrize("seed", ["abc", "-3"])
    def test_bad_seed_is_a_config_error(self, tmp_path, capsys, seed):
        # the seed is read once the output directory exists, so error.json
        # says what is wrong; numpy would reject a negative one mid-run
        cfg = write_config(tmp_path / "c.ini",
                           VALIDATE_CFG.replace("seed = 5", f"seed = {seed}"))
        out = tmp_path / "out"
        assert cli.main(["validate", "--config", cfg, "--output-dir",
                         str(out), "--quiet"]) == 2
        assert "[run] seed" in capsys.readouterr().err
        assert "[run] seed" in io.read_json(str(out / "error.json"))["error"]
        assert sorted(os.listdir(out)) == ["error.json"]


EPDIFF_CFG = """
[run]
seed = 0
[grid]
dim = 1
n = 32
[metric]
k = 1
[time]
T = 0.2
dt = 0.02
[initial]
rho = cos-bump amplitude 0.3 mode 1
p = sin-bump amplitude 0.2 mode 1
"""


class TestEpdiffCheckCommand:
    def test_writes_report(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", EPDIFF_CFG)
        out = str(tmp_path / "out")
        assert cli.main(["epdiff-check", "--config", cfg, "--output-dir",
                         out, "--quiet"]) == 0
        report = io.read_json(os.path.join(out, "cross_validation.json"))
        for key in ("grid", "k", "dt", "T", "l2_discrepancy_final",
                    "l2_discrepancy_max", "horizontality_defect_max",
                    "energy_drift_density", "energy_drift_epdiff"):
            assert key in report
        assert report["l2_discrepancy_final"] < 1e-8
        # one comparison.csv row per checkpoint, every step of 10 here
        with open(os.path.join(out, "comparison.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == ("t,l2_discrepancy,horizontality_defect,"
                            "energy_density,energy_epdiff")
        assert len(lines) == 1 + 11
        last = [float(cell) for cell in lines[-1].split(",")]
        assert last[0] == report["T"]
        assert last[1] == report["l2_discrepancy_final"]

    def test_aborted_check_keeps_the_comparisons_it_made(self, tmp_path,
                                                         monkeypatch):
        # the EPDiff guard fails at step 7 of 20 (a comparison every 2nd
        # step): the rows of steps 0, 2, 4 and 6 are written as the
        # cross-check makes them, and are those of the completed check
        cfg = write_config(tmp_path / "c.ini",
                           EPDIFF_CFG.replace("dt = 0.02", "dt = 0.01"))
        outs = {name: str(tmp_path / name) for name in ("done", "aborted")}
        assert cli.main(["epdiff-check", "--config", cfg, "--output-dir",
                         outs["done"], "--quiet"]) == 0
        flow_step, steps = epdiff._flow_step, []

        def failing(ops, y, dt):
            steps.append(1)
            y, reason = flow_step(ops, y, dt)
            return y, "forced failure" if len(steps) == 7 else reason

        monkeypatch.setattr(epdiff, "_flow_step", failing)
        assert cli.main(["epdiff-check", "--config", cfg, "--output-dir",
                         outs["aborted"], "--quiet"]) == 1
        status = io.read_json(os.path.join(outs["aborted"], "status.json"))
        assert status["message"] == "t=0.07: forced failure"
        assert sorted(os.listdir(outs["aborted"])) == [
            "comparison.csv", "manifest.json", "status.json"]
        rows = {}
        for name, out in outs.items():
            with open(os.path.join(out, "comparison.csv")) as fh:
                rows[name] = fh.read().splitlines()
        assert len(rows["done"]) == 1 + 11
        assert rows["aborted"] == rows["done"][:1 + 4]

    @staticmethod
    def failing(module, name, at, message):
        """module.name, a step (ops, y, dt) -> (y, reason), failing with
        message at its call number `at`."""
        step, calls = getattr(module, name), []

        def wrapped(ops, y, dt):
            calls.append(1)
            y, reason = step(ops, y, dt)
            return y, message if len(calls) == at else reason
        return wrapped

    def test_density_abort_keeps_the_comparisons_before_it(self, tmp_path,
                                                           monkeypatch):
        # the density flow fails at step 30 of 50 (a comparison every 5th
        # step): the flows step together, so the rows of steps 0 .. 25 are
        # written, and the message is the density flow's
        cfg = write_config(tmp_path / "c.ini", EPDIFF_CFG.replace(
            "T = 0.2", "T = 0.5").replace("dt = 0.02", "dt = 0.01"))
        outs = {name: str(tmp_path / name) for name in ("done", "aborted")}
        assert cli.main(["epdiff-check", "--config", cfg, "--output-dir",
                         outs["done"], "--quiet"]) == 0
        monkeypatch.setattr(geodesic, "step_rk4", self.failing(
            geodesic, "step_rk4", 30, "forced density failure"))
        assert cli.main(["epdiff-check", "--config", cfg, "--output-dir",
                         outs["aborted"], "--quiet"]) == 1
        status = io.read_json(os.path.join(outs["aborted"], "status.json"))
        assert status["message"] == "t=0.3: forced density failure"
        rows = {}
        for name, out in outs.items():
            with open(os.path.join(out, "comparison.csv")) as fh:
                rows[name] = fh.read().splitlines()
        assert len(rows["done"]) == 1 + 11
        assert rows["aborted"] == rows["done"][:1 + 6]

    def test_density_abort_wins_over_an_earlier_epdiff_abort(self, tmp_path,
                                                             monkeypatch):
        # EPDiff fails at step 10, the density flow at step 30: the density
        # flow's abort is reported, as when that flow ran first
        cfg = write_config(tmp_path / "c.ini", EPDIFF_CFG.replace(
            "T = 0.2", "T = 0.5").replace("dt = 0.02", "dt = 0.01"))
        out = str(tmp_path / "out")
        monkeypatch.setattr(epdiff, "_flow_step", self.failing(
            epdiff, "_flow_step", 10, "forced EPDiff failure"))
        monkeypatch.setattr(geodesic, "step_rk4", self.failing(
            geodesic, "step_rk4", 30, "forced density failure"))
        assert cli.main(["epdiff-check", "--config", cfg, "--output-dir",
                         out, "--quiet"]) == 1
        status = io.read_json(os.path.join(out, "status.json"))
        assert status["message"] == "t=0.3: forced density failure"

    def test_overflow_prints_only_the_abort(self, tmp_path, capsys):
        # at k 100 the first comparison's horizontality defect overflows to
        # inf, and EPDiff's first step is no longer finite: the guard
        # reports it, with no numpy warning beside the command's own line
        cfg = write_config(tmp_path / "c.ini", EPDIFF_CFG.replace(
            "k = 1", "k = 100").replace("T = 0.2", "T = 0.1").replace(
            "dt = 0.02", "dt = 0.01").replace(
            "cos-bump amplitude 0.3 mode 1", "uniform"))
        out = str(tmp_path / "out")
        assert cli.main(["epdiff-check", "--config", cfg, "--output-dir",
                         out]) == 1
        assert capsys.readouterr().err == (
            "aborted: t=0.01: state is no longer finite\n")
        with open(os.path.join(out, "comparison.csv")) as fh:
            rows = fh.read().splitlines()
        assert len(rows) == 2 and rows[1].split(",")[2] == "inf"

    def test_negative_order_is_a_config_error(self, tmp_path, capsys):
        # the CLI and cross_validate give epdiff.check_order's one message,
        # and the CLI before the manifest
        cfg = write_config(tmp_path / "c.ini", """
[grid]
dim = 1
n = 32
[metric]
k = -1
[time]
T = 0.2
dt = 0.02
[initial]
rho = uniform
p = zero
""")
        out = tmp_path / "out"
        assert cli.main(["epdiff-check", "--config", cfg, "--output-dir",
                         str(out)]) == 2
        with pytest.raises(ValueError) as info:
            epdiff.check_order(-1)
        g = sp.make_grid(1, 32)
        with pytest.raises(ValueError) as api:
            epdiff.cross_validate(sp.ScalarField(g, np.ones(g.shape)),
                                  sp.ScalarField(g, np.zeros(g.shape)), -1,
                                  0.2, 0.02)
        assert str(api.value) == str(info.value)
        assert capsys.readouterr().err == (
            f"config error: [metric] k: {info.value}\n")
        assert not (out / "manifest.json").exists()


class TestConvergenceCommand:
    def test_temporal_order_and_saturation(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", """
[run]
seed = 0
[grid]
dim = 1
n = 32
[metric]
k = 1
[time]
T = 0.5
dt = 0.02
[initial]
rho = cos-bump amplitude 0.5 mode 1
p = sin-bump amplitude 0.2 mode 1
""")
        out = str(tmp_path / "out")
        assert cli.main(["convergence", "--config", cfg, "--output-dir",
                         out, "--quiet"]) == 0
        summary = io.read_json(os.path.join(out, "summary.json"))
        assert 3.5 <= summary["observed_temporal_order"] <= 4.5
        assert summary["spatial_refinement_change"] < 1e-8
        assert summary["aborted_runs"] == 0
        with open(os.path.join(out, "convergence.csv")) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == ("run,n,dt,status,energy_drift,spectral_tail,"
                            "mass_error,abort_time,abort_reason")
        assert len(lines) == 5  # dt/{1,2,4} and 2n
        # no abort, so no abort time or reason
        assert all(line.split(",")[3] == "ok" and line.endswith(",,")
                   for line in lines[1:])
        status = io.read_json(os.path.join(out, "status.json"))
        assert status["message"].startswith(
            "convergence study done: 0 of 4 runs aborted, "
            "observed_temporal_order=")

    def test_aborted_runs_keep_their_time_and_reason(self, tmp_path):
        """k = 0 on T^1 is the local regime: with p0 = 5 sin x every run
        loses positivity near t = 0.45. Each row records its abort's time
        and message, and the study says how many runs aborted; it still
        exits 0, as a study of an aborting flow is a completed study."""
        cfg = write_config(tmp_path / "c.ini", """
[grid]
dim = 1
n = 32
[metric]
k = 0
[time]
T = 1
dt = 0.01
[initial]
rho = uniform
p = sin-bump amplitude 5 mode 1
""")
        out = tmp_path / "out"
        assert cli.main(["convergence", "--config", cfg, "--output-dir",
                         str(out), "--quiet"]) == 0
        with open(out / "convergence.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["run"], row["status"]) for row in rows] == [
            ("dt/1", "aborted"), ("dt/2", "aborted"), ("dt/4", "aborted"),
            ("2n", "aborted")]
        for row, dt in zip(rows, (0.01, 0.005, 0.0025, 0.01)):
            t = float(row["abort_time"])
            assert 0.4 < t < 0.5
            assert round(t / dt, 9) == round(t / dt)  # a step's end
            assert row["abort_reason"].startswith(
                f"t={t:.6g}: positivity lost: min rho -")
            assert row["energy_drift"] == row["mass_error"] == ""
        assert io.read_json(str(out / "summary.json")) == {"aborted_runs": 4}
        status = io.read_json(str(out / "status.json"))
        assert status == {"status": "ok", "wall_time": status["wall_time"],
                          "message": "convergence study done: 4 of 4 runs "
                                     "aborted"}

    def test_bad_preset_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini", SHOOT_CFG.replace(
            "amplitude 0.5 mode 1", "amplitude 1.5 mode 1"))
        out = tmp_path / "out"
        assert cli.main(["convergence", "--config", cfg, "--output-dir",
                         str(out), "--quiet"]) == 2
        assert "[initial] rho" in capsys.readouterr().err
        assert "amplitude" in io.read_json(str(out / "error.json"))["error"]
        assert not (out / "status.json").exists()
        assert not (out / "manifest.json").exists()


LOCAL_REGIME_CFG = """
[run]
seed = 0
[grid]
dim = 2
n = 16
[metric]
k = 1
[time]
T = 0.2
dt = 0.02
[initial]
rho = cos-bump amplitude 0.3 mode 1
p = sin-bump amplitude 0.2 mode 1
"""


@pytest.mark.parametrize("command",
                         ["validate", "convergence", "shoot", "epdiff-check"])
def test_local_regime_warning_once_per_command(tmp_path, caplog, command):
    """2-D k = 1 is in the local regime: a command logs the warning once,
    however many times it shoots, and the next command logs it again."""
    cfg = write_config(tmp_path / "c.ini", LOCAL_REGIME_CFG)
    for run in ("a", "b"):
        caplog.clear()
        with caplog.at_level("WARNING", logger="densgeo.geodesic"):
            assert cli.main([command, "--config", cfg, "--output-dir",
                             str(tmp_path / run), "--quiet"]) == 0
        assert [r.getMessage().startswith("k=1 is in the local regime on T^2")
                for r in caplog.records] == [True]
    assert not geodesic.log.filters


class TestMatchCommand:
    def test_identical_targets(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", """
[run]
seed = 0
[grid]
dim = 1
n = 32
[metric]
k = 1
[time]
T = 0.2
dt = 0.02
[initial]
rho = cos-bump amplitude 0.3 mode 1
[matching]
rho1 = cos-bump amplitude 0.3 mode 1
n_modes = 2
max_iter = 10
""")
        out = str(tmp_path / "out")
        assert cli.main(["match", "--config", cfg, "--output-dir", out,
                         "--quiet"]) == 0
        result = io.read_json(os.path.join(out, "result.json"))
        assert result["status"] == "converged"
        assert result["final_l2_mismatch"] < 1e-12
        with open(os.path.join(out, "history.csv")) as fh:
            assert fh.readline().strip() == "iter,objective,grad_norm,lambda"


MATCH_CFG = """
[grid]
dim = 1
n = 32
[metric]
k = 1
[time]
T = 0.2
dt = 0.02
[initial]
rho = cos-bump amplitude 0.3 mode 1
[matching]
rho1 = cos-bump amplitude 0.3 mode 1
n_modes = 2
"""


@pytest.mark.parametrize("setting", [
    "fd_step = 0", "fd_step = nan", "grad_tol = -1", "grad_tol = nan",
    "max_iter = -3"])
def test_bad_optimizer_setting_is_a_config_error(tmp_path, capsys, setting):
    cfg = write_config(tmp_path / "c.ini", MATCH_CFG + setting + "\n")
    out = tmp_path / "out"
    assert cli.main(["match", "--config", cfg, "--output-dir", str(out),
                     "--quiet"]) == 2
    key = setting.split()[0]
    assert f"[matching]: {key}" in capsys.readouterr().err
    assert key in io.read_json(str(out / "error.json"))["error"]
    assert not (out / "status.json").exists()
    assert not (out / "result.json").exists()


def test_fd_step_is_a_config_error(tmp_path, capsys):
    # the Jacobian is exact: a finite-difference step would set nothing
    cfg = write_config(tmp_path / "c.ini", MATCH_CFG + "fd_step = 1e-5\n")
    out = tmp_path / "out"
    assert cli.main(["match", "--config", cfg, "--output-dir", str(out),
                     "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "[matching]: fd_step" in err and "exact" in err
    assert "fd_step" in io.read_json(str(out / "error.json"))["error"]
    assert not (out / "status.json").exists()


@pytest.mark.parametrize("command,n", [
    ("shoot", 32), ("match", 32), ("epdiff-check", 32), ("validate", 32),
    ("convergence", 16)])
def test_overflowing_metric_order_is_a_config_error(tmp_path, capsys,
                                                     command, n):
    # k = 127: the inertia symbol (1 + |xi|^2)^(k+1) overflows on 1-D n 32,
    # 257^128, but not on n 16, which convergence doubles to n 32
    cfg = write_config(tmp_path / "c.ini", MATCH_CFG.replace(
        "n = 32", f"n = {n}").replace("k = 1", "k = 127").replace(
        "[matching]", "p = sin-bump amplitude 0.1 mode 1\n[matching]"))
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--output-dir", str(out),
                     "--quiet"]) == 2
    assert "config error: [metric] k" in capsys.readouterr().err
    assert "k=127" in io.read_json(str(out / "error.json"))["error"]
    assert not (out / "status.json").exists()


@pytest.mark.parametrize("stride", ["0", "-3"])
def test_bad_snapshot_stride_is_a_config_error(tmp_path, stride):
    cfg = write_config(tmp_path / "c.ini", SHOOT_CFG.replace(
        "snapshot_stride = 10", f"snapshot_stride = {stride}"))
    out = tmp_path / "out"
    assert cli.main(["shoot", "--config", cfg, "--output-dir", str(out),
                     "--quiet"]) == 2
    assert "snapshot_stride" in io.read_json(str(out / "error.json"))["error"]
    assert not (out / "status.json").exists()


@pytest.mark.parametrize("entry,name", [
    ("rho = cos-bump amplitude 0.5 mode 1.5", "mode"),
    ("rho = cos-bump amplitude 0.5 mode inf", "mode"),
    ("p = sin-bump amplitude 0.2 mode nan", "mode"),
    ("p = sin-bump amplitude nan mode 1", "amplitude"),
    ("rho = gauss-like center 3 width nan", "width"),
    ("rho = gauss-like center inf width 0.7", "center"),
    ("rho = cos-bump amplitude 0.5 mode 40", "mode"),
    ("p = sin-bump amplitude 0.5 mode 16", "mode")])
def test_bad_preset_parameter_is_a_config_error(tmp_path, capsys, entry,
                                                name):
    key = entry.split()[0]
    text = "\n".join(entry if line.startswith(f"{key} =") else line
                     for line in SHOOT_CFG.splitlines())
    cfg = write_config(tmp_path / "c.ini", text)
    out = tmp_path / "out"
    assert cli.main(["shoot", "--config", cfg, "--output-dir", str(out),
                     "--quiet"]) == 2
    assert f"[initial] {key}" in capsys.readouterr().err
    assert name in io.read_json(str(out / "error.json"))["error"]
    assert not (out / "status.json").exists()


def test_preset_errors():
    g = sp.make_grid(1, 32)
    with pytest.raises(presets.PresetError):
        presets.raw_preset(g, "cos-bump amplitude 1.5 mode 1")
    with pytest.raises(presets.PresetError):
        presets.raw_preset(g, "no-such-preset")
    presets.raw_preset(g, "sin-bump amplitude 0.5 mode -10")  # |m| = n//3
    for mode in (11, -11):
        with pytest.raises(presets.PresetError, match="n//3 = 10"):
            presets.raw_preset(g, f"cos-bump amplitude 0.5 mode {mode}")


def test_field_io_bit_exact(tmp_path):
    g = sp.make_grid(2, 16)
    rng = np.random.default_rng(0)
    v = sp.VectorField(g, tuple(rng.normal(size=g.shape) for _ in range(2)))
    path = str(tmp_path / "v.field")
    io.write_field(path, v)
    back = io.read_field(path)
    for a, b in zip(back.components, v.components):
        assert np.array_equal(a, b)


def test_bad_grid_header_is_a_format_error(tmp_path):
    path = tmp_path / "rho.field"
    header = {"dim": 1, "n": 12, "kind": "scalar", "components": 1,
              "byte_order": "little"}
    path.write_bytes((json.dumps(header) + "\n").encode()
                     + np.ones(12).astype("<f8").tobytes())
    with pytest.raises(io.FieldFormatError):
        io.read_field(str(path))
    cfg = write_config(tmp_path / "c.ini", f"""
[grid]
dim = 1
n = 32
[metric]
k = 1
[time]
T = 0.1
dt = 0.01
[initial]
rho = file:{path}
p = zero
""")
    assert cli.main(["shoot", "--config", cfg, "--output-dir",
                     str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("key,value", [
    ("dim", 1.7), ("dim", True), ("n", 16.9), ("n", 16.0),
    ("components", 1.5), ("components", True)])
def test_non_integer_header_is_a_format_error(tmp_path, key, value):
    # each header would otherwise read as a valid 1-D n = 16 scalar
    path = tmp_path / "rho.field"
    header = {"dim": 1, "n": 16, "kind": "scalar", "components": 1,
              "byte_order": "little", key: value}
    path.write_bytes((json.dumps(header) + "\n").encode()
                     + np.ones(16).astype("<f8").tobytes())
    with pytest.raises(io.FieldFormatError, match=f"{key!r} must be an int"):
        io.read_field(str(path))


def test_non_object_header_is_a_format_error(tmp_path):
    path = tmp_path / "rho.field"
    path.write_bytes(b"5\n" + np.ones(16).astype("<f8").tobytes())
    with pytest.raises(io.FieldFormatError, match="not a JSON object"):
        io.read_field(str(path))


def test_non_integer_header_file_entry_exits_2(tmp_path, capsys):
    path = tmp_path / "rho.field"
    header = {"dim": 1, "n": 32.5, "kind": "scalar", "components": 1,
              "byte_order": "little"}
    path.write_bytes((json.dumps(header) + "\n").encode()
                     + np.ones(32).astype("<f8").tobytes())
    cfg = write_config(tmp_path / "c.ini", f"""
[grid]
dim = 1
n = 32
[metric]
k = 1
[time]
T = 0.1
dt = 0.01
[initial]
rho = file:{path}
p = zero
""")
    assert cli.main(["shoot", "--config", cfg, "--output-dir",
                     str(tmp_path / "out")]) == 2
    assert "[initial] rho:" in capsys.readouterr().err


FILE_CFG = """
[grid]
dim = 1
n = 32
[metric]
k = 2
[time]
T = 1e-5
dt = 1e-6
[initial]
rho = uniform
p = zero
"""


def file_entry_config(tmp_path, key, values):
    """FILE_CFG with the [initial] key set to values: a preset string, or
    an array written to a field file."""
    if not isinstance(values, str):
        path = tmp_path / f"{key}.field"
        io.write_field(str(path), sp.ScalarField(sp.make_grid(1, 32), values))
        values = f"file:{path}"
    text = "\n".join(f"{key} = {values}" if line.startswith(f"{key} =")
                     else line for line in FILE_CFG.splitlines())
    return write_config(tmp_path / "c.ini", text)


@pytest.mark.parametrize("key,values", [
    ("rho", np.linspace(1.0, 1.7, 32) * 1e308),
    ("p", np.tile([1.7e308, -1.7e308], 16)),
    ("p", "sin-bump amplitude 1.7e308 mode 1")])
def test_overflowing_initial_field_is_a_config_error(tmp_path, capsys, key,
                                                     values):
    cfg = file_entry_config(tmp_path, key, values)
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = cli.main(["shoot", "--config", cfg, "--output-dir", str(out),
                       "--quiet"])
    assert rc == 2
    assert f"[initial] {key}:" in capsys.readouterr().err
    assert "normalization" in io.read_json(str(out / "error.json"))["error"]
    assert not (out / "status.json").exists()


@pytest.mark.parametrize("values", [
    "sin-bump amplitude 0.5 mode 1",
    np.where(np.arange(32) == 5, 0.0, 1.0)])
def test_nonpositive_density_is_a_config_error(tmp_path, capsys, values):
    # a preset and a field file go through the same density checks
    cfg = file_entry_config(tmp_path, "rho", values)
    out = tmp_path / "out"
    assert cli.main(["shoot", "--config", cfg, "--output-dir", str(out),
                     "--quiet"]) == 2
    assert "[initial] rho: density not positive" in capsys.readouterr().err
    assert not (out / "status.json").exists()


def test_large_momentum_file_runs(tmp_path):
    g = sp.make_grid(1, 32)
    p = 1e6 * presets.raw_preset(g, "gauss-like center 1 width 0.5")
    cfg = file_entry_config(tmp_path, "p", p)
    out = tmp_path / "out"
    assert cli.main(["shoot", "--config", cfg, "--output-dir", str(out),
                     "--quiet"]) == 0
    assert io.read_json(str(out / "status.json"))["status"] == "ok"


@pytest.mark.parametrize("command,dt", [("shoot", "1e-300"),
                                        ("convergence", "3e-12")])
def test_step_count_over_the_bound_is_a_config_error(tmp_path, capsys,
                                                     command, dt):
    # convergence also runs dt/4: 3e-12 is in bounds, 7.5e-13 is not
    cfg = write_config(tmp_path / "c.ini",
                       FILE_CFG.replace("dt = 1e-6", f"dt = {dt}"))
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--output-dir", str(out),
                     "--quiet"]) == 2
    assert "config error: [time]" in capsys.readouterr().err
    assert "MAX_STEPS" in io.read_json(str(out / "error.json"))["error"]
    assert not (out / "status.json").exists()


def test_read_field_grid_mismatch(tmp_path):
    g = sp.make_grid(1, 32)
    path = str(tmp_path / "f.field")
    io.write_field(path, sp.ScalarField(g, np.zeros(g.shape)))
    with pytest.raises(io.FieldFormatError):
        io.read_field(path, expected_grid=sp.make_grid(1, 64))


def test_vector_field_file_as_scalar_entry_exits_2(tmp_path, capsys):
    g = sp.make_grid(1, 32)
    path = tmp_path / "v.field"
    io.write_field(str(path), sp.VectorField(g, np.ones((1,) + g.shape)))
    cfg = write_config(tmp_path / "c.ini",
                       FILE_CFG.replace("rho = uniform", f"rho = file:{path}"))
    out = tmp_path / "out"
    assert cli.main(["shoot", "--config", cfg, "--output-dir", str(out),
                     "--quiet"]) == 2
    assert "[initial] rho:" in capsys.readouterr().err
    assert "vector field" in io.read_json(str(out / "error.json"))["error"]


def test_directory_as_field_file_exits_2(tmp_path, capsys):
    (tmp_path / "d.field").mkdir()
    cfg = write_config(tmp_path / "c.ini", FILE_CFG.replace(
        "p = zero", f"p = file:{tmp_path / 'd.field'}"))
    assert cli.main(["shoot", "--config", cfg, "--output-dir",
                     str(tmp_path / "out"), "--quiet"]) == 2
    assert "[initial] p: cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["directory", "latin-1"])
def test_unreadable_config_exits_2(tmp_path, capsys, kind):
    path = tmp_path / "c.ini"
    if kind == "directory":
        path.mkdir()
    else:  # not UTF-8: a Latin-1 comment
        path.write_bytes(FILE_CFG.encode() + "; caf\xe9\n".encode("latin-1"))
    out = tmp_path / "out"
    assert cli.main(["shoot", "--config", str(path), "--output-dir",
                     str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(path) in err
    assert not out.exists()
