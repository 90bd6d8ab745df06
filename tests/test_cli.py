import csv
import dataclasses
import json
import math
import subprocess
import sys
import time
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

import gsh_shrink
from gsh_shrink import cli
from gsh_shrink.cli import _fmt, _write_csv, main
from gsh_shrink.elicitation import ElicitationConfig
from gsh_shrink.experiments import ExperimentConfig, denoise_detailed
from gsh_shrink.numerics import SeededRng, sample_normal
from gsh_shrink.signals import sample_function, scale_to_snr


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    cols = {name: np.array([row[i] for row in data])
            for i, name in enumerate(header)}
    return header, cols


def write_series(path, values, header=("date", "value")):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, v in enumerate(values):
            writer.writerow([f"2020-01-{i % 28 + 1:02d}", repr(float(v))])


@pytest.fixture()
def heavisine_series(tmp_path):
    _, f_raw = sample_function("heavisine", 512)
    f = scale_to_snr(f_raw, 7.0, 1.0)
    y = f + sample_normal(SeededRng(31415), 0.0, 1.0, 512)
    path = tmp_path / "series.csv"
    write_series(path, y)
    return path, f, y


class TestDenoise:
    def test_end_to_end_improves_on_noise(self, tmp_path, heavisine_series):
        path, f, y = heavisine_series
        out = tmp_path / "run"
        assert main(["denoise", str(path), "--out-prefix", str(out)]) == 0
        _, cols = read_csv(f"{out}_denoised.csv")
        f_hat = cols["f_hat"].astype(float)
        assert np.mean((f_hat - f) ** 2) < 1.0  # noise variance is 1
        np.testing.assert_allclose(cols["y"].astype(float), y, rtol=1e-15)
        assert Path(f"{out}_coefficients.csv").exists()
        assert Path(f"{out}_manifest.json").exists()

    def test_manifest_contents(self, tmp_path, heavisine_series):
        path, _, _ = heavisine_series
        out = tmp_path / "m"
        assert main(["denoise", str(path), "--out-prefix", str(out)]) == 0
        manifest = json.loads(Path(f"{out}_manifest.json").read_text())
        assert manifest["command"] == "denoise"
        assert manifest["config"]["method"] == "gsh"
        assert set(manifest["outputs"]) == {"denoised", "coefficients"}

    def test_constant_series(self, tmp_path, capsys):
        path = tmp_path / "const.csv"
        write_series(path, np.full(256, 5.0))
        out = tmp_path / "c"
        assert main(["denoise", str(path), "--out-prefix", str(out)]) == 0
        _, cols = read_csv(f"{out}_coefficients.csv")
        assert np.all(np.abs(cols["estimated"].astype(float)) < 1e-9)
        _, dcols = read_csv(f"{out}_denoised.csv")
        np.testing.assert_allclose(dcols["f_hat"].astype(float), 5.0,
                                   atol=1e-9)

    def test_prints_elicited_hyperparameters(self, tmp_path, capsys,
                                             heavisine_series):
        path, _, _ = heavisine_series
        assert main(["denoise", str(path),
                     "--out-prefix", str(tmp_path / "p")]) == 0
        text = capsys.readouterr().out
        assert "sigma_hat:" in text
        assert "t:" in text
        assert "alpha[level 4]: 0.0" in text

    def test_deterministic_outputs(self, tmp_path, heavisine_series):
        path, _, _ = heavisine_series
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["denoise", str(path), "--out-prefix", str(out1)]) == 0
        assert main(["denoise", str(path), "--out-prefix", str(out2)]) == 0
        for suffix in ("_denoised.csv", "_coefficients.csv"):
            assert (Path(f"{out1}{suffix}").read_bytes()
                    == Path(f"{out2}{suffix}").read_bytes())

    def test_prices_in_index_points_warn(self, tmp_path, capsys):
        # pinned defect: a Student-t(4) walk with 2% daily sd from 100 000
        # puts sigma_hat near 2.2e3 against tau = 1, far outside the
        # admissible sigma/tau range; the rule then flips the sign of many
        # coefficients and the command still succeeds, so it must say so
        steps = SeededRng(2).generator().standard_t(4, size=4936) * 0.02 / math.sqrt(2)
        prices = 1e5 * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))
        path = tmp_path / "index.csv"
        write_series(path, prices)
        out = tmp_path / "idx"
        code = main(["denoise", str(path), "--pad", "symmetric",
                     "--out-prefix", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        sigma_hat = float(captured.out.splitlines()[0].split(":")[1])
        assert 1e3 < sigma_hat < 1e4
        _, cols = read_csv(f"{out}_coefficients.csv")
        flips = np.sign(cols["empirical"].astype(float)) \
            * np.sign(cols["estimated"].astype(float)) < 0
        assert np.count_nonzero(flips) > 0
        assert "warning: sigma_hat/tau" in captured.err
        assert "outside the admissible range [0.1, 10.0]" in captured.err
        assert Path(f"{out}_denoised.csv").exists()

    def test_admissible_noise_ratio_does_not_warn(self, tmp_path, capsys,
                                                 heavisine_series):
        path, _, _ = heavisine_series
        assert main(["denoise", str(path),
                     "--out-prefix", str(tmp_path / "q")]) == 0
        assert "warning" not in capsys.readouterr().err

    def test_non_dyadic_length_rejected(self, tmp_path, capsys):
        path = tmp_path / "odd.csv"
        write_series(path, np.sin(np.arange(500) / 10))
        code = main(["denoise", str(path), "--out-prefix",
                     str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "256" in err and "512" in err

    @pytest.mark.parametrize("pad", [[], ["--pad", "symmetric"]], ids=["plain", "pad"])
    def test_one_sample_is_too_short(self, tmp_path, capsys, pad):
        # J0 = 4 needs 32 samples; 1 is not named as a valid length, and
        # padding does not reach the config's power-of-two check
        path = tmp_path / "one.csv"
        write_series(path, [1.0])
        out = tmp_path / "one"
        assert main(["denoise", str(path), *pad, "--out-prefix", str(out)]) == 2
        err = capsys.readouterr().err
        assert "series length 1 is too short for primary level 4: need at least 32" in err
        assert "power" not in err
        assert not list(tmp_path.glob("one_*"))

    def test_short_length_names_only_valid_lengths(self, tmp_path, capsys):
        # 16 is a power of two but too short for J0 = 4; 32 is the nearest
        path = tmp_path / "twenty.csv"
        write_series(path, np.sin(np.arange(20)))
        code = main(["denoise", str(path), "--out-prefix", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "the shortest valid length is 32" in err
        assert "16" not in err
        assert not list(tmp_path.glob("x_*"))
        out = tmp_path / "padded"
        assert main(["denoise", str(path), "--pad", "symmetric",
                     "--out-prefix", str(out)]) == 0
        _, cols = read_csv(f"{out}_denoised.csv")
        assert cols["f_hat"].size == 20

    @pytest.mark.parametrize("column", [["--column", "close"], []], ids=["close", "last"])
    def test_byte_order_mark_is_ignored(self, tmp_path, column):
        # spreadsheets' "CSV UTF-8" export starts with a byte-order mark,
        # which became part of the first header cell
        path = tmp_path / "plain.csv"
        y = np.sin(np.arange(256) / 9.0) * 4.0 + np.random.default_rng(3).normal(size=256)
        rows = (f"{v!r},{i}\n" for i, v in enumerate(y.tolist()))
        path.write_text("close,day\n" + "".join(rows))
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        for src, out in ((path, tmp_path / "a"), (marked, tmp_path / "b")):
            assert main(["denoise", str(src), *column, "--out-prefix", str(out)]) == 0
        for suffix in ("_denoised.csv", "_coefficients.csv"):
            assert (Path(f"{tmp_path / 'a'}{suffix}").read_bytes()
                    == Path(f"{tmp_path / 'b'}{suffix}").read_bytes())

    def test_per_level_t_prints_each_level(self, tmp_path, capsys):
        # every level of at least 30 coefficients elicits its own t under
        # --per-level-t; printing only the pooled t hid the ones used
        steps = SeededRng(7).generator().standard_t(4, size=1023) * 0.02
        path = tmp_path / "share.csv"
        write_series(path, 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(steps)])))
        assert main(["denoise", str(path), "--out-prefix", str(tmp_path / "p")]) == 0
        assert "t[level" not in capsys.readouterr().out
        assert main(["denoise", str(path), "--per-level-t",
                     "--out-prefix", str(tmp_path / "l")]) == 0
        lines = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
        pooled = lines["t"]
        per_level = {j: lines[f"t[level {j}]"] for j in range(4, 10)}
        assert per_level[4] == pooled  # 16 coefficients: below the 30 needed
        assert any(per_level[j] != pooled for j in range(5, 10))

    def test_symmetric_padding(self, tmp_path):
        path = tmp_path / "odd.csv"
        rng = np.random.default_rng(5)
        write_series(path, np.sin(np.arange(500) / 25) * 3 + rng.normal(size=500))
        out = tmp_path / "pad"
        assert main(["denoise", str(path), "--pad", "symmetric",
                     "--out-prefix", str(out)]) == 0
        _, cols = read_csv(f"{out}_denoised.csv")
        assert cols["f_hat"].size == 500

    def test_primary_level_checked_against_the_series(self, tmp_path):
        # J0 = 9 needs n >= 1024; the simulation grid's default sizes start
        # at 512 and must not be what a denoise run is checked against
        path = tmp_path / "long.csv"
        write_series(path, np.sin(np.arange(2048) / 25))
        assert main(["denoise", str(path), "--primary-level", "9",
                     "--out-prefix", str(tmp_path / "j9")]) == 0
        assert main(["denoise", str(path), "--primary-level", "11",
                     "--out-prefix", str(tmp_path / "j11")]) == 2

    def test_column_selection(self, tmp_path):
        path = tmp_path / "cols.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["value", "junk"])
            for i in range(256):
                writer.writerow([repr(math.sin(i / 9)), "x"])
        assert main(["denoise", str(path), "--column", "value",
                     "--out-prefix", str(tmp_path / "v")]) == 0
        assert main(["denoise", str(path), "--column", "missing",
                     "--out-prefix", str(tmp_path / "w")]) == 2

    def test_trailing_blank_line_is_ignored(self, tmp_path):
        # csv.reader yields an empty row for a blank last line; it must be
        # skipped, not parsed as a row without a value column
        rng = np.random.default_rng(64)
        plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
        write_series(plain, 50.0 + np.cumsum(rng.normal(size=64)),
                     header=("date", "close"))
        blank.write_bytes(plain.read_bytes() + b"\r\n")
        for path in (plain, blank):
            assert main(["denoise", str(path), "--column", "close",
                         "--out-prefix", str(tmp_path / path.stem)]) == 0
        for suffix in ("_denoised.csv", "_coefficients.csv"):
            assert (Path(f"{tmp_path / 'plain'}{suffix}").read_bytes()
                    == Path(f"{tmp_path / 'blank'}{suffix}").read_bytes())

    @pytest.mark.parametrize("bad_row, says", [
        ("2020-02-01", "is missing"),
        ("2020-02-01,", "is empty"),
        ("2020-02-01,n/a", "'n/a'"),
    ], ids=["short-row", "empty-cell", "not-a-number"])
    def test_bad_cell_names_its_line_and_column(self, tmp_path, capsys, bad_row, says):
        # the blank line 10 is skipped but counted: line numbers are the
        # file's, so the bad row is line 11
        rows = [f"2020-01-{i:02d},{50.0 + i}" for i in range(1, 64)]
        text = "\n".join(["date,close", *rows[:8], "", bad_row, *rows[8:]]) + "\n"
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert main(["denoise", str(path), "--column", "close",
                     "--out-prefix", str(tmp_path / "bad")]) == 2
        err = capsys.readouterr().err
        assert "line 11" in err
        assert "'close'" in err
        assert says in err


class TestSimulate:
    ARGS = ["simulate", "--functions", "heavisine", "--n", "512", "--snr", "3",
            "--methods", "gsh,universal_hard", "--M", "2", "--seed", "42",
            "--jobs", "1"]

    def test_record_count(self, tmp_path):
        out = tmp_path / "sim"
        assert main(self.ARGS + ["--out-prefix", str(out)]) == 0
        _, cols = read_csv(f"{out}_amse.csv")
        assert cols["method"].size == 2
        assert set(cols["method"]) == {"gsh", "universal_hard"}
        assert Path(f"{out}_table.txt").exists()

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(self.ARGS + ["--out-prefix", str(out1)]) == 0
        assert main(self.ARGS + ["--out-prefix", str(out2)]) == 0
        assert (Path(f"{out1}_amse.csv").read_bytes()
                == Path(f"{out2}_amse.csv").read_bytes())

    def test_parallel_merge_matches_serial(self, tmp_path):
        base = ["simulate", "--functions", "heavisine,doppler", "--n", "512",
                "--snr", "3", "--methods", "universal_hard", "--M", "2",
                "--seed", "7"]
        serial, parallel = tmp_path / "ser", tmp_path / "par"
        assert main(base + ["--jobs", "1", "--out-prefix", str(serial)]) == 0
        assert main(base + ["--jobs", "2", "--out-prefix", str(parallel)]) == 0
        assert (Path(f"{serial}_amse.csv").read_bytes()
                == Path(f"{parallel}_amse.csv").read_bytes())

    def test_flags_set_every_config_field(self, tmp_path):
        cfg = ExperimentConfig(
            functions=("blocks",), sizes=(64,), snrs=(4.0,), replications=1,
            methods=("gsh",), base_seed=11, vanishing_moments=4, signal_sd=3.0,
            elicitation=ElicitationConfig(gamma=1.5, primary_level=3,
                                          pool_levels=False))
        for config, default in ((cfg, ExperimentConfig()),
                                (cfg.elicitation, ElicitationConfig())):
            for field in dataclasses.fields(config):
                assert getattr(config, field.name) != getattr(default, field.name)
        out = tmp_path / "flags"
        assert main(["simulate", "--functions", "blocks", "--n", "64", "--snr", "4",
                     "--M", "1", "--methods", "gsh", "--seed", "11", "--wavelet", "4",
                     "--signal-sd", "3", "--gamma", "1.5", "--primary-level", "3",
                     "--per-level-t", "--jobs", "1", "--out-prefix", str(out)]) == 0
        manifest = json.loads(Path(f"{out}_manifest.json").read_text())
        assert manifest["config"] == json.loads(json.dumps(dataclasses.asdict(cfg)))

    @pytest.mark.parametrize("flags", [["--config", "cfg.json"], ["--n", "512,5x"],
                                       ["--snr", "3,high"]])
    def test_parser_refuses(self, tmp_path, flags):
        prefix = tmp_path / "new_dir" / "bad"
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + flags + ["--out-prefix", str(prefix)])
        assert exc.value.code == 2
        assert not prefix.parent.exists()

    def test_negative_jobs_exits_2(self, tmp_path, capsys):
        args = [a if a != "1" else "-1" for a in self.ARGS]
        assert main(args + ["--out-prefix", str(tmp_path / "neg")]) == 2
        assert "jobs" in capsys.readouterr().err
        assert not Path(f"{tmp_path / 'neg'}_amse.csv").exists()

    # each bad value exits 2 before any cell runs, not as a numerical failure
    # (exit 3) inside the first cell; ``named`` is a value the message names
    @pytest.mark.parametrize("flags, named", [
        (["--snr", "0"], None),
        (["--snr=-3"], None),
        (["--snr=nan"], None),
        (["--snr", "3,inf"], None),
        (["--signal-sd", "nan"], None),
        (["--signal-sd", "0"], None),
        (["--wavelet", "0"], None),
        (["--wavelet", "11"], "11"),
        (["--gamma", "nan"], "gamma"),
        (["--n", "500"], "500"),
    ])
    def test_invalid_values_exit_2_before_any_cell(self, tmp_path, capsys,
                                                  flags, named):
        prefix = tmp_path / "new_dir" / "bad"
        assert main(self.ARGS + flags + ["--out-prefix", str(prefix)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid experiment config:")
        assert named is None or named in err
        assert "numerical failure" not in err
        assert not prefix.parent.exists()

    def test_manifest_brackets_the_run(self, tmp_path, monkeypatch):
        def slow_run_experiment(cfg, jobs):
            time.sleep(0.2)
            return []

        monkeypatch.setattr(cli, "run_experiment", slow_run_experiment)
        out = tmp_path / "slow"
        assert main(self.ARGS + ["--out-prefix", str(out)]) == 0
        manifest = json.loads(Path(f"{out}_manifest.json").read_text())
        elapsed = (datetime.fromisoformat(manifest["finished_at"])
                   - datetime.fromisoformat(manifest["started_at"]))
        assert elapsed.total_seconds() >= 0.2


class TestRisk:
    def test_point_mass_rule_risk_is_theta_squared(self, tmp_path):
        out = tmp_path / "r"
        assert main(["risk", "--t", "3", "--alpha", "1", "--mc-draws", "0",
                     "--out-prefix", str(out)]) == 0
        _, cols = read_csv(f"{out}_risk.csv")
        theta = cols["theta"].astype(float)
        np.testing.assert_allclose(cols["risk"].astype(float), theta**2,
                                   atol=1e-8)

    def test_prints_both_estimates(self, tmp_path, capsys):
        assert main(["risk", "--t", "3", "--mc-draws", "2000",
                     "--grid-points", "41",
                     "--out-prefix", str(tmp_path / "r2")]) == 0
        text = capsys.readouterr().out
        assert "bayes_risk_quadrature:" in text
        assert "bayes_risk_monte_carlo:" in text

    def test_rule_file_tail_ordering(self, tmp_path):
        out10, out3 = tmp_path / "t10", tmp_path / "tm3"
        common = ["--alpha", "0.9", "--mc-draws", "0", "--grid-points", "33"]
        assert main(["risk", "--t", "10", *common,
                     "--out-prefix", str(out10)]) == 0
        assert main(["risk", "--t", "-3", *common,
                     "--out-prefix", str(out3)]) == 0
        _, c10 = read_csv(f"{out10}_rule.csv")
        _, c3 = read_csv(f"{out3}_rule.csv")
        d = c10["d"].astype(float)
        at6 = np.argmin(np.abs(d - 6.0))
        assert abs(c10["delta"].astype(float)[at6]) < abs(
            c3["delta"].astype(float)[at6])

    def test_invalid_shape_exits_2(self, tmp_path):
        prefix = tmp_path / "new_dir" / "bad"
        # an unusable shape, grid or draw count; --mc-draws 0 disables the check
        for bad in (["--t", "-4"], ["--t", "3", "--grid-points", "1"],
                    ["--t", "3", "--grid-lo", "nan"], ["--t", "3", "--grid-hi", "inf"],
                    ["--t", "3", "--mc-draws", "-5"]):
            assert main(["risk", *bad, "--out-prefix", str(prefix)]) == 2
            assert not prefix.parent.exists()


class TestPrior:
    def test_logistic_limit_density(self, tmp_path):
        out = tmp_path / "pl"
        assert main(["prior", "--t", "0.0001",
                     "--out-prefix", str(out)]) == 0
        _, cols = read_csv(f"{out}_density.csv")
        theta = cols["theta"].astype(float)
        dens = cols["density"].astype(float)
        scale = math.sqrt(3) / math.pi  # logistic scale for tau = 1
        z = theta / scale
        logistic = np.exp(-np.abs(z)) / (scale * (1 + np.exp(-np.abs(z))) ** 2)
        np.testing.assert_allclose(dens, logistic, atol=1e-6)

    def test_emitted_density_has_unit_mass(self, tmp_path):
        for t in ("-3", "0.5", "10"):
            out = tmp_path / f"mass{t}"
            assert main(["prior", "--t", t, "--out-prefix", str(out)]) == 0
            _, cols = read_csv(f"{out}_density.csv")
            mass = np.trapezoid(cols["density"].astype(float),
                                cols["theta"].astype(float))
            assert mass == pytest.approx(1.0, abs=1e-6)

    def test_kurtosis_line(self, tmp_path, capsys):
        assert main(["prior", "--t", "-1.5707963",
                     "--out-prefix", str(tmp_path / "k")]) == 0
        line = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("kurtosis:")][0]
        assert float(line.split()[1]) == pytest.approx(5.0, abs=1e-6)

    def test_invalid_shape_exits_2(self, tmp_path):
        prefix = tmp_path / "new_dir" / "bad"
        # an unusable shape or point count
        for bad in (["--t", "-3.15"], ["--t", "1", "--points", "0"],
                    ["--t", "1", "--points", "1"]):
            assert main(["prior", *bad, "--out-prefix", str(prefix)]) == 2
            assert not prefix.parent.exists()


class TestSignal:
    def test_export_matches_library(self, tmp_path):
        out = tmp_path / "sig"
        assert main(["signal", "--function", "doppler", "--n", "256",
                     "--out-prefix", str(out)]) == 0
        _, cols = read_csv(f"{out}_signal.csv")
        x, f = sample_function("doppler", 256)
        np.testing.assert_allclose(cols["x"].astype(float), x, rtol=1e-15)
        np.testing.assert_allclose(cols["f"].astype(float), f, rtol=1e-15)

    def test_snr_scaling(self, tmp_path):
        out = tmp_path / "sc"
        assert main(["signal", "--function", "heavisine", "--n", "512",
                     "--snr", "7", "--sigma", "1",
                     "--out-prefix", str(out)]) == 0
        _, cols = read_csv(f"{out}_signal.csv")
        assert np.std(cols["f"].astype(float)) == pytest.approx(7.0,
                                                                abs=1e-9)

    def test_bad_n_exits_2(self, tmp_path):
        prefix = tmp_path / "new_dir" / "bad"
        assert main(["signal", "--function", "bumps", "--n", "500",
                     "--out-prefix", str(prefix)]) == 2
        assert not prefix.parent.exists()

    @pytest.mark.parametrize("flags", [["--snr", "nan"], ["--snr", "inf"],
                                       ["--snr", "7", "--sigma", "nan"]])
    def test_non_finite_scale_exits_2(self, tmp_path, flags):
        prefix = tmp_path / "new_dir" / "bad"
        assert main(["signal", "--function", "bumps", "--n", "64", *flags,
                     "--out-prefix", str(prefix)]) == 2
        assert not prefix.parent.exists()


MANIFEST_KEYS = {"command", "argv", "config", "seed", "version", "started_at",
                 "finished_at", "outputs"}


@pytest.mark.parametrize("command, args, outputs", [
    ("denoise", [], {"denoised": "denoised.csv",
                     "coefficients": "coefficients.csv"}),
    ("simulate", ["--functions", "heavisine", "--n", "512", "--snr", "3",
                  "--methods", "universal_hard", "--M", "1", "--jobs", "1"],
     {"amse": "amse.csv", "table": "table.txt"}),
    ("risk", ["--t", "3", "--mc-draws", "0", "--grid-points", "9"],
     {"risk_curve": "risk.csv", "rule": "rule.csv"}),
    ("prior", ["--t", "1", "--points", "101"], {"density": "density.csv"}),
    ("signal", ["--function", "bumps", "--n", "64"], {"signal": "signal.csv"}),
])
def test_manifest_keys_and_outputs(tmp_path, heavisine_series, command, args,
                                   outputs):
    if command == "denoise":
        args = [str(heavisine_series[0])]
    prefix = tmp_path / "new_dir" / "run"
    argv = [command, *args, "--out-prefix", str(prefix)]
    assert main(argv) == 0
    manifest = json.loads(Path(f"{prefix}_manifest.json").read_text())
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["command"] == command
    assert manifest["argv"] == argv
    assert manifest["outputs"] == {kind: f"{prefix}_{suffix}"
                                   for kind, suffix in outputs.items()}
    for path in manifest["outputs"].values():
        assert Path(path).is_file()


@pytest.mark.parametrize("argv, config, seed", [
    (["risk", "--t", "3", "--mc-draws", "0", "--grid-points", "9"],
     {"t": 3.0, "alpha": 0.9, "tau": 1.0, "sigma": 1.0, "grid_lo": -8.0,
      "grid_hi": 8.0, "grid_points": 9, "mc_draws": 0}, 20260809),
    (["prior", "--t", "1", "--points", "101"],
     {"t": 1.0, "tau": 1.0, "points": 101}, None),
    (["signal", "--function", "bumps", "--n", "64", "--snr", "7"],
     {"function": "bumps", "n": 64, "snr": 7.0, "sigma": 1.0}, None),
])
def test_manifest_records_parsed_arguments(tmp_path, argv, config, seed):
    assert main(argv + ["--out-prefix", str(tmp_path / "run")]) == 0
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["config"] == config
    assert manifest["seed"] == seed


def test_flag_defaults_are_the_config_defaults(tmp_path, monkeypatch, heavisine_series):
    monkeypatch.setattr(cli, "run_experiment", lambda cfg, jobs: [])
    sim, den = tmp_path / "sim", tmp_path / "den"
    assert main(["simulate", "--out-prefix", str(sim)]) == 0
    assert main(["denoise", str(heavisine_series[0]), "--out-prefix", str(den)]) == 0
    sim_config = json.loads(Path(f"{sim}_manifest.json").read_text())["config"]
    den_config = json.loads(Path(f"{den}_manifest.json").read_text())["config"]
    defaults = json.loads(json.dumps(dataclasses.asdict(ExperimentConfig())))
    assert sim_config == defaults
    for key in ("elicitation", "vanishing_moments"):
        assert den_config[key] == defaults[key]


def test_simulate_manifest_has_no_constant_fields(tmp_path):
    out = tmp_path / "sim"
    assert main(TestSimulate.ARGS + ["--out-prefix", str(out)]) == 0
    config = json.loads(Path(f"{out}_manifest.json").read_text())["config"]
    assert "quad" not in config
    assert set(config["elicitation"]) == {"gamma", "primary_level", "pool_levels"}
    assert config["snrs"] == [3.0] and config["base_seed"] == 42


def write_csv_with_csv_module(path, header, rows):
    """The writer the CLI used before: csv.writer over per-cell _fmt."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


class TestCsvOutput:
    def test_columns_match_csv_module_bytes(self, tmp_path):
        floats = np.array([-0.0, 0.0, 1.0, -2.5, 0.1, 1e16, 1.2345678901234567e17,
                           1e-5, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                           -3.0e-300, 123456789.123, math.pi, float("inf"), float("nan")])
        ints = np.arange(-3, floats.size - 3)
        words = ["gsh", "universal_hard"] * (floats.size // 2)
        mixed = [3, 7.5, np.float64(0.1), np.int64(4)] * (floats.size // 4)
        single = np.geomspace(1e-40, 3e38, floats.size, dtype=np.float32)
        columns = (ints, floats, words, mixed, single)
        header = ["i", "x", "word", "mixed", "single"]
        _write_csv(tmp_path / "new.csv", header, columns)
        write_csv_with_csv_module(tmp_path / "old.csv", header, zip(*columns))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_denoise_files_match_csv_module_bytes(self, tmp_path, heavisine_series):
        path, _, y = heavisine_series
        out = tmp_path / "run"
        assert main(["denoise", str(path), "--out-prefix", str(out)]) == 0
        # the flags' defaults are the config's defaults
        result = denoise_detailed(y, "gsh", ExperimentConfig())
        write_csv_with_csv_module(
            tmp_path / "denoised.csv", ["index", "y", "f_hat"],
            ((i, y[i], result.f_hat[i]) for i in range(y.size)))
        rows = []
        for j in result.decomposition.levels:
            emp, est = result.decomposition.details[j], result.estimated.details[j]
            rows.extend((j, k, emp[k], est[k]) for k in range(emp.size))
        write_csv_with_csv_module(tmp_path / "coefficients.csv",
                                  ["level", "position", "empirical", "estimated"], rows)
        for name in ("denoised", "coefficients"):
            assert (Path(f"{out}_{name}.csv").read_bytes()
                    == (tmp_path / f"{name}.csv").read_bytes())


def test_import_loads_no_scipy():
    # importing scipy.interpolate alone once took most of the start-up time
    code = ("import sys, gsh_shrink, gsh_shrink.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(gsh_shrink.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True, env={"PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_import_loads_no_process_pool():
    # only a pooled simulate run needs concurrent.futures and multiprocessing,
    # and importing them took about a quarter of the CLI's start-up
    code = ("import sys, gsh_shrink, gsh_shrink.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('concurrent', 'multiprocessing')))")
    src = str(Path(gsh_shrink.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True, env={"PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
