import configparser
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from uvtdoa import ConfigError, config_hash, generate_pilot, parse_config, serialize_config
from uvtdoa.cli import (
    cluster_stats,
    main,
    parse_replay_log,
    sessions_from_records,
)
from uvtdoa.config import _KEYS
from uvtdoa.scene import SPEED_OF_LIGHT

CONFIG_TEXT = """
[scene]
tx_a_m = 0, 0
tx_b_m = 75.6, 0
tx_c_m = 32.2, 76.6
rx_true_m = 36, 25

[grid]
x_min_m = 25
x_max_m = 50
y_min_m = 20
y_max_m = 45
steps_x = 3
steps_y = 3

[budget]
power_w = 0.15
rx_area_m2 = 1.77e-4
divergence_full_angle_deg = 120
wavelength_m = 266e-9

[signal]
sequence_length = 64
symbol_rate_hz = 1e6
chips_per_symbol = 20
slot_interval_s = 100e-6

[clock]
distribution = uniform
lo_ns = 0
hi_ns = 100

[campaign]
trials_per_point = 4
seed = 7
"""


class TestConfigParsing:
    def test_valid_config_si_units(self):
        cfg = parse_config(CONFIG_TEXT)
        assert cfg.scene.tx_b == (75.6, 0.0)
        assert cfg.budget.power_w == 0.15
        assert cfg.budget.divergence_full_angle_rad == pytest.approx(math.radians(120))
        assert cfg.clock.hi_s == pytest.approx(100e-9)
        assert cfg.signal.length == 64
        assert cfg.trials_per_point == 4
        assert cfg.grid.n_points == 9

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(CONFIG_TEXT.replace("[scene]", "[scene]\nbare_power = 1"))

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown section \[extras\]"):
            parse_config(CONFIG_TEXT + "\n[extras]\nfoo = 1\n")

    def test_missing_required_key(self):
        broken = CONFIG_TEXT.replace("power_w = 0.15\n", "")
        with pytest.raises(ConfigError, match=r"power_w.*\[budget\]|\[budget\].*power_w"):
            parse_config(broken)

    def test_bad_value_diagnostics(self):
        broken = CONFIG_TEXT.replace("power_w = 0.15", "power_w = lots")
        with pytest.raises(ConfigError, match=r"\[budget\] power_w"):
            parse_config(broken)

    def test_bare_number_for_pair_rejected(self):
        broken = CONFIG_TEXT.replace("tx_a_m = 0, 0", "tx_a_m = 0")
        with pytest.raises(ConfigError, match=r"\[scene\] tx_a_m"):
            parse_config(broken)

    def test_round_trip_semantically_identical(self):
        cfg = parse_config(CONFIG_TEXT)
        again = parse_config(serialize_config(cfg))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    def test_canonical_text_is_pinned(self):
        # config_sha256 is the hash of this text: a change to how the key
        # table writes a value moves the hash of every artifact.
        cfg = parse_config(CONFIG_TEXT)
        assert config_hash(cfg) == (
            "42d15055acbbbaf3619ac23612548063d71a2b1b99d88321fe33d3a7e7aac87a")
        text = serialize_config(cfg)
        assert "\nlo_ns = 0.0\nhi_ns = 100.0\n" in text
        ideal = serialize_config(parse_config(CONFIG_TEXT.replace(
            "distribution = uniform", "distribution = none")))
        assert "\n[clock]\ndistribution = none\n\n[campaign]\n" in ideal

    @pytest.mark.parametrize("old, new", [
        # the default grid's bounds are computed, and must reach the text
        # as plain floats on any numpy
        ("x_min_m = 25\nx_max_m = 50\ny_min_m = 20\ny_max_m = 45\n", ""),
        ("[grid]\nx_min_m = 25\nx_max_m = 50\ny_min_m = 20\ny_max_m = 45\n"
         "steps_x = 3\nsteps_y = 3\n", ""),
        # math.radians(math.degrees(r)) is not r for the radians of 3 or 24
        # degrees: the text must hold a degree value that maps back to r
        ("divergence_full_angle_deg = 120", "divergence_full_angle_deg = 3"),
        ("divergence_full_angle_deg = 120", "divergence_full_angle_deg = 24"),
    ], ids=["grid_steps_only", "no_grid_section", "3_deg", "24_deg"])
    def test_round_trip_of_computed_values(self, old, new):
        assert old in CONFIG_TEXT
        cfg = parse_config(CONFIG_TEXT.replace(old, new))
        again = parse_config(serialize_config(cfg))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    def test_ideal_is_not_a_clock_distribution(self, tmp_path, capsys):
        text = CONFIG_TEXT.replace("distribution = uniform", "distribution = ideal")
        with pytest.raises(ConfigError, match="must be 'uniform' or 'none', got 'ideal'"):
            parse_config(text)
        path = tmp_path / "ideal.cfg"
        path.write_text(text)
        assert main(["theory", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "must be 'uniform' or 'none'" in capsys.readouterr().err

    def test_readme_example_has_every_key(self):
        # The README's example config sets exactly the keys of the key table.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Configuration format", 1)[1]
        block = section.split("```ini\n", 1)[1].split("```", 1)[0]
        cp = configparser.ConfigParser(inline_comment_prefixes=("#",), strict=True)
        cp.read_string(block)
        keys = {(name, key) for name in cp.sections() for key in cp[name]}
        assert keys == {(row.section, row.key) for row in _KEYS}
        parse_config(block)

    def test_config_takes_its_points_from_the_grid_only(self):
        # serialize_config, and so config_sha256, records the grid and not a
        # point list: a Config with points would run under another
        # campaign's hash
        cfg = parse_config(CONFIG_TEXT)
        with pytest.raises(ConfigError, match="points"):
            replace(cfg, points=((30.0, 25.0),))

    def test_default_grid_when_section_omitted(self):
        text = CONFIG_TEXT.replace(
            "[grid]\nx_min_m = 25\nx_max_m = 50\ny_min_m = 20\ny_max_m = 45\nsteps_x = 3\nsteps_y = 3\n",
            "",
        )
        cfg = parse_config(text)
        assert cfg.grid.steps_x == 9
        assert cfg.grid.x_min == pytest.approx(0.2 * 75.6)

    def test_omitted_receiver_is_the_anchor_centroid(self, tmp_path):
        # The same receiver written out as the repr of the hand-computed
        # centroid gives the same bits, the same hash and the same run.
        centroid = ((0.0 + 75.6 + 32.2) / 3.0, (0.0 + 0.0 + 76.6) / 3.0)
        texts = {
            "omitted": CONFIG_TEXT.replace("rx_true_m = 36, 25\n", ""),
            "written": CONFIG_TEXT.replace(
                "rx_true_m = 36, 25", f"rx_true_m = {centroid[0]!r}, {centroid[1]!r}"),
        }
        cfgs = {name: parse_config(text) for name, text in texts.items()}
        for cfg in cfgs.values():
            assert [v.hex() for v in cfg.scene.rx_true] == [v.hex() for v in centroid]
        assert config_hash(cfgs["omitted"]) == config_hash(cfgs["written"])
        outputs = {}
        for name, text in texts.items():
            path = tmp_path / f"{name}.cfg"
            path.write_text(text)
            out = tmp_path / name
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
            outputs[name] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        assert len(outputs["omitted"]) == 3
        assert outputs["omitted"] == outputs["written"]


# The paper's campaign: Geometry II, the default 9x9 grid, L = 256, 100
# chips of 10 ns per symbol, 150 mW.
PAPER_CONFIG_TEXT = """
[scene]
tx_a_m = 0.0, 0.0
tx_b_m = 75.6, 0.0
tx_c_m = 32.2, 76.6

[budget]
power_w = 0.15
rx_area_m2 = 1.77e-4
divergence_full_angle_deg = 120
wavelength_m = 266e-9

[signal]
sequence_length = 256
symbol_rate_hz = 1e6
chips_per_symbol = 100
slot_interval_s = 300e-6

[clock]
distribution = uniform
lo_ns = 0
hi_ns = 100

[campaign]
trials_per_point = 4
seed = 5
"""

GEOMETRY_III_CONFIG_TEXT = """
[scene]
tx_a_m = 0, 0
tx_b_m = 128.6, 122.8
tx_c_m = 247.1, 0

[grid]
steps_x = 4
steps_y = 4

[budget]
power_w = 0.15
rx_area_m2 = 1.77e-4
divergence_full_angle_deg = 120
wavelength_m = 266e-9

[signal]
sequence_length = 256
symbol_rate_hz = 1e6
chips_per_symbol = 100
slot_interval_s = 300e-6

[clock]
distribution = uniform
hi_ns = 100

[campaign]
trials_per_point = 1
seed = 11
"""
# What `theory` (CSV, then JSON) and `sweep --powers-mw 1,150` write on
# GEOMETRY_III_CONFIG_TEXT, run one after the other from an empty bound
# cache: files, then each run's stdout and stderr.
WEAK_LINK_WARNINGS = 23
WEAK_LINK_DIGESTS = {
    "theory_map.csv": "694169545a3fc19ed403674069403428797dc63bab6e05cbe55db739f13c872b",
    "theory_map.json": "9e26588d9764f0867597c4503c6539265c53920ade36c569ba00bd7d705d769c",
    "sweep.csv": "88f76ce39982dbad07d2bd55f47e24e402add1577d79e31691f18279938b9558",
    "theory0.stdout": "b33a7bd7408f5210756ec941d81efc808f6dd7bda898510d418067303662d0d9",
    "theory0.stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "theory1.stdout": "b33a7bd7408f5210756ec941d81efc808f6dd7bda898510d418067303662d0d9",
    "theory1.stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "sweep2.stdout": "984ea13e14876eebe16ab320d85119151b27163b4675c061fd6bdab8afc2792b",
    "sweep2.stderr": "31a6bc6c561047fac8db676c5829c7db3979e71c604e01ef22285d5c966cb447",
}

# Extra arguments each command needs besides --config, --out and --seed.
COMMAND_ARGS = {
    "theory": [],
    "simulate": [],
    "sweep": ["--powers-mw", "150"],
    "replay": ["--log", "log.csv"],
    "diffcal": ["--calibration", "log.csv", "--log", "log.csv"],
}


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG_TEXT)
    return path


def read_rows(path):
    """Data rows of an output CSV, keyed by its header."""
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return list(csv.DictReader(lines))


def read_meta(path):
    meta = {}
    for line in path.read_text().splitlines():
        if not line.startswith("# "):
            break
        key, _, value = line[2:].partition(" = ")
        meta[key] = value
    return meta


class TestCliTheory:
    def test_writes_csv_with_headers(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["theory", "--config", str(config_file), "--out", str(out)]) == 0
        csv_path = out / "theory_map.csv"
        meta = read_meta(csv_path)
        assert meta["tool"] == "uvtdoa theory"
        assert len(meta["config_sha256"]) == 64
        assert meta["seed"] == "7"
        body = [l for l in csv_path.read_text().splitlines() if not l.startswith("#")]
        assert body[0].startswith("x_m,y_m,e_p_m,condition_number")
        assert len(body) == 1 + 9
        captured = capsys.readouterr()
        assert "grid_average_ep_m" in captured.out

    def test_json_format(self, config_file, tmp_path):
        out = tmp_path / "outj"
        assert main(["theory", "--config", str(config_file), "--out", str(out),
                     "--format", "json"]) == 0
        payload = json.loads((out / "theory_map.json").read_text())
        assert len(payload["points"]) == 9
        assert payload["grid_average_ep_m"] > 0

    def test_grid_without_inside_point_reads_nan(self, config_file, tmp_path, capsys):
        # Geometry II, every point of the x 60-70 m, y 50-60 m grid outside
        # the anchor triangle: the inside average is empty, not an error.
        config_file.write_text(CONFIG_TEXT.replace(
            "x_min_m = 25\nx_max_m = 50\ny_min_m = 20\ny_max_m = 45",
            "x_min_m = 60\nx_max_m = 70\ny_min_m = 50\ny_max_m = 60",
        ))
        assert main(["theory", "--config", str(config_file), "--out", str(tmp_path / "c")]) == 0
        body = [l for l in (tmp_path / "c" / "theory_map.csv").read_text().splitlines()
                if not l.startswith("#")]
        assert len(body) == 1 + 9
        assert all(l.split(",")[4:] == ["0", "0"] for l in body[1:])
        lines = capsys.readouterr().out.splitlines()
        assert "inside_average_ep_m = nan" in lines
        grid_average = float(lines[0].split(" = ")[1])
        assert math.isfinite(grid_average) and grid_average > 0
        assert main(["theory", "--config", str(config_file), "--out", str(tmp_path / "j"),
                     "--format", "json"]) == 0
        payload = json.loads((tmp_path / "j" / "theory_map.json").read_text())
        assert payload["inside_average_ep_m"] is None
        assert payload["grid_average_ep_m"] == pytest.approx(grid_average, rel=1e-6)

    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[scene]\ntx_a_m = 0, 0\n")
        assert main(["theory", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_csv_matches_direct_library_call(self, config_file, tmp_path):
        from uvtdoa import load_config, theory_points
        out = tmp_path / "golden"
        main(["theory", "--config", str(config_file), "--out", str(out)])
        cfg = load_config(config_file)
        tmap = theory_points(cfg.scene, cfg.grid.points(), cfg.budget, cfg.signal, cfg.clock)
        rows = [l for l in (out / "theory_map.csv").read_text().splitlines()
                if not l.startswith("#") and not l.startswith("x_m")]
        assert len(rows) == len(tmap.e_p)
        columns = zip(tmap.x.tolist(), tmap.y.tolist(), tmap.e_p.tolist(),
                      tmap.condition_number.tolist())
        for line, (px, py, p_ep, p_cond) in zip(rows, columns):
            x, y, e_p, cond = (float(v) for v in line.split(",")[:4])
            assert (x, y) == (px, py)
            assert e_p == p_ep
            assert cond == p_cond


class TestCliSimulate:
    def test_outputs_and_reproducibility(self, config_file, tmp_path):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert main(["simulate", "--config", str(config_file), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(config_file), "--out", str(out2)]) == 0
        for name in ("campaign.json", "trials.csv", "detections.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        payload = json.loads((out1 / "campaign.json").read_text())
        assert payload["seed"] == 7
        assert payload["trials_per_point"] == 4
        assert len(payload["points"]) == 9
        assert payload["grid_average_rmse_m"] > 0
        # the campaign's theory column is theory_points', bit for bit
        from uvtdoa import load_config, theory_points
        cfg = load_config(config_file)
        tmap = theory_points(cfg.scene, cfg.grid.points(), cfg.budget, cfg.signal, cfg.clock)
        for point, x, y, e_p in zip(payload["points"], tmap.x.tolist(), tmap.y.tolist(),
                                    tmap.e_p.tolist()):
            assert (point["x_m"], point["y_m"]) == (x, y)
            assert point["theory_ep_m"] == e_p

    def test_output_bytes_are_pinned(self, config_file, tmp_path):
        # A 2x2 grid, 3 trials, seed 3. A change that moves an output byte
        # fails here and must say so. Recorded with uvtdoa 0.1.0 and numpy
        # 2.4.6 on x86-64 Linux; the artifacts carry both versions.
        config_file.write_text(
            CONFIG_TEXT.replace("steps_x = 3\nsteps_y = 3", "steps_x = 2\nsteps_y = 2")
            .replace("trials_per_point = 4", "trials_per_point = 3").replace("seed = 7", "seed = 3")
        )
        out = tmp_path / "o"
        for command in ("simulate", "theory"):
            assert main([command, "--config", str(config_file), "--out", str(out)]) == 0
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
        assert digests == {
            "campaign.json": "39d1fbc79870cc63c54aef79c9c3ab397a245964e8b442b3b21593b53639954d",
            "detections.csv": "96ec0877ccb5b3a47cb57c6cfc342e3bf0d5d6f9450d970b345bb84b64119056",
            "theory_map.csv": "cc7bad3ee22b3fcb2933c6d72d907749241a7a5df7fa17a2b1a723f12d717aac",
            "trials.csv": "059632fee2ab49c63c582f1adff75aca84f48068e147512ef8559d2812a24d8d",
        }

    def test_replay_and_diffcal_bytes_are_pinned(self, config_file, tmp_path, capsys):
        # The detections of the pinned 2x2, 3-trial, seed-3 campaign, replayed
        # and used as both diffcal logs: files, then each run's stdout and
        # stderr. Recorded with numpy 2.4.6 on x86-64 Linux.
        config_file.write_text(
            CONFIG_TEXT.replace("steps_x = 3\nsteps_y = 3", "steps_x = 2\nsteps_y = 2")
            .replace("trials_per_point = 4", "trials_per_point = 3").replace("seed = 7", "seed = 3")
        )
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", str(config_file), "--out", str(sim)]) == 0
        capsys.readouterr()
        log = str(sim / "detections.csv")
        out = tmp_path / "o"
        digests = {}
        for args in (["replay", "--log", log], ["diffcal", "--calibration", log, "--log", log]):
            assert main([*args, "--config", str(config_file), "--out", str(out)]) == 0
            captured = capsys.readouterr()
            for name, text in (("stdout", captured.out), ("stderr", captured.err)):
                digests[f"{args[0]}.{name}"] = hashlib.sha256(text.encode()).hexdigest()
        digests |= {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
        assert digests == {
            "replay_fixes.csv": "98dea442a216df129d4f980f4a1b59cabda42539b71c100d6918b5f1c1555617",
            "replay_clusters.csv":
                "f4d08b5c4e26dbe9dda68938313e45a05ef1c421cb0b4b810743ebdd814cb719",
            "diffcal_fixes.csv": "da9a2bc694f1e6dfc47ae690c77a917bb84e867d86455a71a54f9310058b6d70",
            "replay.stdout": "1ed64f31ee868a4e9ce5679710757a3402db93b72b0d8637caf1a1fb5cd65838",
            "replay.stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "diffcal.stdout": "a2acfc332e0ffe743f9131acdc8e7f3e870ebee5f62f46eebeacf0f22ecf0284",
            "diffcal.stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        }

    def test_diffcal_without_calibration_truth_is_pinned(self, config_file, tmp_path, capsys):
        # The pinned 2x2, 3-trial, seed-3 campaign's detections as the
        # measurement log, and again with the truth columns blanked as the
        # calibration log: neither pair gets an estimate, so each warns once
        # and the corrected fixes are the uncorrected ones. Recorded with
        # numpy 2.4.6 on x86-64 Linux.
        config_file.write_text(
            CONFIG_TEXT.replace("steps_x = 3\nsteps_y = 3", "steps_x = 2\nsteps_y = 2")
            .replace("trials_per_point = 4", "trials_per_point = 3").replace("seed = 7", "seed = 3")
        )
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", str(config_file), "--out", str(sim)]) == 0
        capsys.readouterr()
        log = sim / "detections.csv"
        cal = tmp_path / "cal.csv"
        cal.write_text("".join(
            (line if line[:1] in "#t" else line.rsplit(",", 2)[0] + ",,") + "\n"
            for line in log.read_text().splitlines()
        ))
        out = tmp_path / "o"
        assert main(["diffcal", "--calibration", str(cal), "--log", str(log),
                     "--config", str(config_file), "--out", str(out)]) == 0
        assert capsys.readouterr().err == (
            "warning: no calibration estimates for pair 'ba'; correction skipped\n"
            "warning: no calibration estimates for pair 'cb'; correction skipped\n"
        )
        fixes = out / "diffcal_fixes.csv"
        assert hashlib.sha256(fixes.read_bytes()).hexdigest() == (
            "722ac3f7e4dbcb42746462938b6bbf8a7ba78cfd8f49f40ec425a03b0f7e6119")
        meta = read_meta(fixes)
        assert (meta["calibration_sessions"], meta["skipped_pairs"]) == ("0", "ba,cb")
        rows = read_rows(fixes)
        assert len(rows) == 12
        for row in rows:
            assert (row["corrected_x_m"], row["corrected_y_m"], row["corrected_error_m"]) == (
                row["uncorrected_x_m"], row["uncorrected_y_m"], row["uncorrected_error_m"])

    # The truncation warnings of the weak links are part of the output.
    @pytest.mark.filterwarnings("default::uvtdoa.errortheory.SyncBoundTailWarning")
    def test_weak_link_bytes_are_pinned(self, tmp_path, capsys):
        # Geometry III on a 4x4 grid: at 150 mW most links fall below the
        # clip and at 1 mW every link is weak, so the sync bound runs on
        # hundreds of distinct rates, low ones included. Recorded with
        # numpy 2.4.6 on x86-64 Linux.
        path = tmp_path / "geometry-iii.cfg"
        path.write_text(GEOMETRY_III_CONFIG_TEXT)
        out = tmp_path / "o"
        runs = (["theory"], ["theory", "--format", "json"], ["sweep", "--powers-mw", "1,150"])
        streams = []
        for args in runs:
            assert main([*args, "--config", str(path), "--out", str(out)]) == 0
            streams.append(capsys.readouterr())
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
        for i, captured in enumerate(streams):
            for name, text in (("stdout", captured.out), ("stderr", captured.err)):
                digests[f"{runs[i][0]}{i}.{name}"] = hashlib.sha256(text.encode()).hexdigest()
        warned = [line for captured in streams for line in captured.err.splitlines()]
        assert all(line.startswith("warning: sync MSE bound truncation") for line in warned)
        assert len(warned) == WEAK_LINK_WARNINGS
        assert digests == WEAK_LINK_DIGESTS

    def test_no_fix_point_writes_null(self, config_file, tmp_path):
        # 0-30 us clock offsets put every range difference kilometres past
        # the anchor separation: every trial is an outage
        config_file.write_text(CONFIG_TEXT.replace("hi_ns = 100", "hi_ns = 30000"))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(config_file), "--out", str(out)]) == 0

        def no_constant(name):
            raise AssertionError(f"campaign.json holds {name}")

        payload = json.loads((out / "campaign.json").read_text(), parse_constant=no_constant)
        assert payload["grid_average_rmse_m"] is None
        assert payload["inside_average_rmse_m"] is None
        for point in payload["points"]:
            assert point["rmse_m"] is None and point["mean_error_m"] is None
            assert point["solver_failures"] == 4
        trials = read_rows(out / "trials.csv")
        assert list(trials[0]) == ["point_index", "trial", "truth_x_m", "truth_y_m",
                                   "est_x_m", "est_y_m", "error_m", "converged"]
        assert {(r["est_x_m"], r["error_m"], r["converged"]) for r in trials} == {
            ("nan", "nan", "0")}

    def test_worker_count_does_not_change_bytes(self, config_file, tmp_path):
        out1 = tmp_path / "w1"
        out2 = tmp_path / "w2"
        assert main(["simulate", "--config", str(config_file), "--out", str(out1),
                     "--workers", "1"]) == 0
        assert main(["simulate", "--config", str(config_file), "--out", str(out2),
                     "--workers", "2"]) == 0
        for name in ("campaign.json", "trials.csv", "detections.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_results(self, config_file, tmp_path):
        out1 = tmp_path / "s1"
        out2 = tmp_path / "s2"
        main(["simulate", "--config", str(config_file), "--out", str(out1)])
        main(["simulate", "--config", str(config_file), "--out", str(out2), "--seed", "99"])
        p1 = json.loads((out1 / "campaign.json").read_text())
        p2 = json.loads((out2 / "campaign.json").read_text())
        assert p1["seed"] == 7 and p2["seed"] == 99
        assert p1["grid_average_rmse_m"] != p2["grid_average_rmse_m"]

    def test_single_trial_smoke_run_is_fast(self, tmp_path):
        import time
        text = CONFIG_TEXT.replace("trials_per_point = 4", "trials_per_point = 1")
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(text)
        out = tmp_path / "smoke"
        t0 = time.perf_counter()
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert time.perf_counter() - t0 < 10.0

    # 100 chips per symbol gives the paper's 10 ns chip, where a time
    # difference formed as b*t - a*t instead of (b - a)*t changes fixes.
    # At 56, repr(chip_s * 1e9) / 1e9 is one ulp off chip_s.
    @pytest.mark.parametrize("chips_per_symbol", [20, 56, 100])
    def test_replay_of_detections_reproduces_trials(self, config_file, tmp_path, chips_per_symbol):
        config_file.write_text(
            CONFIG_TEXT.replace("chips_per_symbol = 20", f"chips_per_symbol = {chips_per_symbol}")
        )
        out = tmp_path / "sim"
        main(["simulate", "--config", str(config_file), "--out", str(out)])
        replay_out = tmp_path / "replay"
        assert main(["replay", "--config", str(config_file), "--log",
                     str(out / "detections.csv"), "--out", str(replay_out)]) == 0
        # match each replayed session estimate to the original trial estimate
        trials = {}
        for line in (out / "trials.csv").read_text().splitlines():
            if line.startswith("#") or line.startswith("point_index"):
                continue
            parts = line.split(",")
            key = f"p{int(parts[0]):03d}t{int(parts[1]):05d}"
            trials[key] = (float(parts[4]), float(parts[5]))
        replayed = 0
        for line in (replay_out / "replay_fixes.csv").read_text().splitlines():
            if line.startswith("#") or line.startswith("session"):
                continue
            parts = line.split(",")
            est = (float(parts[3]), float(parts[4]))
            assert est == trials[parts[0]]
            replayed += 1
        assert replayed == len(trials) == 36


class TestCliSweep:
    def test_sweep_matches_simulate_average(self, config_file, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(config_file), "--out", str(out),
                     "--powers-mw", "150"]) == 0
        sim_out = tmp_path / "sim"
        main(["simulate", "--config", str(config_file), "--out", str(sim_out)])
        payload = json.loads((sim_out / "campaign.json").read_text())
        rows = [l for l in (out / "sweep.csv").read_text().splitlines()
                if not l.startswith("#") and not l.startswith("power_mw")]
        assert len(rows) == 1
        power, sim_avg, theory_avg = rows[0].split(",")[:3]
        assert float(power) == 150.0
        assert float(sim_avg) == payload["grid_average_rmse_m"]
        assert float(theory_avg) == payload["theory_average_m"]

    def test_grid_without_inside_point_reads_nan_without_warnings(
        self, config_file, tmp_path, capsys
    ):
        import warnings
        config_file.write_text(CONFIG_TEXT.replace(
            "x_min_m = 25\nx_max_m = 50\ny_min_m = 20\ny_max_m = 45\nsteps_x = 3\nsteps_y = 3",
            "x_min_m = 60\nx_max_m = 70\ny_min_m = 50\ny_max_m = 60\nsteps_x = 2\nsteps_y = 2",
        ).replace("trials_per_point = 4", "trials_per_point = 2"))
        # main prints every warning it shows on stderr, one line each
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            assert main(["sweep", "--config", str(config_file), "--out", str(tmp_path / "sw"),
                         "--powers-mw", "150"]) == 0
            assert main(["simulate", "--config", str(config_file),
                         "--out", str(tmp_path / "sim")]) == 0
        err = capsys.readouterr().err
        assert "Mean of empty slice" not in err
        assert "invalid value" not in err
        rows = [l for l in (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
                if not l.startswith("#") and not l.startswith("power_mw")]
        assert rows[0].split(",")[3:] == ["nan", "nan"]
        payload = json.loads((tmp_path / "sim" / "campaign.json").read_text())
        assert not any(p["inside"] for p in payload["points"])
        assert payload["inside_average_rmse_m"] is None
        assert payload["inside_theory_average_m"] is None

    # Only the sync bound's truncation warning is let through here: it is
    # the output under test. Any other RuntimeWarning stays an error.
    @pytest.mark.filterwarnings("default::uvtdoa.errortheory.SyncBoundTailWarning")
    def test_warnings_are_one_line_each(self, tmp_path, capsys):
        # The paper config (Geometry II, default 9x9 grid): the truncated
        # sync bound warns once per power, each on one "warning:" line that
        # names no source file.
        path = tmp_path / "paper.cfg"
        path.write_text(PAPER_CONFIG_TEXT)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "sw"),
                     "--powers-mw", "1,30,150"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: sync MSE bound truncation at m_max=8 leaves a tail fraction of {tail}"
            for tail in ("1.16e-05", "2.38e-04", "1.27e-05")
        ]

    def test_json_meta_carries_detector_efficiency(self, config_file, tmp_path):
        out = tmp_path / "sweepj"
        assert main(["sweep", "--config", str(config_file), "--out", str(out),
                     "--powers-mw", "150", "--format", "json"]) == 0
        payload = json.loads((out / "sweep.json").read_text())
        assert payload["meta"]["detector_efficiency"] == 0.15
        assert payload["meta"]["tool"] == "uvtdoa sweep"


# Floats whose spelling a formatter can get wrong: signs, subnormals, the
# switch to exponent notation and a sum that is not its decimal.
ODD_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2]


def table_rows(path):
    """Header and data rows of an output CSV, as the strings in its cells."""
    rows = list(csv.reader(l for l in path.read_text().splitlines() if not l.startswith("#")))
    return rows[0], rows[1:]


class TestReportCells:
    def test_float_cells_are_their_repr(self, tmp_path):
        from uvtdoa.cli import _write_table

        header = [f"f{i}" for i in range(len(ODD_FLOATS))] + ["count", "flag"]
        rows = [[*ODD_FLOATS, 3, 0], [*ODD_FLOATS[::-1], -1, 1]]
        for fmt in ("csv", "json"):
            _write_table(tmp_path, "cells", fmt, {"tool": "test"}, header, rows, "rows")
        got_header, got = table_rows(tmp_path / "cells.csv")
        want = [[repr(v) if isinstance(v, float) else str(v) for v in r] for r in rows]
        assert got_header == header and got == want
        payload = json.loads((tmp_path / "cells.json").read_text())
        assert payload["rows"] == [
            {h: repr(v) if isinstance(v, float) else v for h, v in zip(header, r)} for r in rows
        ]
        assert all(type(r["count"]) is int and type(r["flag"]) is int for r in payload["rows"])

    @pytest.mark.parametrize("command, key", [(["theory"], "points"),
                                              (["sweep", "--powers-mw", "30,150"], "entries")])
    def test_json_rows_equal_csv_rows(self, config_file, tmp_path, command, key):
        stem = {"points": "theory_map", "entries": "sweep"}[key]
        for fmt in ("csv", "json"):
            assert main([*command, "--config", str(config_file), "--out", str(tmp_path),
                         "--format", fmt]) == 0
        header, rows = table_rows(tmp_path / f"{stem}.csv")
        payload = json.loads((tmp_path / f"{stem}.json").read_text())
        assert [list(r) for r in payload[key]] == [header] * len(rows)
        assert [[str(v) for v in r.values()] for r in payload[key]] == rows


class TestCliExitCodes:
    def test_slot_too_short_for_clock_is_config_error(self, tmp_path, capsys):
        # 64 us pilot + ~0.3 us flight + 5 us clock bound does not fit a
        # 64.5 us slot; the config used to load, run under theory, and
        # crash simulate with a slot-overrun traceback.
        text = CONFIG_TEXT.replace("slot_interval_s = 100e-6", "slot_interval_s = 64.5e-6")
        text = text.replace("hi_ns = 100", "hi_ns = 5000")
        with pytest.raises(ConfigError, match="slot_interval_s"):
            parse_config(text)
        path = tmp_path / "short.cfg"
        path.write_text(text)
        for command in ("theory", "simulate"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 2
        assert "slot_interval_s" in capsys.readouterr().err

    def test_slot_of_a_fraction_of_a_chip_is_exit_2(self, tmp_path, capsys):
        # 50 ns chips: a 100.02 us slot is 2000.4 chips, so the receiver's
        # slot cuts would drift 0.4 chip per slot from the transmissions
        text = CONFIG_TEXT.replace("slot_interval_s = 100e-6", "slot_interval_s = 100.02e-6")
        with pytest.raises(ConfigError, match="slot_interval_s"):
            parse_config(text)
        path = tmp_path / "fractional_slot.cfg"
        path.write_text(text)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "slot_interval_s" in capsys.readouterr().err

    def test_slot_fits_farthest_grid_corner(self):
        # The check uses the farthest grid corner, not only rx_true: with a
        # grid reaching 400 m out, a slot that holds rx_true's flight time
        # but not the corner's is rejected.
        text = CONFIG_TEXT.replace("slot_interval_s = 100e-6", "slot_interval_s = 65e-6")
        parse_config(text)
        with pytest.raises(ConfigError, match="slot_interval_s"):
            parse_config(text.replace("x_max_m = 50", "x_max_m = 400"))

    @pytest.mark.parametrize("old, new, key", [
        # Negative clock offsets would start anchor A's pilot before its slot.
        ("lo_ns = 0\nhi_ns = 100", "lo_ns = -2000\nhi_ns = -1000", "lo_ns"),
        # No trials: the campaign specification is invalid.
        ("trials_per_point = 4", "trials_per_point = 0", "trials_per_point"),
    ], ids=["clock_below_zero", "no_trials"])
    def test_unrunnable_config_is_exit_2(self, tmp_path, capsys, old, new, key):
        assert old in CONFIG_TEXT
        text = CONFIG_TEXT.replace(old, new)
        with pytest.raises(ConfigError, match=key):
            parse_config(text)
        path = tmp_path / "bad_run.cfg"
        path.write_text(text)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err

    def test_pilot_too_short_for_sync_bound_is_exit_2(self, tmp_path, capsys):
        # The default m_max = 8 sums offsets of up to 16 symbols, which
        # leaves the bound's domain for a pilot of 16 symbols or fewer.
        parse_config(CONFIG_TEXT.replace("sequence_length = 64", "sequence_length = 17"))
        text = CONFIG_TEXT.replace("sequence_length = 64", "sequence_length = 16")
        with pytest.raises(ConfigError, match="sequence_length"):
            parse_config(text)
        path = tmp_path / "short_pilot.cfg"
        path.write_text(text)
        for command in ("theory", "simulate"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 2
        assert "sequence_length" in capsys.readouterr().err

    def test_pilot_longer_than_the_largest_register_is_exit_2(self, tmp_path, capsys):
        # The pilot generator's longest register has a period of 65535; a
        # longer pilot used to end config load in a KeyError traceback.
        text = CONFIG_TEXT.replace("sequence_length = 64", "sequence_length = 70000")
        text = text.replace("slot_interval_s = 100e-6", "slot_interval_s = 0.1")
        with pytest.raises(ConfigError, match="65535"):
            parse_config(text)
        path = tmp_path / "long_pilot.cfg"
        path.write_text(text)
        assert main(["theory", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "65535" in err

    @pytest.mark.parametrize("seed", [-1, 2**64 + 1])
    @pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
    def test_seed_outside_64_bits_is_exit_2(self, config_file, tmp_path, capsys, command, seed):
        # -1 used to end in a numpy traceback; 2**64 + 1 used to run seed
        # 1's stream under another recorded seed.
        args = [command, "--out", str(tmp_path / "o"), *COMMAND_ARGS[command]]
        path = tmp_path / "bad_seed.cfg"
        path.write_text(CONFIG_TEXT.replace("seed = 7", f"seed = {seed}"))
        assert main([*args, "--config", str(path)]) == 2
        assert "[campaign] seed must be in [0, 2**64)" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main([*args, "--config", str(config_file), "--seed", str(seed)])
        assert exc.value.code == 2
        assert "seed must be in [0, 2**64)" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    @pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
    def test_workers_below_one_is_exit_2(self, config_file, tmp_path, capsys, command, workers):
        # every command takes --workers; a count below one is a usage error
        args = [command, "--config", str(config_file), "--out", str(tmp_path / "o"),
                *COMMAND_ARGS[command], "--workers", workers]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert f"argument --workers: must be >= 1, got {workers}" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_boundary_seeds_run(self, config_file, tmp_path, seed):
        assert parse_config(CONFIG_TEXT.replace("seed = 7", f"seed = {seed}")).seed == seed
        sim = tmp_path / "simulate"
        log = str(sim / "detections.csv")
        # simulate runs before replay and diffcal, which read its detections
        for command, extra in COMMAND_ARGS.items():
            extra = [log if arg.endswith(".csv") else arg for arg in extra]
            assert main([command, "--config", str(config_file), "--seed", str(seed),
                         "--out", str(tmp_path / command), *extra]) == 0
        assert json.loads((sim / "campaign.json").read_text())["seed"] == seed

    def test_early_check_uses_nearest_grid_point(self):
        # The grid point (50, 20) is 106.8 ns from anchor B; with 50 ns chips
        # and the -25 ns fractional offset a pilot may start up to 50 ns early,
        # so lo_ns may go down to -131.8. rx_true alone would allow -171.
        parse_config(CONFIG_TEXT.replace("lo_ns = 0", "lo_ns = -130"))
        with pytest.raises(ConfigError, match="lo_ns"):
            parse_config(CONFIG_TEXT.replace("lo_ns = 0", "lo_ns = -135"))

    def test_anchor_a_pilot_starts_inside_the_frame(self, tmp_path, capsys):
        # 500 ns chips and a grid point 0.7 m from anchor A: the fractional
        # offset can start A's pilot up to 248 ns before the frame's first
        # chip. A pilot whose first symbol is off still has all its photons
        # in the frame; one whose first symbol is on cannot be rendered.
        text = (CONFIG_TEXT.replace("symbol_rate_hz = 1e6", "symbol_rate_hz = 1e5")
                .replace("x_min_m = 25", "x_min_m = 0.5").replace("y_min_m = 20", "y_min_m = 0.5"))
        for seed, bit in ((1, 0), (63, 1)):
            assert generate_pilot(64, seed)[0] == bit
            path = tmp_path / f"first-{bit}.cfg"
            path.write_text(text.replace(
                "slot_interval_s = 100e-6", f"slot_interval_s = 1e-3\npilot_seed = {seed}"))
            code = main(["simulate", "--config", str(path), "--out", str(tmp_path / f"o{bit}")])
            err = capsys.readouterr().err
            if bit:
                assert code == 2
                assert "anchor A's pilot, whose first symbol is on" in err
            else:
                assert code == 0, err

    def test_non_utf8_config_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(CONFIG_TEXT.encode() + b"# \xff\n")
        assert main(["theory", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read config") and "Traceback" not in err

    def test_config_with_byte_order_mark_loads(self, config_file, tmp_path):
        from uvtdoa import load_config
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbf" + config_file.read_bytes())
        assert config_hash(load_config(path)) == config_hash(load_config(config_file))

    @pytest.mark.parametrize("command, flag", [("replay", "--log"), ("diffcal", "--calibration"),
                                               ("diffcal", "--log")])
    def test_non_utf8_log_is_exit_4(self, config_file, tmp_path, capsys, command, flag):
        from conftest import make_scene
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        write_log(good, synthetic_log_rows(make_scene(), [(36.0, 25.0)]))
        bad.write_bytes(good.read_bytes() + b"\xff\n")
        logs = []
        for f in COMMAND_ARGS[command][::2]:
            logs += [f, str(bad if f == flag else good)]
        assert main([command, "--config", str(config_file), "--out", str(tmp_path / "o"),
                     *logs]) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o error: cannot read log") and "Traceback" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_grid_corner_on_an_anchor_is_exit_3(self, tmp_path, capsys):
        # The corner (0, 0) is anchor A: its link has no distance, and the
        # rate refuses it before dividing by it.
        text = CONFIG_TEXT.replace("x_min_m = 25", "x_min_m = 0").replace(
            "y_min_m = 20", "y_min_m = 0")
        path = tmp_path / "on_anchor.cfg"
        path.write_text(text)
        assert main(["theory", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == "error: distance_m must be > 0, got 0.0\n"

    def test_library_error_is_exit_3(self, config_file, tmp_path, capsys):
        # An empty power list loads and reaches power_sweep's CampaignError.
        assert main(["sweep", "--config", str(config_file), "--powers-mw", ",",
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and "\n" not in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("power", ["inf", "1e400", "nan", "0", "-5"])
    def test_power_not_finite_and_positive_is_exit_3(self, config_file, tmp_path, capsys, power):
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(config_file), "--powers-mw", power,
                     "--out", str(out)]) == 3
        assert not (out / "sweep.csv").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: power_w must be finite and > 0, got ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_bad_power_fails_before_any_campaign(self, config_file, tmp_path, capsys,
                                                 monkeypatch):
        import uvtdoa.montecarlo
        calls = []
        run_campaign = uvtdoa.montecarlo.run_campaign
        monkeypatch.setattr(uvtdoa.montecarlo, "run_campaign",
                            lambda *a, **k: calls.append(a) or run_campaign(*a, **k))
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(config_file), "--powers-mw", "150,inf",
                     "--out", str(out)]) == 3
        assert calls == []
        assert not (out / "sweep.csv").exists()
        assert capsys.readouterr().err == "error: power_w must be finite and > 0, got inf\n"


def write_log(path, rows, header=True):
    lines = []
    if header:
        lines.append("timestamp_s,session,anchor,arrival_chip,chip_ns,truth_x_m,truth_y_m")
    lines.extend(rows)
    path.write_text("\n".join(lines) + "\n")


def synthetic_log_rows(scene, points, chip_ns=50.0, sessions_per_point=1, offset_chips=(0, 0)):
    """Detection rows whose chip differences encode the exact geometry."""
    rows = []
    chip_s = chip_ns / 1e9
    sid = 0
    for (x, y) in points:
        d = np.linalg.norm(scene.anchors - np.array([x, y]), axis=1)
        base = 1000
        chips = {
            "A": base,
            "B": base + (d[1] - d[0]) / SPEED_OF_LIGHT / chip_s + offset_chips[0],
            "C": base + (d[2] - d[0]) / SPEED_OF_LIGHT / chip_s
            + offset_chips[0] + offset_chips[1],
        }
        for _ in range(sessions_per_point):
            for anchor in "ABC":
                rows.append(
                    f"{sid}.0,s{sid:04d},{anchor},{int(round(chips[anchor]))},{chip_ns!r},{x!r},{y!r}"
                )
            sid += 1
    return rows


def rough_log_rows(scene):
    """A log with skipped lines and groups that reach the two-means split.

    Truth (36, 25): four sessions within a chip of their exact arrivals,
    four whose B-A difference is a chip short (a second cluster), and one
    whose A pilot was misdetected a symbol early (an outage). Five sessions
    without truth at four points, and one clean session at (30, 40). Then a
    repeated anchor, a timestamp regression and one line of each malformed
    kind.
    """
    truth, other = (36.0, 25.0), (30.0, 40.0)
    offsets = [(0, 0), (0, 1), (0, 0), (0, 1), (-1, 0), (-1, 0), (-1, 0), (-1, -1), (20, 0)]
    sessions = [synthetic_log_rows(scene, [truth], offset_chips=off) for off in offsets]
    for p in (truth, other, (45.0, 30.0), (28.0, 22.0), other):
        sessions.append([r.rsplit(",", 2)[0] + ",," for r in synthetic_log_rows(scene, [p])])
    sessions.append(synthetic_log_rows(scene, [other]))
    rows = []
    for k, session in enumerate(sessions):
        for j, row in enumerate(session):
            parts = row.split(",")
            parts[0], parts[1] = repr(k + 0.25 * j), f"s{k:02d}"
            rows.append(",".join(parts))
    repeat = rows[3].split(",")  # s01's A again, 40 chips later
    repeat[0], repeat[3] = "1.9", str(int(repeat[3]) + 40)
    regression = rows[7].split(",")  # s02's B, stamped before s02's A
    regression[0] = "1.95"
    rows[7:7] = [
        ",".join(repeat),
        ",".join(regression),
        "0.5,bad0,A,1000,50.0,1.0",  # six columns
        "0.6,bad1,D,1000,50.0,,",  # unknown anchor
        "0.7,bad2,B,10x0,50.0,,",  # non-integer arrival chip
        "t0.8,bad3,C,1000,50.0,,",  # non-numeric timestamp
    ]
    return rows


class TestCliReplay:
    def test_zero_error_log_recovers_positions(self, config_file, tmp_path):
        from conftest import make_scene
        scene = make_scene()
        # chip-aligned truth: pick points whose range differences are close
        # to integer chips, then assert sub-chip recovery
        log = tmp_path / "log.csv"
        write_log(log, synthetic_log_rows(scene, [(36.0, 25.0), (30.0, 40.0)]))
        out = tmp_path / "rep"
        assert main(["replay", "--config", str(config_file), "--log", str(log),
                     "--out", str(out)]) == 0
        for line in (out / "replay_fixes.csv").read_text().splitlines():
            if line.startswith("#") or line.startswith("session"):
                continue
            parts = line.split(",")
            err = float(parts[5])
            assert err < SPEED_OF_LIGHT * 50e-9  # within one chip of flight distance

    def test_malformed_lines_skipped_and_counted(self, config_file, tmp_path):
        from conftest import make_scene
        scene = make_scene()
        rows = synthetic_log_rows(scene, [(36.0, 25.0)])
        rows.insert(1, "not,a,valid,row")
        rows.insert(2, "0.5,s9999,Q,12,50.0,1,1")
        log = tmp_path / "log.csv"
        write_log(log, rows)
        out = tmp_path / "rep"
        assert main(["replay", "--config", str(config_file), "--log", str(log),
                     "--out", str(out)]) == 0
        meta = read_meta(out / "replay_fixes.csv")
        assert meta["skipped_lines"] == "2"

    def test_repeated_anchor_keeps_the_first_detection(self, config_file, tmp_path, capsys):
        # A, B, C, then A again 4000 chips later in the same session: the
        # session is solved on the first A, and the repeat is a skipped line.
        from conftest import make_scene
        rows = synthetic_log_rows(make_scene(), [(36.0, 25.0), (30.0, 40.0)])
        repeat = rows[0].split(",")
        repeat[0], repeat[3] = "0.5", str(int(repeat[3]) + 4000)
        fixes = {}
        for name, log_rows in (("clean", rows), ("repeated", [*rows[:3], ",".join(repeat),
                                                               *rows[3:]])):
            write_log(tmp_path / f"{name}.csv", log_rows)
            out = tmp_path / name
            assert main(["replay", "--config", str(config_file), "--log",
                         str(tmp_path / f"{name}.csv"), "--out", str(out)]) == 0
            assert read_meta(out / "replay_fixes.csv")["skipped_lines"] == str(
                int(name == "repeated"))
            assert f"lines_skipped = {int(name == 'repeated')}" in capsys.readouterr().out
            fixes[name] = read_rows(out / "replay_fixes.csv")
        assert fixes["repeated"] == fixes["clean"]
        assert [row["converged"] for row in fixes["clean"]] == ["1", "1"]

    def test_empty_log_is_io_error(self, config_file, tmp_path):
        log = tmp_path / "empty.csv"
        write_log(log, [])
        assert main(["replay", "--config", str(config_file), "--log", str(log),
                     "--out", str(tmp_path)]) == 4

    def test_two_cluster_report(self, config_file, tmp_path):
        from conftest import make_scene
        scene = make_scene()
        # same truth, two well-separated measurement clusters
        rows = synthetic_log_rows(scene, [(36.0, 25.0)] * 5)
        rows += synthetic_log_rows(scene, [(36.0, 25.0)] * 5, offset_chips=(1, 1))
        # renumber sessions so they are unique
        fixed = []
        for i, row in enumerate(rows):
            parts = row.split(",")
            parts[0] = f"{i // 3}.0"
            parts[1] = f"s{i // 3:04d}"
            fixed.append(",".join(parts))
        log = tmp_path / "log.csv"
        write_log(log, fixed)
        out = tmp_path / "rep"
        assert main(["replay", "--config", str(config_file), "--log", str(log),
                     "--out", str(out)]) == 0
        lines = [l for l in (out / "replay_clusters.csv").read_text().splitlines()
                 if not l.startswith("#") and not l.startswith("truth_x_m")]
        assert len(lines) == 1
        assert lines[0].split(",")[-1] == "2"

    def test_misdetected_session_is_an_outage(self, config_file, tmp_path):
        from conftest import make_scene
        scene = make_scene()
        truth = (36.0, 25.0)
        # four clean sessions a chip or so apart, and one whose anchor-B pilot
        # was found a symbol (20 chips) late: no branch crossing
        offsets = [(0, 0), (1, 0), (0, 1), (1, 1), (20, -20)]
        rows = []
        for k, off in enumerate(offsets):
            for row in synthetic_log_rows(scene, [truth], offset_chips=off):
                parts = row.split(",")
                parts[0], parts[1] = f"{k}.0", f"s{k:04d}"
                rows.append(",".join(parts))
        logs = {"all": rows, "clean": rows[:-3]}
        for name, log_rows in logs.items():
            write_log(tmp_path / f"{name}.csv", log_rows)
            assert main(["replay", "--config", str(config_file), "--log",
                         str(tmp_path / f"{name}.csv"), "--out", str(tmp_path / name)]) == 0
        fixes = read_rows(tmp_path / "all" / "replay_fixes.csv")
        assert [r["converged"] for r in fixes] == ["1", "1", "1", "1", "0"]
        assert fixes[-1]["est_x_m"] == fixes[-1]["est_y_m"] == fixes[-1]["error_m"] == "nan"
        (cluster,) = read_rows(tmp_path / "all" / "replay_clusters.csv")
        (clean,) = read_rows(tmp_path / "clean" / "replay_clusters.csv")
        assert (cluster["n_fixes"], cluster["outages"]) == ("4", "1")
        assert (clean["n_fixes"], clean["outages"]) == ("4", "0")
        # the outage leaves the statistics of the fixes as they are
        for key in ("mean_x_m", "mean_y_m", "spread_m", "mean_to_truth_m", "n_clusters"):
            assert cluster[key] == clean[key]

    def test_all_outage_group(self, config_file, tmp_path):
        from conftest import make_scene
        log = tmp_path / "log.csv"
        write_log(log, synthetic_log_rows(make_scene(), [(36.0, 25.0)], offset_chips=(20, -20)))
        assert main(["replay", "--config", str(config_file), "--log", str(log),
                     "--out", str(tmp_path / "o")]) == 0
        (cluster,) = read_rows(tmp_path / "o" / "replay_clusters.csv")
        assert (cluster["n_fixes"], cluster["outages"], cluster["n_clusters"]) == ("0", "1", "0")
        assert cluster["mean_x_m"] == cluster["spread_m"] == "nan"

    def test_nonmonotone_timestamp_skipped(self, tmp_path):
        rows = [
            "1.0,s0,A,100,50.0,1,1",
            "0.5,s0,B,100,50.0,1,1",  # timestamp went backwards
        ]
        log = tmp_path / "log.csv"
        write_log(log, rows)
        records, skipped = parse_replay_log(log)
        assert skipped == 1
        assert len(records) == 1

    @pytest.mark.parametrize("bad", [
        "nan,s0,B,100,50.0,1,1",  # timestamp
        "inf,s0,B,100,50.0,1,1",
        "0.5,s0,B,100,nan,1,1",  # chip duration
        "0.5,s0,B,100,inf,1,1",
        "0.5,s0,B,100,-10,1,1",
        "0.5,s0,B,100,0.0,1,1",
        "0.5,s0,B,100,50.0,inf,1",  # truth coordinate
        "0.5,s0,B,100,50.0,1,nan",
    ])
    def test_non_finite_or_nonphysical_line_skipped(self, tmp_path, bad):
        log = tmp_path / "log.csv"
        write_log(log, ["0.0,s0,A,100,50.0,1,1", bad, "1.0,s0,C,100,50.0,1,1"])
        records, skipped = parse_replay_log(log)
        assert skipped == 1
        assert [r.anchor for r in records] == ["A", "C"]

    def test_bad_values_never_reach_the_outputs(self, config_file, tmp_path, capsys):
        from conftest import make_scene
        rows = synthetic_log_rows(make_scene(), [(36.0, 25.0), (30.0, 40.0)] * 2)
        # one bad value in each of three sessions: chip_ns nan, chip_ns -10,
        # an infinite truth coordinate
        rows[1] = rows[1].replace(",50.0,", ",nan,")
        rows[4] = rows[4].replace(",50.0,", ",-10,")
        rows[8] = rows[8].rsplit(",", 2)[0] + ",inf,25.0"
        log = tmp_path / "log.csv"
        write_log(log, rows)
        out = tmp_path / "rep"
        assert main(["replay", "--config", str(config_file), "--log", str(log),
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "sessions_replayed = 1" in stdout
        assert "lines_skipped = 3" in stdout
        assert read_meta(out / "replay_fixes.csv")["skipped_lines"] == "3"
        assert read_meta(out / "replay_fixes.csv")["incomplete_sessions"] == "3"
        for name in ("replay_fixes.csv", "replay_clusters.csv"):
            body = (out / name).read_text().lower()
            assert "nan" not in body and "inf" not in body, name

    def test_rough_log_bytes_are_pinned(self, config_file, tmp_path, capsys):
        # The rough log replayed and used as both diffcal logs: files, then
        # each run's stdout and stderr. Its skipped lines and its two-cluster
        # group reach the parser's error paths, the farthest-pair scan and the
        # two-means split. Recorded with numpy 2.4.6 on x86-64 Linux.
        from conftest import make_scene
        log = tmp_path / "rough.csv"
        write_log(log, rough_log_rows(make_scene()))
        out = tmp_path / "o"
        digests = {}
        for args in (["replay", "--log", str(log)],
                     ["diffcal", "--calibration", str(log), "--log", str(log)]):
            assert main([*args, "--config", str(config_file), "--out", str(out)]) == 0
            captured = capsys.readouterr()
            for name, text in (("stdout", captured.out), ("stderr", captured.err)):
                digests[f"{args[0]}.{name}"] = hashlib.sha256(text.encode()).hexdigest()
        digests |= {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
        assert digests == {
            "replay_fixes.csv": "080721e1bdc058126da7441be16c76498a4eb91e1730cc2d41313dab2fd85bc4",
            "replay_clusters.csv":
                "bb49f44d00f39ce50c410d7ed3492e345c7e8c70a7492ae2e2c823c94d642287",
            "diffcal_fixes.csv":
                "8c78a8e4eabf35ed7d6396e4dc5a8d584f3394ff0ce07e3884c4ac208c2c3140",
            "replay.stdout": "9baaebca2548a07102a8bd037159cfcd4605fe4bea244e2561e6c0010d227b40",
            "replay.stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "diffcal.stdout": "06ce96ce1a15d804c5d17188d7d7c4f294498c5b18fc19dc74fb568611c2184f",
            "diffcal.stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        }
        clusters = read_rows(out / "replay_clusters.csv")
        assert [(r["truth_x_m"], r["n_fixes"], r["outages"], r["n_clusters"])
                for r in clusters] == [("36.0", "8", "1", "2"), ("", "5", "0", "2"),
                                       ("30.0", "1", "0", "1")]

    def test_parser_edge_cases(self, tmp_path):
        # What the parser keeps and skips, field by field.
        rows = [
            "# a comment, with, commas, in, it",
            "  # an indented comment",
            "",
            "   ",
            " 0.0 , s0 , a , 100 , 50.0 , 1.5 , 2.5 ",  # whitespace around each field
            "0.1,s0,B,+12,50.0,1.5,2.5",
            "0.2,s0,C, 12 ,50.0,1.5,2.5",
            "timestamp_s,session,anchor,arrival_chip,chip_ns,truth_x_m,truth_y_m",
            "timestamp_s ,session",  # a short header still is one
            "1.0,s1,A,1_000,50.0",  # five columns: no truth
            "1.1,s1,B,1000,50.0,3.0,",  # half-empty truth pair: no truth
            "1.2,s1,C,1000,50.0, ,4.0",
            "1.3,s2,A,1000,50.0,x,",  # the half pair is not parsed
            "1.4,s2,B,1000,50.0,1.0,x",  # skipped: bad truth coordinate
            "1.5,s2,B,1000,50.0,1.0",  # skipped: six columns
            "1.6,s2,B,1000,50.0,1.0,2.0,3.0",  # skipped: eight columns
            "1.7,s2,B,1.5,50.0,,",  # skipped: arrival chip not an integer
            "1.8,s2,B,1000,50 .0,,",  # skipped: chip duration not a number
            "1.9,s2,AB,1000,50.0,,",  # skipped: unknown anchor
            "timestamp_s_x,s2,B,1000,50.0,,",  # skipped: not the header
            "1_0.5,s3,A,7,1e1,,",
            "11.0,s3,B,\x1f8\x1f,\x1f1e1,\x1f,",  # U+001F is whitespace to str.strip
        ]
        log = tmp_path / "log.csv"
        write_log(log, rows, header=False)
        records, skipped = parse_replay_log(log)
        assert skipped == 7
        assert [(r.timestamp_s, r.session, r.anchor, r.arrival_chip, r.chip_ns, r.truth)
                for r in records] == [
            (0.0, "s0", "A", 100, 50.0, (1.5, 2.5)),
            (0.1, "s0", "B", 12, 50.0, (1.5, 2.5)),
            (0.2, "s0", "C", 12, 50.0, (1.5, 2.5)),
            (1.0, "s1", "A", 1000, 50.0, None),
            (1.1, "s1", "B", 1000, 50.0, None),
            (1.2, "s1", "C", 1000, 50.0, None),
            (1.3, "s2", "A", 1000, 50.0, None),
            (10.5, "s3", "A", 7, 10.0, None),
            (11.0, "s3", "B", 8, 10.0, None),
        ]
        assert all(type(r.arrival_chip) is int for r in records)

    def test_log_with_byte_order_mark(self, config_file, tmp_path, capsys):
        # A log saved with a UTF-8 byte-order mark: its header is a header.
        from conftest import make_scene
        log = tmp_path / "log.csv"
        write_log(log, synthetic_log_rows(make_scene(), [(36.0, 25.0)]))
        log.write_bytes(b"\xef\xbb\xbf" + log.read_bytes())
        assert main(["replay", "--config", str(config_file), "--log", str(log),
                     "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().out == "sessions_replayed = 1\nlines_skipped = 0\n"


class TestClusterStats:
    def test_single_cluster(self):
        rng = np.random.default_rng(0)
        pts = rng.normal((10, 20), 0.5, size=(30, 2))
        stats = cluster_stats(pts, truth=(10, 20))
        assert stats["n_clusters"] == 1
        assert stats["mean_to_truth_m"] < 0.5

    def test_two_clusters(self):
        rng = np.random.default_rng(1)
        pts = np.vstack([
            rng.normal((0, 0), 0.3, size=(15, 2)),
            rng.normal((30, 30), 0.3, size=(15, 2)),
        ])
        assert cluster_stats(pts)["n_clusters"] == 2

    def test_stats_equal_linalg_oracle(self):
        # The norms and means are numpy's own expressions, so every value
        # keeps its bits. A vector's norm is a dot product: summing its
        # squares instead moved the last bit of about 8 % of random
        # 2-vectors on x86-64 with numpy 2.4.6, and of mean_to_truth_m here.
        rng = np.random.default_rng(5)
        for seed in range(3):
            for k, pts in enumerate(_clouds(seed)):
                truth = None if k % 4 == 0 else tuple(rng.normal((36, 25), 3.0).tolist())
                got = cluster_stats(pts, truth)
                assert repr(got) == repr(_linalg_cluster_stats(pts, truth))


def _dense_split_two_clusters(points):
    # The split as it was with a full N x N distance matrix: the oracle.
    d2 = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=-1)
    i, j = np.unravel_index(np.argmax(d2), d2.shape)
    centers = np.array([points[i], points[j]], dtype=float)
    labels = np.zeros(len(points), dtype=int)
    for iteration in range(10):
        dists = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=-1)
        new_labels = np.argmin(dists, axis=1)
        if iteration > 0 and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for kk in (0, 1):
            if np.any(labels == kk):
                centers[kk] = points[labels == kk].mean(axis=0)
    return labels, centers


def _clouds(seed):
    rng = np.random.default_rng(seed)
    for n in (4, 5, 31, 300, 1000):
        yield rng.normal((36, 25), 3.0, size=(n, 2))
        yield np.round(rng.uniform(0, 4, size=(n, 2)))  # many tied distances
        pts = rng.normal(size=(n, 2))
        pts[n // 2:] = pts[: n - n // 2]  # every point duplicated
        yield pts
        yield np.vstack([rng.normal(0, 0.3, (n // 2, 2)), rng.normal(30, 0.3, (n - n // 2, 2))])
        yield np.full((n, 2), 4.5)  # every distance 0
        pts = rng.normal(size=(n, 2))
        pts[(n * 2) // 3, seed % 2] = math.nan  # a NaN row and column
        yield pts


def _linalg_cluster_stats(fix_points, truth):
    # cluster_stats as it was with np.linalg.norm and np.mean: the oracle.
    center = fix_points.mean(axis=0)
    stats = {"n_fixes": len(fix_points), "mean_x_m": float(center[0]),
             "mean_y_m": float(center[1]),
             "spread_m": float(np.mean(np.linalg.norm(fix_points - center, axis=1))),
             "n_clusters": 1}
    labels, centers = _dense_split_two_clusters(fix_points)
    if np.bincount(labels, minlength=2).min() >= 2:
        intra = max(float(np.mean(np.linalg.norm(fix_points[labels == kk] - centers[kk],
                                                 axis=1))) for kk in (0, 1))
        if float(np.linalg.norm(centers[0] - centers[1])) > 3.0 * max(intra, 1e-9):
            stats["n_clusters"] = 2
    if truth is not None:
        stats["mean_to_truth_m"] = float(np.linalg.norm(center - np.asarray(truth)))
    return stats


class TestClusterSplitBlocks:
    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    def test_equals_dense_oracle(self, monkeypatch, block):
        from uvtdoa import cli

        monkeypatch.setattr(cli, "_PAIR_BLOCK", block)
        for pts in _clouds(block):
            labels, centers = cli._split_two_clusters(pts)
            want_labels, want_centers = _dense_split_two_clusters(pts)
            assert np.array_equal(labels, want_labels)
            assert np.array_equal(centers, want_centers, equal_nan=True)  # NaN clouds: NaN centres

    @pytest.mark.parametrize("block", [1, 7, 64, 1 << 16])
    def test_farthest_pair_equals_dense_argmax(self, monkeypatch, block):
        # The upper-triangle scan gives the full matrix's first maximum in
        # row-major order: (0, 0) when every distance is 0, and the first
        # NaN when a point has one.
        from uvtdoa import cli

        monkeypatch.setattr(cli, "_PAIR_BLOCK", block)
        for seed in (0, 1):
            for pts in _clouds(seed):
                d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
                want = np.unravel_index(np.argmax(d2), d2.shape)
                assert cli._farthest_pair(pts) == tuple(int(v) for v in want)

    def test_seed_pair_is_first_maximum(self):
        from uvtdoa.cli import _farthest_pair

        # the corners of a square: four pairs tie for the largest distance
        square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]])
        assert _farthest_pair(square) == (0, 3)

    def test_memory_is_linear(self):
        import tracemalloc

        pts = np.random.default_rng(3).normal(size=(5000, 2))
        tracemalloc.start()
        try:
            cluster_stats(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6


class TestCliDiffcal:
    def test_perfect_calibration_and_missing_pair(self, config_file, tmp_path):
        from conftest import make_scene
        scene = make_scene()
        truth = (36.0, 25.0)
        # measurement sessions share a constant 2-chip A-B bias and 1-chip B-C bias
        meas_rows = synthetic_log_rows(scene, [truth] * 6, offset_chips=(2, 1))
        cal_rows = synthetic_log_rows(scene, [truth], offset_chips=(2, 1))
        cal_rows = [r.replace("s0000", "cal0") for r in cal_rows]
        meas = tmp_path / "meas.csv"
        cal = tmp_path / "cal.csv"
        write_log(meas, meas_rows)
        write_log(cal, cal_rows)
        out = tmp_path / "dc"
        assert main(["diffcal", "--config", str(config_file), "--calibration",
                     str(cal), "--log", str(meas), "--out", str(out)]) == 0
        lines = [l for l in (out / "diffcal_fixes.csv").read_text().splitlines()
                 if not l.startswith("#") and not l.startswith("session")]
        assert len(lines) == 6
        for line in lines:
            parts = line.split(",")
            assert float(parts[8]) < 1e-6  # corrected error
            assert float(parts[5]) > 1.0  # uncorrected error

    def test_repeated_anchor_skipped_in_both_logs(self, config_file, tmp_path):
        # A repeated anchor in a session of either log is a skipped line,
        # and the session keeps its first detection of that anchor.
        from conftest import make_scene
        scene, truth = make_scene(), (36.0, 25.0)
        meas_rows = synthetic_log_rows(scene, [truth] * 3, offset_chips=(2, 1))
        cal_rows = [r.replace("s0000", "cal0")
                    for r in synthetic_log_rows(scene, [truth], offset_chips=(2, 1))]
        def repeated(rows, i):
            parts = rows[i].split(",")
            parts[3] = str(int(parts[3]) - 300)
            return [*rows, ",".join(parts)]
        fixes = {}
        for name, logs in (("clean", (cal_rows, meas_rows)),
                           ("repeated", (repeated(cal_rows, 1), repeated(meas_rows, 5)))):
            for stem, log_rows in zip(("cal", "meas"), logs):
                write_log(tmp_path / f"{name}-{stem}.csv", log_rows)
            out = tmp_path / name
            assert main(["diffcal", "--config", str(config_file),
                         "--calibration", str(tmp_path / f"{name}-cal.csv"),
                         "--log", str(tmp_path / f"{name}-meas.csv"), "--out", str(out)]) == 0
            meta = read_meta(out / "diffcal_fixes.csv")
            skipped = str(int(name == "repeated"))
            assert (meta["calibration_skipped_lines"], meta["skipped_lines"]) == (skipped, skipped)
            fixes[name] = read_rows(out / "diffcal_fixes.csv")
        assert fixes["repeated"] == fixes["clean"]
        assert all(float(row["corrected_error_m"]) < 1e-6 for row in fixes["clean"])

    def test_averages_over_fixes(self, config_file, tmp_path, capsys):
        from conftest import make_scene
        scene = make_scene()
        truth = (36.0, 25.0)
        # a 4-chip A-B and 2-chip B-C bias: each range difference is within
        # the anchor separation, but the branches do not cross, so no
        # uncorrected session has a fix
        meas_rows = synthetic_log_rows(scene, [truth] * 3, offset_chips=(4, 2))
        cal_rows = [r.replace("s0000", "cal0")
                    for r in synthetic_log_rows(scene, [truth], offset_chips=(4, 2))]
        write_log(tmp_path / "meas.csv", meas_rows)
        write_log(tmp_path / "cal.csv", cal_rows)
        assert main(["diffcal", "--config", str(config_file), "--calibration",
                     str(tmp_path / "cal.csv"), "--log", str(tmp_path / "meas.csv"),
                     "--out", str(tmp_path / "dc")]) == 0
        out = capsys.readouterr().out
        assert "uncorrected_average_error_m = nan" in out
        corrected = float(out.split("corrected_average_error_m = ")[-1].split()[0])
        assert corrected < 1e-6

    def test_bias_past_the_clamp_is_corrected(self, config_file, tmp_path, capsys):
        from conftest import make_scene
        scene = make_scene()
        truth = (36.0, 25.0)
        # a 20-chip A-B and -20-chip B-C bias on 50 ns chips: 300 m on each
        # range difference, ten times the two-chip clamp slack, so every
        # uncorrected session is clamped into an outage
        meas_rows = synthetic_log_rows(scene, [truth] * 3, offset_chips=(20, -20))
        cal_rows = [r.replace("s0000", "cal0")
                    for r in synthetic_log_rows(scene, [truth], offset_chips=(20, -20))]
        write_log(tmp_path / "meas.csv", meas_rows)
        write_log(tmp_path / "cal.csv", cal_rows)
        out = tmp_path / "dc"
        assert main(["diffcal", "--config", str(config_file), "--calibration",
                     str(tmp_path / "cal.csv"), "--log", str(tmp_path / "meas.csv"),
                     "--out", str(out)]) == 0
        assert "uncorrected_average_error_m = nan" in capsys.readouterr().out
        rows = read_rows(out / "diffcal_fixes.csv")
        assert len(rows) == 3
        for row in rows:
            assert row["uncorrected_x_m"] == "nan"
            assert float(row["corrected_error_m"]) < 1e-6

    def test_calibration_without_truth_warns_and_leaves_output_unchanged(
        self, config_file, tmp_path, capsys
    ):
        from conftest import make_scene
        scene = make_scene()
        meas_rows = synthetic_log_rows(scene, [(36.0, 25.0)] * 3, offset_chips=(2, 1))
        cal_rows = [r.rsplit(",", 2)[0] + ",," for r in synthetic_log_rows(scene, [(30.0, 30.0)])]
        meas = tmp_path / "meas.csv"
        cal = tmp_path / "cal.csv"
        write_log(meas, meas_rows)
        write_log(cal, cal_rows)
        out = tmp_path / "dc"
        assert main(["diffcal", "--config", str(config_file), "--calibration",
                     str(cal), "--log", str(meas), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "skipped" in err
        lines = [l for l in (out / "diffcal_fixes.csv").read_text().splitlines()
                 if not l.startswith("#") and not l.startswith("session")]
        for line in lines:
            parts = line.split(",")
            assert parts[6] == parts[3] and parts[7] == parts[4]  # unchanged

    def test_non_finite_lines_skipped_in_both_logs(self, config_file, tmp_path, capsys):
        from conftest import make_scene
        scene = make_scene()
        meas_rows = synthetic_log_rows(scene, [(36.0, 25.0)] * 3, offset_chips=(2, 1))
        meas_rows[4] = meas_rows[4].replace(",50.0,", ",nan,")
        cal_rows = synthetic_log_rows(scene, [(36.0, 25.0)], offset_chips=(2, 1))
        cal_rows[0] = cal_rows[0].rsplit(",", 2)[0] + ",inf,25.0"
        meas = tmp_path / "meas.csv"
        cal = tmp_path / "cal.csv"
        write_log(meas, meas_rows)
        write_log(cal, cal_rows)
        out = tmp_path / "dc"
        assert main(["diffcal", "--config", str(config_file), "--calibration",
                     str(cal), "--log", str(meas), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "sessions = 2" in captured.out
        assert "skipped" in captured.err  # the calibration session lost anchor A
        meta = read_meta(out / "diffcal_fixes.csv")
        assert meta["calibration_sessions"] == "0"
        counts = {
            "calibration_skipped_lines": "1",
            "calibration_incomplete_sessions": "1",
            "skipped_lines": "1",
            "incomplete_sessions": "1",
        }
        for key, value in counts.items():
            assert meta[key] == value
            assert f"{key} = {value}" in captured.out


class TestSessionsFromRecords:
    def test_incomplete_sessions_dropped(self, tmp_path):
        rows = [
            "0.0,s0,A,100,50.0,1,1",
            "0.1,s0,B,120,50.0,1,1",
            "0.2,s0,C,110,50.0,1,1",
            "1.0,s1,A,100,50.0,1,1",
            "1.1,s1,B,105,50.0,1,1",
        ]
        log = tmp_path / "log.csv"
        write_log(log, rows)
        records, _ = parse_replay_log(log)
        sessions, dropped = sessions_from_records(records)
        assert len(sessions) == 1
        assert dropped == 1
        assert sessions[0].t_ba_s == pytest.approx(20 * 50e-9 / 1.0)


def every_artifact(config_file, tmp_path, *seed_args):
    """Each command's output files, keyed by command."""
    def run(command, *extra):
        out = tmp_path / f"{command}{len(extra)}"
        assert main([command, "--config", str(config_file), "--out", str(out),
                     *seed_args, *extra]) == 0
        return out

    sim = run("simulate")
    log = str(sim / "detections.csv")
    return {
        "theory": [run("theory") / "theory_map.csv",
                   run("theory", "--format", "json") / "theory_map.json"],
        "sweep": [run("sweep", "--powers-mw", "150") / "sweep.csv",
                  run("sweep", "--powers-mw", "150", "--format", "json") / "sweep.json"],
        "simulate": [sim / "campaign.json", sim / "trials.csv", sim / "detections.csv"],
        "replay": [run("replay", "--log", log) / name
                   for name in ("replay_fixes.csv", "replay_clusters.csv")],
        "diffcal": [run("diffcal", "--calibration", log, "--log", log)
                    / "diffcal_fixes.csv"],
    }


def artifact_meta(path):
    """Provenance of one output file: a JSON payload's, or a CSV's header lines."""
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        return payload.get("meta", payload)
    return read_meta(path)


class TestCliProvenance:
    """Every artifact states the same tool, config hash, seed and efficiency."""

    @pytest.mark.parametrize("seed_args, seed", [([], 7), (["--seed", "11"], 11)])
    def test_csv_and_json_headers_agree(self, config_file, tmp_path, seed_args, seed):
        from uvtdoa import load_config
        # the hash is of the config as run, so it covers a --seed override
        want = {
            "config_sha256": config_hash(replace(load_config(config_file), seed=seed)),
            "seed": seed,
            "detector_efficiency": 0.15,
        }
        for command, paths in every_artifact(config_file, tmp_path, *seed_args).items():
            for path in paths:
                meta = artifact_meta(path)
                if path.suffix == ".csv":
                    meta = dict(meta, seed=int(meta["seed"]),
                                detector_efficiency=float(meta["detector_efficiency"]))
                assert meta["tool"] == f"uvtdoa {command}", path
                assert {key: meta[key] for key in want} == want, path

    def test_every_artifact_records_versions(self, config_file, tmp_path):
        # numpy does not promise the same random streams across its versions
        # (NEP 19), so the output bytes depend on the versions that wrote them
        import uvtdoa
        want = {"uvtdoa_version": uvtdoa.__version__, "numpy_version": np.__version__}
        for paths in every_artifact(config_file, tmp_path).values():
            for path in paths:
                meta = artifact_meta(path)
                assert {key: meta[key] for key in want} == want, path

    @pytest.mark.parametrize("command, extra", [
        ("simulate", []),
        ("replay", ["--log", "log.csv"]),
        ("diffcal", ["--calibration", "cal.csv", "--log", "log.csv"]),
    ])
    def test_format_only_on_table_commands(self, config_file, tmp_path, capsys,
                                           command, extra):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(config_file), "--out", str(tmp_path),
                  "--format", "json", *extra])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err


# Blocks every scipy import, loads the CLI, runs two commands and reports any
# scipy module that got loaded anyway.
SCIPY_FREE_SCRIPT = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
def loaded():
    return sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod)
import uvtdoa.cli
assert not loaded(), loaded()
cfg, log, out = sys.argv[1:]
codes = [uvtdoa.cli.main(["theory", "--config", cfg, "--out", out + "/theory"]),
         uvtdoa.cli.main(["replay", "--config", cfg, "--log", log, "--out", out + "/replay"])]
assert codes == [0, 0], codes
assert not loaded(), loaded()
"""


def test_runtime_needs_no_scipy(config_file, tmp_path):
    from conftest import make_scene
    import uvtdoa
    log = tmp_path / "log.csv"
    write_log(log, synthetic_log_rows(make_scene(), [(36.0, 25.0), (30.0, 40.0)]))
    src = str(Path(uvtdoa.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_SCRIPT, str(config_file), str(log), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "theory" / "theory_map.csv").exists()
    assert (tmp_path / "replay" / "replay_fixes.csv").exists()


# Runs `theory` in a fresh process and reports any numpy.polynomial module
# it loaded: the bound's quadrature rule is built without it. Modules that
# `import numpy` loads itself (numpy 1.x imports numpy.polynomial eagerly)
# are not the command's.
NO_POLYNOMIAL_SCRIPT = """
import sys
import uvtdoa.cli
def polynomial():
    return {m for m in sys.modules if m.startswith("numpy.polynomial")}
before = polynomial()
cfg, out = sys.argv[1:]
assert uvtdoa.cli.main(["theory", "--config", cfg, "--out", out]) == 0
loaded = sorted(polynomial() - before)
assert not loaded, loaded
"""


def test_theory_loads_no_numpy_polynomial(config_file, tmp_path):
    import uvtdoa
    src = str(Path(uvtdoa.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", NO_POLYNOMIAL_SCRIPT, str(config_file), str(tmp_path / "theory")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "theory" / "theory_map.csv").exists()


def test_cli_import_loads_no_process_pool():
    # run_campaign imports the process pool only when it forks workers, so
    # no command start pays for multiprocessing.
    import uvtdoa
    src = str(Path(uvtdoa.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = (
        "import sys, uvtdoa.cli\n"
        "pool = sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'"
        " or m == 'concurrent.futures.process')\n"
        "assert not pool, pool\n"
    )
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
