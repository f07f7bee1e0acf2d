"""End-to-end command-line tests: file emission, provenance, exit codes.

Every invocation goes through ``main(argv)`` so the documented exit-code
mapping (0 ok, 1 usage, 2 domain, 3 I/O) is what is exercised, not the
underlying exceptions.
"""

import json
import re

import numpy as np
import pytest

from abflux.cli import main
from abflux.inference import fit_mle, log_likelihood
from abflux.io import read_csv, read_hits_csv, read_pgm
from abflux.pattern import FluxState, density
from abflux.sampling import SampleConfig, sample_hits


HALF_PI = repr(np.pi / 2)


def run_ok(argv):
    rc = main(argv)
    assert rc == 0, f"expected success for {argv}, got exit code {rc}"


def read_pattern(path):
    comments, header, data = read_csv(path)
    assert header == ["x_m", "density"]
    return comments, data


def test_pattern_row_count_and_provenance(tmp_path):
    out = tmp_path / "p.csv"
    run_ok(["pattern", "--out", str(out), "--screen-points", "101",
            "--theta", "0.4", "--phi", "1.2"])
    comments, data = read_pattern(out)
    assert data.shape == (101, 2)
    assert data[0, 0] == -2.0e-5 and data[-1, 0] == 2.0e-5
    assert comments["tool"] == "abflux 0.1.0"
    assert float(comments["theta"]) == 0.4
    assert float(comments["phi"]) == 1.2
    assert float(comments["wavelength_m"]) == 5.0e-12
    assert int(comments["screen_points"]) == 101


def test_pattern_zero_phase_is_theta_independent(tmp_path):
    paths = []
    for tag, theta in (("a", "0"), ("b", "2.0")):
        out = tmp_path / f"{tag}.csv"
        run_ok(["pattern", "--out", str(out), "--screen-points", "64",
                "--theta", theta, "--phi", "0"])
        paths.append(out)
    _, data_a = read_pattern(paths[0])
    _, data_b = read_pattern(paths[1])
    assert np.array_equal(data_a, data_b)


def test_pattern_mixture_of_emitted_files(tmp_path):
    # the equal-weight superposition must be the rowwise mean of the two
    # basis-pattern files
    outputs = {}
    for tag, theta in (("up", "0"), ("down", repr(np.pi)), ("half", HALF_PI)):
        out = tmp_path / f"{tag}.csv"
        run_ok(["pattern", "--out", str(out), "--screen-points", "301",
                "--theta", theta, "--phi", HALF_PI])
        outputs[tag] = read_pattern(out)[1][:, 1]
    mean = 0.5 * (outputs["up"] + outputs["down"])
    peak = outputs["half"].max()
    assert np.max(np.abs(outputs["half"] - mean)) <= 1e-12 * peak


def test_pattern_heatmap_stripe(tmp_path):
    out = tmp_path / "p.csv"
    run_ok(["pattern", "--out", str(out), "--screen-points", "128",
            "--phi", "1.0", "--heatmap"])
    raster = read_pgm(tmp_path / "p.pgm")
    assert raster.shape == (64, 128)
    assert np.all(raster == raster[0])
    assert raster.max() == 255


def test_figure3_panels(tmp_path):
    run_ok(["figure3", "--out-dir", str(tmp_path), "--screen-points", "49",
            "--param-points", "16", "--heatmap"])
    matrices = {}
    for name, theta in (("theta_0", 0.0), ("theta_pi", np.pi),
                        ("theta_pi_2", np.pi / 2)):
        comments, header, data = read_csv(tmp_path / f"figure3_{name}.csv")
        assert header == ["x_m", "phi", "density"]
        assert data.shape == (49 * 16, 3)
        assert float(comments["panel_theta"]) == theta
        phis = data[::49, 1]
        assert phis[0] == 0.0 and abs(phis[-1] - 2 * np.pi) <= 1e-15
        assert np.all(data[:49, 1] == 0.0)
        matrices[name] = data[:, 2].reshape(16, 49)
        raster = read_pgm(tmp_path / f"figure3_{name}.pgm")
        assert raster.shape == (16, 49)
        assert raster.max() == 255
    peak = matrices["theta_0"].max()
    mirrored = matrices["theta_0"][:, ::-1]
    assert np.max(np.abs(matrices["theta_pi"] - mirrored)) <= 1e-12 * peak


def test_figure4_panels(tmp_path):
    run_ok(["figure4", "--out-dir", str(tmp_path), "--screen-points", "48",
            "--param-points", "7"])
    for name, phi in (("phi_pi_4", np.pi / 4), ("phi_pi_2", np.pi / 2),
                      ("phi_pi", np.pi)):
        comments, header, data = read_csv(tmp_path / f"figure4_{name}.csv")
        assert header == ["x_m", "theta", "density"]
        assert data.shape == (48 * 7, 3)
        assert float(comments["panel_phi"]) == phi
        matrix = data[:, 2].reshape(7, 48)
        thetas = data[::48, 1]
        assert thetas[0] == 0.0 and thetas[-1] == np.pi

        # theta endpoints equal the basis patterns emitted by cmd_pattern
        for theta_text, row in ((("0"), matrix[0]), ((repr(np.pi)), matrix[-1])):
            out = tmp_path / "basis.csv"
            run_ok(["pattern", "--out", str(out), "--screen-points", "48",
                    "--theta", theta_text, "--phi", repr(phi)])
            assert np.array_equal(read_pattern(out)[1][:, 1], row)

        # linear in cos(theta): the interior slice at theta=pi/3 is the
        # mixture of the endpoint slices with weight cos^2(pi/6)
        weight = 0.5 * (1.0 + np.cos(thetas[2]))
        mix = weight * matrix[0] + (1.0 - weight) * matrix[-1]
        assert np.max(np.abs(matrix[2] - mix)) <= 1e-12 * matrix.max()


def test_every_path_takes_the_flux_through_one_map(tmp_path, jonsson):
    # a figure panel's rows, pattern's density and the likelihood surface's
    # cells all see the flux as the same disk point, to the last bit
    for command, panel_key, param_key in (("figure3", "theta", "phi"),
                                          ("figure4", "phi", "theta")):
        run_ok([command, "--out-dir", str(tmp_path), "--screen-points", "40"])
        paths = sorted(tmp_path.glob(f"{command}_*.csv"))
        assert len(paths) == 3
        for path in paths:
            comments, _, data = read_csv(path)
            panel_value = float(comments[f"panel_{panel_key}"])
            for row in data.reshape(-1, 40, 3):
                flux = FluxState(**{panel_key: panel_value, param_key: row[0, 1]})
                assert np.array_equal(row[:, 2], density(jonsson, flux, row[:, 0]))
    hits = sample_hits(jonsson, FluxState(0.7, 1.9), SampleConfig(n_hits=300, seed=2))
    surface = fit_mle(hits, theta_points=5, phi_points=7)
    for i, theta in enumerate(surface.theta_grid):
        for j, phi in enumerate(surface.phi_grid):
            assert surface.loglik[i, j] == log_likelihood(hits, theta=theta, phi=phi)


def test_simulate_deterministic_and_worker_invariant(tmp_path):
    base = ["simulate", "--theta", HALF_PI, "--phi", HALF_PI,
            "--n-hits", "2000", "--seed", "7"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    run_ok(base + ["--out", str(paths[0])])
    run_ok(base + ["--out", str(paths[1])])
    run_ok(base + ["--out", str(paths[2])])
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_hits_file_regenerates_exactly(tmp_path):
    out = tmp_path / "hits.csv"
    run_ok(["simulate", "--out", str(out), "--n-hits", "500", "--seed", "9",
            "--theta", "1.2", "--phi", "0.9"])
    recorded = read_hits_csv(out)
    regenerated = sample_hits(recorded.geometry, recorded.flux, recorded.config)
    assert np.array_equal(recorded.positions, regenerated.positions)


def test_simulate_then_infer_round_trip(tmp_path, capsys):
    hits = tmp_path / "hits.csv"
    surface = tmp_path / "surface.csv"
    run_ok(["simulate", "--out", str(hits), "--theta", HALF_PI, "--phi",
            HALF_PI, "--n-hits", "2000", "--seed", "42"])
    run_ok(["infer", str(hits), "--out", str(surface),
            "--theta-points", "61", "--phi-points", "61"])
    summary = capsys.readouterr().out
    match = re.search(
        r"theta_hat=([0-9.+-]+) phi_hat=([0-9.+-]+) "
        r"loglik_max=([0-9.+-]+) theta_flat=(\w+)",
        summary,
    )
    assert match is not None, summary
    theta_hat, phi_hat = float(match.group(1)), float(match.group(2))
    assert abs(theta_hat - np.pi / 2) <= 0.1
    assert abs(phi_hat - np.pi / 2) <= 0.1
    assert match.group(4) == "False"

    comments, header, data = read_csv(surface)
    assert header == ["theta", "phi", "loglik"]
    assert data.shape == (61 * 61, 3)
    assert abs(float(comments["theta_hat"]) - theta_hat) <= 1e-6
    assert comments["theta_flat"] == "False"


def test_discriminate_cli(tmp_path, capsys):
    hits = tmp_path / "hits.csv"
    out = tmp_path / "disc.csv"
    run_ok(["simulate", "--out", str(hits), "--theta", HALF_PI, "--phi",
            HALF_PI, "--n-hits", "1500", "--seed", "3"])
    run_ok(["discriminate", str(hits), "--out", str(out)])
    summary = capsys.readouterr().out
    assert "n_hits=1500" in summary
    comments, header, data = read_csv(out)
    assert header == ["loglik_superposition", "loglik_definite", "llr",
                      "n_hits", "theta_hat", "phi_hat", "definite_phi"]
    assert data.shape == (1, 7)
    assert data[0, 2] >= 0.0
    assert data[0, 3] == 1500
    assert comments["definite_direction"] in ("up", "down")


def test_infer_provenance_mismatch(tmp_path, capsys):
    hits = tmp_path / "hits.csv"
    run_ok(["simulate", "--out", str(hits), "--n-hits", "200", "--seed", "1"])
    rc = main(["infer", str(hits), "--wavelength", "6e-12",
               "--out", str(tmp_path / "s.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "provenance mismatch" in err and "wavelength_m" in err
    run_ok(["infer", str(hits), "--wavelength", "6e-12", "--allow-mismatch",
            "--theta-points", "31", "--phi-points", "31",
            "--out", str(tmp_path / "s.csv")])


def test_infer_refuses_an_input_name_that_would_break_a_comment(tmp_path, capsys):
    hits = tmp_path / "a\nb.csv"
    run_ok(["simulate", "--out", str(hits), "--n-hits", "200", "--seed", "1"])
    surface = tmp_path / "s.csv"
    rc = main(["infer", str(hits), "--theta-points", "5", "--phi-points", "5",
               "--out", str(surface)])
    assert rc == 2
    assert "would break its line" in capsys.readouterr().err
    assert not surface.exists()


def test_infer_adopts_file_settings(tmp_path):
    # geometry/window values the user did not set come from the file, so a
    # hits file with a non-default model analyzes cleanly with no flags
    hits = tmp_path / "hits.csv"
    surface = tmp_path / "s.csv"
    model = {
        "source_to_slit_m": ("--source-to-slit", "8.0"),
        "slit_to_screen_m": ("--slit-to-screen", "1.5"),
        "wavelength_m": ("--wavelength", "6e-12"),
        "slit_half_width_m": ("--slit-half-width", "3e-07"),
        "slit_half_separation_m": ("--slit-half-separation", "1.2e-06"),
        "window_min_m": ("--window-min", "-1.5e-5"),
        "window_max_m": ("--window-max", "1.5e-5"),
    }
    flags = [part for flag_value in model.values() for part in flag_value]
    run_ok(["simulate", "--out", str(hits), "--n-hits", "300", "--seed", "2",
            "--theta", HALF_PI, "--phi", HALF_PI] + flags)
    run_ok(["infer", str(hits), "--out", str(surface),
            "--theta-points", "31", "--phi-points", "31"])
    comments, _, _ = read_csv(surface)
    for key, (_, value) in model.items():
        assert float(comments[key]) == float(value)


def test_sweep_points_equal_pattern(tmp_path):
    # the screen components are shared by every point of a sweep; each file
    # must still equal the pattern command's output for its own point
    run_ok(["sweep", "--out-dir", str(tmp_path), "--thetas", "0.7,2.0",
            "--phis", "1.3,4.0", "--screen-points", "80"])
    for theta in ("0.7", "2.0"):
        for phi in ("1.3", "4.0"):
            name = f"sweep_theta_{float(theta):.6g}_phi_{float(phi):.6g}.csv"
            sweep_file = tmp_path / name
            pattern_file = tmp_path / "pattern.csv"
            run_ok(["pattern", "--out", str(pattern_file), "--theta", theta,
                    "--phi", phi, "--screen-points", "80"])
            assert np.array_equal(read_pattern(sweep_file)[1],
                                  read_pattern(pattern_file)[1])


def test_sweep_grid_and_worker_invariance(tmp_path):
    dirs = [tmp_path / "one", tmp_path / "many"]
    for d in dirs:
        d.mkdir()
    args = ["sweep", "--thetas", "0," + HALF_PI, "--phis", "0.5,2.5",
            "--screen-points", "40"]
    run_ok(args + ["--out-dir", str(dirs[0])])
    run_ok(args + ["--out-dir", str(dirs[1])])
    names = sorted(p.name for p in dirs[0].glob("*.csv"))
    assert len(names) == 4
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_config_file_and_flag_override(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"theta": 0.5, "screen_points": 64}))
    out = tmp_path / "p.csv"
    run_ok(["pattern", "--config", str(config), "--out", str(out)])
    comments, data = read_pattern(out)
    assert float(comments["theta"]) == 0.5
    assert data.shape[0] == 64
    run_ok(["pattern", "--config", str(config), "--theta", "1.0",
            "--out", str(out)])
    comments, _ = read_pattern(out)
    assert float(comments["theta"]) == 1.0


def test_config_validation_failures(tmp_path, capsys):
    bad_key = tmp_path / "bad_key.json"
    bad_key.write_text(json.dumps({"bogus": 1}))
    assert main(["pattern", "--config", str(bad_key)]) == 2
    assert "bogus" in capsys.readouterr().err

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["pattern", "--config", str(bad_json)]) == 2

    bad_type = tmp_path / "bad_type.json"
    bad_type.write_text(json.dumps({"screen_points": 64.5}))
    assert main(["pattern", "--config", str(bad_type)]) == 2


def test_config_overflow_and_bad_bytes_exit_2(tmp_path, capsys):
    huge = tmp_path / "huge.json"
    huge.write_text('{"theta": 1' + "0" * 400 + "}")
    assert main(["pattern", "--config", str(huge), "--out", str(tmp_path / "p.csv")]) == 2
    assert "config key 'theta' must be within float range" in capsys.readouterr().err
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"theta": 0.5, "note\xe9": 1}')
    assert main(["pattern", "--config", str(latin), "--out", str(tmp_path / "p.csv")]) == 2
    assert f"{latin}: invalid JSON" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def test_hits_file_bad_bytes_exit_2(tmp_path, capsys):
    hits = tmp_path / "hits.csv"
    run_ok(["simulate", "--out", str(hits), "--n-hits", "3000", "--seed", "2"])
    blob = hits.read_bytes()
    early = tmp_path / "early.csv"
    early.write_bytes(blob.replace(b"# seed=2", b"# seed=\xff2"))
    # far past the first read buffer, inside the data block
    row = blob.index(b"\n2500,") + 1
    deep = tmp_path / "deep.csv"
    deep.write_bytes(blob[:row] + b"\xff" + blob[row + 1:])
    out = str(tmp_path / "out.csv")
    capsys.readouterr()
    for command, path in (("infer", early), ("discriminate", early),
                          ("infer", deep), ("discriminate", deep)):
        assert main([command, str(path), "--out", out]) == 2
        assert f"{path}: not UTF-8 text" in capsys.readouterr().err


def test_exit_codes(tmp_path, capsys):
    assert main([]) == 1
    assert main(["pattern", "--no-such-flag"]) == 1
    assert main(["simulate", "--n-hits", "ten"]) == 1
    # invalid physics: slits overlapping the axis
    assert main(["pattern", "--slit-half-separation", "2e-7",
                 "--out", str(tmp_path / "p.csv")]) == 2
    # unreadable input and unwritable output
    assert main(["infer", str(tmp_path / "absent.csv")]) == 3
    assert main(["pattern", "--out", str(tmp_path / "no_dir" / "p.csv")]) == 3
    capsys.readouterr()


def test_version_and_help(capsys):
    assert main(["--version"]) == 0
    assert "abflux" in capsys.readouterr().out
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for command in ("pattern", "figure3", "figure4", "simulate", "infer",
                    "discriminate", "sweep"):
        assert command in out


def test_points_help_per_command(capsys):
    # only infer writes a surface, so only infer takes its sizes
    assert main(["infer", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--theta-points INTEGER Theta resolution of the likelihood surface." in text
    assert "--phi-points INTEGER Phi resolution of the likelihood surface." in text
    assert main(["discriminate", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "likelihood surface" not in text
    for flag in ("--theta-points", "--phi-points", "--scan-points"):
        assert flag not in text


def test_scan_sizes_below_two_exit_2(tmp_path, capsys):
    hits = tmp_path / "hits.csv"
    run_ok(["simulate", "--out", str(hits), "--n-hits", "200", "--seed", "2"])
    out = str(tmp_path / "out.csv")
    assert main(["infer", str(hits), "--theta-points", "0", "--out", out]) == 2
    assert main(["infer", str(hits), "--theta-points", "-3", "--out", out]) == 2
    assert main(["infer", str(hits), "--phi-points", "1", "--out", out]) == 2
    assert "at least 2" in capsys.readouterr().err


def test_grid_points_below_two_exit_2(tmp_path, capsys):
    hits = tmp_path / "hits.csv"
    run_ok(["simulate", "--out", str(hits), "--n-hits", "200", "--seed", "2"])
    out = str(tmp_path / "out.csv")
    for command in ("infer", "discriminate"):
        for points in ("1", "0"):
            assert main([command, str(hits), "--grid-points", points,
                         "--out", out]) == 2
            assert "grid_points must be at least 2" in capsys.readouterr().err


def test_curve_sizes_below_one_exit_2(tmp_path, capsys):
    # every size is checked before the first file is written
    out = str(tmp_path / "p.csv")
    for argv in (
        ["figure3", "--screen-points", "-1"],
        ["figure4", "--param-points", "-2"],
        ["figure3", "--screen-points", "0"],
        ["figure3", "--param-points", "0"],
        ["figure4", "--param-points", "0"],
        ["figure4", "--screen-points", "0", "--heatmap"],
        ["sweep", "--screen-points", "0"],
    ):
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2, argv
        assert list(tmp_path.iterdir()) == [], argv
    assert main(["pattern", "--screen-points", "0", "--out", out]) == 2
    assert list(tmp_path.iterdir()) == []
    assert "param_points must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [2**53 + 1, 2**64 - 1])
def test_integer_provenance_round_trips(tmp_path, seed):
    hits = tmp_path / "hits.csv"
    run_ok(["simulate", "--out", str(hits), "--n-hits", "200", "--seed", str(seed)])
    assert read_hits_csv(hits).config.seed == seed
    out = str(tmp_path / "out.csv")
    run_ok(["infer", str(hits), "--theta-points", "11", "--phi-points", "11",
            "--out", out])
    run_ok(["discriminate", str(hits), "--out", out])


def test_non_integer_provenance_refused(tmp_path, capsys):
    hits = tmp_path / "hits.csv"
    run_ok(["simulate", "--out", str(hits), "--n-hits", "200", "--seed", "2"])
    text = hits.read_text()
    assert "# grid_points=8192\n" in text
    hits.write_text(text.replace("# grid_points=8192\n", "# grid_points=2.5\n"))
    capsys.readouterr()
    for command in ("infer", "discriminate"):
        assert main([command, str(hits), "--out", str(tmp_path / "out.csv")]) == 2
        assert "'grid_points' is not an integer: '2.5'" in capsys.readouterr().err


def test_sweep_rejects_colliding_file_names(tmp_path, capsys):
    # both thetas print as 1 at six significant digits
    assert main(["sweep", "--out-dir", str(tmp_path),
                 "--thetas", "1.0,1.0000001", "--phis", "0.5"]) == 2
    err = capsys.readouterr().err
    assert "theta=1.0," in err and "theta=1.0000001," in err
    assert "sweep_theta_1_phi_0.5.csv" in err
    assert list(tmp_path.iterdir()) == []


def test_retired_inputs_rejected(tmp_path, capsys):
    # flags and config keys that once had no effect are now unknown
    hits = tmp_path / "hits.csv"
    run_ok(["simulate", "--out", str(hits), "--n-hits", "200", "--seed", "2"])
    out = str(tmp_path / "out.csv")
    for flag in ("--theta-points", "--phi-points", "--scan-points"):
        assert main(["discriminate", str(hits), flag, "3", "--out", out]) == 1
    assert main(["infer", str(hits), "--scan-points", "3", "--out", out]) == 1
    assert main(["simulate", "--workers", "2", "--out", str(hits)]) == 1
    for command in ("pattern", "figure3", "figure4", "sweep"):
        assert main([command, "--grid-points", "7"]) == 1
    capsys.readouterr()
    config = tmp_path / "retired.json"
    for doc in ({"workers": 1}, {"scan_points": 31}):
        config.write_text(json.dumps(doc))
        assert main(["discriminate", str(hits), "--config", str(config),
                     "--out", out]) == 2
        (key,) = doc
        assert f"unknown config keys: {key}" in capsys.readouterr().err


def test_one_point_curves_record_their_window(tmp_path):
    # a one-point curve spans no interval, so its window comes from the
    # settings, not from the first and last positions
    out = tmp_path / "p.csv"
    run_ok(["pattern", "--screen-points", "1", "--out", str(out)])
    run_ok(["sweep", "--screen-points", "1", "--thetas", "0.5", "--phis", "1.0",
            "--out-dir", str(tmp_path)])
    for path in (out, tmp_path / "sweep_theta_0.5_phi_1.csv"):
        comments, data = read_pattern(path)
        assert data.shape == (1, 2)
        assert (comments["window_min_m"], comments["window_max_m"]) == ("-2e-05", "2e-05")
    # the recorded block regenerates its file
    comments, _ = read_pattern(out)
    again = tmp_path / "again.csv"
    config = tmp_path / "block.json"
    config.write_text(json.dumps({
        key: int(value) if key == "screen_points" else float(value)
        for key, value in comments.items() if key not in ("tool", "command")}))
    run_ok(["pattern", "--config", str(config), "--out", str(again)])
    assert again.read_bytes() == out.read_bytes()


def test_likelihood_grid_comes_from_the_hits_file(tmp_path, capsys):
    hits = tmp_path / "hits.csv"
    run_ok(["simulate", "--out", str(hits), "--grid-points", "64", "--n-hits", "300",
            "--seed", "5", "--theta", HALF_PI, "--phi", HALF_PI])
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"grid_points": 64}))
    for command in ("infer", "discriminate"):
        outputs = []
        for extra in ([], ["--grid-points", "64"], ["--config", str(config)],
                      ["--grid-points", "8192"]):
            out = tmp_path / f"{command}_{len(outputs)}.csv"
            argv = [command, str(hits), "--out", str(out)] + extra
            if command == "infer":
                argv += ["--theta-points", "5", "--phi-points", "5"]
            capsys.readouterr()
            run_ok(argv)
            comments, _, data = read_csv(out)
            outputs.append((comments["grid_points"], data.tolist(),
                            capsys.readouterr().out.splitlines()[-1]))
        assert [grid for grid, _, _ in outputs] == ["64", "64", "64", "8192"]
        assert outputs[0][1:] == outputs[1][1:] == outputs[2][1:] != outputs[3][1:]


def test_empty_hits_file(tmp_path, capsys, jonsson):
    # a file of no hits reads back whole, and the analyses refuse it
    hits = tmp_path / "hits.csv"
    run_ok(["simulate", "--out", str(hits), "--n-hits", "0", "--seed", "3",
            "--theta", HALF_PI, "--phi", "1.3", "--grid-points", "64"])
    read = read_hits_csv(hits)
    assert read.positions.shape == (0,)
    assert read.config == SampleConfig(grid_points=64, n_hits=0, seed=3)
    assert read.flux == FluxState(np.pi / 2, 1.3)
    assert read.geometry == jonsson
    for command in ("discriminate", "infer"):
        out = tmp_path / f"{command}.csv"
        assert main([command, str(hits), "--out", str(out)]) == 2
        assert "empty hit set" in capsys.readouterr().err
        assert not out.exists()
