"""Command-line front end.

Subcommands: pattern, figure3, figure4, simulate, infer, discriminate,
sweep.  All parameters come from built-in defaults (the thought-experiment
geometry), optionally overridden by a JSON config file (``--config``),
optionally overridden again by explicit flags.  Every output file carries
a ``# key=value`` provenance block sufficient to regenerate it.

Exit codes: 0 success, 1 usage error, 2 domain/validation error, 3 I/O
error.  ``main(argv)`` returns the code; the console script wraps it.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass

import click
import numpy as np

from ._version import __version__
from .errors import DomainError, _checked_count, _checked_real
from .inference import DEFAULT_SURFACE_POINTS, fit_mle
from .inference import discriminate as run_discriminate
from .io import (
    _FLUX_KEYS,
    MODEL_KEYS,
    config_from_values,
    flux_from_values,
    geometry_from_values,
    model_comments,
    model_values,
    read_hits_csv,
    window_from_values,
    write_hits_csv,
    write_hypothesis_csv,
    write_panel_csv,
    write_pattern_csv,
    write_pgm,
    write_surface_csv,
)
from .pattern import (
    DensityGrid,
    FluxState,
    ScreenGrid,
    combine_components,
    density_grid,
    disk_point,
    pattern_components,
)
from .sampling import DEFAULT_GRID_POINTS, HitSet, SampleConfig, sample_hits
from .slits import DEFAULT_WINDOW, ApertureGeometry

_MODEL_DEFAULTS = model_values(ApertureGeometry.jonsson(), DEFAULT_WINDOW)
# Every setting a flag or config key names: key -> (default, help of its
# flag).  The flag is the key less its "_m" unit suffix, and it takes the
# default's type.  Each subcommand lists the keys it reads.
_SETTINGS = {
    **{key: (_MODEL_DEFAULTS[key], text) for key, text in (
        ("source_to_slit_m", "Source to slit-plane distance in meters."),
        ("slit_to_screen_m", "Slit-plane to screen distance in meters."),
        ("wavelength_m", "De Broglie wavelength in meters."),
        ("slit_half_width_m", "Half-width of each slit in meters."),
        ("slit_half_separation_m", "Half-distance between slit centers in meters."),
        ("window_min_m", "Lower edge of the screen window in meters."),
        ("window_max_m", "Upper edge of the screen window in meters."),
    )},
    "theta": (0.0, "Flux superposition angle in [0, pi] (radians)."),
    "phi": (0.0, "Flux phase magnitude (radians)."),
    "omega": (0.0, "Relative superposition phase (recorded, never observable)."),
    "grid_points": (DEFAULT_GRID_POINTS,
                    "Density-grid resolution for sampling and likelihoods."),
    "screen_points": (512, "Number of screen positions per emitted curve."),
    "param_points": (256, "Number of parameter values per figure panel."),
    "n_hits": (10000, "Number of electron arrivals to draw."),
    "seed": (0, "64-bit unsigned sampling seed."),
    "theta_points": (DEFAULT_SURFACE_POINTS,
                     "Theta resolution of the likelihood surface."),
    "phi_points": (DEFAULT_SURFACE_POINTS, "Phi resolution of the likelihood surface."),
}
_STRIPE_ROWS = 64   # pattern heatmaps repeat the single density row this often


@dataclass(frozen=True)
class RunConfig:
    """Merged parameter set plus the keys the user set explicitly."""

    values: dict
    explicit: frozenset

    def __getitem__(self, key):
        return self.values[key]

    def geometry(self) -> ApertureGeometry:
        return geometry_from_values(self.values)

    def flux(self) -> FluxState:
        return flux_from_values(self.values)

    def window(self):
        return window_from_values(self.values)

    def sample_config(self) -> SampleConfig:
        return config_from_values(self.values)


def _merge(config_path, overrides) -> RunConfig:
    """Defaults, then JSON config fields, then explicit flag values."""
    values = {key: default for key, (default, _) in _SETTINGS.items()}
    explicit = set()
    if config_path is not None:
        with open(config_path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:   # bad JSON or bytes that are not UTF-8
                raise DomainError(f"{config_path}: invalid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise DomainError(f"{config_path}: config must be a JSON object")
        unknown = sorted(set(doc) - set(_SETTINGS))
        if unknown:
            raise DomainError(
                f"{config_path}: unknown config keys: {', '.join(unknown)}"
            )
        for key, value in doc.items():
            if value is not None:
                values[key] = value
                explicit.add(key)
    for key, value in overrides.items():
        if value is not None:
            values[key] = value
            explicit.add(key)
    for key, (default, _) in _SETTINGS.items():
        checked = _checked_count if isinstance(default, int) else _checked_real
        values[key] = checked(f"config key '{key}'", values[key])
    return RunConfig(values=values, explicit=frozenset(explicit))


def _settings(*keys):
    """--config, then one flag per geometry and window setting and per key."""
    def wrap(func):
        for key in reversed((*(key for key, _ in MODEL_KEYS), *keys)):
            default, text = _SETTINGS[key]
            func = click.option(
                f"--{key.removesuffix('_m').replace('_', '-')}", key,
                type=type(default), default=None,
                metavar="M" if key.endswith("_m") else None, help=text,
            )(func)
        return click.option(
            "--config", "config_path", metavar="JSON", default=None,
            help="JSON config file; explicit flags override its fields.",
        )(func)

    return wrap


_MISMATCH_OPTION = click.option(
    "--allow-mismatch",
    is_flag=True,
    help="Analyze under the configured model even if the hits file "
    "provenance disagrees with it.",
)


@click.group()
@click.version_option(version=__version__, prog_name="abflux")
def cli():
    """Two-slit interference with a superposed enclosed magnetic flux."""


def _pgm_path(csv_path):
    stem, _ = os.path.splitext(str(csv_path))
    return stem + ".pgm"


def _echo_wrote(path):
    click.echo(f"wrote {path}")


@cli.command()
@_settings(*_FLUX_KEYS, "screen_points")
@click.option("--out", "out_path", default="pattern.csv", show_default=True,
              help="Output CSV path.")
@click.option("--heatmap", is_flag=True,
              help="Also write the density as a fringe-stripe graymap.")
def pattern(out_path, heatmap, **kwargs):
    """Screen density for one flux state, as x_m,density rows."""
    run = _merge(kwargs.pop("config_path"), kwargs)
    grid = density_grid(
        run.geometry(), run.flux(),
        ScreenGrid.uniform(*run.window(), run["screen_points"]),
    )
    write_pattern_csv(out_path, grid, run.window(), [("command", "pattern")])
    _echo_wrote(out_path)
    if heatmap:
        write_pgm(_pgm_path(out_path), np.tile(grid.values, (_STRIPE_ROWS, 1)))
        _echo_wrote(_pgm_path(out_path))


def _panel_comments(command, run, panel_key, panel_value):
    return [("command", command)] + model_comments({
        panel_key: panel_value, **model_values(run.geometry(), run.window()),
        "screen_points": run["screen_points"], "param_points": run["param_points"]})


def _param_values(run, stop):
    """The param_points (at least 1) evenly spaced panel values over [0, stop]."""
    return np.linspace(0.0, stop, _checked_count("param_points", run["param_points"], 1))


def _write_panels(command, run, out_dir, heatmap, param_name, params, panels):
    """One CSV (and graymap) per panel (name, panel key, panel value, c, s)
    of the densities at the disk points (c, s), one row per entry of params."""
    x = ScreenGrid.uniform(*run.window(), run["screen_points"]).positions
    components = pattern_components(run.geometry(), x)
    for name, panel_key, panel_value, c, s in panels:
        matrix = combine_components(components, c[:, None], s[:, None])
        path = os.path.join(out_dir, f"{command}_{name}.csv")
        write_panel_csv(path, x, param_name, params, matrix,
                        _panel_comments(command, run, panel_key, panel_value))
        _echo_wrote(path)
        if heatmap:
            write_pgm(_pgm_path(path), matrix)
            _echo_wrote(_pgm_path(path))


@cli.command()
@_settings("screen_points", "param_points")
@click.option("--out-dir", "out_dir", default=".", show_default=True,
              help="Directory for the three panel CSVs.")
@click.option("--heatmap", is_flag=True, help="Also write one graymap per panel.")
def figure3(out_dir, heatmap, **kwargs):
    """Density panels over (x, phi in [0, 2 pi]) for theta in {0, pi, pi/2}."""
    run = _merge(kwargs.pop("config_path"), kwargs)
    phis = _param_values(run, 2.0 * np.pi)
    panels = [
        (name, "panel_theta", theta, *disk_point(theta, phis))
        for name, theta in (("theta_0", 0.0), ("theta_pi", np.pi),
                            ("theta_pi_2", np.pi / 2.0))
    ]
    _write_panels("figure3", run, out_dir, heatmap, "phi", phis, panels)


@cli.command()
@_settings("screen_points", "param_points")
@click.option("--out-dir", "out_dir", default=".", show_default=True,
              help="Directory for the three panel CSVs.")
@click.option("--heatmap", is_flag=True, help="Also write one graymap per panel.")
def figure4(out_dir, heatmap, **kwargs):
    """Density panels over (x, theta in [0, pi]) for phi in {pi/4, pi/2, pi}."""
    run = _merge(kwargs.pop("config_path"), kwargs)
    thetas = _param_values(run, np.pi)
    panels = [
        (name, "panel_phi", phi, *disk_point(thetas, np.full(thetas.size, phi)))
        for name, phi in (("phi_pi_4", np.pi / 4.0), ("phi_pi_2", np.pi / 2.0),
                          ("phi_pi", np.pi))
    ]
    _write_panels("figure4", run, out_dir, heatmap, "theta", thetas, panels)


@cli.command()
@_settings("grid_points", *_FLUX_KEYS, "n_hits", "seed")
@click.option("--out", "out_path", default="hits.csv", show_default=True,
              help="Output CSV path.")
def simulate(out_path, **kwargs):
    """Draw seeded electron arrivals and write an index,x_m CSV."""
    run = _merge(kwargs.pop("config_path"), kwargs)
    hits = sample_hits(run.geometry(), run.flux(), run.sample_config())
    write_hits_csv(out_path, hits)
    click.echo(f"wrote {out_path} ({len(hits)} hits)")


def _load_hits(path, run, allow_mismatch) -> HitSet:
    """The hits file as the one HitSet an analysis runs on, its provenance
    reconciled with the config.

    Explicitly configured geometry/window values must agree with the file;
    on disagreement the run is refused unless --allow-mismatch was passed,
    in which case the set carries the configured geometry and window as
    given.  Values the user did not set are adopted from the file.  The
    set's grid_points, which the likelihood normalizes on, is the one set by
    flag or config, else the file's.
    """
    hits = read_hits_csv(path)
    values = model_values(hits.geometry, hits.config.window, hits.flux, hits.config)
    mismatched = []
    for key, _ in MODEL_KEYS:
        if key not in run.explicit:
            continue
        configured = run[key]
        recorded = values[key]
        scale = max(abs(configured), abs(recorded))
        if abs(configured - recorded) > 1e-12 * scale:
            mismatched.append(
                f"{key}: configured {configured!r}, file has {recorded!r}"
            )
    if mismatched:
        if not allow_mismatch:
            raise DomainError(
                f"{path}: provenance mismatch; " + "; ".join(mismatched)
                + " (pass --allow-mismatch to analyze under the configured model)"
            )
        values.update((key, run[key]) for key, _ in MODEL_KEYS)
    if "grid_points" in run.explicit:
        values["grid_points"] = run["grid_points"]
    return HitSet(positions=hits.positions, config=config_from_values(values),
                  flux=hits.flux, geometry=geometry_from_values(values))


def _analysis_comments(command, hits_file, hits):
    """Provenance of an analysis: the model of the HitSet it ran on."""
    return [("command", command), ("input", str(hits_file))] + model_comments({
        **model_values(hits.geometry, hits.config.window),
        "grid_points": hits.config.grid_points})


@cli.command()
@click.argument("hits_file")
@_settings("grid_points", "theta_points", "phi_points")
@_MISMATCH_OPTION
@click.option("--out", "out_path", default="surface.csv", show_default=True,
              help="Output CSV path for the likelihood surface.")
def infer(hits_file, out_path, allow_mismatch, **kwargs):
    """Likelihood surface and maximum-likelihood angles for a hits file."""
    run = _merge(kwargs.pop("config_path"), kwargs)
    hits = _load_hits(hits_file, run, allow_mismatch)
    surface = fit_mle(hits, theta_points=run["theta_points"], phi_points=run["phi_points"])
    write_surface_csv(out_path, surface, _analysis_comments("infer", hits_file, hits))
    _echo_wrote(out_path)
    click.echo(
        "theta_hat=%.6f phi_hat=%.6f loglik_max=%.6f theta_flat=%s"
        % (surface.theta_hat, surface.phi_hat, surface.loglik_max,
           surface.theta_flat)
    )


@cli.command()
@click.argument("hits_file")
@_settings("grid_points")
@_MISMATCH_OPTION
@click.option("--out", "out_path", default="discriminate.csv", show_default=True,
              help="Output CSV path for the comparison row.")
def discriminate(hits_file, out_path, allow_mismatch, **kwargs):
    """Superposition-vs-definite-flux likelihood comparison for a hits file."""
    run = _merge(kwargs.pop("config_path"), kwargs)
    hits = _load_hits(hits_file, run, allow_mismatch)
    result = run_discriminate(hits)
    write_hypothesis_csv(out_path, result, _analysis_comments("discriminate", hits_file, hits))
    _echo_wrote(out_path)
    click.echo(
        "llr=%.6f n_hits=%d definite_direction=%s"
        % (result.llr, result.n_hits, result.definite_direction)
    )


def _parse_angle_list(text, flag):
    try:
        values = [float(part) for part in str(text).split(",") if part.strip()]
    except ValueError:
        raise DomainError(
            f"--{flag} must be a comma-separated list of radians, got {text!r}"
        ) from None
    if not values:
        raise DomainError(f"--{flag} must name at least one angle")
    return values


@cli.command()
@_settings("screen_points")
@click.option("--thetas", "thetas_text", default="0", show_default=True,
              help="Comma-separated theta values (radians).")
@click.option("--phis", "phis_text", default="0", show_default=True,
              help="Comma-separated phi values (radians).")
@click.option("--out-dir", "out_dir", default=".", show_default=True,
              help="Directory for the per-point CSVs.")
def sweep(thetas_text, phis_text, out_dir, **kwargs):
    """Pattern CSVs for every (theta, phi) combination."""
    run = _merge(kwargs.pop("config_path"), kwargs)
    thetas = _parse_angle_list(thetas_text, "thetas")
    phis = _parse_angle_list(phis_text, "phis")
    # every file name is settled before the first is written, so a value
    # pair that would overwrite another's file stops the run with nothing lost
    points = {}
    for theta in thetas:
        for phi in phis:
            name = f"sweep_theta_{theta:.6g}_phi_{phi:.6g}.csv"
            if name in points:
                other = points[name]
                raise DomainError(
                    f"sweep points (theta={other.theta!r}, phi={other.phi!r}) and "
                    f"(theta={theta!r}, phi={phi!r}) would both write {name}"
                )
            points[name] = FluxState(theta=theta, phi=phi, omega=run["omega"])
    geometry = run.geometry()
    screen = ScreenGrid.uniform(*run.window(), run["screen_points"])
    components = pattern_components(geometry, screen.positions)
    for name, flux in points.items():
        grid = DensityGrid(
            positions=screen.positions,
            values=combine_components(components, *disk_point(flux.theta, flux.phi)),
            geometry=geometry, flux=flux,
        )
        path = os.path.join(out_dir, name)
        write_pattern_csv(path, grid, run.window(), [("command", "sweep")])
        _echo_wrote(path)


def main(argv=None) -> int:
    """Run the CLI and map failures to documented exit codes."""
    try:
        cli.main(args=argv, prog_name="abflux", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 1
    except DomainError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        return 3
    return 0


def entrypoint():
    sys.exit(main(sys.argv[1:]))
