"""File emission and parsing: CSV tables with provenance comments and
8-bit binary graymap (P5) heatmaps.

Every emitted file starts with ``# key=value`` comment lines carrying the
full parameter set needed to regenerate it (geometry, flux angles, window,
grids, seed, tool version).  Numbers are written with ``repr`` so they
round-trip bit-exactly through ``float``.  Data rows follow a single
``name,name,...`` header line.
"""

from __future__ import annotations

import numpy as np

from ._version import __version__
from .errors import DomainError
from .pattern import FluxState
from .sampling import HitSet, SampleConfig
from .slits import ApertureGeometry

# Every model setting a provenance block or config names: its key and the
# ApertureGeometry field it carries, or None for the two window edges
# (x_min, then x_max).  Provenance blocks list the keys in this order.
MODEL_KEYS = (
    ("source_to_slit_m", "source_to_slit"),
    ("slit_to_screen_m", "slit_to_screen"),
    ("wavelength_m", "wavelength"),
    ("slit_half_width_m", "slit_half_width"),
    ("slit_half_separation_m", "slit_half_separation"),
    ("window_min_m", None),
    ("window_max_m", None),
)
_GEOMETRY_FIELDS = tuple((key, field) for key, field in MODEL_KEYS if field)
_WINDOW_KEYS = tuple(key for key, field in MODEL_KEYS if not field)
HITS_HEADER = "index,x_m"


def model_values(geometry: ApertureGeometry, window):
    """Key -> value of every MODEL_KEYS setting, in table order."""
    values = {key: getattr(geometry, field) for key, field in _GEOMETRY_FIELDS}
    values.update(zip(_WINDOW_KEYS, window))
    return values


def geometry_from_values(values) -> ApertureGeometry:
    """The geometry named by a mapping that holds the MODEL_KEYS keys."""
    return ApertureGeometry(**{field: values[key] for key, field in _GEOMETRY_FIELDS})


def window_from_values(values):
    """The (x_min, x_max) window named by a mapping of MODEL_KEYS keys."""
    return tuple(values[key] for key in _WINDOW_KEYS)


def format_number(value):
    """Round-trippable text for a float or int."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def geometry_comments(geometry: ApertureGeometry):
    return [(key, format_number(getattr(geometry, field)))
            for key, field in _GEOMETRY_FIELDS]


def flux_comments(flux: FluxState):
    return [
        ("theta", format_number(flux.theta)),
        ("phi", format_number(flux.phi)),
        ("omega", format_number(flux.omega)),
    ]


def window_comments(window):
    return [(key, format_number(edge)) for key, edge in zip(_WINDOW_KEYS, window)]


def write_csv(path, comments, header, rows):
    """Write comment pairs, a header line, and iterable rows of strings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# tool=abflux {__version__}\n")
        for key, value in comments:
            fh.write(f"# {key}={value}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def read_csv(path):
    """Parse a file written by :func:`write_csv`.

    Returns ``(comments: dict, header: list of names, data: float matrix)``.
    Malformed lines raise :class:`DomainError` naming the file and line.
    """
    comments = {}
    header = None
    data = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line:
                continue
            if line.startswith("#"):
                if header is not None:
                    raise DomainError(
                        f"{path}:{line_no}: comment after the header line"
                    )
                body = line[1:].strip()
                if "=" not in body:
                    raise DomainError(
                        f"{path}:{line_no}: comment is not of the form '# key=value'"
                    )
                key, value = body.split("=", 1)
                comments[key.strip()] = value.strip()
                continue
            if header is None:
                header = [name.strip() for name in line.split(",")]
                continue
            parts = line.split(",")
            if len(parts) != len(header):
                raise DomainError(
                    f"{path}:{line_no}: expected {len(header)} fields, got {len(parts)}"
                )
            try:
                data.append([float(p) for p in parts])
            except ValueError as exc:
                raise DomainError(f"{path}:{line_no}: {exc}") from None
    if header is None:
        raise DomainError(f"{path}: no header line found")
    matrix = np.array(data, dtype=float) if data else np.empty((0, len(header)))
    return comments, header, matrix


def hits_comments(hits: HitSet):
    cfg = hits.config
    return (
        geometry_comments(hits.geometry)
        + flux_comments(hits.flux)
        + window_comments(cfg.window)
        + [
            ("grid_points", format_number(cfg.grid_points)),
            ("n_hits", format_number(cfg.n_hits)),
            ("seed", format_number(cfg.seed)),
        ]
    )


def write_hits_csv(path, hits: HitSet):
    rows = (
        (str(i), repr(float(x))) for i, x in enumerate(hits.positions)
    )
    write_csv(path, hits_comments(hits), HITS_HEADER, rows)


def _comment_float(comments, key, path):
    if key not in comments:
        raise DomainError(f"{path}: missing provenance comment '{key}'")
    try:
        return float(comments[key])
    except ValueError:
        raise DomainError(
            f"{path}: provenance comment '{key}' is not a number: "
            f"{comments[key]!r}"
        ) from None


def read_hits_csv(path) -> HitSet:
    """Read a hits file back into a fully validated :class:`HitSet`.

    The provenance comments must carry the complete geometry, flux, window,
    and sampling parameters; the row count must equal the recorded n_hits
    and the indices must run 0..n-1 in order.
    """
    comments, header, data = read_csv(path)
    if header != HITS_HEADER.split(","):
        raise DomainError(
            f"{path}: expected header '{HITS_HEADER}', got {','.join(header)!r}"
        )
    model = {key: _comment_float(comments, key, path) for key, _ in MODEL_KEYS}
    geometry = geometry_from_values(model)
    flux = FluxState(
        theta=_comment_float(comments, "theta", path),
        phi=_comment_float(comments, "phi", path),
        omega=_comment_float(comments, "omega", path),
    )
    config = SampleConfig(
        window=window_from_values(model),
        grid_points=int(_comment_float(comments, "grid_points", path)),
        n_hits=int(_comment_float(comments, "n_hits", path)),
        seed=int(_comment_float(comments, "seed", path)),
    )
    if data.shape[0] != config.n_hits:
        raise DomainError(
            f"{path}: comments promise n_hits={config.n_hits} "
            f"but the file has {data.shape[0]} data rows"
        )
    indices = data[:, 0]
    if data.shape[0] and not np.array_equal(indices, np.arange(data.shape[0])):
        raise DomainError(f"{path}: hit indices must run 0..n-1 in order")
    return HitSet(
        positions=data[:, 1].copy(), config=config, flux=flux, geometry=geometry
    )


def write_pattern_csv(path, grid, flux, comments_extra=()):
    """Screen density as ``x_m,density`` rows (one configured flux state)."""
    comments = (
        list(comments_extra)
        + geometry_comments(grid.geometry)
        + flux_comments(flux)
        + window_comments((grid.positions[0], grid.positions[-1]))
        + [("screen_points", format_number(grid.positions.size))]
    )
    rows = (
        (repr(float(x)), repr(float(v)))
        for x, v in zip(grid.positions, grid.values)
    )
    write_csv(path, comments, "x_m,density", rows)


def write_panel_csv(path, x, param_name, param_values, matrix, comments):
    """Density over a (parameter, screen-position) grid.

    ``matrix`` has shape ``(len(param_values), len(x))``; rows are emitted
    parameter-slice by parameter-slice as ``x_m,<param_name>,density``.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (len(param_values), len(x)):
        raise DomainError(
            f"panel matrix shape {matrix.shape} does not match "
            f"{len(param_values)} parameter values x {len(x)} positions"
        )

    def rows():
        for value, slice_ in zip(param_values, matrix):
            value_text = repr(float(value))
            for pos, dens in zip(x, slice_):
                yield (repr(float(pos)), value_text, repr(float(dens)))

    write_csv(path, comments, f"x_m,{param_name},density", rows())


def write_surface_csv(path, surface, comments_extra=()):
    """Likelihood surface as ``theta,phi,loglik`` rows plus summary comments."""
    comments = list(comments_extra) + [
        ("theta_points", format_number(surface.theta_grid.size)),
        ("phi_points", format_number(surface.phi_grid.size)),
        ("theta_hat", format_number(surface.theta_hat)),
        ("phi_hat", format_number(surface.phi_hat)),
        ("loglik_max", format_number(surface.loglik_max)),
        ("theta_flat", format_number(surface.theta_flat)),
    ]

    def rows():
        for i, theta in enumerate(surface.theta_grid):
            theta_text = repr(float(theta))
            for j, phi in enumerate(surface.phi_grid):
                yield (theta_text, repr(float(phi)), repr(float(surface.loglik[i, j])))

    write_csv(path, comments, "theta,phi,loglik", rows())


def write_hypothesis_csv(path, result, comments_extra=()):
    """Superposition-vs-definite comparison as a single data row.

    The best definite direction is a label, so it rides in the comments;
    the data row stays purely numeric.
    """
    header = (
        "loglik_superposition,loglik_definite,llr,n_hits,"
        "theta_hat,phi_hat,definite_phi"
    )
    row = (
        format_number(result.loglik_superposition),
        format_number(result.loglik_definite),
        format_number(result.llr),
        str(result.n_hits),
        format_number(result.theta_hat),
        format_number(result.phi_hat),
        format_number(result.definite_phi),
    )
    comments = list(comments_extra) + [
        ("definite_direction", result.definite_direction),
    ]
    write_csv(path, comments, header, [row])


def write_pgm(path, values):
    """Binary 8-bit graymap (P5) of a non-negative value matrix.

    Pixels are ``floor(255 * value / max)`` so the panel maximum maps to
    255 exactly; tiny negative round-off is clipped to zero first.  Rows
    of ``values`` become raster rows.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.size == 0:
        raise DomainError("heatmap values must form a non-empty 2-D matrix")
    if not np.all(np.isfinite(values)):
        raise DomainError("heatmap values must be finite")
    clipped = np.maximum(values, 0.0)
    peak = clipped.max()
    if peak > 0.0:
        pixels = np.floor(255.0 * (clipped / peak))
    else:
        pixels = np.zeros_like(clipped)
    raster = pixels.astype(np.uint8)
    height, width = raster.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(raster.tobytes())


def read_pgm(path):
    """Read back a P5 graymap written by :func:`write_pgm` (tests, mostly)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    parts = blob.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5":
        raise DomainError(f"{path}: not a binary graymap written by this tool")
    try:
        width, height = (int(v) for v in parts[1].split())
        maxval = int(parts[2])
    except ValueError:
        raise DomainError(f"{path}: malformed graymap header") from None
    if maxval != 255:
        raise DomainError(f"{path}: expected maxval 255, got {maxval}")
    raster = np.frombuffer(parts[3], dtype=np.uint8, count=width * height)
    return raster.reshape(height, width)
