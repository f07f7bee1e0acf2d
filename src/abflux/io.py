"""File emission and parsing: CSV tables with provenance comments and
8-bit binary graymap (P5) heatmaps.

Every emitted file starts with ``# key=value`` comment lines carrying the
full parameter set needed to regenerate it (geometry, flux angles, window,
grids, seed, tool version).  A comment key or value that would break its
line (a newline or carriage return, or ``=`` in a key) is refused before
the file is opened.  Numbers are written with ``repr`` so they round-trip
bit-exactly through ``float``.  Data rows follow a single
``name,name,...`` header line.

The array writers format a block of rows with one ``%`` call, since ``%r``
of a Python float is its ``repr``.  A block is ``_BLOCK_ROWS`` rows, or what
is left of a file, a panel slice or a surface row.  The text of the
leading float column (screen positions, or the surface's phi values) goes
into the format templates themselves.  The last column's templates are
kept, keyed by the column's bytes, so a sweep's files and a figure's
panels on one screen grid build them once.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import fields

import numpy as np

from ._version import __version__
from .errors import DomainError, _checked_array
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
# The flux and sampling keys are the FluxState fields (floats) and the
# SampleConfig fields other than the window (integers), in field order.
_FLUX_KEYS = tuple(f.name for f in fields(FluxState))
_SAMPLE_KEYS = tuple(f.name for f in fields(SampleConfig) if f.name != "window")
HITS_HEADER = "index,x_m"
_HITS_ROW = "%d,%r\n"
_BLOCK_ROWS = 1 << 12       # data rows per format call


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


def _float_texts(values):
    """Iterator over the :func:`format_number` text of each float in ``values``.

    The array is converted to Python floats in one call; ``repr`` of a
    Python float is the same text as ``repr(float(v))`` of a numpy scalar.
    """
    return map(repr, np.asarray(values, dtype=float).tolist())


@functools.lru_cache(maxsize=1)
def _column_templates(column: bytes, head: str, tail: str) -> tuple:
    """The format templates of a data block whose rows are ``head``, the
    text of one float of ``column`` (float64 bytes, in order) and ``tail``:
    one template per _BLOCK_ROWS rows.

    Whole templates are kept, not the texts of the floats: a sweep's files
    share them, and a cache of many small strings pins the allocator's
    arenas for the rest of the process.
    """
    floats = np.frombuffer(column)
    return tuple(
        "".join(head + text + tail for text in _float_texts(floats[start:start + _BLOCK_ROWS]))
        for start in range(0, floats.size, _BLOCK_ROWS)
    )


def _blocks(column, head, tail, values, label=None):
    """The text of a data block, one string per _BLOCK_ROWS rows: each row
    is ``head``, the text of one float of ``column`` and ``tail``, whose
    fields take the matching float of ``values``, after ``label`` if given."""
    column = np.asarray(column, dtype=float)
    values = np.asarray(values, dtype=float)
    templates = _column_templates(column.tobytes(), head, tail)
    for start, template in zip(range(0, column.size, _BLOCK_ROWS), templates):
        args = values[start:start + _BLOCK_ROWS].tolist()
        if label is not None:
            floats, args = args, [label] * (2 * len(args))
            args[1::2] = floats
        yield template % tuple(args)


def geometry_comments(geometry: ApertureGeometry):
    return [(key, format_number(getattr(geometry, field)))
            for key, field in _GEOMETRY_FIELDS]


def flux_comments(flux: FluxState):
    return [(key, format_number(getattr(flux, key))) for key in _FLUX_KEYS]


def window_comments(window):
    return [(key, format_number(edge)) for key, edge in zip(_WINDOW_KEYS, window)]


def _write_table(path, comments, header, blocks):
    """Write comment pairs, a header line, and the data block's text, one
    string of whole rows at a time from the iterable ``blocks``.

    The comments are checked before the file is opened: a key or value
    holding a newline or carriage return, or a key holding ``=``, would not
    read back as the same comment.
    """
    comments = list(comments)
    for key, value in comments:
        line = f"{key}={value}"
        if "=" in str(key) or "\n" in line or "\r" in line:
            raise DomainError(
                f"{path}: provenance comment {key!r}={value!r} would break its line "
                "(no newline or carriage return in a comment, no '=' in its key)"
            )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# tool=abflux {__version__}\n")
        for key, value in comments:
            fh.write(f"# {key}={value}\n")
        fh.write(header + "\n")
        for block in blocks:
            fh.write(block)


def write_csv(path, comments, header, rows):
    """Write comment pairs, a header line, and iterable rows of strings."""
    _write_table(path, comments, header, (",".join(row) + "\n" for row in rows))


def read_csv(path):
    """Parse a file written by :func:`write_csv`.

    Returns ``(comments: dict, header: list of names, data: float matrix)``.
    Malformed lines raise :class:`DomainError` naming the file and line.
    """
    comments = {}
    header = None
    data = None
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.rstrip("\n").rstrip("\r")
                if not line:
                    continue
                if header is not None:
                    # the data block runs from here to the end of the file
                    rest = itertools.chain([raw], fh)
                    data = _read_rows(path, line_no, rest, len(header))
                    break
                if line.startswith("#"):
                    body = line[1:].strip()
                    if "=" not in body:
                        raise DomainError(
                            f"{path}:{line_no}: comment is not of the form '# key=value'"
                        )
                    key, value = (part.strip() for part in body.split("=", 1))
                    if key in comments:
                        raise DomainError(f"{path}:{line_no}: repeated comment key '{key}'")
                    comments[key] = value
                    continue
                header = [name.strip() for name in line.split(",")]
        except UnicodeDecodeError as exc:
            raise DomainError(f"{path}: not UTF-8 text: {exc}") from None
    if header is None:
        raise DomainError(f"{path}: no header line found")
    if data is None:
        data = np.empty((0, len(header)))
    return comments, header, data


def _read_rows(path, first_line, lines, n_fields):
    """The data block of :func:`read_csv` as a float matrix.

    ``lines`` holds the file from its first data line, ``first_line``, on.
    One numpy call parses the block.  Where it refuses, the lines are read
    again one at a time, as ``float`` reads them, so that an error names its
    line.
    """
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        if data.shape[1] == n_fields:
            return data
    except ValueError:
        pass
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if line_no < first_line or not line:
                continue
            if line.startswith("#"):
                raise DomainError(f"{path}:{line_no}: comment after the header line")
            parts = line.split(",")
            if len(parts) != n_fields:
                raise DomainError(
                    f"{path}:{line_no}: expected {n_fields} fields, got {len(parts)}"
                )
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise DomainError(f"{path}:{line_no}: {exc}") from None
    return np.array(rows, dtype=float)


def hits_comments(hits: HitSet):
    cfg = hits.config
    return (
        geometry_comments(hits.geometry)
        + flux_comments(hits.flux)
        + window_comments(cfg.window)
        + [(key, format_number(getattr(cfg, key))) for key in _SAMPLE_KEYS]
    )


def write_hits_csv(path, hits: HitSet):
    """The hits as ``index,x_m`` rows, formatted _BLOCK_ROWS rows at a time."""
    positions = hits.positions

    def blocks():
        for start in range(0, positions.size, _BLOCK_ROWS):
            values = positions[start:start + _BLOCK_ROWS].tolist()
            args = [0] * (2 * len(values))
            args[0::2] = range(start, start + len(values))
            args[1::2] = values
            yield _HITS_ROW * len(values) % tuple(args)

    _write_table(path, hits_comments(hits), HITS_HEADER, blocks())


def _comment_value(comments, key, path, kind):
    """The provenance comment ``key`` parsed by ``kind`` (float or int)."""
    if key not in comments:
        raise DomainError(f"{path}: missing provenance comment '{key}'")
    try:
        return kind(comments[key])
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise DomainError(
            f"{path}: provenance comment '{key}' is not {noun}: "
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
    model = {key: _comment_value(comments, key, path, float) for key, _ in MODEL_KEYS}
    geometry = geometry_from_values(model)
    flux = FluxState(**{key: _comment_value(comments, key, path, float)
                        for key in _FLUX_KEYS})
    config = SampleConfig(window=window_from_values(model), **{
        key: _comment_value(comments, key, path, int) for key in _SAMPLE_KEYS})
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


def write_pattern_csv(path, grid, window, comments_extra=()):
    """Screen density as ``x_m,density`` rows (the grid's one flux state),
    recording the (x_min, x_max) window the grid spans."""
    comments = (
        list(comments_extra)
        + geometry_comments(grid.geometry)
        + flux_comments(grid.flux)
        + window_comments(window)
        + [("screen_points", format_number(grid.positions.size))]
    )
    _write_table(path, comments, "x_m,density",
                 _blocks(grid.positions, "", ",%r\n", grid.values))


def write_panel_csv(path, x, param_name, param_values, matrix, comments):
    """Density over a (parameter, screen-position) grid.

    ``matrix`` has shape ``(len(param_values), len(x))``; rows are emitted
    parameter-slice by parameter-slice as ``x_m,<param_name>,density``.
    """
    x = _checked_array("panel positions", x)
    param_values = _checked_array("panel parameter values", param_values)
    matrix = _checked_array("panel matrix", matrix, (2,))
    if matrix.shape != (param_values.size, x.size):
        raise DomainError(
            f"panel matrix shape {matrix.shape} does not match "
            f"{param_values.size} parameter values x {x.size} positions"
        )

    blocks = (block for value_text, slice_ in zip(_float_texts(param_values), matrix)
              for block in _blocks(x, "", ",%s,%r\n", slice_, value_text))
    _write_table(path, comments, f"x_m,{param_name},density", blocks)


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

    def blocks():
        # read only after the comments pass: the surface may be lazy
        for theta_text, row in zip(_float_texts(surface.theta_grid), surface.loglik):
            yield from _blocks(surface.phi_grid, "%s,", ",%r\n", row, theta_text)

    _write_table(path, comments, "theta,phi,loglik", blocks())


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
    values = _checked_array("heatmap values", values, (2,))
    if values.size == 0:
        raise DomainError("heatmap values must form a non-empty 2-D matrix")
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
    raster = np.frombuffer(parts[3], dtype=np.uint8)
    if not (width > 0 and height > 0 and raster.size == width * height):
        raise DomainError(f"{path}: header {width}x{height} does not fit {raster.size} bytes")
    return raster.reshape(height, width)
