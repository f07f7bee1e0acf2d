"""File emission and parsing: CSV tables with provenance comments and
8-bit binary graymap (P5) heatmaps.

Every emitted file starts with ``# key=value`` comment lines carrying the
full parameter set needed to regenerate it (geometry, flux angles, window,
grids, seed, tool version).  A comment that would not read back as the same
key and value (a newline or carriage return in it, ``=`` in its key, a key
given twice) is refused before the file is opened; the reader takes keys
and values exactly as written, spaces included.  Numbers are written as
their ``repr`` so they round-trip bit-exactly through ``float``.  Data rows
follow a single ``name,name,...`` header line.

One map joins settings and model objects: :func:`model_values` lists a
model's settings in provenance order (geometry, flux, window, sampling),
:func:`model_comments` formats them, and the ``*_from_values`` functions
build the model objects from a run's settings or a hits file's provenance.

The array writers (hits, pattern, panel, surface) build their data rows
in one loop, _BLOCK_ROWS rows at a time, and numpy computes the ``repr``
text of a whole block of floats at once
(:func:`abflux._floattext.float_chars`) as a NUL-padded character matrix,
one row per value.  A block's rows are the column matrices side by side
with the commas and newlines between them; one ``translate`` drops the
NULs.  The text is ``repr``'s byte for byte: a value whose digits the
vectorised search cannot certify takes ``repr`` itself.  Blocks are cut by row count, across panel
slices and surface rows.  The text of the leading float column (screen
positions, or the surface's phi values) is kept as one character matrix,
keyed by the column's bytes, so a sweep's files and a figure's panels on
one screen grid format it once.

The reader takes the comment and header lines as text (a leading UTF-8
byte-order mark is skipped), then reads the data block on one of two
paths.  The vector path reads it as bytes, about _READ_BYTES of whole
lines at a time: numpy finds each block's commas and newlines and reads
every field back as the double ``float`` gives, bit for bit
(:func:`abflux._floattext.float_rows`); a field the vectorised reader
cannot certify, or whose text is not in the forms it knows, takes ``float``
itself.  It takes the writer's own text and its copy with "\\r\\n" line
ends.  Any other data block (blank lines, lone "\\r" line ends, a
malformed row) is read again line by line, as text mode splits lines and
``float`` reads fields, so that an error names its line.
"""

from __future__ import annotations

import functools
from dataclasses import fields

import numpy as np

from ._floattext import PAD, float_chars, float_rows, int_chars, padded
from ._version import __version__
from .errors import DomainError, _checked_array
from .pattern import FluxState
from .sampling import HitSet, SampleConfig
from .slits import ApertureGeometry

# Every geometry and window setting a provenance block or config names: its
# key and the ApertureGeometry field it carries, or None for the two window
# edges (x_min, then x_max).  Provenance blocks list the keys in this order,
# with the flux keys, when present, between the geometry and the window.
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
_BLOCK_ROWS = 1 << 12       # data rows per block of text
_READ_BYTES = 1 << 18       # bytes per block of data text read


def model_values(geometry: ApertureGeometry, window, flux=None, config=None):
    """Key -> value of the model settings, in provenance order: the
    geometry, then the flux if given, then the window, then the sampling
    settings of the SampleConfig ``config`` if given."""
    values = {key: getattr(geometry, field) for key, field in _GEOMETRY_FIELDS}
    if flux is not None:
        values.update((key, getattr(flux, key)) for key in _FLUX_KEYS)
    values.update(zip(_WINDOW_KEYS, window))
    if config is not None:
        values.update((key, getattr(config, key)) for key in _SAMPLE_KEYS)
    return values


def model_comments(values):
    """The provenance comment pairs of a key -> value mapping, in its order."""
    return [(key, format_number(value)) for key, value in values.items()]


def geometry_from_values(values) -> ApertureGeometry:
    """The geometry named by a mapping that holds the MODEL_KEYS keys."""
    return ApertureGeometry(**{field: values[key] for key, field in _GEOMETRY_FIELDS})


def flux_from_values(values) -> FluxState:
    """The flux state named by a mapping that holds the FluxState fields."""
    return FluxState(**{key: values[key] for key in _FLUX_KEYS})


def window_from_values(values):
    """The (x_min, x_max) window named by a mapping of MODEL_KEYS keys."""
    return tuple(values[key] for key in _WINDOW_KEYS)


def config_from_values(values) -> SampleConfig:
    """The sampling configuration named by a mapping that holds the window
    keys and the other SampleConfig fields."""
    return SampleConfig(window=window_from_values(values),
                        **{key: values[key] for key in _SAMPLE_KEYS})


def format_number(value):
    """Round-trippable text for a float or int."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _join(fields):
    """The text of rows whose fields are the rows of the uint8 matrices
    ``fields`` (NUL-padded text), separated by commas and ending in a
    newline."""
    width = sum(field.shape[1] + 1 for field in fields)
    text = bytearray(fields[0].shape[0] * width)
    rows = np.frombuffer(text, np.uint8).reshape(-1, width)
    at = 0
    for field in fields:
        rows[:, at:at + field.shape[1]] = field
        at += field.shape[1] + 1
        rows[:, at - 1] = ord(",")
    rows[:, -1] = ord("\n")
    return text.translate(None, b"\0")


@functools.lru_cache(maxsize=1)
def _column_chars(column: bytes):
    """The text of a leading column (float64 bytes), one row per value,
    formatted _BLOCK_ROWS values at a time.

    A sweep's files and a figure's panels share one screen grid, so the
    last column's text is kept: one character matrix, not a string per row.
    """
    floats = np.frombuffer(column)
    blocks = [float_chars(floats[start:start + _BLOCK_ROWS])
              for start in range(0, floats.size, _BLOCK_ROWS)]
    chars = np.zeros((floats.size, max((b.shape[1] for b in blocks), default=0)), np.uint8)
    for start, block in zip(range(0, floats.size, _BLOCK_ROWS), blocks):
        chars[start:start + len(block), :block.shape[1]] = block
    return chars


def _repeated(chars, repeat=1):
    """The column whose row r is row ``(r // repeat) % len(chars)`` of the
    character matrix ``chars``."""
    width = chars.shape[1]
    items = np.ascontiguousarray(chars).view(f"V{width}").ravel()   # a row as one item

    def column(index):
        return np.take(items, index // repeat % len(items)).view(np.uint8).reshape(-1, width)

    return column


def _floats(values):
    """The column whose row r is the text of the float ``values[r]``."""
    values = np.asarray(values, dtype=float).ravel()
    return lambda index: float_chars(values[index])


def _blocks(n_rows, columns):
    """The text of ``n_rows`` data rows, _BLOCK_ROWS rows at a time.

    Each of ``columns`` maps an array of row numbers to the character
    matrix of its fields in those rows.
    """
    for start in range(0, n_rows, _BLOCK_ROWS):
        index = np.arange(start, min(start + _BLOCK_ROWS, n_rows))
        # joined in a call, so that the block's temporaries are freed
        # before the yield, not held while its text is written
        yield _join([column(index) for column in columns])


def _check_comments(path, comments):
    """The ``# key=value`` lines of ``comments`` (pairs), after the tool's
    own, as UTF-8.

    A comment that would not read back as the same pair is refused: a key
    or value holding a newline or carriage return, a key holding ``=``, a
    key given twice (``tool`` included), or text that is not UTF-8.
    """
    lines = [f"tool=abflux {__version__}"]
    keys = {"tool"}
    for key, value in comments:
        key, value = str(key), str(value)
        line = f"{key}={value}"
        if "=" in key or "\n" in line or "\r" in line:
            raise DomainError(
                f"{path}: provenance comment {key!r}={value!r} would break its line "
                "(no newline or carriage return in a comment, no '=' in its key)"
            )
        if key in keys:
            raise DomainError(f"{path}: provenance comment key {key!r} is given twice")
        keys.add(key)
        lines.append(line)
    try:
        return "".join(f"# {line}\n" for line in lines).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise DomainError(f"{path}: provenance comment is not UTF-8 text: {exc}") from None


def _write_table(path, comments, header, blocks):
    """Write comment pairs, a header line, and the data block's text, one
    bytes object of whole rows at a time from the iterable ``blocks``.

    The comments are checked before the file is opened.
    """
    head = _check_comments(path, comments) + (header + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(head)
        for block in blocks:
            fh.write(block)


def write_csv(path, comments, header, rows):
    """Write comment pairs, a header line, and iterable rows of strings."""
    _write_table(path, comments, header,
                 ((",".join(row) + "\n").encode("utf-8") for row in rows))


def read_csv(path):
    """Parse a file written by :func:`write_csv`.

    Returns ``(comments: dict, header: list of names, data: float matrix)``.
    Malformed lines raise :class:`DomainError` naming the file and line.
    """
    comments = {}
    header = None
    offset = 0              # bytes up to the end of the header line
    try:
        # newline="" splits lines as text mode does but keeps their ends,
        # so that their bytes add up to the data block's offset
        with open(path, "r", encoding="utf-8", newline="") as fh:
            for line_no, raw in enumerate(fh, start=1):
                offset += len(raw.encode("utf-8"))
                if line_no == 1:
                    raw = raw.removeprefix("\ufeff")    # a byte-order mark, as utf-8-sig skips it
                line = raw.rstrip("\n").rstrip("\r")
                if not line:
                    continue
                if not line.startswith("#"):
                    header = [name.strip() for name in line.split(",")]
                    break
                # "# key=value" as written, or "#key=value"; key and value
                # are read exactly, spaces and all
                body = line[2:] if line.startswith("# ") else line[1:]
                if "=" not in body:
                    raise DomainError(
                        f"{path}:{line_no}: comment is not of the form '# key=value'"
                    )
                key, value = body.split("=", 1)
                if key in comments:
                    raise DomainError(f"{path}:{line_no}: repeated comment key '{key}'")
                comments[key] = value
        if header is None:
            raise DomainError(f"{path}: no header line found")
        data = _read_rows(path, line_no + 1, offset, len(header))
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text: {exc}") from None
    return comments, header, data


def _line_blocks(fh):
    """The rest of the binary file ``fh`` in blocks of whole lines, about
    _READ_BYTES at a time, each a character array in the layout of
    :func:`abflux._floattext.padded`.

    A block's "\\r\\n" line ends become newlines.  A block that holds any
    other carriage return raises ValueError: text mode ends a line there.
    """
    rest = b""
    while True:
        text = bytearray(PAD + len(rest) + _READ_BYTES)
        text[PAD:PAD + len(rest)] = rest
        size = PAD + len(rest) + fh.readinto(memoryview(text)[PAD + len(rest):])
        if size == PAD + len(rest):
            if not rest:
                return
            text[size] = ord("\n")     # the last line, which lacks its newline
            size += 1
        cut = text.rfind(b"\n", PAD, size) + 1
        rest = bytes(text[max(cut, PAD):size])
        if text.find(b"\r", PAD, cut) >= 0:
            text = text[PAD:cut].replace(b"\r\n", b"\n")
            if b"\r" in text:
                raise ValueError("a line ends in a lone carriage return")
            yield padded(text)
        elif cut:
            yield np.frombuffer(text, np.uint8, cut)


def _read_rows(path, first_line, offset, n_fields):
    """The data block of :func:`read_csv` as a float matrix.

    The block runs from byte ``offset``, line ``first_line``, to the end of
    the file.  :func:`abflux._floattext.float_rows` parses the writer's own
    text and its "\\r\\n" copy a block of lines at a time.  Everything
    else (blank lines, lone carriage returns, a malformed row) is read
    again one line at a time, as text mode splits lines and ``float`` reads
    fields, so that an error names its line.
    """
    with open(path, "rb") as fh:
        fh.seek(offset)
        # a row per newline, and one more for a last line without one, so
        # that the rows go straight into one matrix
        size = 1
        text = bytearray(_READ_BYTES)
        read = np.frombuffer(text, np.uint8)
        while got := fh.readinto(text):
            size += np.count_nonzero(read[:got] == ord("\n"))
        fh.seek(offset)
        data = np.empty((size, n_fields))
        rows = 0
        try:
            for chars in _line_blocks(fh):
                block = float_rows(chars, n_fields)
                data[rows:rows + len(block)] = block
                rows += len(block)
            return data[:rows]
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
    return np.array(rows, dtype=float).reshape(-1, n_fields)


def write_hits_csv(path, hits: HitSet):
    """The hits as ``index,x_m`` rows, formatted _BLOCK_ROWS rows at a time."""
    comments = model_comments(model_values(hits.geometry, hits.config.window,
                                           hits.flux, hits.config))
    _write_table(path, comments, HITS_HEADER,
                 _blocks(hits.positions.size, [int_chars, _floats(hits.positions)]))


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
    kinds = ({key: float for key, _ in MODEL_KEYS} | dict.fromkeys(_FLUX_KEYS, float)
             | dict.fromkeys(_SAMPLE_KEYS, int))
    values = {key: _comment_value(comments, key, path, kind) for key, kind in kinds.items()}
    geometry, flux = geometry_from_values(values), flux_from_values(values)
    config = config_from_values(values)
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
    comments = list(comments_extra) + model_comments(
        {**model_values(grid.geometry, window, grid.flux), "screen_points": grid.positions.size})
    columns = [_repeated(_column_chars(grid.positions.tobytes())), _floats(grid.values)]
    _write_table(path, comments, "x_m,density", _blocks(grid.positions.size, columns))


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

    columns = [_repeated(_column_chars(x.tobytes())),
               _repeated(float_chars(param_values), x.size), _floats(matrix)]
    _write_table(path, comments, f"x_m,{param_name},density", _blocks(matrix.size, columns))


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

    # refuse a bad comment before the surface, which may be lazy, is computed
    _check_comments(path, comments)
    thetas = np.asarray(surface.theta_grid, dtype=float)
    phis = np.asarray(surface.phi_grid, dtype=float)
    loglik = np.asarray(surface.loglik, dtype=float)
    if loglik.shape != (thetas.size, phis.size):
        raise DomainError(
            f"{path}: surface loglik shape {loglik.shape} does not match "
            f"{thetas.size} theta points x {phis.size} phi points"
        )
    columns = [_repeated(float_chars(thetas), phis.size),
               _repeated(_column_chars(phis.tobytes())), _floats(loglik)]
    _write_table(path, comments, "theta,phi,loglik", _blocks(loglik.size, columns))


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
