"""File-format tests: provenance round-trips, parse errors, graymaps."""

import codecs

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abflux import DomainError, FluxState, SampleConfig, sample_hits
from abflux.inference import LikelihoodSurface
import abflux.io
from abflux._floattext import (
    decimal_values, float_chars, float_rows, int_chars, padded, shortest_digits, text_fields,
)
from abflux.io import (
    HITS_HEADER,
    _BLOCK_ROWS,
    format_number,
    read_csv,
    read_hits_csv,
    read_pgm,
    write_csv,
    write_hits_csv,
    write_panel_csv,
    write_pattern_csv,
    write_pgm,
    write_surface_csv,
)
from abflux.pattern import DensityGrid, ScreenGrid, density_grid
from abflux.sampling import HitSet
from abflux.slits import DEFAULT_WINDOW


@pytest.fixture()
def small_hits(jonsson):
    cfg = SampleConfig(n_hits=50, seed=77)
    return sample_hits(jonsson, FluxState(np.pi / 2, 1.0, 0.25), cfg)


def test_format_number_round_trips():
    for value in (0.0, -2e-5, np.pi, 1.0 / 3.0, 5e-324, 1.7976931348623157e308):
        assert float(format_number(value)) == value
    assert format_number(7) == "7"
    assert format_number(True) == "True"
    assert format_number(np.float64(0.1)) == "0.1"


def test_hits_round_trip_bit_exact(tmp_path, small_hits):
    path = tmp_path / "hits.csv"
    write_hits_csv(path, small_hits)
    back = read_hits_csv(path)
    assert np.array_equal(back.positions, small_hits.positions)
    assert back.config == small_hits.config
    assert back.flux == small_hits.flux
    assert back.geometry == small_hits.geometry


def test_read_csv_parses_comments_and_rows(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, [("alpha", "1.5"), ("label", "free text")], "x,y",
              [("1.0", "2.0"), ("3.0", "4.0")])
    comments, header, data = read_csv(path)
    assert comments["alpha"] == "1.5"
    assert comments["label"] == "free text"
    assert comments["tool"].startswith("abflux ")
    assert header == ["x", "y"]
    assert np.array_equal(data, [[1.0, 2.0], [3.0, 4.0]])


def test_read_csv_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# a=1\nx,y\n1.0,2.0\n3.0\n")
    with pytest.raises(DomainError, match="bad.csv:4"):
        read_csv(path)
    path.write_text("# a=1\nx,y\n1.0,notanumber\n")
    with pytest.raises(DomainError, match="bad.csv:3"):
        read_csv(path)
    path.write_text("# broken comment without equals\nx,y\n")
    with pytest.raises(DomainError, match="bad.csv:1"):
        read_csv(path)
    path.write_text("x,y\n1.0,2.0\n# late=comment\n")
    with pytest.raises(DomainError, match="bad.csv:3"):
        read_csv(path)
    path.write_text("")
    with pytest.raises(DomainError, match="no header"):
        read_csv(path)
    path.write_text("# seed=5\n# a=1\n# seed=9\nx,y\n")
    with pytest.raises(DomainError, match="bad.csv:3: repeated comment key 'seed'"):
        read_csv(path)


def test_hits_reader_checks_header(tmp_path, small_hits):
    path = tmp_path / "hits.csv"
    write_hits_csv(path, small_hits)
    text = path.read_text().replace("index,x_m", "idx,x")
    path.write_text(text)
    with pytest.raises(DomainError, match="header"):
        read_hits_csv(path)


def test_hits_reader_checks_count_and_order(tmp_path, small_hits):
    path = tmp_path / "hits.csv"
    write_hits_csv(path, small_hits)
    lines = path.read_text().splitlines()
    short = "\n".join(lines[:-1]) + "\n"
    path.write_text(short)
    with pytest.raises(DomainError, match="n_hits"):
        read_hits_csv(path)

    write_hits_csv(path, small_hits)
    lines = path.read_text().splitlines()
    # swap the first two data rows so indices run 1, 0, 2, ...
    first_data = next(i for i, l in enumerate(lines) if l.startswith("0,"))
    lines[first_data], lines[first_data + 1] = lines[first_data + 1], lines[first_data]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DomainError, match="0..n-1"):
        read_hits_csv(path)


def test_hits_reader_requires_provenance(tmp_path, small_hits):
    path = tmp_path / "hits.csv"
    write_hits_csv(path, small_hits)
    kept = [
        line for line in path.read_text().splitlines()
        if not line.startswith("# seed=")
    ]
    path.write_text("\n".join(kept) + "\n")
    with pytest.raises(DomainError, match="seed"):
        read_hits_csv(path)


def test_pgm_bytes_exact(tmp_path):
    path = tmp_path / "img.pgm"
    write_pgm(path, np.array([[0.0, 1.0], [2.0, 4.0]]))
    blob = path.read_bytes()
    assert blob == b"P5\n2 2\n255\n" + bytes([0, 63, 127, 255])


def test_pgm_floor_rule(tmp_path):
    path = tmp_path / "img.pgm"
    write_pgm(path, np.array([[0.999, 1.0]]))
    # floor(255 * 0.999) = 254; the maximum maps to 255 exactly
    assert path.read_bytes().endswith(bytes([254, 255]))


def test_pgm_zero_matrix(tmp_path):
    path = tmp_path / "img.pgm"
    write_pgm(path, np.zeros((3, 4)))
    img = read_pgm(path)
    assert img.shape == (3, 4)
    assert img.max() == 0


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.random((17, 23))
    path = tmp_path / "img.pgm"
    write_pgm(path, values)
    img = read_pgm(path)
    assert img.shape == (17, 23)
    expected = np.floor(255.0 * values / values.max()).astype(np.uint8)
    assert np.array_equal(img, expected)


def test_pgm_rejects_bad_input(tmp_path):
    path = tmp_path / "img.pgm"
    with pytest.raises(DomainError):
        write_pgm(path, np.zeros((0, 3)))
    with pytest.raises(DomainError):
        write_pgm(path, np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        write_pgm(path, np.array([[np.nan, 1.0]]))


def test_read_pgm_checks_header_against_raster(tmp_path):
    path = tmp_path / "img.pgm"
    # a truncated raster, a long one, and sizes that are not positive
    for width, height, size in ((2, 2, 3), (2, 2, 5), (-1, 2, 4), (0, 0, 0)):
        path.write_bytes(f"P5\n{width} {height}\n255\n".encode() + bytes(size))
        with pytest.raises(DomainError, match=f"img.pgm: header {width}x{height} does not fit"):
            read_pgm(path)


# Floats whose shortest repr covers signed zero, subnormals, the largest
# finite double, integral values and the exponent form.
_AWKWARD = np.array([
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1.0 / 3.0, -2e-5, 2.0,
    1e16, 1e22, -1.7976931348623157e308, np.pi,
])


def _data_text(path, header):
    return path.read_text().split(header + "\n", 1)[1]


def _former_rows(*columns):
    # rows as the writers formatted them element by element
    return "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in zip(*columns)
    )


def test_writers_keep_per_element_repr_text(tmp_path, jonsson):
    rng = np.random.default_rng(3)
    values = np.concatenate([
        _AWKWARD, rng.standard_normal(36) * 10.0 ** rng.integers(-300, 300, 36),
    ])
    x = np.sort(np.concatenate([[-2e-5, -0.0, 5e-324, 2e-5], rng.uniform(-2e-5, 2e-5, 44)]))
    flux = FluxState(0.4, 1.2)

    hits = HitSet(positions=x, config=SampleConfig(n_hits=x.size, seed=1),
                  flux=flux, geometry=jonsson)
    path = tmp_path / "hits.csv"
    write_hits_csv(path, hits)
    expected = "".join(f"{i},{float(v)!r}\n" for i, v in enumerate(x))
    assert _data_text(path, HITS_HEADER) == expected

    density = np.abs(values)
    grid = DensityGrid(positions=x, values=density, geometry=jonsson, flux=flux)
    path = tmp_path / "pattern.csv"
    write_pattern_csv(path, grid, (-2e-5, 2e-5))
    assert _data_text(path, "x_m,density") == _former_rows(x, density)

    params = values[:4]
    matrix = np.stack([values, -values, values[::-1], 1e-7 * values])
    path = tmp_path / "panel.csv"
    write_panel_csv(path, x, "theta", params, matrix, [])
    expected = "".join(
        _former_rows(x, np.full(x.size, p), row) for p, row in zip(params, matrix)
    )
    assert _data_text(path, "x_m,theta,density") == expected

    thetas, phis = values[:5], values[5:12]
    loglik = values[12:47].reshape(5, 7)
    surface = LikelihoodSurface(
        theta_grid=thetas, phi_grid=phis, loglik=loglik, theta_hat=0.5,
        phi_hat=1.5, loglik_max=float(loglik.max()), theta_flat=False,
    )
    path = tmp_path / "surface.csv"
    write_surface_csv(path, surface)
    expected = "".join(
        _former_rows(np.full(phis.size, t), phis, row) for t, row in zip(thetas, loglik)
    )
    assert _data_text(path, "theta,phi,loglik") == expected


def test_read_csv_values_equal_float_of_text(tmp_path):
    texts = [repr(float(v)) for v in _AWKWARD] + [
        "0.1000000000000000055511151231257827", "1e-320", "-0", " 2.5 ", "7",
        "1E5", "+3.", ".5", "inf", "-inf", "4.9406564584124654e-324",
    ]
    if len(texts) % 2:
        texts.append("0.3")
    rows = list(zip(texts[0::2], texts[1::2]))
    path = tmp_path / "table.csv"
    write_csv(path, [], "a,b", rows)
    _, _, data = read_csv(path)
    expected = np.array([[float(a), float(b)] for a, b in rows])
    assert np.array_equal(data, expected)
    assert np.array_equal(np.signbit(data), np.signbit(expected))

    # text float() reads but numpy's parser refuses still reads as float()
    write_csv(path, [], "a,b", rows + [("1_000.5", "2")])
    _, _, data = read_csv(path)
    assert np.array_equal(data[-1], [1000.5, 2.0])
    assert np.array_equal(data[:-1], expected)


def test_writers_rebuild_the_column_template_when_the_column_changes(tmp_path, jonsson):
    # the last template is kept, keyed by its column's bytes: two grids in
    # turn, a positions array changed in place, panels after patterns, and a
    # surface, each written as the former per-element rows
    rng = np.random.default_rng(5)
    first, second = (np.sort(rng.uniform(-2e-5, 2e-5, 40)) for _ in range(2))
    flux = FluxState(0.4, 1.2)
    path = tmp_path / "out.csv"

    def pattern_matches(x):
        values = rng.random(x.size)
        grid = DensityGrid(positions=x, values=values, geometry=jonsson, flux=flux)
        write_pattern_csv(path, grid, (-2e-5, 2e-5))
        assert grid.positions is x
        assert _data_text(path, "x_m,density") == _former_rows(x, values)

    for x in (first, second, first, first):
        pattern_matches(x)
    first[7] = 0.5 * (first[6] + first[7])
    pattern_matches(first)
    for param_name in ("phi", "theta"):
        params, matrix = rng.random(3), rng.random((3, first.size))
        write_panel_csv(path, first, param_name, params, matrix, [])
        expected = "".join(
            _former_rows(first, np.full(first.size, p), row) for p, row in zip(params, matrix)
        )
        assert _data_text(path, f"x_m,{param_name},density") == expected
    pattern_matches(first)
    loglik = rng.standard_normal((5, first.size))
    surface = LikelihoodSurface(
        theta_grid=second[:5], phi_grid=first, loglik=loglik, theta_hat=0.5,
        phi_hat=1.5, loglik_max=float(loglik.max()), theta_flat=False,
    )
    write_surface_csv(path, surface)
    expected = "".join(
        _former_rows(np.full(first.size, t), first, row) for t, row in zip(second[:5], loglik)
    )
    assert _data_text(path, "theta,phi,loglik") == expected
    pattern_matches(first)


@pytest.mark.parametrize("n", [0, 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
def test_rows_across_block_edges(tmp_path, jonsson, n):
    rng = np.random.default_rng(n)
    x = np.sort(rng.uniform(-2e-5, 2e-5, n))
    flux = FluxState(0.4, 1.2)
    hits = HitSet(positions=x, config=SampleConfig(n_hits=n, seed=1),
                  flux=flux, geometry=jonsson)
    path = tmp_path / "hits.csv"
    write_hits_csv(path, hits)
    expected = "".join(f"{i},{float(v)!r}\n" for i, v in enumerate(x))
    assert _data_text(path, HITS_HEADER) == expected
    if n:
        values = rng.random(n)
        path = tmp_path / "pattern.csv"
        write_pattern_csv(path, DensityGrid(positions=x, values=values, geometry=jonsson,
                                            flux=flux), (-2e-5, 2e-5))
        assert _data_text(path, "x_m,density") == _former_rows(x, values)
        params, matrix = np.array([0.3, 1.7]), np.stack([values, values[::-1]])
        path = tmp_path / "panel.csv"
        write_panel_csv(path, x, "phi", params, matrix, [])
        expected = "".join(
            _former_rows(x, np.full(n, p), row) for p, row in zip(params, matrix))
        assert _data_text(path, "x_m,phi,density") == expected


@pytest.mark.parametrize("key, value", [
    ("input", "a\nb.csv"), ("input", "a\rb.csv"), ("in\nput", "a.csv"), ("in=put", "a.csv"),
])
def test_comments_that_would_break_their_line_are_refused(tmp_path, key, value):
    path = tmp_path / "table.csv"
    with pytest.raises(DomainError, match="would break its line"):
        write_csv(path, [("alpha", "1.5"), (key, value)], "x", [("1.0",)])
    assert not path.exists()


def _texts(values):
    return [bytes(row).translate(None, b"\0").decode() for row in float_chars(values)]


def _assert_repr_text(values):
    values = np.asarray(values, dtype=float)
    assert _texts(values) == [repr(float(v)) for v in values]


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
def test_float_text_is_repr(values):
    _assert_repr_text(values)


def test_float_text_is_repr_at_every_binary_exponent():
    rng = np.random.default_rng(11)
    exponents = np.repeat(np.arange(2047, dtype=np.uint64), 16)
    mantissas = rng.integers(0, 1 << 52, exponents.size, dtype=np.uint64)
    signs = rng.integers(0, 2, exponents.size, dtype=np.uint64)
    _assert_repr_text((signs << np.uint64(63) | exponents << np.uint64(52) | mantissas)
                      .view(np.float64))


def test_float_text_is_repr_at_the_edges():
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    powers_of_ten = np.array([10.0**k for k in range(-323, 309)])
    switches = np.array([1e16, 1e-4, 1e-5, 9999999999999998.0, 1e16 + 2, 0.0001, 0.00011])
    for values in (powers_of_two, powers_of_ten, switches, _AWKWARD):
        for v in (values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)):
            _assert_repr_text(np.concatenate([v, -v]))


def test_screen_values_take_the_fast_path(jonsson):
    # repr is a fallback for rare values: a pattern grid and a hit set
    # must not need it
    flux = FluxState(0.4, 1.2)
    grid = density_grid(jonsson, flux, ScreenGrid.uniform(*DEFAULT_WINDOW, 8192))
    hits = sample_hits(jonsson, flux, SampleConfig(n_hits=100_000, seed=5))
    for values in (grid.positions, grid.values, hits.positions):
        assert shortest_digits(np.abs(values))[0].all()


@pytest.mark.parametrize("n", [11, 101, 1_001, 10_001, 100_001])
def test_hits_rows_across_index_widths(tmp_path, jonsson, n):
    # n rows cross the index width edge n - 2 -> n - 1 and, from 10_001 on,
    # the block edges at multiples of _BLOCK_ROWS
    x = np.sort(np.random.default_rng(n).uniform(-2e-5, 2e-5, n))
    hits = HitSet(positions=x, config=SampleConfig(n_hits=n, seed=1),
                  flux=FluxState(0.4, 1.2), geometry=jonsson)
    path = tmp_path / "hits.csv"
    write_hits_csv(path, hits)
    expected = "".join(f"{i},{v!r}\n" for i, v in enumerate(x.tolist()))
    assert _data_text(path, HITS_HEADER) == expected


def test_surface_shape_must_match_its_grids(tmp_path):
    path = tmp_path / "surface.csv"
    surface = LikelihoodSurface(
        theta_grid=np.array([0.1, 0.2]), phi_grid=np.array([0.0, 1.0, 2.0]),
        loglik=np.array([[-1.0, -np.inf], [-2.0, -3.0]]), theta_hat=0.1,
        phi_hat=0.0, loglik_max=-1.0, theta_flat=False,
    )
    with pytest.raises(DomainError, match=r"\(2, 2\) does not match 2 theta points x 3 phi"):
        write_surface_csv(path, surface)
    assert not path.exists()

    surface = LikelihoodSurface(
        theta_grid=np.array([0.1, 0.2]), phi_grid=np.array([0.0, 1.0]),
        loglik=np.array([[-1.0, -np.inf], [-2.0, -3.0]]), theta_hat=0.1,
        phi_hat=0.0, loglik_max=-1.0, theta_flat=False,
    )
    write_surface_csv(path, surface)
    assert _data_text(path, "theta,phi,loglik") == (
        "0.1,0.0,-1.0\n0.1,1.0,-inf\n0.2,0.0,-2.0\n0.2,1.0,-3.0\n")


_COMMENT_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.tuples(_COMMENT_TEXT, _COMMENT_TEXT), max_size=4))
def test_every_accepted_comment_reads_back(tmp_path_factory, comments):
    path = tmp_path_factory.mktemp("comments") / "table.csv"
    try:
        write_csv(path, comments, "x", [("1.0",)])
    except DomainError:
        assert not path.exists()
        return
    read, _, _ = read_csv(path)
    assert list(read.items())[1:] == comments


@pytest.mark.parametrize("key, value", [
    (" input", "a.csv"), ("input", " a.csv "), ("input", "a.csv\t"),
])
def test_comment_spaces_read_back(tmp_path, key, value):
    path = tmp_path / "table.csv"
    write_csv(path, [(key, value)], "x", [("1.0",)])
    assert read_csv(path)[0][key] == value


@pytest.mark.parametrize("comments", [[("tool", "other")], [("seed", "1"), ("seed", "2")]])
def test_repeated_comment_keys_are_refused(tmp_path, comments):
    path = tmp_path / "table.csv"
    with pytest.raises(DomainError, match="is given twice"):
        write_csv(path, comments, "x", [("1.0",)])
    assert not path.exists()


def _int_texts(values):
    return [bytes(row).replace(b"\0", b"").decode() for row in int_chars(values)]


def test_int_text_is_str_for_wide_indices():
    # from 9 digits on an index spans more than one 8-digit group
    edges = [10**8 - 1, 10**8, 10**15, 10**16 - 1]
    rng = np.random.default_rng(16)
    values = rng.integers(0, 10 ** rng.integers(1, 17, 4000, dtype=np.int64))
    for batch in [values, np.array(edges)] + [np.array([v]) for v in edges]:
        assert _int_texts(batch) == [str(int(v)) for v in batch]


def test_read_csv_skips_blank_lines_before_the_header(tmp_path):
    path = tmp_path / "table.csv"
    path.write_bytes(b"# a=1\n\n\r\nx,y\n")
    comments, header, data = read_csv(path)
    assert comments == {"a": "1"} and header == ["x", "y"]
    assert data.shape == (0, 2)


def _text_of(values):
    # the repr text of each value, one per line
    return b"".join(bytes(row).translate(None, b"\0") + b"\n" for row in float_chars(values))


def _assert_bits_equal(got, expected):
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_subnormal=True), min_size=1, max_size=40))
def test_reader_inverts_float_text(values):
    _assert_bits_equal(float_rows(padded(_text_of(values)), 1).ravel(), values)


def test_reader_inverts_float_text_at_the_edges():
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    powers_of_ten = np.array([10.0**k for k in range(-323, 309)])
    extremes = np.array([0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                         1.7976931348623157e308, np.inf])
    rng = np.random.default_rng(22)
    bits = rng.integers(0, 2**63 - 2**52, 20_000, dtype=np.int64)    # finite doubles
    for values in (powers_of_two, powers_of_ten, extremes, _AWKWARD, bits.view(np.float64)):
        with np.errstate(over="ignore"):        # the largest double's next is inf
            above = np.nextafter(values, np.inf)
        for v in (values, np.nextafter(values, 0.0), above):
            v = np.concatenate([v, -v])
            _assert_bits_equal(float_rows(padded(_text_of(v)), 1).ravel(), v)


def test_reader_rounds_ties_and_extremes_as_float_does():
    # decimals halfway between two doubles, with a power of ten that is not
    # a double: n + 1/2 between doubles 1 apart, n + 1/4 and n + 3/4 between
    # doubles 1/2 apart, and the same scaled by powers of ten
    rng = np.random.default_rng(9)
    halves = rng.integers(2**52, 2**53, 500)
    quarters = rng.integers(2**51, 2**52, 500)
    texts = ([f"{n}.5" for n in halves.tolist()] + [f"{n}.{f}" for n in quarters.tolist()
                                                    for f in ("25", "75")])
    texts += [f"{t}e{k:+03d}" for k in (-300, -30, -3, 3, 30, 200) for t in texts[::50]]
    # and past the largest double, and below the least
    texts += ["1.7976931348623157e+308", "1.7976931348623158e+308", "1.8e+308", "9e+308",
              "1e+309", "99999999999999999e+292", "1e-291", "9e-292", "1e-323", "2e-324"]
    text = "".join(t + "\n" for t in texts).encode()
    _assert_bits_equal(float_rows(padded(text), 1).ravel(), [float(t) for t in texts])


def _accepted(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


# decimal texts float() reads: signs, leading zeros, up to 40 digits, a
# point anywhere or none, "e" or "E" exponents with or without a sign, and
# surrounding spaces; half of them in the writer's forms ("-", up to 17
# digits on each side of the point, "e-05" or "e+123")
def _decimal_text(space, sign, whole, point, frac, mark, exponent):
    return space + sign + whole + point + frac + (mark + exponent if mark else "") + space


_DIGITS = st.text("0123456789", max_size=20)
_DECIMAL_TEXT = st.one_of(
    st.builds(_decimal_text, st.just(""), st.sampled_from(["", "-"]),
              st.text("0123456789", max_size=17), st.sampled_from(["", "."]),
              st.text("0123456789", max_size=17), st.sampled_from(["", "e-", "e+"]),
              st.text("0123456789", min_size=2, max_size=3)),
    st.builds(_decimal_text, st.sampled_from(["", " ", "\t"]), st.sampled_from(["", "-", "+"]),
              _DIGITS, st.sampled_from(["", "."]), _DIGITS,
              st.sampled_from(["", "e", "E", "e+", "e-", "E-"]),
              st.text("0123456789", min_size=1, max_size=4)),
).filter(_accepted)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(_DECIMAL_TEXT, min_size=1, max_size=20))
def test_reader_reads_any_decimal_text_as_float_does(texts):
    text = "".join(t + "\n" for t in texts).encode()
    _assert_bits_equal(float_rows(padded(text), 1).ravel(), [float(t) for t in texts])


def _vector_path(text, n_fields):
    # whether each field of each column is read without float()
    chars = padded(text)
    starts, ends = text_fields(chars)
    return np.stack([decimal_values(chars, starts[j::n_fields], ends[j::n_fields])[0]
                     for j in range(n_fields)], axis=1)


def test_hits_and_density_text_take_the_vector_path(tmp_path, jonsson):
    flux = FluxState(0.4, 1.2)
    path = tmp_path / "hits.csv"
    write_hits_csv(path, sample_hits(jonsson, flux, SampleConfig(n_hits=100_000, seed=5)))
    assert _vector_path(_data_text(path, HITS_HEADER).encode(), 2).all()
    grid = density_grid(jonsson, flux, ScreenGrid.uniform(*DEFAULT_WINDOW, 8192))
    path = tmp_path / "pattern.csv"
    write_pattern_csv(path, grid, DEFAULT_WINDOW)
    assert _vector_path(_data_text(path, "x_m,density").encode(), 2).all()
    back = read_csv(path)[2]
    _assert_bits_equal(back, np.stack([grid.positions, grid.values], axis=1))


# read_csv's data block as text mode read it: line ends, blank lines,
# spaces, and the text float() reads besides the writer's own
@pytest.mark.parametrize("text, rows", [
    (b"x,y\r\n1.5,2\r\n3,4\r\n", [[1.5, 2.0], [3.0, 4.0]]),
    (b"x,y\n1.5,2\r3,4\n", [[1.5, 2.0], [3.0, 4.0]]),
    (b"x,y\r1.5,2\r3,4\r", [[1.5, 2.0], [3.0, 4.0]]),
    (b"x,y\n1,2\r\r\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    (b"x,y\n\n1,2\n\n3,4\n\n\n5,6\n\n", [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
    (b"x,y\n1,2\r\n\r\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    (b"x,y\n1,2\n3,4", [[1.0, 2.0], [3.0, 4.0]]),
    (b"x,y\n 1 , 2\t\n\t3,4 \n", [[1.0, 2.0], [3.0, 4.0]]),
    (b"x,y\n1_0,2\n", [[10.0, 2.0]]),
    ("x,y\n\u0661\u0662,\uff13.5\n".encode(), [[12.0, 3.5]]),
    (b"x\n1\n\n-0\n", [[1.0], [-0.0]]),
    (b"x,y\n", np.empty((0, 2))),
    (b"x,y\n\n\r\n", np.empty((0, 2))),
])
@pytest.mark.parametrize("block", [None, 5])
def test_read_csv_edge_text(tmp_path, monkeypatch, text, rows, block):
    if block:
        # blocks of a few bytes cut the text at every place
        monkeypatch.setattr(abflux.io, "_READ_BYTES", block)
    path = tmp_path / "table.csv"
    path.write_bytes(text)
    _assert_bits_equal(read_csv(path)[2], rows)


@pytest.mark.parametrize("text, message", [
    (b"x,y\n1,2,\n3,4\n", "table.csv:2: expected 2 fields, got 3"),
    (b"x,y\n1,2\n   \n3,4\n", "table.csv:3: expected 2 fields, got 1"),
    (b"x\n1\n  \n", "table.csv:3: could not convert string to float: '  '"),
    (b"x,y\n1,\n", "table.csv:2: could not convert string to float: ''"),
    (b"x,y\n1,2\n\xff,3\n", "table.csv: not UTF-8 text"),
])
def test_read_csv_errors_name_their_line(tmp_path, text, message):
    path = tmp_path / "table.csv"
    path.write_bytes(text)
    with pytest.raises(DomainError, match=message):
        read_csv(path)


def test_read_csv_error_in_a_later_block_names_its_line(tmp_path, small_hits, monkeypatch):
    monkeypatch.setattr(abflux.io, "_READ_BYTES", 64)
    path = tmp_path / "hits.csv"
    write_hits_csv(path, small_hits)
    lines = path.read_text().splitlines()
    bad = len(lines) - 10
    lines[bad] = lines[bad].replace(",", ",x")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DomainError, match=f"hits.csv:{bad + 1}: could not convert"):
        read_hits_csv(path)


# copies of a hits file with other line ends: "\r\n" takes the vector path
# in every block, the rest (blank lines, lone carriage returns) the line reader
@pytest.mark.parametrize("newline, vector", [
    (b"\r\n", True), (b"\n\n", False), (b"\r\n\r\n", False), (b"\r", False),
])
def test_hits_reader_reads_line_end_copies_across_blocks(
        tmp_path, jonsson, monkeypatch, newline, vector):
    hits = sample_hits(jonsson, FluxState(0.4, 1.2), SampleConfig(n_hits=3000, seed=11))
    path = tmp_path / "hits.csv"
    write_hits_csv(path, hits)
    path.write_bytes(path.read_bytes().replace(b"\n", newline))
    parsed = []

    def spy(chars, n_fields):
        parsed.append(False)
        rows = float_rows(chars, n_fields)
        parsed[-1] = True
        return rows

    monkeypatch.setattr(abflux.io, "_READ_BYTES", 300)
    monkeypatch.setattr(abflux.io, "float_rows", spy)
    _assert_bits_equal(read_hits_csv(path).positions, hits.positions)
    assert (len(parsed) > 100 and all(parsed)) == vector


def test_read_csv_skips_a_byte_order_mark(tmp_path, small_hits):
    path = tmp_path / "table.csv"
    path.write_bytes(codecs.BOM_UTF8 + b"# a=1\n# b=2\nx,y\n1,2\n")
    comments, header, data = read_csv(path)
    assert comments == {"a": "1", "b": "2"} and header == ["x", "y"]
    _assert_bits_equal(data, [[1.0, 2.0]])
    path.write_bytes(codecs.BOM_UTF8 + b"x,y\n1,2\n")
    assert read_csv(path)[1] == ["x", "y"]
    write_hits_csv(path, small_hits)
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    _assert_bits_equal(read_hits_csv(path).positions, small_hits.positions)
