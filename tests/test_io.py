"""File-format tests: provenance round-trips, parse errors, graymaps."""

import numpy as np
import pytest

from abflux import DomainError, FluxState, SampleConfig, sample_hits
from abflux.inference import LikelihoodSurface
from abflux.io import (
    HITS_HEADER,
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
from abflux.pattern import DensityGrid
from abflux.sampling import HitSet


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
    write_pattern_csv(path, grid, flux)
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
