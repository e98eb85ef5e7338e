"""The columnar CSV writer against the per-row loops it replaced, kept here as references."""

import numpy as np
import pytest

from xccy import TimeGrid, simulate
from xccy import csvio
from xccy.csvio import write_rows
from xccy.simulation import dump_paths_csv
from xccy.wealth import WealthPath

EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e15, 9999999999999998.0, 1.7976931348623157e308, 0.1, 1 / 3,
               -2.5e-300, 123456789.125, np.inf, -np.inf, np.nan]


def _reference_paths_csv(scenario, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("path_id,time,driver_label,value\n")
        times = [float(t) for t in scenario.grid.times]
        for label in scenario.model.driver_labels:
            series = scenario.fx_paths[label[3:]] if label.startswith("fx:") else scenario.asset_paths[label]
            for p in range(scenario.n_paths):
                for j, t in enumerate(times):
                    fh.write(f"{p},{t!r},{label},{float(series[p, j])!r}\n")


def _reference_wealth_csv(wp, grid, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("path_id,time,v,v_portfolio,v_adjustment,v_net\n")
        for p in range(wp.v.shape[0]):
            for j, t in enumerate(grid.times):
                fh.write(
                    f"{p},{float(t)!r},{float(wp.v[p, j])!r},{float(wp.v_portfolio[p, j])!r},"
                    f"{float(wp.v_adjustment[p, j])!r},{float(wp.v_net[p, j])!r}\n"
                )


def _reference_surface_csv(surface, times, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("path_id,time,value\n")
        for p in range(surface.shape[0]):
            for j, t in enumerate(times):
                fh.write(f"{p},{float(t)!r},{float(surface[p, j])!r}\n")


def _values(shape, seed):
    """Random doubles over the whole exponent range, with every edge value included."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    x.flat[: len(EDGE_VALUES)] = EDGE_VALUES
    return x


@pytest.fixture(params=[csvio.ROWS_PER_WRITE, 13], ids=["one-block", "ragged-blocks"])
def rows_per_write(request, monkeypatch):
    monkeypatch.setattr(csvio, "ROWS_PER_WRITE", request.param)


def test_paths_csv_matches_reference_loop(two_currency_model, tmp_path, rows_per_write):
    scen = simulate(two_currency_model, TimeGrid.regular(1.0, 5, include=[1 / 3]), 37, seed=4)
    dump_paths_csv(scen, tmp_path / "new.csv")
    _reference_paths_csv(scen, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_wealth_csv_matches_reference_loop(tmp_path, rows_per_write):
    grid = TimeGrid.regular(2.0, 6, include=[0.1])
    wp = WealthPath(*(_values((23, len(grid.times)), seed) for seed in range(4)))
    wp.to_csv(grid, tmp_path / "new.csv")
    _reference_wealth_csv(wp, grid, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_surface_csv_matches_reference_loop(tmp_path, rows_per_write):
    times = TimeGrid.regular(1.0, 9).times
    surface = _values((41, len(times)), 7)
    with open(tmp_path / "new.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("path_id,time,value\n")
        write_rows(fh, np.arange(surface.shape[0])[:, None], times, surface)
    _reference_surface_csv(surface, times, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
