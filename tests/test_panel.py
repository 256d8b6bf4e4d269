"""Panel construction, CSV parsing and rescaling."""

import logging

import numpy as np
import pytest

from tventropy import (
    DegenerateDimension,
    EmptyInput,
    Panel,
    ParseError,
    ScalingMap,
    load_csv,
    rescale,
)


class TestLoadCsv:
    def test_basic(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        panel = load_csv(path)
        assert panel.T == 3 and panel.n == 2
        np.testing.assert_allclose(panel.values, [[1, 2], [3, 4], [5, 6]])

    def test_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        panel = load_csv(path, header=True)
        assert panel.labels == ("a", "b")
        assert panel.T == 2

    def test_parse_error_reports_coordinates(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,abc\n5.0,6.0\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.row == 2 and err.value.col == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(EmptyInput):
            load_csv(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ParseError):
            load_csv(path)

    @pytest.mark.parametrize("text", ["1.0,2.0\n,\n3.0,4.0\n", "1.0\n   \n3.0\n"],
                             ids=["empty-cells", "blank"])
    def test_row_without_values_rejected(self, tmp_path, text):
        # skipping it would move every later observation up one time step
        path = tmp_path / "gap.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.row == 2 and err.value.col == 1

    def test_empty_line_skipped(self, tmp_path):
        path = tmp_path / "spaced.csv"
        path.write_text("1.0,2.0\n\n3.0,4.0\n")
        panel = load_csv(path)
        np.testing.assert_array_equal(panel.values, [[1, 2], [3, 4]])

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "semi.csv"
        path.write_text("1;2\n3;4\n")
        panel = load_csv(path, delimiter=";")
        assert panel.n == 2

    @pytest.mark.parametrize("delimiter", [";;", "", "\\t"])
    def test_delimiter_not_one_character_rejected(self, tmp_path, delimiter):
        # checked before the file is opened, so a missing file does not mask it
        with pytest.raises(ValueError, match="delimiter must be one character"):
            load_csv(tmp_path / "missing.csv", delimiter=delimiter)


class TestPanelInvariants:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Panel(values=np.array([[1.0], [np.nan]]))

    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            Panel(values=np.array([[1.0, 2.0]]))

    def test_series_is_one_column(self):
        series = Panel(values=np.array([1.0, 2.0, 3.0]))
        column = Panel(values=np.array([[1.0], [2.0], [3.0]]))
        np.testing.assert_array_equal(series.values, column.values)
        assert series.labels == column.labels == ("x1",)

    def test_default_labels(self):
        panel = Panel(values=np.zeros((3, 2)) + [[1], [2], [3]])
        assert panel.labels == ("x1", "x2")

    def test_values_immutable(self):
        panel = Panel(values=np.array([[1.0], [2.0]]))
        with pytest.raises(ValueError):
            panel.values[0, 0] = 9.0


class TestRescale:
    def test_symmetric_three_points(self):
        panel = Panel(values=np.array([[-2.0], [0.0], [2.0]]))
        scaled, scaling = rescale(panel)
        np.testing.assert_allclose(scaled.values[:, 0], [-1, 0, 1])
        assert scaling.a[0] == pytest.approx(0.5)
        assert scaling.b[0] == pytest.approx(0.0)

    def test_unit_interval(self):
        panel = Panel(values=np.array([[0.0], [1.0]]))
        scaled, scaling = rescale(panel)
        np.testing.assert_allclose(scaled.values[:, 0], [-1, 1])
        assert scaling.a[0] == pytest.approx(2.0)
        assert scaling.b[0] == pytest.approx(-1.0)

    def test_identity_when_already_full_range(self):
        panel = Panel(values=np.array([[-1.0], [0.25], [1.0]]))
        scaled, scaling = rescale(panel)
        assert scaling.a[0] == pytest.approx(1.0)
        assert scaling.b[0] == pytest.approx(0.0)
        np.testing.assert_allclose(scaled.values, panel.values)

    def test_degenerate_dimension(self):
        panel = Panel(values=np.array([[3.0], [3.0], [3.0]]))
        with pytest.raises(DegenerateDimension):
            rescale(panel)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(200, 3)) * [0.1, 5.0, 100.0] + [0, 2, -40]
        panel = Panel(values=values)
        scaled, scaling = rescale(panel)
        back = scaling.invert(scaled.values)
        np.testing.assert_allclose(back, values, rtol=1e-12, atol=1e-12)

    def test_out_of_sample_clipping_logged(self, caplog):
        panel = Panel(values=np.array([[0.0], [1.0]]))
        _, scaling = rescale(panel)
        with caplog.at_level(logging.WARNING):
            clipped = scaling.apply(np.array([2.0]), clip=True)
        assert clipped[0] == 1.0
        assert any("clipped" in rec.message for rec in caplog.records)


class TestScalingMap:
    def test_rejects_nonpositive_slope(self):
        with pytest.raises(ValueError):
            ScalingMap(a=np.array([0.0]), b=np.array([0.0]))

    def test_apply_invert_consistency(self):
        scaling = ScalingMap(a=np.array([2.0, 0.5]), b=np.array([-1.0, 0.25]))
        x = np.array([[0.3, -4.0], [0.9, 8.0]])
        np.testing.assert_allclose(scaling.invert(scaling.apply(x)), x, rtol=1e-14)
