"""ASCII report rendering."""

from repro.experiments.figures import FigureResult
from repro.experiments.report import ascii_chart, format_figure, format_table
from repro.metrics.stats import MeanCI


class TestFormatTable:
    def test_headers_and_rows_rendered(self):
        text = format_table(["a", "b"], [["1", "2"], ["3", "4"]])
        lines = text.splitlines()
        assert "a" in lines[0] and "b" in lines[0]
        assert lines[1].startswith("-")
        assert "1" in lines[2] and "4" in lines[3]

    def test_columns_aligned(self):
        text = format_table(["col"], [["short"], ["a-much-longer-cell"]])
        lines = text.splitlines()
        # All data lines padded to the same width.
        assert len(lines[2]) <= len(lines[3])

    def test_empty_rows(self):
        text = format_table(["x"], [])
        assert "x" in text


class TestFormatFigure:
    def make_result(self, halfwidth=0.5):
        return FigureResult(
            name="Figure 99",
            title="A test figure",
            xlabel="buffer (MB)",
            ylabel="utilization (%)",
            x=[0.5, 1.0],
            series={
                "scheme A": [MeanCI(90.0, halfwidth, 5), MeanCI(95.0, halfwidth, 5)],
            },
        )

    def test_caption_and_axes(self):
        text = format_figure(self.make_result())
        assert "Figure 99" in text
        assert "A test figure" in text
        assert "utilization (%)" in text
        assert "buffer (MB)" in text

    def test_ci_rendered_when_nonzero(self):
        assert "±" in format_figure(self.make_result(halfwidth=0.5))

    def test_ci_omitted_when_zero(self):
        assert "±" not in format_figure(self.make_result(halfwidth=0.0))

    def test_one_row_per_x(self):
        text = format_figure(self.make_result())
        data_lines = text.splitlines()[4:]
        assert len(data_lines) == 2

    def test_chart_appended_on_request(self):
        plain = format_figure(self.make_result())
        with_chart = format_figure(self.make_result(), chart=True)
        assert len(with_chart) > len(plain)
        assert "o=scheme A" in with_chart


class TestAsciiChart:
    def make_result(self, series=None):
        if series is None:
            series = {
                "up": [MeanCI(10.0, 0.0, 1), MeanCI(20.0, 0.0, 1),
                       MeanCI(30.0, 0.0, 1)],
                "down": [MeanCI(30.0, 0.0, 1), MeanCI(20.0, 0.0, 1),
                         MeanCI(10.0, 0.0, 1)],
            }
        return FigureResult(
            name="Figure X", title="chart", xlabel="buffer", ylabel="y",
            x=[1.0, 2.0, 3.0], series=series,
        )

    def test_axis_labels_show_extremes(self):
        chart = ascii_chart(self.make_result())
        assert "30" in chart
        assert "10" in chart

    def test_each_series_gets_a_symbol(self):
        chart = ascii_chart(self.make_result())
        assert "o=up" in chart and "x=down" in chart
        assert chart.count("o") >= 3

    def test_monotone_series_renders_monotone_rows(self):
        chart = ascii_chart(self.make_result(series={
            "up": [MeanCI(0.0, 0.0, 1), MeanCI(50.0, 0.0, 1),
                   MeanCI(100.0, 0.0, 1)],
        }))
        lines = chart.splitlines()[:12]
        rows = {}
        for row_index, line in enumerate(lines):
            for col, char in enumerate(line):
                if char == "o":
                    rows[col] = row_index
        columns = sorted(rows)
        heights = [rows[c] for c in columns]
        assert heights == sorted(heights, reverse=True)

    def test_flat_series_does_not_crash(self):
        chart = ascii_chart(self.make_result(series={
            "flat": [MeanCI(5.0, 0.0, 1)] * 3,
        }))
        assert "flat" in chart

    def test_empty_series(self):
        result = FigureResult("F", "t", "x", "y", x=[], series={})
        assert ascii_chart(result) == "(no data)"
