"""Tests for the ASCII charts of experiment results."""


class TestAsciiChart:
    def make_result(self):
        from repro.experiments.common import ExperimentResult

        result = ExperimentResult(name="demo", columns=("x", "y1", "y2"))
        for x in range(5):
            result.add_row(x=x, y1=x * 2, y2=10 - x)
        return result

    def test_chart_contains_series_markers(self):
        chart = self.make_result().chart(x_column="x")
        assert "o y1" in chart
        assert "x y2" in chart
        assert "demo" in chart

    def test_axis_labels(self):
        chart = self.make_result().chart(x_column="x")
        assert "0" in chart
        assert "10" in chart

    def test_subset_of_series(self):
        chart = self.make_result().chart(x_column="x", y_columns=["y1"])
        assert "y1" in chart and "y2" not in chart

    def test_empty_result(self):
        from repro.experiments.common import ExperimentResult

        result = ExperimentResult(name="empty", columns=("x", "y"))
        assert "(no data)" in result.chart(x_column="x")

    def test_non_numeric_series_skipped(self):
        from repro.experiments.common import ExperimentResult

        result = ExperimentResult(name="mixed", columns=("x", "label", "y"))
        result.add_row(x=1, label="a", y=5)
        result.add_row(x=2, label="b", y=6)
        chart = result.chart(x_column="x")
        assert "label" not in chart.split("\n")[-1]

    def test_flat_series_handled(self):
        from repro.experiments.common import ExperimentResult

        result = ExperimentResult(name="flat", columns=("x", "y"))
        result.add_row(x=1, y=3)
        result.add_row(x=2, y=3)
        assert "flat" in result.chart(x_column="x")
