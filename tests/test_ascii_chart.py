"""Tests for the ASCII chart renderer."""

import numpy as np

from repro.experiments import Panel, Series, format_panel
from repro.experiments.base import render_ascii_chart


def make_panel() -> Panel:
    x = np.linspace(0, 1, 11)
    return Panel(
        title="t",
        xlabel="load",
        ylabel="resp",
        series=(
            Series("flat", x, np.ones(11)),
            Series("rising", x, 1 + 3 * x),
            Series("diverging", x, np.where(x < 0.8, 1 / (1 - np.minimum(x, 0.79)), np.nan)),
        ),
    )


class TestRenderAsciiChart:
    def test_contains_markers_and_legend(self):
        chart = render_ascii_chart(make_panel())
        assert "D=flat" in chart and "A=rising" in chart
        assert "load" in chart
        lines = chart.splitlines()
        assert len(lines) > 15

    def test_nan_points_skipped(self):
        chart = render_ascii_chart(make_panel())
        assert chart  # no exception despite NaNs

    def test_all_nan_series(self):
        x = np.array([0.0, 1.0])
        panel = Panel("t", "x", "y", (Series("dead", x, np.array([np.nan, np.nan])),))
        assert "no finite points" in render_ascii_chart(panel)

    def test_cap_quantile_limits_axis(self):
        panel = make_panel()
        capped = render_ascii_chart(panel, y_cap_quantile=0.5)
        full = render_ascii_chart(panel, y_cap_quantile=1.0)
        top_capped = float(capped.splitlines()[0].split("|")[0])
        top_full = float(full.splitlines()[0].split("|")[0])
        assert top_capped < top_full

    def test_format_panel_chart_flag(self):
        panel = make_panel()
        with_chart = format_panel(panel, chart=True)
        without = format_panel(panel)
        assert "D=flat" in with_chart
        assert "D=flat" not in without
        assert without in with_chart.replace(with_chart.split(without)[-1], "")
