"""Benchmark regenerating Figure 4: response times vs rho_s, exponential
sizes, rho_l = 0.5, cases (a) 1/1, (b) 1/10, (c) 10/1.

Reproduction targets (paper Section 5): shorts gain order(s) of magnitude
over Dedicated at high rho_s; as rho_s -> 1 shorts see ~4 (CS-ID) and ~3
(CS-CQ); long penalty at rho_s = 1 is ~25% (CS-ID) and ~10% (CS-CQ) in
case (a), dropping to ~2.5%/1% in case (b) and growing (but staying
dominated by the shorts' benefit) in case (c).
"""

import numpy as np

from repro.experiments import figure4_panels, format_panel
from repro.perf import sweep_cache

from _util import save_result


def bench_figure4(benchmark):
    panels = benchmark.pedantic(figure4_panels, rounds=1, iterations=1)
    assert len(panels) == 6

    shorts_a, longs_a = panels[0], panels[1]
    xs = shorts_a.series[0].x
    at = lambda arr, x: float(arr[np.argmin(np.abs(xs - x))])  # noqa: E731

    cs_cq_short = shorts_a.by_label("CS-Central-Q").y
    cs_id_short = shorts_a.by_label("CS-Immed-Disp").y
    assert abs(at(cs_cq_short, 1.0) - 3.0) < 0.7  # "3 under CS-CQ"
    assert abs(at(cs_id_short, 1.0) - 4.0) < 0.5  # "4 under CS-ID"

    cs_cq_long = longs_a.by_label("CS-Central-Q").y
    cs_id_long = longs_a.by_label("CS-Immed-Disp").y
    assert abs(at(cs_id_long, 1.0) / 2.0 - 1.25) < 0.01  # 25% penalty
    assert abs(at(cs_cq_long, 1.0) / 2.0 - 1.10) < 0.04  # ~10% penalty

    save_result(
        "figure4_exponential", "\n\n".join(format_panel(p, chart=True) for p in panels)
    )


def bench_figure4_higher_rho_l(benchmark):
    """The paper's follow-up: "Other experiments, at higher values of
    rho_l, show behavior largely similar ... except that both the benefits
    to short jobs and the penalty to long jobs are reduced ... Nevertheless,
    the performance improvement ... is still orders of magnitude for high
    rho_s."  Checked at rho_l = 0.8."""
    # One sweep-cache scope spanning all four sweeps below: the nested
    # per-figure scopes join it, so the repeated rho_l = 0.5 comparison
    # sweep is served from the cache instead of re-solved.
    with sweep_cache():
        panels = benchmark.pedantic(
            lambda: figure4_panels(rho_l=0.8, rho_s_values=[0.4, 0.8, 0.99, 1.1]),
            rounds=1,
            iterations=1,
        )
        shorts_a, longs_a = panels[0], panels[1]
        xs = shorts_a.series[0].x
        at = lambda arr, x: float(arr[np.argmin(np.abs(xs - x))])  # noqa: E731

        cs_cq = shorts_a.by_label("CS-Central-Q").y
        dedicated = shorts_a.by_label("Dedicated").y
        # Still an order of magnitude approaching the Dedicated asymptote ...
        assert at(dedicated, 0.99) / at(cs_cq, 0.99) > 10.0
        # ... but a smaller benefit than at rho_l = 0.5 at moderate load.
        panels_half = figure4_panels(rho_l=0.5, rho_s_values=[0.8])
        benefit_half = panels_half[0].by_label("Dedicated").y[0] - panels_half[
            0
        ].by_label("CS-Central-Q").y[0]
        benefit_high = at(dedicated, 0.8) - at(cs_cq, 0.8)
        assert benefit_high < benefit_half
        # Long penalty also shrinks (fewer idle cycles stolen).
        longs_half = figure4_panels(rho_l=0.5, rho_s_values=[0.8])[1]
        penalty_half = (
            longs_half.by_label("CS-Central-Q").y[0]
            / longs_half.by_label("Dedicated").y[0]
        )
        penalty_high = at(longs_a.by_label("CS-Central-Q").y, 0.8) / at(
            longs_a.by_label("Dedicated").y, 0.8
        )
        assert penalty_high < penalty_half

    save_result(
        "figure4_rho_l_08", "\n\n".join(format_panel(p, chart=True) for p in panels[:2])
    )
