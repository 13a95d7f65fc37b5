"""Extension benchmark: sensitivity to the exponential-shorts assumption.

The paper's chain assumes exponential short service "for simplicity" and
calls the phase-type generalization straightforward; ``CsCqAnalysis``
implements it (exponential shorts are its one-phase case), and this study
quantifies both (a) how far the published
exponential-shorts model drifts when the real shorts are not exponential,
and (b) that the generalized chain tracks simulation across short-size
variabilities.
"""

from repro.core import CsCqAnalysis, SystemParameters
from repro.experiments import format_table
from repro.simulation import simulate

from _util import save_result


def _run():
    rows = []
    for scv in (0.5, 1.0, 2.0, 4.0):
        params = SystemParameters.from_loads(rho_s=1.0, rho_l=0.5, short_scv=scv)
        exp_model = CsCqAnalysis(
            SystemParameters.from_loads(rho_s=1.0, rho_l=0.5)
        ).mean_response_time_short()
        ph_model = CsCqAnalysis(params).mean_response_time_short()
        sim = simulate(
            "cs-cq", params, seed=62, warmup_jobs=60_000, measured_jobs=900_000
        ).mean_response_short
        rows.append([f"{scv:g}", exp_model, ph_model, sim])
    return rows


def bench_ph_shorts(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    for scv_label, exp_model, ph_model, sim in rows:
        ph_err = abs(ph_model / sim - 1)
        exp_err = abs(exp_model / sim - 1)
        # The generalized chain tracks simulation; its error grows mildly
        # with short-size variability (the entry-averaged B_{N+1} interval
        # is a new approximation on top of the paper's two) but stays in
        # the single digits where the fixed exponential-shorts model is
        # off by tens of percent.
        assert ph_err < 0.07
        if scv_label != "1":  # away from exponential, PH must win
            assert ph_err < exp_err
    save_result(
        "ph_shorts_sensitivity",
        format_table(
            [
                "short scv",
                "exp-shorts model T_S",
                "PH-shorts model T_S",
                "simulated T_S",
            ],
            rows,
        )
        + "\n(rho_s=1.0, rho_l=0.5; exponential-shorts model held fixed by design)",
    )
