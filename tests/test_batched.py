"""Property suite: the stacked-solve sweep prefetch vs the per-point sweep.

The prefetch (:mod:`repro.perf.batched`) only seeds the sweep cache; every
value, NaN, warning, contract check and diagnostic still comes from the
per-point loop.  So a prefetched sweep must be *observably identical* to
an unprefetched one: values agree to 1e-10 relative, the NaN pattern
(stability truncation) is bit-identical, trust records are bitwise equal,
every cache namespace — in memory and in the persistent store — ends up
with exactly the same keys, and under ``SweepRunner(workers=0)`` every
point keeps its status and warnings.
"""

import warnings

import numpy as np
import pytest

import repro.contracts
import repro.experiments.figures as figures_mod
import repro.markov.qbd as qbd_mod
import repro.perf.batched as batched_mod
import repro.robustness.guards as guards_mod
from repro.core import CsCqAnalysis, CsIdAnalysis
from repro.experiments import figure4_panels
from repro.experiments.figures import (
    _POLICY_LABELS,
    _policy_point_values,
    _sweep_policy_values,
)
from repro.markov import QbdProcess
from repro.orchestration import SweepRunner
from repro.perf import sweep_cache
from repro.perf.store import PERSISTED_NAMESPACES, ResultStore
from repro.robustness import NearBoundaryWarning, ValidationError
from repro.telemetry import registry
from repro.workloads import COXIAN_LONG_CASES, EXPONENTIAL_CASES

#: Cache namespaces whose key sets must match between the two paths.
_PARITY_NAMESPACES = sorted(PERSISTED_NAMESPACES - {"service-answer"})

#: rho_s grid reaching past the Dedicated (1.0) boundary so the sweep has
#: a nontrivial NaN pattern, but below the CS-CQ boundary 2 - rho_l.
_RHO_S_GRID = (0.2, 0.6, 0.9, 1.2)

#: Diagnostics fields that legitimately differ: a seeded solution is a
#: cache hit, and wall time is never reproducible.
_VOLATILE_DIAG_FIELDS = ("cache_hit", "wall_time")


def _grids():
    """(id, case, load_pairs, job_class) rows mirroring figures 4-6."""
    rows = []
    for case in EXPONENTIAL_CASES:
        for job_class in ("short", "long"):
            pairs = [(rho_s, 0.5) for rho_s in _RHO_S_GRID]
            rows.append((f"fig4-{case.name}-{job_class}", case, pairs, job_class))
    coxian_b = COXIAN_LONG_CASES[1]
    for job_class in ("short", "long"):
        pairs = [(rho_s, 0.5) for rho_s in (0.3, 0.8, 1.1)]
        rows.append((f"fig5-b-{job_class}", coxian_b, pairs, job_class))
    # Figure-6 style: fixed rho_s = 1.5, sweep rho_l toward the CS-CQ
    # asymptote at 2 - rho_s = 0.5.
    pairs = [(1.5, rho_l) for rho_l in (0.1, 0.3, 0.45)]
    rows.append(("fig6-a-short", COXIAN_LONG_CASES[0], pairs, "short"))
    # Near-boundary points: rho_s at 90% and 99% of the CS-CQ stability
    # boundary, where conditioning gates and fallbacks are exercised.
    near = [
        (fraction * (2.0 - rho_l), rho_l)
        for rho_l in (0.3, 0.8)
        for fraction in (0.9, 0.99)
    ]
    rows.append(("near-boundary-short", EXPONENTIAL_CASES[1], near, "short"))
    return rows


def _prefetch_off(patch):
    """Turn the prefetch off, leaving the plain per-point loop."""
    patch.setattr(batched_mod, "prefetch_sweep_solutions", lambda *args: None)


def _points(case, load_pairs, job_class):
    """``_sweep_policy_values``' in-process body, keeping diagnostics."""
    batched_mod.prefetch_sweep_solutions(case, load_pairs, job_class)
    return [
        _policy_point_values(
            case.params(rho_s, rho_l), job_class, with_diagnostics=True
        )
        for rho_s, rho_l in load_pairs
    ]


def _namespace_keys(cache):
    """Per-namespace key sets of a sweep cache's in-memory entries."""
    keys = {}
    for namespace, key in cache._entries:
        keys.setdefault(namespace, set()).add(key)
    return keys


def _store_entries(store):
    """Per-namespace entry filename (digest) sets of a persistent store."""
    entries = {}
    for path in store.root.glob("*/??/*.entry"):
        entries.setdefault(path.parent.parent.name, set()).add(path.name)
    return entries


def _run_both(case, load_pairs, job_class, monkeypatch, reference_store=None,
              prefetched_store=None):
    """One grid with and without the prefetch: ``(ref, pre)`` pairs of
    ``(values, diagnostics, namespace keys)``."""
    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for store, prefetch in ((reference_store, False), (prefetched_store, True)):
            with monkeypatch.context() as patch:
                if not prefetch:
                    _prefetch_off(patch)
                with sweep_cache(store=store) as cache:
                    points = _points(case, load_pairs, job_class)
                    keys = _namespace_keys(cache)
            values = {
                label: np.array([v[label] for v, _ in points])
                for label in _POLICY_LABELS
            }
            results.append((values, [d for _, d in points], keys))
    return results


GRIDS = _grids()


@pytest.mark.parametrize(
    "case, load_pairs, job_class",
    [row[1:] for row in GRIDS],
    ids=[row[0] for row in GRIDS],
)
class TestBatchedScalarParity:
    def test_values_and_nan_pattern(self, case, load_pairs, job_class, monkeypatch):
        (ref, _, _), (pre, _, _) = _run_both(case, load_pairs, job_class, monkeypatch)
        for label in _POLICY_LABELS:
            s, b = ref[label], pre[label]
            # Stability truncation must be bit-identical, not just close.
            assert np.array_equal(np.isnan(s), np.isnan(b)), label
            finite = ~np.isnan(s)
            if finite.any():
                rel = np.abs(b[finite] - s[finite]) / np.maximum(
                    np.abs(s[finite]), 1e-300
                )
                assert rel.max() <= 1e-10, (label, rel.max())

    def test_cache_key_sets_match(self, case, load_pairs, job_class, monkeypatch):
        (_, _, ref_keys), (_, _, pre_keys) = _run_both(
            case, load_pairs, job_class, monkeypatch
        )
        for namespace in _PARITY_NAMESPACES:
            assert ref_keys.get(namespace, set()) == pre_keys.get(
                namespace, set()
            ), namespace

    def test_diagnostics_match(self, case, load_pairs, job_class, monkeypatch):
        (_, ref_diags, _), (_, pre_diags, _) = _run_both(
            case, load_pairs, job_class, monkeypatch
        )
        for ref_point, pre_point in zip(ref_diags, pre_diags):
            assert (ref_point or {}).keys() == (pre_point or {}).keys()
            for label, ref in (ref_point or {}).items():
                pre = pre_point[label]
                assert ref["trust"] == pre["trust"], label
                assert ref["error_bound"] == pre["error_bound"], label  # bitwise
                for name in _VOLATILE_DIAG_FIELDS:
                    ref.pop(name, None)
                    pre.pop(name, None)
                assert ref == pre, label


class TestStoreDigestParity:
    def test_entry_digests_match_across_paths(self, tmp_path, monkeypatch):
        # The store digests every key independently of the cache object,
        # so identical per-namespace entry filenames prove the two paths
        # persist under identical keys (payload hashes are wall-time
        # volatile and deliberately not compared).
        case = EXPONENTIAL_CASES[1]
        pairs = [(rho_s, 0.5) for rho_s in _RHO_S_GRID]
        reference_store = ResultStore(tmp_path / "reference")
        prefetched_store = ResultStore(tmp_path / "prefetched")
        _run_both(
            case,
            pairs,
            "short",
            monkeypatch,
            reference_store=reference_store,
            prefetched_store=prefetched_store,
        )
        reference_entries = _store_entries(reference_store)
        prefetched_entries = _store_entries(prefetched_store)
        assert reference_entries.keys() == prefetched_entries.keys()
        for namespace, entries in reference_entries.items():
            assert entries == prefetched_entries[namespace], namespace
        # One memo per solution: the dropped block-keyed namespaces stay empty.
        assert "analysis-solution" in reference_entries
        assert "qbd-solution" not in reference_entries
        assert "r-matrix" not in reference_entries


def _qbd_solves() -> float:
    return registry().counter("qbd.solves")


class TestFigurePool:
    def test_pooled_rows_equal_row_by_row(self):
        # One figure scope: the long row's CS-CQ chains come from the short
        # row's prefetch.  Each row in its own scope prefetches them anew.
        case = EXPONENTIAL_CASES[0]
        rows = [
            (case, [(rho_s, 0.5) for rho_s in _RHO_S_GRID], jc)
            for jc in ("short", "long")
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with sweep_cache():
                pooled = [_sweep_policy_values(*row) for row in rows]
            row_by_row = []
            for row in rows:
                with sweep_cache():
                    row_by_row.append(_sweep_policy_values(*row))
        for pooled_row, single_row in zip(pooled, row_by_row):
            for label in _POLICY_LABELS:
                np.testing.assert_array_equal(pooled_row[label], single_row[label])

    def test_pool_deduplicates_repeated_points(self):
        case = EXPONENTIAL_CASES[0]
        pairs = [(0.6, 0.5), (0.9, 0.5), (0.6, 0.5)]  # index 2 repeats 0
        before = _qbd_solves()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with sweep_cache():
                batched_mod.prefetch_sweep_solutions(case, pairs, "short")
                seeded = _qbd_solves() - before
                values = [
                    _policy_point_values(case.params(*pair), "short")[0]
                    for pair in pairs
                ]
        # Two distinct loads, CS-ID and CS-CQ each: four stacked solves,
        # and the per-point loop then solves nothing.
        assert seeded == 4
        assert _qbd_solves() - before == 4
        assert values[2] == values[0]

    def test_second_sweep_is_all_cache_hits(self):
        case = EXPONENTIAL_CASES[0]
        pairs = [(0.4, 0.5), (0.8, 0.5)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with sweep_cache() as cache:
                first = _sweep_policy_values(case, pairs, "short")
                misses_after_first = dict(cache.misses)
                solves_after_first = _qbd_solves()
                second = _sweep_policy_values(case, pairs, "short")
        for label in _POLICY_LABELS:
            np.testing.assert_array_equal(first[label], second[label])
        # The second sweep added no analysis-solution misses and no solves.
        assert cache.misses["analysis-solution"] == misses_after_first.get(
            "analysis-solution", 0
        )
        assert _qbd_solves() == solves_after_first


class TestSeededChainsSkipAssembly:
    @pytest.mark.parametrize("job_class", ["short", "long"])
    def test_figure4_row_builds_and_solves_nothing_per_point(
        self, job_class, monkeypatch
    ):
        # The prefetch seeds the analysis-level memo, so every per-point
        # lookup hits memory: no chain is assembled or solved twice.
        case = EXPONENTIAL_CASES[0]
        pairs = [(rho_s, 0.5) for rho_s in _RHO_S_GRID]
        calls = []

        def counting(name, real):
            def wrapper(self, *args, **kwargs):
                calls.append(name)
                return real(self, *args, **kwargs)

            return wrapper

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with sweep_cache() as cache:
                batched_mod.prefetch_sweep_solutions(case, pairs, job_class)
                with monkeypatch.context() as patch:
                    for cls in (CsCqAnalysis, CsIdAnalysis):
                        patch.setattr(
                            cls, "_build_qbd", counting("build", cls._build_qbd)
                        )
                    patch.setattr(
                        QbdProcess, "solve", counting("solve", QbdProcess.solve)
                    )
                    for rho_s, rho_l in pairs:
                        _policy_point_values(case.params(rho_s, rho_l), job_class)
        assert cache.misses["analysis-solution"] == 0
        assert cache.hits["analysis-solution"] > 0
        assert calls == []


class TestWarmStorePrefetch:
    def test_warm_store_rerun_solves_nothing(self, tmp_path):
        # A fresh scope on a store a cold sweep filled: the prefetch must
        # see the stored analysis solutions, not re-solve every row.
        case = COXIAN_LONG_CASES[0]
        pairs = [(1.5, rho_l) for rho_l in (0.1, 0.3, 0.45)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with sweep_cache(store=ResultStore(tmp_path / "store")):
                cold = _sweep_policy_values(case, pairs, "short")
            store = ResultStore(tmp_path / "store")
            before = _qbd_solves()
            with sweep_cache(store=store) as warm_cache:
                warm = _sweep_policy_values(case, pairs, "short")
        assert _qbd_solves() == before
        assert store.session_stats()["misses"] == 0
        assert store.session_stats()["hits"] > 0
        assert store.session_stats()["writes"] == 0
        # The prefetch's store probe counts nothing: one cache event per
        # stored solution, like a worker run's per-point lookups.
        ns = "analysis-solution"
        assert warm_cache.misses[ns] == 0
        assert warm_cache.hits[ns] == store.session_stats()["by_namespace"][ns]["hits"]
        for label in _POLICY_LABELS:
            np.testing.assert_array_equal(warm[label], cold[label])


def _force_negatives(patch):
    def negative(vec, name, **context):
        raise ValidationError(f"{name} has materially negative entries")

    patch.setattr(qbd_mod, "ensure_no_material_negatives", negative)


def _force_unstable_tail(patch):
    real = qbd_mod._gate_tail

    def unstable(solved, spectral_radius=None, normalization=True):
        return real(solved, np.ones(len(solved.r)), normalization)

    patch.setattr(qbd_mod, "_gate_tail", unstable)


def _force_warn_band(patch):
    patch.setattr(guards_mod, "CONDITION_WARN", 0.0)


def _force_lost_mass(patch):
    patch.setattr(qbd_mod, "_total_mass", lambda *args: 2.0)


def _force_suspect(patch):
    patch.setattr(qbd_mod, "trust_verdicts", lambda bounds: ["suspect"] * len(bounds))


def _break_stack(patch):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("singular stack")

    patch.setattr(batched_mod, "solve_r_matrix_batched", broken)


class TestRejectedStacks:
    """Points the stack does not accept fall through to the per-point
    ladder, which produces the same values."""

    case = EXPONENTIAL_CASES[1]
    pairs = [(rho_s, 0.5) for rho_s in _RHO_S_GRID]

    def _point_values(self):
        return [
            repr(_policy_point_values(self.case.params(*pair), "short")[0])
            for pair in self.pairs
        ]

    def _assert_unseeded_and_unchanged(self, monkeypatch, force):
        # The rejection is forced only while the prefetch runs: no slice
        # is seeded, the prefetch warns nothing, and the (unforced)
        # per-point path then gives the reference values.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with sweep_cache():
                reference = self._point_values()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with sweep_cache() as cache:
                with monkeypatch.context() as patch:
                    force(patch)
                    batched_mod.prefetch_sweep_solutions(self.case, self.pairs, "short")
                assert caught == []
                assert not cache.values("analysis-solution")
                values = self._point_values()
        assert values == reference

    @pytest.mark.parametrize(
        "force",
        [
            _force_negatives,
            _force_unstable_tail,
            _force_warn_band,
            _force_lost_mass,
            _force_suspect,
        ],
        ids=["negatives", "sp-r", "cond-warn-band", "mass", "not-trusted"],
    )
    def test_gate_rejection_leaves_points_unseeded(self, force, monkeypatch):
        self._assert_unseeded_and_unchanged(monkeypatch, force)

    def test_lapack_error_leaves_stack_unseeded(self, monkeypatch):
        self._assert_unseeded_and_unchanged(monkeypatch, _break_stack)

    def test_warn_band_point_warns_once(self):
        # cond(I - R) ~ 4e8 on this CS-CQ chain: inside the warn band, so
        # the prefetch leaves it to the per-point solve, which warns once.
        case = COXIAN_LONG_CASES[0]
        pair = ((1 - 1e-8) * 1.9, 0.1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with sweep_cache():
                batched_mod.prefetch_sweep_solutions(case, [pair], "short")
                assert caught == []
                _policy_point_values(case.params(*pair), "short")
        near = [w for w in caught if issubclass(w.category, NearBoundaryWarning)]
        assert [str(w.message)[:30] for w in near] == ["I - R is ill-conditioned (cond"]


#: Figure-4 quick grid, plus a load at 99% of the CS-CQ boundary.
_FIG4_GRID = [0.3, 0.6, 0.9, 1.2, 0.99 * 1.5]


class _RecordingRunner(SweepRunner):
    """Inline runner that keeps every point outcome it produced."""

    def __init__(self):
        super().__init__(workers=0)
        self.outcomes = []

    def run(self, points):
        outcomes = super().run(points)
        self.outcomes.extend(outcomes)
        return outcomes


def _record_point_warnings(monkeypatch) -> dict:
    """Log every point's warnings (keyed by load and job class), then
    re-emit them so the runner still classifies the point."""
    real = figures_mod._policy_point_values
    log = {}

    def recording(params, job_class, with_diagnostics=False):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = real(params, job_class, with_diagnostics)
        log[(params.rho_s, params.rho_l, job_class)] = [
            (w.category.__name__, str(w.message)) for w in caught
        ]
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return result

    monkeypatch.setattr(figures_mod, "_policy_point_values", recording)
    return log


class TestInlineRunnerParity:
    def test_point_status_and_warnings_match(self, monkeypatch):
        runs = []
        for prefetch in (False, True):
            with monkeypatch.context() as patch:
                if not prefetch:
                    _prefetch_off(patch)
                log = _record_point_warnings(patch)
                runner = _RecordingRunner()
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    figure4_panels(rho_s_values=_FIG4_GRID, runner=runner)
            # repr: NaN-safe, and exact, since float reprs round-trip.
            outcomes = [
                (o.point.label, o.status, repr(o.value)) for o in runner.outcomes
            ]
            runs.append((outcomes, log))
        (ref_outcomes, ref_log), (pre_outcomes, pre_log) = runs
        assert len(ref_outcomes) == 6 * len(_FIG4_GRID)
        assert pre_outcomes == ref_outcomes
        assert pre_log == ref_log


class TestContractsOnEveryPoint:
    """Every in-process sweep point is contract-checked, prefetched or not."""

    @staticmethod
    def _analysis_evaluations(monkeypatch, runner_factory, prefetch: bool) -> int:
        real = repro.contracts.evaluate
        count = 0

        def counting(kind, *args, **kwargs):
            nonlocal count
            if kind == "analysis":
                count += 1
            return real(kind, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.delenv("REPRO_NO_CONTRACTS", raising=False)
            patch.setattr(repro.contracts, "evaluate", counting)
            if not prefetch:
                _prefetch_off(patch)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                figure4_panels(rho_s_values=_FIG4_GRID, runner=runner_factory())
        return count

    @pytest.mark.parametrize(
        "runner_factory",
        [lambda: None, lambda: SweepRunner(workers=0)],
        ids=["no-runner", "workers-0"],
    )
    def test_analysis_contract_count_matches_per_point_loop(
        self, monkeypatch, runner_factory
    ):
        reference = self._analysis_evaluations(monkeypatch, runner_factory, False)
        prefetched = self._analysis_evaluations(monkeypatch, runner_factory, True)
        assert reference > 0
        assert prefetched == reference
