"""Property-based tests: metrics-layer invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles.pareto import front_violations
from repro.metrics.energy import ed2p, edp
from repro.metrics.pareto import pareto_front_mask, pareto_points
from repro.metrics.targets import EnergyTarget, TargetKind
from repro.metrics.tradeoff import energy_saving_index, performance_loss_index

# Positive, well-conditioned measurement arrays.
_values = st.floats(min_value=0.01, max_value=1000.0, allow_nan=False)


def _sweeps(min_size=2, max_size=40):
    return st.integers(min_value=min_size, max_value=max_size).flatmap(
        lambda n: st.tuples(
            arrays(float, n, elements=_values),
            arrays(float, n, elements=_values),
            st.integers(min_value=0, max_value=n - 1),
        )
    )


class TestParetoProperties:
    @given(_sweeps())
    @settings(max_examples=60)
    def test_front_is_nonempty(self, sweep):
        speedup, energy, _ = sweep
        assert pareto_front_mask(speedup, energy).any()

    @given(_sweeps())
    @settings(max_examples=60)
    def test_front_points_mutually_nondominating(self, sweep):
        speedup, energy, _ = sweep
        idx, s, e = pareto_points(speedup, energy)
        for i in range(len(idx)):
            for j in range(len(idx)):
                if i == j:
                    continue
                strictly_dominates = (
                    s[j] >= s[i] and e[j] <= e[i] and (s[j] > s[i] or e[j] < e[i])
                )
                assert not strictly_dominates

    @given(_sweeps())
    @settings(max_examples=60)
    def test_every_off_front_point_is_dominated_by_the_front(self, sweep):
        speedup, energy, _ = sweep
        mask = pareto_front_mask(speedup, energy)
        _, uncovered_off = front_violations(speedup, energy, mask)
        assert uncovered_off == 0

    @given(_sweeps())
    @settings(max_examples=60)
    def test_best_speedup_point_always_on_front(self, sweep):
        speedup, energy, _ = sweep
        mask = pareto_front_mask(speedup, energy)
        best = np.flatnonzero(speedup == speedup.max())
        # Among max-speedup points, the cheapest is Pareto-optimal.
        cheapest = best[np.argmin(energy[best])]
        assert mask[cheapest]

    @given(_sweeps())
    @settings(max_examples=60)
    def test_adding_dominated_point_preserves_front(self, sweep):
        speedup, energy, _ = sweep
        idx, s, e = pareto_points(speedup, energy)
        # Append a clearly dominated point.
        speedup2 = np.append(speedup, speedup.min() / 2)
        energy2 = np.append(energy, energy.max() * 2)
        idx2, s2, e2 = pareto_points(speedup2, energy2)
        assert set(map(tuple, zip(s2, e2))) == set(map(tuple, zip(s, e)))


class TestTradeoffProperties:
    @given(_sweeps(min_size=3))
    @settings(max_examples=60)
    def test_es_meets_threshold(self, sweep):
        times, energies, d = sweep
        freqs = np.arange(len(times), dtype=float) + 1
        for p in (0.0, 25.0, 50.0, 75.0, 100.0):
            i = energy_saving_index(freqs, times, energies, d, p)
            threshold = energies[d] - (p / 100.0) * (energies[d] - energies.min())
            assert energies[i] <= threshold + 1e-9

    @given(_sweeps(min_size=3))
    @settings(max_examples=60)
    def test_es_100_is_global_min_energy(self, sweep):
        times, energies, d = sweep
        freqs = np.arange(len(times), dtype=float) + 1
        i = energy_saving_index(freqs, times, energies, d, 100.0)
        assert energies[i] == energies.min()

    @given(_sweeps(min_size=3))
    @settings(max_examples=60)
    def test_pl_within_budget(self, sweep):
        times, energies, d = sweep
        freqs = np.arange(len(times), dtype=float) + 1
        perf = 1.0 / times
        e_min_idx = int(np.argmin(energies))
        for p in (0.0, 50.0, 100.0):
            i = performance_loss_index(freqs, times, energies, d, p)
            budget = perf[d] - (p / 100.0) * max(perf[d] - perf[e_min_idx], 0.0)
            assert perf[i] >= budget - 1e-9

    @given(_sweeps(min_size=3))
    @settings(max_examples=60)
    def test_es_monotone_in_percent(self, sweep):
        times, energies, d = sweep
        freqs = np.arange(len(times), dtype=float) + 1
        previous = np.inf
        for p in (0.0, 20.0, 40.0, 60.0, 80.0, 100.0):
            i = energy_saving_index(freqs, times, energies, d, p)
            assert energies[i] <= previous + 1e-9
            previous = energies[i]


class TestTargetProperties:
    @given(_sweeps(min_size=2))
    @settings(max_examples=60)
    def test_resolve_returns_valid_index(self, sweep):
        times, energies, d = sweep
        freqs = np.arange(len(times), dtype=float) + 1
        for target in (
            EnergyTarget(TargetKind.MAX_PERF),
            EnergyTarget(TargetKind.MIN_ENERGY),
            EnergyTarget(TargetKind.MIN_EDP),
            EnergyTarget(TargetKind.MIN_ED2P),
            EnergyTarget(TargetKind.ES, 30.0),
            EnergyTarget(TargetKind.PL, 30.0),
        ):
            idx = target.resolve_index(freqs, times, energies, d)
            assert 0 <= idx < len(freqs)

    @given(_sweeps(min_size=2))
    @settings(max_examples=60)
    def test_resolution_scale_invariant(self, sweep):
        """Per-kernel scaling must not change any chosen configuration.

        This is the invariant that justifies predicting normalized shapes
        in the model bundle.
        """
        times, energies, d = sweep
        freqs = np.arange(len(times), dtype=float) + 1
        for target in (
            EnergyTarget(TargetKind.MIN_EDP),
            EnergyTarget(TargetKind.ES, 40.0),
            EnergyTarget(TargetKind.PL, 40.0),
        ):
            base = target.resolve_index(freqs, times, energies, d)
            scaled = target.resolve_index(freqs, times * 37.5, energies * 0.013, d)
            assert base == scaled

    @given(arrays(float, 7, elements=_values), arrays(float, 7, elements=_values))
    @settings(max_examples=60)
    def test_edp_ed2p_relation(self, energy, time):
        assert np.allclose(ed2p(energy, time), edp(energy, time) * time)
