"""Named deterministic witnesses of the physics invariant suites.

Each test pins one concrete case, so a regression names the bug it
brings back: the two §2.3 power-cap conservation bugs, the plugin's
clamped audit record, and the sanity of the ``single-gpu`` golden
recording. The Hypothesis properties that generalise the power-cap cases
live in ``test_powercap_properties.py``; the sanity checks run over
every golden scenario in ``test_obs_golden.py``.
"""

import pytest

from repro.slurm.powercap import redistribute_caps
from test_obs_golden import _assert_recording_is_sane
from test_powercap_properties import ALL_UNDER, CEILING_CLIP, _run_capped_job

pytestmark = pytest.mark.validate


class TestPowercapBugRegressions:
    """Deterministic witnesses for the two §2.3 conservation bugs."""

    def test_no_receiver_means_identity(self):
        caps = ALL_UNDER[0]
        assert redistribute_caps(*ALL_UNDER) == caps

    def test_ceiling_clip_remainder_returned_to_donors(self):
        caps, _, floor, ceiling, _ = CEILING_CLIP
        new = redistribute_caps(*CEILING_CLIP)
        assert sum(new) == pytest.approx(sum(caps), rel=1e-12)
        assert all(floor - 1e-9 <= c <= ceiling + 1e-9 for c in new)
        assert new[2] == pytest.approx(ceiling)

    def test_audit_roundtrip_checker(self):
        # 10 kW clamps to the boards' factory limit; 320 W stays inside
        # their valid range.
        for budget_w in (10_000.0, 320.0):
            plugin, job, node, limits_mw = _run_capped_job(budget_w)
            recorded = plugin.applied[(job.job_id, node.name)]
            for mw in limits_mw:
                assert recorded == pytest.approx(mw / 1000.0, abs=5e-4)
            assert all(
                g.power_limit_w == g.default_power_limit_w for g in node.gpus
            )


class TestTraceInvariants:
    def test_golden_scenario_traces_are_clean(self):
        from repro.obs.scenarios import run_scenario

        session = run_scenario("single-gpu", seed=7)
        assert session.tracer.open_spans() == []
        _assert_recording_is_sane(session)
