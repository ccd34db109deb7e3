"""Property tests for the §2.3 power-cap plane.

Hypothesis searches the cap/usage/threshold space for violations of the
redistribution contract: exact budget conservation (one step and along
the whole orbit of repeated steps), caps staying inside ``[floor,
ceiling]``, identity when nobody can receive, and idempotence whenever
the iteration actually reaches a fixpoint. The two hand-picked witnesses
of the §2.3 conservation bugs run as explicit examples, and eight fixed
cases must settle into a fixpoint or a cycle. A second group drives the
:class:`PowerCapPlugin` prologue/epilogue round-trip against the
NVML-visible limits across random budgets, plus the clamp regime.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from repro.common.errors import ValidationError
from repro.common.rng import make_rng
from repro.hw.specs import NVIDIA_V100
from repro.slurm.powercap import PowerCapPlugin, redistribute_caps

pytestmark = pytest.mark.validate


@st.composite
def cap_cases(draw):
    floor = draw(st.floats(1.0, 200.0))
    span = draw(st.floats(0.0, 500.0))
    ceiling = floor + span
    n = draw(st.integers(1, 8))
    caps = [floor + draw(st.floats(0.0, 1.0)) * span for _ in range(n)]
    usage = [draw(st.floats(0.0, 1.2)) * c for c in caps]
    threshold = draw(st.floats(0.0, 0.9))
    return caps, usage, floor, ceiling, threshold


#: Everyone under threshold: the old rule pooled the donations and dropped
#: them (no hungry node to receive), shrinking the budget.
ALL_UNDER = ([250.0, 250.0, 250.0], [60.0, 70.0, 80.0], 80.0, 300.0, 0.05)
#: Two big donors and one hungry node near the 210 W ceiling: the old rule
#: clipped the grant at the ceiling and discarded the remainder.
CEILING_CLIP = ([200.0, 200.0, 200.0], [10.0, 20.0, 199.0], 50.0, 210.0, 0.05)

#: Steps within which every fixed case reaches a fixpoint or a cycle.
SETTLE_STEPS = 8


def _seeded_cases():
    rng = make_rng(7)
    cases = []
    for _ in range(6):
        n = int(rng.integers(2, 9))
        floor = float(rng.uniform(40.0, 120.0))
        ceiling = floor + float(rng.uniform(50.0, 400.0))
        caps = [float(rng.uniform(floor, ceiling)) for _ in range(n)]
        usage = [float(rng.uniform(0.0, c * 1.1)) for c in caps]
        cases.append((caps, usage, floor, ceiling, 0.05))
    return cases


FIXED_CASES = [ALL_UNDER, CEILING_CLIP, *_seeded_cases()]
FIXED_IDS = ["all-under", "ceiling-clip"] + [
    f"seeded{i}" for i in range(len(FIXED_CASES) - 2)
]


def _tol(caps) -> float:
    return 1e-6 * max(1.0, sum(caps))


def _orbit(case, steps: int) -> list[list[float]]:
    """``caps`` followed by ``steps`` successive redistributions of it."""
    caps, usage, floor, ceiling, threshold = case
    states = [[float(c) for c in caps]]
    for _ in range(steps):
        states.append(
            redistribute_caps(states[-1], usage, floor, ceiling, threshold)
        )
    return states


class TestRedistributeProperties:
    @given(cap_cases())
    @example(ALL_UNDER)
    @example(CEILING_CLIP)
    @settings(max_examples=300, deadline=None)
    def test_budget_conserved_and_never_grows(self, case):
        caps, usage, floor, ceiling, threshold = case
        new = redistribute_caps(caps, usage, floor, ceiling, threshold)
        assert sum(new) <= sum(caps) + _tol(caps)
        # With the donation-return fix the step conserves exactly (no
        # ceiling-clip loss, no dropped pool): a strictly stronger claim.
        assert math.isclose(sum(new), sum(caps), rel_tol=1e-9, abs_tol=_tol(caps))

    @given(cap_cases())
    @example(ALL_UNDER)
    @example(CEILING_CLIP)
    @settings(max_examples=300, deadline=None)
    def test_caps_stay_in_bounds(self, case):
        caps, usage, floor, ceiling, threshold = case
        new = redistribute_caps(caps, usage, floor, ceiling, threshold)
        tol = _tol(caps)
        assert all(floor - tol <= c <= ceiling + tol for c in new)

    @given(cap_cases())
    @example(ALL_UNDER)
    @settings(max_examples=300, deadline=None)
    def test_identity_when_no_receiver(self, case):
        caps, usage, floor, ceiling, threshold = case
        hungry = [u >= (1.0 - threshold) * c for c, u in zip(caps, usage)]
        if any(hungry):
            usage = [0.0 for _ in caps]  # force the all-under regime
        new = redistribute_caps(caps, usage, floor, ceiling, threshold)
        assert new == caps

    @given(cap_cases())
    @example(ALL_UNDER)
    @example(CEILING_CLIP)
    @settings(max_examples=200, deadline=None)
    def test_idempotent_at_fixpoint(self, case):
        caps, usage, floor, ceiling, threshold = case
        state = [float(c) for c in caps]
        for _ in range(8):
            nxt = redistribute_caps(state, usage, floor, ceiling, threshold)
            if nxt == state:
                # A reached fixpoint must absorb further applications.
                again = redistribute_caps(state, usage, floor, ceiling, threshold)
                assert again == state
                return
            state = nxt
        # The rule may legitimately cycle between equal-budget states;
        # conservation along the orbit is asserted below.

    @given(cap_cases())
    @example(ALL_UNDER)
    @example(CEILING_CLIP)
    @settings(max_examples=200, deadline=None)
    def test_budget_conserved_along_orbit(self, case):
        caps = case[0]
        for state in _orbit(case, SETTLE_STEPS + 1)[1:]:
            assert math.isclose(
                sum(state), sum(caps), rel_tol=1e-9, abs_tol=_tol(caps)
            )

    @pytest.mark.parametrize("case", FIXED_CASES, ids=FIXED_IDS)
    def test_fixed_cases_settle(self, case):
        # After the first step, the orbit must reach a fixpoint or revisit
        # a state (the rule may ping-pong between equal-budget splits).
        orbit = [tuple(s) for s in _orbit(case, SETTLE_STEPS + 1)[1:]]
        settled = any(
            orbit[i] in orbit[:i] for i in range(1, len(orbit))
        )
        assert settled, f"no fixpoint or cycle within {SETTLE_STEPS} steps"

    def test_validation_rejects_bad_shapes(self):
        with pytest.raises(ValidationError):
            redistribute_caps([100.0], [50.0, 60.0], 50.0, 200.0)
        with pytest.raises(ValidationError):
            redistribute_caps([100.0], [50.0], 0.0, 200.0)
        with pytest.raises(ValidationError):
            redistribute_caps([100.0], [50.0], 50.0, 200.0, threshold=1.0)
        with pytest.raises(ValidationError):
            redistribute_caps([500.0], [50.0], 50.0, 200.0)  # cap > ceiling


def _run_capped_job(budget_w: float):
    from repro.slurm.cluster import Cluster
    from repro.slurm.job import JobSpec, JobState
    from repro.slurm.scheduler import Scheduler

    cluster = Cluster.build(NVIDIA_V100, n_nodes=1, gpus_per_node=2)
    node = cluster.nodes[0]
    plugin = PowerCapPlugin(node_budget_w=budget_w)
    scheduler = Scheduler(cluster, plugins=[plugin])
    seen: dict[str, list[int]] = {}

    def payload(context) -> None:
        node.nvml.nvmlInit()
        seen["limits_mw"] = [
            node.nvml.nvmlDeviceGetPowerManagementLimit(
                node.nvml.nvmlDeviceGetHandleByIndex(i)
            )
            for i in range(len(node.gpus))
        ]

    job = scheduler.submit(JobSpec(name="cap-prop", n_nodes=1, payload=payload))
    assert job.state is JobState.COMPLETED
    return plugin, job, node, seen["limits_mw"]


class TestPluginRoundTripProperties:
    @given(st.floats(10.0, 5_000.0))
    @example(10_000.0)  # 5 kW per board: the clamp regime
    @settings(max_examples=20, deadline=None)
    def test_audit_matches_nvml_visible_limit(self, budget_w):
        plugin, job, node, limits_mw = _run_capped_job(budget_w)
        recorded = plugin.applied[(job.job_id, node.name)]
        visible_w = [mw / 1000.0 for mw in limits_mw]
        # The recorded limit is what the boards actually carried, clamped
        # into each board's valid range — never the raw per-GPU split.
        # NVML quantizes to integer milliwatts, hence the 0.5 mW slack.
        for w, gpu in zip(visible_w, node.gpus):
            assert recorded == pytest.approx(w, abs=5e-4)
            assert gpu.spec.idle_power_w - 1e-9 <= w
            assert w <= gpu.default_power_limit_w + 1e-9
        # Epilogue hygiene: factory limits restored after the job.
        assert all(
            g.power_limit_w == g.default_power_limit_w for g in node.gpus
        )


class TestPowercapBugRegressions:
    """Deterministic witnesses for the plugin's audit and input checks."""

    def test_plugin_records_clamped_limit(self):
        from repro.slurm.cluster import Cluster
        from repro.slurm.job import JobSpec
        from repro.slurm.scheduler import Scheduler

        cluster = Cluster.build(NVIDIA_V100, n_nodes=1, gpus_per_node=2)
        node = cluster.nodes[0]
        plugin = PowerCapPlugin(node_budget_w=10_000.0)  # 5 kW per board
        scheduler = Scheduler(cluster, plugins=[plugin])
        job = scheduler.submit(JobSpec(name="clamp", n_nodes=1, payload=lambda c: None))
        recorded = plugin.applied[(job.job_id, node.name)]
        # The boards clamp 5 kW to their factory limit; the audit trail
        # must record what was actually enforced, not the raw split.
        assert recorded == pytest.approx(node.gpus[0].default_power_limit_w)

    def test_plugin_rejects_gpuless_node(self):
        from repro.slurm.cluster import Cluster
        from repro.slurm.job import Job, JobSpec

        cluster = Cluster.build(NVIDIA_V100, n_nodes=1, gpus_per_node=1)
        node = cluster.nodes[0]
        node.gpus.clear()
        plugin = PowerCapPlugin(node_budget_w=300.0)
        job = Job(job_id=1, spec=JobSpec(name="empty", n_nodes=1, payload=lambda c: None))
        with pytest.raises(ValidationError, match="no GPUs"):
            plugin.prologue(job, node)
