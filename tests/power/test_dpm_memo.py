"""Memoized DPM lookups vs the reference schedule walks — bit-exact.

``PracticalDPM`` answers ``process_idle`` / ``idle_energy`` /
``mode_after_idle`` from precomputed segment tables, and the simulated
disk's fast path folds gaps straight into the energy ledger via
``account_idle``. Every one of those shortcuts must agree with the
incremental walk (or with ``process_idle`` + ``add_idle``) to the bit:
the tests sweep durations across every segment boundary of the
schedule, including the exact boundary values where bisect ties are
decided.
"""

import pytest

from repro.power.accounting import EnergyAccount
from repro.power.adaptive import AdaptiveThresholdDPM
from repro.power.dpm import IdleOutcome, PracticalDPM


def _probe_durations(dpm: PracticalDPM) -> list[float]:
    """Durations hitting every residency segment, every shift interval,
    and every exact boundary of the schedule."""
    bounds = dpm._table.bounds
    durations = [0.0, 1e-9, 0.5]
    for b in bounds:
        durations += [b - 1e-6, b, b + 1e-6]
    for lo, hi in zip(bounds, bounds[1:]):
        durations.append((lo + hi) / 2.0)
    durations.append(bounds[-1] * 10.0 if bounds else 1e6)
    return [d for d in durations if d >= 0.0]


def _assert_outcomes_equal(a: IdleOutcome, b: IdleOutcome, context: str):
    assert a.energy_j == b.energy_j, context
    assert a.mode_residency_s == b.mode_residency_s, context
    assert a.transition_time_s == b.transition_time_s, context
    assert a.transition_energy_j == b.transition_energy_j, context
    assert a.spindowns == b.spindowns, context
    assert a.spinups == b.spinups, context
    assert a.wake_delay_s == b.wake_delay_s, context
    assert a.wake_energy_j == b.wake_energy_j, context


class TestSegmentTableLockstep:
    @pytest.mark.parametrize("wake", [True, False])
    def test_process_idle_matches_walk(self, practical, wake):
        for d in _probe_durations(practical):
            _assert_outcomes_equal(
                practical.process_idle(d, wake=wake),
                practical._walk_process_idle(d, wake=wake),
                f"duration={d!r} wake={wake}",
            )

    def test_idle_energy_matches_walk(self, practical):
        for d in _probe_durations(practical):
            assert practical.idle_energy(d) == practical._walk_idle_energy(
                d
            ), f"duration={d!r}"

    def test_mode_after_idle_matches_walk(self, practical):
        for d in _probe_durations(practical):
            assert practical.mode_after_idle(
                d
            ) == practical._walk_mode_after_idle(d), f"duration={d!r}"

    @pytest.mark.parametrize("wake", [True, False])
    def test_process_idle_from_matches_walk(self, practical, model, wake):
        for start_mode in range(len(model)):
            for d in _probe_durations(practical):
                _assert_outcomes_equal(
                    practical.process_idle_from(start_mode, d, wake=wake),
                    practical._walk_process_idle_from(start_mode, d, wake=wake),
                    f"start={start_mode} duration={d!r} wake={wake}",
                )

    def test_split_penalty_matches_walk(self, practical):
        _assert_split_penalty_matches_walk(practical)

    def test_split_penalty_matches_walk_after_rescale(self, model):
        adaptive = AdaptiveThresholdDPM(model)
        adaptive._rescale(adaptive.grow)
        assert adaptive.adaptations == 1
        _assert_split_penalty_matches_walk(adaptive)


def _assert_split_penalty_matches_walk(dpm: PracticalDPM) -> None:
    """OPG's fused penalty against three reference walks, over every
    pair of probe durations: segment interiors, exact bounds, +-1e-6
    around them and past ``bounds[-1]`` (each of the table's lanes)."""
    walk = dpm._walk_idle_energy
    durations = _probe_durations(dpm)
    for lead in durations:
        for follow in durations:
            expected = max(
                0.0, walk(lead) + walk(follow) - walk(lead + follow)
            )
            assert dpm._table.split_penalty(lead, follow) == expected, (
                f"lead={lead!r} follow={follow!r}"
            )


class TestAccountIdle:
    """``account_idle`` folds a gap straight into the ledger; it must be
    indistinguishable from ``add_idle(process_idle(...))``."""

    @pytest.mark.parametrize("wake", [True, False])
    def test_matches_add_idle(self, practical, wake):
        for d in _probe_durations(practical):
            via_outcome = EnergyAccount()
            outcome = practical.process_idle(d, wake=wake)
            via_outcome.add_idle(outcome)

            direct = EnergyAccount()
            wake_delay = practical.account_idle(d, wake, direct)

            assert wake_delay == outcome.wake_delay_s, f"duration={d!r}"
            assert direct.to_dict() == via_outcome.to_dict(), f"duration={d!r}"

    def test_accumulates_across_gaps(self, practical):
        durations = _probe_durations(practical)
        via_outcome = EnergyAccount()
        direct = EnergyAccount()
        for d in durations:
            via_outcome.add_idle(practical.process_idle(d))
            practical.account_idle(d, True, direct)
        assert direct.to_dict() == via_outcome.to_dict()

    def test_always_on_base_implementation(self, always_on):
        via_outcome = EnergyAccount()
        via_outcome.add_idle(always_on.process_idle(12.5))
        direct = EnergyAccount()
        assert always_on.account_idle(12.5, True, direct) == 0.0
        assert direct.to_dict() == via_outcome.to_dict()


class TestQuickIdle:
    """The disk's inline shortcut for sub-threshold gaps relies on the
    ``quick_idle_limit`` / ``quick_idle_power_w`` contract."""

    def test_practical_limit_is_first_threshold(self, practical):
        assert practical.quick_idle_limit == practical.thresholds[0][0]
        assert practical.quick_idle_power_w == practical.model[0].power_w

    def test_always_on_never_leaves_mode0(self, always_on):
        assert always_on.quick_idle_limit == float("inf")
        assert always_on.quick_idle_power_w == always_on.model[0].power_w

    def test_gap_at_limit_is_pure_mode0(self, practical):
        """At (and below) the limit the full reconstruction is a single
        mode-0 residency with no transitions — exactly what the disk's
        inline accounting assumes."""
        for d in (1e-6, practical.quick_idle_limit / 2,
                  practical.quick_idle_limit):
            outcome = practical.process_idle(d, wake=True)
            assert outcome.mode_residency_s == {0: d}
            assert outcome.energy_j == d * practical.quick_idle_power_w
            assert outcome.transition_time_s == 0.0
            assert outcome.transition_energy_j == 0.0
            assert outcome.wake_delay_s == 0.0
            assert outcome.wake_energy_j == 0.0
            assert outcome.spindowns == 0 and outcome.spinups == 0

    def test_inline_accounting_matches_add_idle(self, practical):
        """Replays the disk's inline fold and compares to the full path."""
        gaps = [1e-6, practical.quick_idle_limit * 0.5,
                practical.quick_idle_limit]
        full = EnergyAccount()
        inline = EnergyAccount()
        for d in gaps:
            full.add_idle(practical.process_idle(d, wake=True))
            mode_time = inline.mode_time_s
            mode_time[0] = mode_time.get(0, 0.0) + d
            mode_energy = inline.mode_energy_j
            mode_energy[0] = (
                mode_energy.get(0, 0.0) + d * practical.quick_idle_power_w
            )
        assert inline.to_dict() == full.to_dict()

    def test_refresh_tables_updates_quick_attrs(self, model):
        dpm = AdaptiveThresholdDPM(model)
        before = dpm.quick_idle_limit
        dpm._rescale(dpm.grow)
        assert dpm.scale > 1.0
        assert dpm.quick_idle_limit == dpm.thresholds[0][0]
        assert dpm.quick_idle_limit > before


class TestAdaptiveAccountIdle:
    """Adaptive DPM must keep adapting when driven via account_idle."""

    def test_adaptation_still_fires(self, model):
        driven = AdaptiveThresholdDPM(model)
        reference = AdaptiveThresholdDPM(model)
        # a too-eager gap: just past the first threshold, far short of
        # the break-even — both routes must grow the thresholds
        gap = driven.thresholds[0][0] + 1e-3
        account = EnergyAccount()
        driven.account_idle(gap, True, account)
        reference.process_idle(gap)
        assert driven.adaptations == reference.adaptations == 1
        assert driven.scale == reference.scale
        assert driven.thresholds == reference.thresholds

    def test_ledger_matches_process_idle_route(self, model):
        driven = AdaptiveThresholdDPM(model)
        reference = AdaptiveThresholdDPM(model)
        gaps = [0.1, driven.thresholds[0][0] + 1e-3, 500.0, 0.2, 1e4]
        direct = EnergyAccount()
        via_outcome = EnergyAccount()
        for gap in gaps:
            driven.account_idle(gap, True, direct)
            via_outcome.add_idle(reference.process_idle(gap))
        assert direct.to_dict() == via_outcome.to_dict()
        assert driven.scale == reference.scale
