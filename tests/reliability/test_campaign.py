"""Campaign runner: buckets, determinism, TMR, crash/hang plumbing."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.classify import HDCClassifier, HDCEncoder

from repro.errors import HangError, ReproError, WorkloadError
from repro.reliability import (
    BitFlip,
    CampaignConfig,
    WorkloadSpec,
    hdc_workload,
    knn_workload,
    majority_vote,
    qec_workload,
    run_campaign,
    run_with_faults,
)
from repro.soc import HaltError, RocketSoC, assemble
from repro.soc.programs import OUT_BASE, pack_hdc_tables

OUTCOMES = ("masked", "sdc", "crash", "hang")


@pytest.fixture(scope="module")
def knn_spec():
    rng = np.random.default_rng(7)
    nq = 5
    centers = rng.normal(0.0, 0.8, (nq, 2, 2))
    measurements = rng.normal(0.0, 0.8, (10 * nq, 2))
    return knn_workload(centers, measurements, nq)


@pytest.fixture(scope="module")
def campaign(knn_spec):
    return run_campaign(knn_spec, CampaignConfig(n_injections=60, seed=11))


class TestCampaign:
    def test_every_injection_lands_in_one_bucket(self, campaign):
        counts = campaign.counts()
        assert sum(counts.values()) == 60
        assert set(counts) == set(OUTCOMES)

    def test_golden_output_matches_python_reference(self, knn_spec,
                                                    campaign):
        cpu = RocketSoC().prepare(knn_spec)
        cpu.run()
        labels = knn_spec.read_output(cpu)
        assert np.array_equal(labels, campaign.golden_output)

    def test_seeded_rerun_is_bit_for_bit_identical(self, knn_spec,
                                                   campaign):
        rerun = run_campaign(knn_spec,
                             CampaignConfig(n_injections=60, seed=11))
        assert rerun.bucket_signature() == campaign.bucket_signature()
        assert rerun.golden_cycles == campaign.golden_cycles

    def test_different_seed_changes_the_plan(self, knn_spec, campaign):
        other = run_campaign(knn_spec,
                             CampaignConfig(n_injections=60, seed=12))
        faults = [sig[:5] for sig in campaign.bucket_signature()]
        other_faults = [sig[:5] for sig in other.bucket_signature()]
        assert faults != other_faults

    def test_campaign_finds_sdc_and_reports_avf(self, campaign):
        assert campaign.rate("sdc") > 0
        assert 0 < campaign.avf() < 1
        for s in campaign.structures():
            assert 0.0 <= campaign.avf(s) <= 1.0

    def test_tmr_shrinks_sdc_rate(self, knn_spec, campaign):
        tmr = run_campaign(
            knn_spec, CampaignConfig(n_injections=60, seed=11, tmr=True)
        )
        assert tmr.rate("sdc") < campaign.rate("sdc")

    def test_summary_mentions_every_structure(self, campaign):
        text = campaign.summary()
        for s in campaign.structures():
            assert s in text
        assert "AVF" in text


class TestMajorityVote:
    def test_outvotes_single_corruption(self):
        good = np.array([0, 1, 1, 0])
        bad = np.array([1, 1, 0, 0])
        assert np.array_equal(majority_vote([bad, good, good]), good)

    def test_rejects_even_replica_counts(self):
        with pytest.raises(ValueError):
            majority_vote([np.zeros(2), np.zeros(2)])


def _looping_spec(iterations: int = 100_000_000) -> WorkloadSpec:
    """A hand-built image that busy-loops ~forever (counts down from a
    huge value), for exercising the crash/hang buckets."""
    source = (
        f"_start:\n li t0, {iterations}\n"
        "loop:\n addi t0, t0, -1\n bne t0, zero, loop\n ecall\n"
    )
    return WorkloadSpec("loop", assemble(source), output=(OUT_BASE, 1, "u1"))


class TestCrashAndHang:
    def test_halt_error_propagates_from_iss(self):
        cpu = RocketSoC().prepare(_looping_spec())
        with pytest.raises(HaltError):
            cpu.run(max_instructions=1000)

    def test_halt_error_is_a_workload_error(self):
        assert issubclass(HaltError, WorkloadError)
        assert issubclass(HaltError, ReproError)
        assert issubclass(HaltError, RuntimeError)  # legacy handlers

    def test_cycle_watchdog_raises_hang_error(self):
        cpu = RocketSoC().prepare(_looping_spec())
        with pytest.raises(HangError):
            cpu.run(max_cycles=500)

    def test_run_with_faults_honors_watchdog(self):
        cpu = RocketSoC().prepare(_looping_spec())
        with pytest.raises(HangError):
            run_with_faults(cpu, [], max_cycles=500)

    def test_faults_fire_at_scheduled_cycles(self):
        cpu = RocketSoC().prepare(_looping_spec(iterations=50))
        # Flip a high bit of the countdown register mid-run: the loop
        # either runs vastly longer (hang) or exits early; either way
        # the fault must have been applied.
        fault = BitFlip("regfile", cycle=40, index=5, bit=40)
        try:
            _, fired = run_with_faults(cpu, [fault], max_cycles=2000)
        except HangError:
            return  # applied and hung: also a pass
        assert fired == [(fault, True)]

    def test_post_halt_faults_report_unapplied(self):
        cpu = RocketSoC().prepare(_looping_spec(iterations=5))
        fault = BitFlip("regfile", cycle=10**9, index=5, bit=0)
        _, fired = run_with_faults(cpu, [fault])
        assert fired == [(fault, False)]


class TestQECWorkload:
    def test_golden_decode_matches_python_majority(self):
        rng = np.random.default_rng(3)
        distance = 3
        bits = rng.integers(0, 2, 30).astype(np.uint8)
        spec = qec_workload(bits, distance)
        cpu = RocketSoC().prepare(spec)
        cpu.run()
        got = spec.read_output(cpu)
        want = (bits.reshape(-1, distance).sum(axis=1) > distance // 2)
        assert np.array_equal(got, want.astype(int))

    def test_small_campaign_is_deterministic(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, 30).astype(np.uint8)
        spec = qec_workload(bits, 3)
        cfg = CampaignConfig(n_injections=20, seed=5)
        a = run_campaign(spec, cfg)
        b = run_campaign(spec, cfg)
        assert a.bucket_signature() == b.bucket_signature()


def _pinned_specs() -> dict[str, WorkloadSpec]:
    rng = np.random.default_rng(2023)
    nq = 5
    centers = rng.normal(0.0, 0.8, (nq, 2, 2))
    meas = rng.normal(0.0, 0.8, (4 * nq, 2))
    encoder = HDCEncoder.random(seed=5)
    clf = HDCClassifier.from_centers(centers, encoder=encoder)
    tables = pack_hdc_tables(encoder.y_items, xc0=clf.xc_tables[:, 0],
                             xc1=clf.xc_tables[:, 1])
    bits = rng.integers(0, 2, 7 * 3).astype(np.uint8)
    return {"knn": knn_workload(centers, meas, nq),
            "hdc": hdc_workload(tables, meas, nq),
            "qec": qec_workload(bits, 3)}


#: sha256 of repr((golden_cycles, golden_output, records)) of a
#: 120-injection, seed-2023 campaign on each image; how an image is built,
#: shipped or loaded must not move a single record.
_RECORD_PINS = {
    ("knn", False):
        "f7f7aee7fb4fc200b2898d059661d696acc650d8234b6f1ebf1390bbfc544411",
    ("knn", True):
        "75b3c18130f7788196c87ff460b309015152e8714267070dcc6bb471ad9ac777",
    ("hdc", False):
        "aed4e1b32880b4afe995d0415b08017c87170e2514fc4be4b61681ffc3dccd52",
    ("hdc", True):
        "7acb5a8e837f00cf0f482426afcec085ecd7ef3cb977174c1beee789f2c00821",
    ("qec", False):
        "99b3fb8f55d625230d9b37491d97bae070d8fae9eca008bd6cc38f46b143fc7e",
    ("qec", True):
        "f46162819753a59de4a753d2e970b4fea1bfe2eebbe6a6d4405ffc6fcdcfeaa5",
}


@pytest.mark.parametrize("name,tmr", sorted(_RECORD_PINS))
def test_campaign_records_match_pin(name, tmr):
    spec = _pinned_specs()[name]
    result = run_campaign(
        spec, CampaignConfig(n_injections=120, seed=2023, tmr=tmr),
        jobs=1)
    blob = repr((result.golden_cycles, result.golden_output.tolist(),
                 result.records))
    assert hashlib.sha256(blob.encode()).hexdigest() == _RECORD_PINS[
        (name, tmr)]
