"""Content-address keys: stable, canonical, and collision-averse."""

from __future__ import annotations

import dataclasses
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.instrument import MeasurementConfig
from repro.parallel import (
    SCHEMA_VERSION,
    application_key,
    archive_key,
    canonical_json,
    cell_key,
    digest,
    measurement_key,
)
from repro.simmachine import ibm_sp_argonne, linear_test_machine


def _mkey(**overrides):
    defaults = dict(
        machine=ibm_sp_argonne(),
        measurement=MeasurementConfig(),
        benchmark="BT",
        problem_class="S",
        nprocs=4,
        kernels=("solve_x", "solve_y"),
    )
    defaults.update(overrides)
    return measurement_key(
        defaults["machine"],
        defaults["measurement"],
        defaults["benchmark"],
        defaults["problem_class"],
        defaults["nprocs"],
        defaults["kernels"],
    )


class TestDigest:
    def test_equal_keys_share_a_digest(self):
        assert digest(_mkey()) == digest(_mkey())

    def test_digest_is_hex_sha256(self):
        d = digest(_mkey())
        assert len(d) == 64
        int(d, 16)

    def test_every_field_is_load_bearing(self):
        base = digest(_mkey())
        assert digest(_mkey(machine=linear_test_machine())) != base
        assert digest(_mkey(measurement=MeasurementConfig(seed=9))) != base
        assert digest(_mkey(benchmark="SP")) != base
        assert digest(_mkey(problem_class="W")) != base
        assert digest(_mkey(nprocs=9)) != base
        assert digest(_mkey(kernels=("solve_x",))) != base

    def test_kernel_order_matters(self):
        forward = _mkey(kernels=("solve_x", "solve_y"))
        backward = _mkey(kernels=("solve_y", "solve_x"))
        assert digest(forward) != digest(backward)

    def test_kinds_do_not_collide(self):
        machine = ibm_sp_argonne()
        app = application_key(machine, "BT", "S", 4, seed=7)
        cell = cell_key(
            machine, MeasurementConfig(), "BT", "S", 4, (2,), application_seed=7
        )
        assert digest(app) != digest(cell) != digest(_mkey())

    def test_schema_version_embedded(self):
        assert _mkey()["schema"] == SCHEMA_VERSION

    def test_cell_chain_lengths_normalized(self):
        machine = ibm_sp_argonne()
        a = cell_key(machine, MeasurementConfig(), "BT", "S", 4, (3, 2, 2), 7)
        b = cell_key(machine, MeasurementConfig(), "BT", "S", 4, (2, 3), 7)
        assert digest(a) == digest(b)


class TestCanonicalJson:
    def test_key_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1}
        )

    def test_tuples_and_lists_serialize_identically(self):
        assert canonical_json((1, 2)) == canonical_json([1, 2])

    def test_floats_round_trip_exactly(self):
        value = 0.1 + 0.2
        assert json.loads(canonical_json({"v": value}))["v"] == value


class TestPinnedAddresses:
    """Existing memo directories stay valid: key bytes must never drift.

    The literals are the digests these keys had when the cell-record
    sweep landed; a key-building change that moves them silently orphans
    every user's cache, so it must fail here first.
    """

    def test_measurement_key_digest(self):
        assert digest(_mkey()) == (
            "2c8a38771396a9ad5b5a3fe505f00fbd928559d095ba3b469b704ab1eb4a1e49"
        )

    def test_application_key_digest(self):
        key = application_key(ibm_sp_argonne(), "BT", "S", 4, seed=7)
        assert digest(key) == (
            "fe64af7418b4432cbf566eb834f6b21e5bb22b03498420f1a1dfd9a1e6c7a938"
        )

    def test_cell_key_digest(self):
        key = cell_key(
            ibm_sp_argonne(), MeasurementConfig(), "LU", "W", 8, (3, 2),
            application_seed=7,
        )
        assert digest(key) == (
            "b6994608419893e4806de13bb2ac20f3a7d33886c5a19d6cb081b3e2e22626c2"
        )
        key = cell_key(
            ibm_sp_argonne(), MeasurementConfig(), "BT", "A", 16, (2,), 7
        )
        assert digest(key) == (
            "72bf8a897855649ad2abad25bc8ac02a5b5debbab650030e73a017fe91ad08e7"
        )


def _fingerprint(config, *dropped):
    """A config as the keys spell it: ``asdict`` after a JSON round-trip."""
    fields = json.loads(canonical_json(dataclasses.asdict(config)))
    for name in dropped:
        del fields[name]
    return fields


class TestMemoKey:
    def test_callers_get_independent_dicts(self):
        machine = ibm_sp_argonne()
        first = _mkey(machine=machine)
        before = digest(first)
        read = dict(first)
        read["machine"]["processor"]["cache_levels"].clear()
        read["machine"]["name"] = "corrupted"
        first["kernels"].append("solve_z")
        later = _mkey(machine=machine)
        assert later["machine"] == _fingerprint(machine)
        assert later["kernels"] == ["solve_x", "solve_y"]
        assert digest(first) == digest(later) == before == digest(_mkey())

    def test_a_key_is_a_read_only_mapping_over_its_fields(self):
        key = _mkey()
        assert key["schema"] == SCHEMA_VERSION
        assert set(key) == {
            "schema", "kind", "machine", "measurement", "benchmark",
            "problem_class", "nprocs", "kernels",
        }
        assert key == dict(key)
        assert digest(dict(key)) == digest(key)

    def test_archive_key_drops_only_the_noise_seed(self):
        machine, measurement = ibm_sp_argonne(), MeasurementConfig(seed=3)
        archived = archive_key(machine, measurement, "BT", "S", 4, 2, 7)
        cell = dict(cell_key(machine, measurement, "BT", "S", 4, (2,), 7))
        cell["kind"] = "archive"
        del cell["measurement"]["seed"]
        assert dict(archived) == cell
        other_seed = archive_key(
            machine, MeasurementConfig(seed=4), "BT", "S", 4, 2, 7
        )
        assert digest(other_seed) == digest(archived)


names = st.text(
    st.sampled_from("ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcxyz"), min_size=1,
    max_size=8,
)
seeds = st.integers(0, 2**31 - 1)
machines = st.sampled_from([ibm_sp_argonne(), linear_test_machine()])
measurements = st.builds(
    MeasurementConfig,
    repetitions=st.integers(1, 8),
    warmup=st.integers(0, 3),
    seed=seeds,
)
cells = st.tuples(
    st.sampled_from(["BT", "SP", "LU"]) | names,
    st.sampled_from(["S", "W", "A"]) | names,
    st.integers(1, 1024),
)


class TestCarriedText:
    """Every key carries exactly the canonical JSON of its fields."""

    @staticmethod
    def _carries_its_fields(key, expected):
        assert dict(key) == expected
        assert key.canonical == canonical_json(dict(key))
        assert key.canonical == canonical_json(expected)
        assert digest(key) == digest(expected)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(machines, measurements, cells, st.lists(names, max_size=4))
    def test_measurement_key(self, machine, measurement, cell, kernels):
        benchmark, problem_class, nprocs = cell
        self._carries_its_fields(
            measurement_key(
                machine, measurement, benchmark, problem_class, nprocs,
                kernels,
            ),
            {
                "schema": SCHEMA_VERSION,
                "kind": "measurement",
                "machine": _fingerprint(machine),
                "measurement": _fingerprint(measurement),
                "benchmark": benchmark,
                "problem_class": problem_class,
                "nprocs": nprocs,
                "kernels": kernels,
            },
        )

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        machines, cells, seeds, st.integers(0, 4), st.integers(1, 8)
    )
    def test_application_key(self, machine, cell, seed, warmup, measured):
        benchmark, problem_class, nprocs = cell
        self._carries_its_fields(
            application_key(
                machine, benchmark, problem_class, nprocs, seed, warmup,
                measured,
            ),
            {
                "schema": SCHEMA_VERSION,
                "kind": "application",
                "machine": _fingerprint(machine),
                "benchmark": benchmark,
                "problem_class": problem_class,
                "nprocs": nprocs,
                "seed": seed,
                "warmup_iterations": warmup,
                "measured_iterations": measured,
            },
        )

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        machines, measurements, cells,
        st.lists(st.integers(2, 6), max_size=4), seeds,
    )
    def test_cell_key(self, machine, measurement, cell, lengths, seed):
        benchmark, problem_class, nprocs = cell
        self._carries_its_fields(
            cell_key(
                machine, measurement, benchmark, problem_class, nprocs,
                lengths, seed,
            ),
            {
                "schema": SCHEMA_VERSION,
                "kind": "cell",
                "machine": _fingerprint(machine),
                "measurement": _fingerprint(measurement),
                "benchmark": benchmark,
                "problem_class": problem_class,
                "nprocs": nprocs,
                "chain_lengths": sorted(set(lengths)),
                "application_seed": seed,
                "tier": "simulation",
            },
        )

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(machines, measurements, cells, st.integers(2, 6), seeds)
    def test_archive_key(self, machine, measurement, cell, length, seed):
        benchmark, problem_class, nprocs = cell
        self._carries_its_fields(
            archive_key(
                machine, measurement, benchmark, problem_class, nprocs,
                length, seed,
            ),
            {
                "schema": SCHEMA_VERSION,
                "kind": "archive",
                "machine": _fingerprint(machine),
                "measurement": _fingerprint(measurement, "seed"),
                "benchmark": benchmark,
                "problem_class": problem_class,
                "nprocs": nprocs,
                "chain_lengths": [length],
                "application_seed": seed,
                "tier": "simulation",
            },
        )
