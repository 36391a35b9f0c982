"""Content-address keys: stable, canonical, and collision-averse."""

from __future__ import annotations

import dataclasses
import json

from repro.instrument import MeasurementConfig
from repro.parallel import (
    SCHEMA_VERSION,
    application_key,
    canonical_json,
    cell_key,
    config_fingerprint,
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


class TestFingerprint:
    def test_callers_get_independent_dicts(self):
        machine = ibm_sp_argonne()
        first = config_fingerprint(machine)
        first["processor"]["cache_levels"].clear()
        first["name"] = "corrupted"
        assert config_fingerprint(machine) == json.loads(
            canonical_json(dataclasses.asdict(machine))
        )
        assert digest(_mkey(machine=machine)) == digest(_mkey())
