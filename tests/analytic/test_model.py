"""The analytic model itself: descriptors, closed forms, confidence."""

from __future__ import annotations

import pytest

from repro.analytic.descriptors import describe
from repro.analytic.model import (
    ANALYTIC_REL_ERROR_BOUND,
    AnalyticModel,
    AnalyticPredictor,
)
from repro.analytic.tiers import TIER_ANALYTIC
from repro.errors import PredictionError
from repro.npb import BENCHMARKS, make_benchmark
from repro.npb.custom import CustomApplication
from repro.simmachine.machine import ibm_sp_argonne
from tests.npb.test_custom import small_spec


def _predictor(benchmark="BT", problem_class="W", nprocs=4):
    return AnalyticPredictor.for_config(
        ibm_sp_argonne(), benchmark, problem_class, nprocs
    )


class TestDescriptors:
    def test_supported_benchmarks(self):
        assert set(BENCHMARKS) == {"BT", "SP", "LU"}
        for name in BENCHMARKS:
            describe(make_benchmark(name, "S", 4))

    # CG and MG are no longer registered benchmarks: an application under
    # either name, like any other application without tables, is refused.
    @pytest.mark.parametrize("name", ["TOY", "CG", "MG"])
    def test_unsupported_benchmark_raises_prediction_error(self, name):
        app = CustomApplication(small_spec(name=name), nprocs=4)
        with pytest.raises(PredictionError, match=name):
            describe(app)

    def test_descriptors_cover_every_kernel(self):
        for name in BENCHMARKS:
            bench = make_benchmark(name, "S", 4)
            desc = describe(bench)
            assert desc.loop_kernels == tuple(bench.loop_kernel_names)
            assert desc.pre_kernels == tuple(bench.pre_kernel_names)
            assert desc.post_kernels == tuple(bench.post_kernel_names)
            for kernel in desc.kernels.values():
                assert len(kernel.ranks) == 4


class TestAnalyticModel:
    def test_rank_classes_collapse_uniform_partitions(self):
        # 16 ranks of BT A decompose uniformly: one replayed hierarchy
        # serves them all — the reason the fast path is fast.
        predictor = _predictor("BT", "A", 16)
        model = AnalyticModel(predictor.profile, predictor.desc)
        assert len(model._hiers) < 16

    def test_isolated_times_positive_and_deterministic(self):
        predictor = _predictor()
        a = AnalyticModel(predictor.profile, predictor.desc)
        b = AnalyticModel(predictor.profile, predictor.desc)
        for kernel in predictor.desc.loop_kernels:
            ta, tb = a.isolated_time(kernel), b.isolated_time(kernel)
            assert ta > 0
            assert ta == tb

    def test_chain_state_is_cyclic_steady_after_one_warm_pass(self):
        # chain_time warms one full cycle; a second warm pass must leave
        # the evaluated cycle bit-identical, or the steady-state claim
        # (and the coupling ratios built on it) would be wrong.
        predictor = _predictor()
        desc = predictor.desc
        window = desc.loop_kernels[:2]
        one_warm = AnalyticModel(predictor.profile, desc).chain_time(window)

        extra = AnalyticModel(predictor.profile, desc)
        extra._flush()
        for _ in range(3):
            for k in window:
                extra._replay(k)
        fns = []
        messages = 0
        for k in window:
            fn, _work = extra._eval_kernel(k)
            fns.append(fn)
            messages += desc.kernels[k].messages
        three_warm = extra._settle(
            lambda c: sum(fn(c) for fn in fns), messages
        )
        assert one_warm == three_warm

    def test_expected_rel_error_is_positive_and_bounded_on_goldens(self):
        for benchmark in BENCHMARKS:
            predictor = _predictor(benchmark, "W", 4)
            model = AnalyticModel(predictor.profile, predictor.desc)
            err = model.expected_rel_error()
            assert 0 < err < 1


class TestAnalyticPredictor:
    def test_report_structure(self):
        report = _predictor().report((2,))
        desc = _predictor().desc
        assert set(report.inputs.loop_times) == set(desc.loop_kernels)
        assert set(report.inputs.pre_times) == set(desc.pre_kernels)
        assert set(report.inputs.post_times) == set(desc.post_kernels)
        assert len(report.inputs.chain_times) == len(desc.loop_kernels)
        assert report.actual > 0
        assert report.steady_cycle > 0
        assert 0 < report.expected_rel_error < 1

    def test_prediction_report_carries_the_analytic_tier(self):
        report = _predictor().report((2,)).prediction_report((2,))
        assert report.tier == TIER_ANALYTIC
        assert "Summation" in report.predictions
        assert "Coupling: 2 kernels" in report.predictions

    @pytest.mark.parametrize("length", [1, 99])
    def test_invalid_chain_length_raises(self, length):
        with pytest.raises(PredictionError, match="chain length"):
            _predictor().report((length,))

    def test_documented_bound_is_a_real_constant(self):
        assert 0 < ANALYTIC_REL_ERROR_BOUND <= 0.2
