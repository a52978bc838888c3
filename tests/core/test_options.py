"""RunOptions: the unified run-configuration object and the end state
of its migration.

The deprecation window is over: the old ``block_cache=`` /
``taint_fastpath=`` boolean kwargs are gone from ``HTH``,
``Workload.run``/``build_machine`` and ``run_monitored``, which reject
them as unknown keyword arguments.
"""

import pickle

import pytest

from repro.core.hth import HTH, run_monitored
from repro.core.options import DEFAULT_MAX_TICKS, RunOptions
from repro.isa import assemble

SOURCE = """
main:
    mov eax, 0
    ret
"""


def _image():
    return assemble("/bin/t", SOURCE)


class TestRunOptions:
    def test_defaults(self):
        options = RunOptions()
        assert options.block_cache is True
        assert options.taint_fastpath is True
        assert options.max_ticks == DEFAULT_MAX_TICKS
        assert options.wall_timeout is None
        assert not options.wants_telemetry

    def test_frozen(self):
        with pytest.raises(Exception):
            RunOptions().block_cache = False

    def test_picklable(self):
        from repro.faultinject import TRANSPARENT_PROFILE

        options = RunOptions(
            metrics=True, fault_profile=TRANSPARENT_PROFILE, fault_seed=7
        )
        clone = pickle.loads(pickle.dumps(options))
        assert clone == options

    def test_replaced_and_with_faults(self):
        from repro.faultinject import TRANSPARENT_PROFILE

        base = RunOptions()
        assert base.replaced(block_cache=False).block_cache is False
        assert base.replaced(block_cache=False) != base
        chaotic = base.with_faults(TRANSPARENT_PROFILE, 42)
        assert chaotic.fault_profile is TRANSPARENT_PROFILE
        assert chaotic.fault_seed == 42

    def test_make_telemetry_off_by_default(self):
        assert RunOptions().make_telemetry() is None

    def test_make_telemetry_flags(self):
        hub = RunOptions(metrics=True).make_telemetry()
        assert hub.is_enabled
        assert hub.tracer is None and hub.profiler is None
        hub = RunOptions(trace=True, profile=True).make_telemetry()
        assert hub.tracer is not None and hub.profiler is not None

    def test_make_fault_injector_fresh_per_call(self):
        from repro.faultinject import TRANSPARENT_PROFILE

        options = RunOptions(
            fault_profile=TRANSPARENT_PROFILE, fault_seed=3
        )
        a, b = options.make_fault_injector(), options.make_fault_injector()
        assert a is not None and b is not None
        assert a is not b
        assert RunOptions().make_fault_injector() is None


class TestLegacyKwargsRemoved:
    def test_hth_rejects_legacy_kwarg(self):
        with pytest.raises(TypeError):
            HTH(block_cache=False)

    def test_run_monitored_rejects_legacy_kwarg(self):
        with pytest.raises(TypeError):
            run_monitored(_image(), taint_fastpath=False)

    def test_options_equivalent_to_defaults(self):
        explicit = HTH(
            options=RunOptions(block_cache=True, taint_fastpath=True)
        ).run(_image())
        default = HTH().run(_image())
        assert explicit.to_dict() == default.to_dict()

    def test_hth_run_budgets_default_from_options(self):
        spin = assemble("/bin/spin", "main:\nloop:\n    jmp loop\n")
        report = HTH(options=RunOptions(max_ticks=10)).run(spin)
        assert report.result.reason == "max-ticks"
        assert report.result.ticks <= 10
