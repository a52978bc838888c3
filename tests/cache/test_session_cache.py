"""Session-level verdict caching: hits, bypasses, and invalidation edges.

The contract: a hit is bit-identical to execution (``to_dict``,
rendered warnings, raw events), any single-ingredient change misses,
and every run that could observe non-deterministic or side-channel
state (faults, telemetry, custom analyzers, opaque setup closures)
bypasses the cache entirely.
"""

import json

from repro.api import CacheEnv, Session, VerdictCache
from repro.cache.digest import workload_key
from repro.core.options import RunOptions
from repro.fleet.refs import WorkloadRef
from repro.kernel.network import ConversationPeer, SinkPeer
from repro.programs.base import Workload
from repro.telemetry import Telemetry

SOURCE = """
.data
msg: .asciz "/etc/passwd"
.text
main:
    mov eax, 5
    mov ebx, msg
    int 0x80
    mov eax, 1
    mov ebx, 0
    int 0x80
"""

TROJAN = WorkloadRef.from_registry("4", "Remote execve")


def _dump(report):
    return json.dumps(report.to_dict(), sort_keys=True, default=str)


def _session():
    return Session(cache=VerdictCache())


class TestRunHits:
    def test_hit_is_bit_identical(self):
        session = _session()
        fresh = session.run(SOURCE, stdin="hello")
        hit = session.run(SOURCE, stdin="hello")
        assert session.cache.stats.hits == 1
        assert hit is not fresh  # a fresh object graph, not the original
        assert _dump(hit) == _dump(fresh)
        assert [str(e) for e in hit.events] == \
            [str(e) for e in fresh.events]
        assert hit.render_warnings() == fresh.render_warnings()

    def test_single_byte_stdin_perturbation_misses(self):
        session = _session()
        session.run(SOURCE, stdin="hello")
        session.run(SOURCE, stdin="hellp")
        session.run(SOURCE, stdin="hello\x00")
        assert session.cache.stats.hits == 0
        assert session.cache.stats.misses == 3

    def test_single_instruction_perturbation_misses(self):
        session = _session()
        session.run(SOURCE)
        session.run(SOURCE.replace("mov ebx, 0", "mov ebx, 1"))
        assert session.cache.stats.hits == 0

    def test_options_field_perturbation_misses(self):
        session = _session()
        session.run(SOURCE)
        session.run(SOURCE, options=RunOptions(max_ticks=4_999_999))
        session.run(SOURCE, options=RunOptions(provenance=False))
        assert session.cache.stats.hits == 0
        assert session.cache.stats.misses == 3

    def test_argv_and_path_perturbation_miss(self):
        session = _session()
        session.run(SOURCE, argv=["/bin/guest", "a"])
        session.run(SOURCE, argv=["/bin/guest", "b"])
        session.run(SOURCE, argv=["/bin/guest", "a"], path="/bin/other")
        assert session.cache.stats.hits == 0


class TestBypasses:
    def test_disabled_via_options(self):
        session = _session()
        session.run(SOURCE, options=RunOptions(cache=False))
        session.run(SOURCE, options=RunOptions(cache=False))
        assert session.cache.stats.hits == 0
        assert session.cache.stats.misses == 0
        assert session.cache.stats.bypass == {"disabled": 2}

    def test_fault_profile_bypasses(self):
        from repro.faultinject import TRANSPARENT_PROFILE

        session = _session()
        options = RunOptions(fault_profile=TRANSPARENT_PROFILE)
        workload = TROJAN.resolve()
        session.run_workload(workload, options=options)
        session.run_workload(workload, options=options)
        assert session.cache.stats.bypass == {"faults": 2}
        assert session.cache.stats.hits == 0

    def test_telemetry_bypasses(self):
        session = _session()
        hub = Telemetry.enabled()
        session.run(SOURCE, telemetry=hub)
        session.run(SOURCE, telemetry=hub)
        assert session.cache.stats.bypass == {"telemetry": 2}

    def test_session_wide_telemetry_bypasses(self):
        session = Session(telemetry=Telemetry.enabled(),
                          cache=VerdictCache())
        session.run(SOURCE)
        assert session.cache.stats.bypass == {"telemetry": 1}

    def test_opaque_setup_bypasses_but_cache_env_does_not(self):
        session = _session()

        def seed(hth):
            hth.fs.write_text("/etc/flag", "x")

        session.run(SOURCE, setup=seed)
        assert session.cache.stats.bypass == {"opaque-setup": 1}

        # A setup closure stays opaque next to a cache_env: its effects
        # are not in the key, so it must never be answered from cache.
        env = CacheEnv.from_mappings({"/etc/flag": "x"}, {})
        session.run(SOURCE, setup=seed, cache_env=env)
        session.run(SOURCE, setup=seed, cache_env=env)
        assert session.cache.stats.bypass == {"opaque-setup": 3}
        assert session.cache.stats.hits == 0

        session.run(SOURCE, cache_env=env)
        hit = session.run(SOURCE, cache_env=env)
        assert session.cache.stats.hits == 1
        assert hit.program  # a real report came back

    def test_no_cache_attached_is_a_plain_run(self):
        session = Session()
        report = session.run(SOURCE)
        assert session.cache is None
        assert report.verdict is not None


class TestCacheEnvBuildsTheMachine:
    """The key and the machine come from one declaration: a run given
    only ``cache_env`` is seeded with exactly what its key hashes."""

    SINK = CacheEnv.from_mappings({"/etc/flag": "x"}, {"srv.example:80": ""})
    TALKER = CacheEnv.from_mappings(
        {"/etc/flag": "x"}, {"srv.example:80": "hello"}
    )

    def _machine(self, session, env):
        """Run SOURCE under ``env``; return the machine it ran on."""
        built = []
        machine = session.machine

        def capture(**kwargs):
            built.append(machine(**kwargs))
            return built[-1]

        session.machine = capture
        session.run(SOURCE, cache_env=env)
        del session.machine
        return built[0]

    def test_machine_holds_exactly_the_hashed_files_and_peers(self):
        session = Session()
        bare = self._machine(session, CacheEnv())
        hth = self._machine(session, self.SINK)
        assert set(hth.fs.paths()) - set(bare.fs.paths()) == {"/etc/flag"}
        assert hth.fs.read_text("/etc/flag") == "x"
        ip = hth.network.resolve("srv.example")
        assert set(hth.network._peers) == {(ip, 80)}
        assert not bare.network._peers

    def test_sink_and_conversation_peers_key_and_build_differently(self):
        session = _session()
        sink = self._machine(session, self.SINK)
        talker = self._machine(session, self.TALKER)
        assert session.cache.stats.misses == 2
        assert session.cache.stats.hits == 0
        conns = [
            hth.network.connect(hth.network.resolve("srv.example"), 80, "t")
            for hth in (sink, talker)
        ]
        assert isinstance(conns[0].peer, SinkPeer)
        assert bytes(conns[0].incoming) == b""
        assert isinstance(conns[1].peer, ConversationPeer)
        assert bytes(conns[1].incoming) == b"hello"


class TestWorkloadCaching:
    def test_workload_hit_is_bit_identical(self):
        session = _session()
        workload = TROJAN.resolve()
        fresh = session.run_workload(workload)
        hit = session.run_workload(workload)
        assert session.cache.stats.hits == 1
        assert _dump(hit) == _dump(fresh)
        assert hit.render_warnings() == fresh.render_warnings()

    def test_wall_timeout_option_participates_in_the_key(self):
        session = _session()
        workload = TROJAN.resolve()
        session.run_workload(workload)
        session.run_workload(
            workload, options=RunOptions(wall_timeout=120.0)
        )
        assert session.cache.stats.hits == 0
        assert session.cache.stats.misses == 2


class TestInvalidationEdges:
    """Satellite 3: adjacent content that must never share a key."""

    def _workload(self, **overrides):
        base = dict(name="w", program_path="/bin/w", source=SOURCE,
                    description="d")
        base.update(overrides)
        return Workload(**base)

    def test_same_source_different_registry_name(self):
        options = RunOptions()
        a = workload_key(self._workload(), options)
        b = workload_key(self._workload(name="w2"), options)
        assert a != b

    def test_same_source_different_guest_path(self):
        options = RunOptions()
        a = workload_key(self._workload(), options)
        b = workload_key(self._workload(program_path="/bin/other"), options)
        assert a != b

    def test_differing_fault_profile_or_seed_keys_distinctly(self):
        # Fault runs bypass the cache at runtime; the keys must differ
        # anyway so a policy regression cannot alias them.
        from repro.faultinject import SEMANTIC_PROFILE, TRANSPARENT_PROFILE

        w = self._workload()
        plain = workload_key(w, RunOptions())
        transparent = workload_key(
            w, RunOptions(fault_profile=TRANSPARENT_PROFILE)
        )
        semantic = workload_key(
            w, RunOptions(fault_profile=SEMANTIC_PROFILE)
        )
        reseeded = workload_key(
            w, RunOptions(fault_profile=TRANSPARENT_PROFILE, fault_seed=9)
        )
        assert len({plain, transparent, semantic, reseeded}) == 4

    def test_provenance_toggle_keys_distinctly(self):
        w = self._workload()
        assert workload_key(w, RunOptions(provenance=True)) != \
            workload_key(w, RunOptions(provenance=False))

    def test_stdin_and_env_key_distinctly(self):
        options = RunOptions()
        base = workload_key(self._workload(), options)
        assert workload_key(self._workload(stdin="x"), options) != base
        assert workload_key(
            self._workload(env={"A": "1"}), options
        ) != base

    def test_watchdog_outcome_is_not_cached_so_retries_execute(self):
        session = _session()
        workload = TROJAN.resolve()
        deadline = RunOptions(wall_timeout=0.0)
        report = session.run_workload(workload, options=deadline)
        assert report.result.reason == "watchdog"
        assert session.cache.stats.store_skips == 1
        # The retry re-executes (a miss, not a cached watchdog).
        again = session.run_workload(workload, options=deadline)
        assert again.result.reason == "watchdog"
        assert session.cache.stats.hits == 0
