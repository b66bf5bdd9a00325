#!/usr/bin/env python3
"""Repo-specific invariant lints for skycube (docs/STATIC_ANALYSIS.md).

Rules (each checkable faster than a compile, so they run as a ctest test
and as a required CI job):

  R1  fault-point registry: every SKYCUBE_FAULT_POINT name wired in src/
      appears at exactly one site, and every name a test arms/queries is
      either wired in src/ or test-local (contains "test" in its prefix,
      e.g. "deadline_test.slow") — catching both copy-pasted point names
      and tests arming a typo that can never fire.
  R2  raw-I/O confinement, two sanctioned zones: naked file-I/O calls
      (open/openat/fsync/fdatasync/fcntl) live only in src/storage/, and
      naked socket/epoll syscalls (socket/bind/listen/accept/recv/send/
      epoll_*/eventfd/...) live only in src/net/ — durability decisions
      and wire-I/O decisions each stay in one reviewable place. The socket
      rule binds src/ only: tests, tools, and bench harnesses legitimately
      open *client* sockets to drive the server from outside. The
      scatter-gather router (src/router/) speaks TCP to its shard backends
      but must do so exclusively through net/client.h — in addition to the
      call-site scan, src/router/ may not even include the raw socket
      headers (<sys/socket.h>, <netinet/...>, <arpa/inet.h>, <sys/epoll.h>,
      <poll.h>). Waive a justified site with a "lint:allow-raw-io" comment
      on the same line.
  R3  no silently dropped Status: a bare statement-position call to one of
      the known Status/Result-returning mutators is an error; discard
      deliberately with `(void)call(...)` (plus a why-comment) instead.
  R4  no std::endl under src/: the serving path never wants the implicit
      flush; use '\\n'.
  R5  no const_cast of a mutex type: a const method that needs the lock
      marks the mutex `mutable` instead.
  R6  annotated locks only: src/ uses the Mutex/MutexLock/CondVar wrappers
      from common/mutex.h, never raw std::mutex & friends — raw std types
      carry no thread-safety annotations, so Clang's analysis is blind to
      them. (std::once_flag/std::call_once are fine: there is no annotated
      equivalent and no guarded state.)
  R7  no blocking file I/O on the event-loop thread: src/net/ must never
      call open/fopen/fsync/fdatasync or touch fstream/getline — one
      stalled syscall on the loop thread stalls every connection. File
      work belongs in src/storage/, reached from dispatch-pool threads.
  R8  decoder fuzz coverage: every decoder entry point in src/ headers
      (Parse*/Decode*/Deserialize* returning Result<>, plus the handful of
      byte-consuming loaders listed in R8_EXTRA_ENTRY_POINTS) is exercised
      by a harness in fuzz/, and every target registered in
      fuzz/CMakeLists.txt's SKYCUBE_FUZZ_TARGETS has its harness source, a
      non-empty checked-in regression corpus, and a fuzz_replay_* ctest
      registration. A new decoder lands with its fuzz target or carries a
      "lint:not-wire-input" comment explaining why it never sees
      attacker-controlled bytes.
  R9  no allocation from an unchecked wire length: a value read off the
      wire or disk (GetU32/ReadU64/operator>>/sscanf and friends) must not
      reach resize/reserve/assign/new[] without a bounds comparison on the
      way, or a std::min clamp at the call — a forged 4-byte length field
      must fail on the *available* bytes, never allocate the declared
      amount. Heuristic taint per function; waive a justified site with a
      "lint:allow-unbounded" comment on the same line.

Exit status 0 = clean; 1 = findings (one per line: path:line: rule: what).
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SOURCE_GLOBS = ("src/**/*.h", "src/**/*.cc", "tools/**/*.h", "tools/**/*.cc",
                "bench/**/*.h", "bench/**/*.cc", "tests/**/*.cc",
                "fuzz/**/*.h", "fuzz/**/*.cc")

FAULT_POINT_RE = re.compile(r'SKYCUBE_FAULT_POINT\("([^"]+)"\)')
ARMED_RE = re.compile(r'(?:ArmFailure|ArmDelay|Disarm|HitCount)\("([^"]+)"')

# R2: syscall-shaped raw I/O. Matches `open(`, `::open(`, `fsync(` etc. as
# standalone identifiers — not RotateSegment(, fopen(, or .open( members.
RAW_IO_RE = re.compile(r'(?<![\w.:>])(?:::)?\b(open|openat|fsync|fdatasync|'
                       r'fcntl)\s*\(')

# R2 (socket family): wire/event syscalls, confined to src/net/ within
# src/. The lookbehind keeps std::bind / member .send( / .connect( out.
SOCKET_IO_RE = re.compile(
    r'(?<![\w.:>])(?:::)?\b(socket|accept4?|bind|listen|connect|'
    r'setsockopt|getsockopt|getsockname|recv|recvfrom|send|sendto|'
    r'shutdown|epoll_create1|epoll_ctl|epoll_wait|eventfd)\s*\(')

# R2 (socket headers): wire-speaking layers outside src/net/ (today: the
# scatter-gather router) must reach sockets through net/client.h, so they
# have no business even including the raw socket/event headers — an
# include is the first step toward reimplementing wire I/O inline.
SOCKET_HEADER_RE = re.compile(
    r'#\s*include\s*<(sys/socket\.h|netinet/|arpa/inet\.h|sys/epoll\.h|'
    r'sys/eventfd\.h|sys/un\.h|netdb\.h|poll\.h)')

# R7: blocking file I/O that must never run on the event-loop thread.
BLOCKING_FILE_IO_RE = re.compile(
    r'(?<![\w.:>])(?:::)?\b(open|openat|fopen|freopen|fsync|fdatasync|'
    r'fread|fwrite|fgetc|fgets)\s*\(|std::[io]?fstream\b')

# R3: Status/Result-returning mutators of the storage/ingest/service layers.
# A line that *starts* with one of these calls (optionally through obj./->)
# drops the Status on the floor.
STATUS_CALLS = ("Sync", "SyncDir", "RotateSegment", "TruncateThrough",
                "Flush", "Drain", "Checkpoint", "CheckpointLocked",
                "ApplyInsert")
DROPPED_STATUS_RE = re.compile(
    r'^\s*(?:[A-Za-z_]\w*(?:\.|->))?(' + "|".join(STATUS_CALLS) +
    r')\s*\([^;]*\)\s*;\s*$')

# R8: decoder entry points are recognized by name shape — a Result<>-
# returning Parse*/Decode*/Deserialize* declaration in a src/ header takes
# bytes an attacker may control. The extras are byte-consuming loaders
# whose names don't fit the shape but whose inputs are just as hostile:
# FrameDecoder eats the raw TCP stream, ReadWal/DumpWal scan disk segments
# after a crash, LoadCheckpoint/InstallSnapshot parse checkpoint files a
# replica fetched over the wire.
DECODER_DECL_RE = re.compile(
    r'Result<[^;]*?\b((?:Parse|Decode|Deserialize)[A-Z]\w*)\s*\(')
R8_EXTRA_ENTRY_POINTS = ("FrameDecoder", "ReadWal", "DumpWal",
                         "LoadCheckpoint", "InstallSnapshot")
FUZZ_TARGETS_RE = re.compile(r'set\(SKYCUBE_FUZZ_TARGETS\s+([^)]*)\)')

# R9: expressions that introduce a wire/disk-supplied integer. The capture
# is the variable receiving it (last component of a dotted path).
WIRE_READ_RES = (
    # reader.ReadU32(&count), GetU32(&header.len)
    re.compile(r'(?:Get|Read)U(?:8|16|32|64)\s*\(\s*&\s*'
               r'(?:\w+(?:\.|->))*(\w+)'),
    # len = GetU32(p), record.row = static_cast<...>(ReadU64(...))
    re.compile(r'(?:\w+(?:\.|->))*(\w+)\s*=[^=<>!]*?'
               r'(?:Get|Read)U(?:8|16|32|64)\s*\('),
    # is >> num_groups >> member_count (stream extraction chains)
    re.compile(r'>>\s*(?:\w+(?:\.|->))*([A-Za-z_]\w*)'),
    # sscanf(name, "...", &lsn)
    re.compile(r'sscanf\s*\([^;]*?&\s*(?:\w+(?:\.|->))*(\w+)'),
)
ALLOC_RE = re.compile(r'(?:\.(?:resize|reserve|assign)\s*\(|'
                      r'\bnew\s+[\w:]+(?:\s*<[^;]*?>)?\s*\[)(.*)$')
IDENT_RE = re.compile(r'[A-Za-z_]\w*')
# A "bounds check" line: mentions the tainted name next to a real
# comparison operator. Shift/stream (<<, >>), arrow (->), and the
# extraction itself are blanked first so they can't masquerade as one.
COMPARISON_RE = re.compile(r'[<>!=]=|[<>]')

# R6: raw lock types the annotated wrappers replace.
RAW_LOCK_RE = re.compile(
    r'std::(mutex|shared_mutex|recursive_mutex|timed_mutex|'
    r'condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock|'
    r'shared_lock)\b')
R6_EXEMPT = ("src/common/mutex.h",)  # the wrappers themselves

COMMENT_BLOCK_RE = re.compile(r'/\*.*?\*/', re.DOTALL)


def strip_comments(text: str) -> str:
    """Blank out comments, preserving line numbers (no string-literal
    awareness: good enough for the token rules here)."""
    text = COMMENT_BLOCK_RE.sub(lambda m: re.sub(r'[^\n]', ' ', m.group()),
                                text)
    return "\n".join(line.split("//", 1)[0] for line in text.splitlines())


def iter_sources():
    for pattern in SOURCE_GLOBS:
        yield from sorted(REPO.glob(pattern))


def blank_non_comparisons(line: str) -> str:
    """Blank tokens whose < > = characters are not comparisons, so the
    R9 bounds-check detector doesn't mistake a shift, an arrow, a stream
    extraction, a string literal, or a template argument list for one."""
    line = re.sub(r'"[^"]*"', '""', line)
    line = re.sub(r'<<|>>|->', '  ', line)
    line = re.sub(r'\b(?:static_cast|reinterpret_cast|const_cast)\s*'
                  r'<[^<>]*>', ' ', line)
    return line


def has_bounds_check(code_lines: list[str], start: int, end: int,
                     name: str) -> bool:
    """True if some line in [start, end] (1-based, inclusive) compares the
    tainted name — the shape every guarded decoder site in the repo has."""
    name_re = re.compile(r'\b' + re.escape(name) + r'\b')
    for lineno in range(start, end + 1):
        line = blank_non_comparisons(code_lines[lineno - 1])
        if name_re.search(line) and COMPARISON_RE.search(line):
            return True
    return False


def main() -> int:
    findings: list[str] = []
    wired = Counter()          # fault point name -> [(path, line)]
    wired_sites: dict[str, list[str]] = {}
    armed: list[tuple[str, str]] = []   # (site, name)
    decoders: dict[str, str] = {}       # decoder entry point -> decl site

    for path in iter_sources():
        rel = path.relative_to(REPO).as_posix()
        raw = path.read_text(encoding="utf-8")
        code = strip_comments(raw)
        code_lines = code.splitlines()
        tainted: dict[str, int] = {}    # wire-read variable -> taint line

        for lineno, line in enumerate(code_lines, 1):
            site = f"{rel}:{lineno}"
            raw_line = raw.splitlines()[lineno - 1]

            for name in FAULT_POINT_RE.findall(line):
                if rel.startswith("src/"):
                    wired[name] += 1
                    wired_sites.setdefault(name, []).append(site)
            for name in ARMED_RE.findall(line):
                armed.append((site, name))

            if (RAW_IO_RE.search(line)
                    and not rel.startswith("src/storage/")
                    and "lint:allow-raw-io" not in raw_line):
                findings.append(
                    f"{site}: R2: raw file-I/O call outside src/storage/ "
                    "(route through the storage layer, or waive with a "
                    "'lint:allow-raw-io' comment)")

            if (rel.startswith("src/") and not rel.startswith("src/net/")
                    and SOCKET_IO_RE.search(line)
                    and "lint:allow-raw-io" not in raw_line):
                findings.append(
                    f"{site}: R2: raw socket/epoll call in src/ outside "
                    "src/net/ (route through the net layer, or waive with "
                    "a 'lint:allow-raw-io' comment)")

            if (rel.startswith("src/") and not rel.startswith("src/net/")
                    and SOCKET_HEADER_RE.search(raw_line)
                    and "lint:allow-raw-io" not in raw_line):
                findings.append(
                    f"{site}: R2: raw socket header included in src/ "
                    "outside src/net/ (speak the wire through net/client.h, "
                    "or waive with a 'lint:allow-raw-io' comment)")

            if (rel.startswith("src/net/")
                    and BLOCKING_FILE_IO_RE.search(line)
                    and "lint:allow-raw-io" not in raw_line):
                findings.append(
                    f"{site}: R7: blocking file I/O in src/net/ runs on "
                    "the event-loop thread and stalls every connection "
                    "(move it to src/storage/ behind a pool thread)")

            if not rel.startswith("tests/"):
                match = DROPPED_STATUS_RE.match(line)
                if match:
                    findings.append(
                        f"{site}: R3: result of Status-returning "
                        f"{match.group(1)}() is discarded (handle it, or "
                        "'(void)' it with a reason)")

            if rel.startswith("src/") and "std::endl" in line:
                findings.append(f"{site}: R4: std::endl in src/ "
                                "(implicit flush; use '\\n')")

            if re.search(r'const_cast\s*<\s*(?:std::)?\w*[Mm]utex', line):
                findings.append(
                    f"{site}: R5: const_cast of a mutex type "
                    "(mark the mutex 'mutable' instead)")

            if (rel.startswith("src/") and rel not in R6_EXEMPT
                    and RAW_LOCK_RE.search(line)):
                findings.append(
                    f"{site}: R6: raw {RAW_LOCK_RE.search(line).group()} in "
                    "src/ (use the annotated wrappers in common/mutex.h)")

            if rel.startswith("src/") and rel.endswith(".h"):
                for name in DECODER_DECL_RE.findall(line):
                    if "lint:not-wire-input" not in raw_line:
                        decoders.setdefault(name, site)

            if rel.startswith(("src/", "tools/")):
                # Function boundary (column-0 closing brace): locals die.
                if line.startswith("}"):
                    tainted.clear()
                for wire_re in WIRE_READ_RES:
                    for name in wire_re.findall(line):
                        tainted[name] = lineno
                alloc = ALLOC_RE.search(line)
                if (alloc and tainted
                        and "lint:allow-unbounded" not in raw_line
                        and "std::min" not in alloc.group(1)):
                    for name in IDENT_RE.findall(alloc.group(1)):
                        if name not in tainted:
                            continue
                        if has_bounds_check(code_lines, tainted[name],
                                            lineno, name):
                            continue
                        findings.append(
                            f"{site}: R9: allocation sized by "
                            f"wire-supplied '{name}' (read at line "
                            f"{tainted[name]}) with no bounds check between "
                            "— clamp with std::min, validate against the "
                            "available bytes, or waive with "
                            "'lint:allow-unbounded'")

    for name, count in sorted(wired.items()):
        if count != 1:
            findings.append(
                f"{wired_sites[name][1]}: R1: fault point \"{name}\" wired "
                f"at {count} sites (first: {wired_sites[name][0]}); names "
                "must be unique")
    for site, name in armed:
        if name not in wired and "test" not in name.split(".")[0]:
            findings.append(
                f"{site}: R1: \"{name}\" is armed/queried but no "
                "SKYCUBE_FAULT_POINT in src/ wires it (typo?)")

    # R8: the fuzz registry and the decoder surface must agree.
    fuzz_cmake_path = REPO / "fuzz" / "CMakeLists.txt"
    fuzz_cmake = (fuzz_cmake_path.read_text(encoding="utf-8")
                  if fuzz_cmake_path.exists() else "")
    targets_match = FUZZ_TARGETS_RE.search(fuzz_cmake)
    fuzz_targets = targets_match.group(1).split() if targets_match else []
    if not fuzz_targets:
        findings.append(
            "fuzz/CMakeLists.txt:1: R8: no SKYCUBE_FUZZ_TARGETS registry "
            "found (the decoder fuzz subsystem is missing or renamed)")
    for target in fuzz_targets:
        if not (REPO / "fuzz" / f"fuzz_{target}.cc").exists():
            findings.append(
                f"fuzz/CMakeLists.txt:1: R8: registered fuzz target "
                f"\"{target}\" has no fuzz/fuzz_{target}.cc harness")
        corpus = REPO / "fuzz" / "regression" / target
        if not corpus.is_dir() or not any(corpus.iterdir()):
            findings.append(
                f"fuzz/CMakeLists.txt:1: R8: fuzz target \"{target}\" has "
                f"no checked-in corpus in fuzz/regression/{target}/ (seed "
                "it from the encoder, see docs/STATIC_ANALYSIS.md)")
    if fuzz_targets and "add_test(NAME fuzz_replay_${target}" not in fuzz_cmake:
        findings.append(
            "fuzz/CMakeLists.txt:1: R8: no fuzz_replay_* ctest "
            "registration — regression corpora must replay in every build")

    harness_text = "".join(
        p.read_text(encoding="utf-8") for p in sorted(REPO.glob("fuzz/*.cc")))
    for name in R8_EXTRA_ENTRY_POINTS:
        decoders.setdefault(name, "fuzz/CMakeLists.txt:1")
    for name, site in sorted(decoders.items()):
        if not re.search(r'\b' + re.escape(name) + r'\b', harness_text):
            findings.append(
                f"{site}: R8: decoder entry point {name}() has no fuzz/ "
                "harness exercising it (add one to an existing target or "
                "register a new one; waive a decoder that never sees "
                "attacker-controlled bytes with 'lint:not-wire-input')")

    for finding in findings:
        print(finding)
    if findings:
        print(f"\nlint_invariants: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    print(f"lint_invariants: clean ({len(wired)} fault points, "
          f"{sum(1 for _ in iter_sources())} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
