#!/usr/bin/env python3
"""Smoke test for pti_cli: every subcommand's success, usage and error path.

Usage: cli_smoke_test.py <path-to-pti_cli> [<path-to-pti_client>]

Contract under test (see the header comment of examples/pti_cli.cpp):
  exit 0  success; stdout carries machine-readable results only
  exit 1  operational failure (I/O, corrupt index, failed build or query)
  exit 2  usage error (unknown command, missing/malformed arguments)
Errors and diagnostics must go to stderr, never stdout.

When a pti_client path is given, the loopback serving pair is smoked too:
`pti_cli serve --listen=0` must print its ephemeral port on stdout, answer
a pti_client workload (including !reload under traffic) byte-identically to
the local batch command, and shut down cleanly on stdin EOF.
"""

import os
import subprocess
import sys
import tempfile

CLI = None
FAILURES = []


def run(*args):
    return subprocess.run([CLI, *args], capture_output=True, text=True)


def check(name, result, rc, stdout_has=None, stderr_has=None,
          stdout_empty=False):
    problems = []
    if result.returncode != rc:
        problems.append(f"exit {result.returncode}, want {rc}")
    if stdout_empty and result.stdout:
        problems.append(f"stdout not empty: {result.stdout[:120]!r}")
    if stdout_has is not None and stdout_has not in result.stdout:
        problems.append(f"stdout missing {stdout_has!r}: {result.stdout[:120]!r}")
    if stderr_has is not None and stderr_has not in result.stderr:
        problems.append(f"stderr missing {stderr_has!r}: {result.stderr[:120]!r}")
    if result.returncode != 0 and "error" not in result.stderr and \
            "usage" not in result.stderr:
        problems.append("failure without error/usage text on stderr")
    if problems:
        FAILURES.append(f"{name}: " + "; ".join(problems))
        print(f"FAIL {name}: " + "; ".join(problems))
    else:
        print(f"ok   {name}")


def main():
    global CLI
    if len(sys.argv) not in (2, 3):
        print("usage: cli_smoke_test.py <pti_cli> [<pti_client>]",
              file=sys.stderr)
        return 2
    CLI = sys.argv[1]
    client = sys.argv[2] if len(sys.argv) == 3 else None
    tmp = tempfile.mkdtemp(prefix="pti_cli_smoke.")

    def p(name):
        return os.path.join(tmp, name)

    # ---- no args / unknown command / unknown flag -> usage (exit 2) ----
    check("no-args", run(), 2, stderr_has="usage", stdout_empty=True)
    check("unknown-command", run("frobnicate"), 2,
          stderr_has="unknown command", stdout_empty=True)

    # ---- gen ----
    check("gen", run("gen", "300", "0.3", "7", p("g.pus")), 0,
          stdout_has="wrote 300 positions")
    check("gen-missing-args", run("gen", "300"), 2, stderr_has="usage")
    check("gen-bad-length", run("gen", "30x", "0.3", "7", p("x.pus")), 2,
          stderr_has="bad length")
    check("gen-bad-theta", run("gen", "300", "1.5", "7", p("x.pus")), 2,
          stderr_has="bad theta")
    check("gen-unwritable", run("gen", "10", "0.3", "7", tmp + "/no/dir.pus"),
          1, stderr_has="cannot write")

    # A tiny handwritten string exercising deterministic probabilities.
    with open(p("d.pus"), "w") as f:
        f.write("Q=0.7 S=0.3\nQ=0.3 P=0.7\nP=1.0\nA=0.4 F=0.3 P=0.2 Q=0.1\n")
    with open(p("bad.pus"), "w") as f:
        f.write("Q=0.7 S=0.1\n")  # does not sum to 1

    # ---- build ----
    check("build", run("build", p("g.pus"), p("g.pti"), "0.1"), 0,
          stdout_has="indexed 300 positions")
    check("build-default-tau", run("build", p("d.pus"), p("d.pti")), 0,
          stdout_has="indexed 4 positions")
    check("build-missing-args", run("build", p("g.pus")), 2,
          stderr_has="usage")
    check("build-bad-tau", run("build", p("g.pus"), p("x.pti"), "nope"), 2,
          stderr_has="bad tau_min")
    check("build-missing-input", run("build", p("absent.pus"), p("x.pti")),
          1, stderr_has="cannot read")
    check("build-invalid-pus", run("build", p("bad.pus"), p("x.pti")), 1,
          stderr_has="InvalidArgument")
    # Compact mode: the blob carries the suffix array, queries must agree.
    check("build-compact",
          run("build", p("d.pus"), p("dc.pti"), "0.1", "--compact"), 0,
          stdout_has="compact")
    check("build-inapplicable-flag",
          run("build", p("d.pus"), p("x.pti"), "--shards=2"), 2,
          stderr_has="not supported by this command")

    # ---- build-special / build-approx / build-listing ----
    with open(p("s.pus"), "w") as f:
        f.write("a=0.9\nb=0.5\na=0.7\nb=1.0\n")
    check("build-special", run("build-special", p("s.pus"), p("s.pti")), 0,
          stdout_has="special")
    check("build-special-missing-args", run("build-special", p("s.pus")), 2,
          stderr_has="usage")
    check("build-approx",
          run("build-approx", p("g.pus"), p("a.pti"), "0.1", "0.05"), 0,
          stdout_has="links")
    check("build-approx-bad-epsilon",
          run("build-approx", p("g.pus"), p("a.pti"), "0.1", "eps"), 2,
          stderr_has="bad epsilon")
    check("build-listing",
          run("build-listing", p("l.pti"), "0.1", p("d.pus"), p("d.pus")), 0,
          stdout_has="indexed 2 documents")
    check("build-listing-missing-args", run("build-listing", p("l.pti")), 2,
          stderr_has="usage")
    check("build-listing-bad-tau",
          run("build-listing", p("l.pti"), "x", p("d.pus")), 2,
          stderr_has="bad tau_min")

    # ---- build-sharded ----
    check("build-sharded",
          run("build-sharded", p("g.pus"), p("sh.pti"), "0.1",
              "--shards=4", "--overlap=16", "--threads=2"), 0,
          stdout_has="4 shards")
    check("build-sharded-missing-args", run("build-sharded", p("g.pus")), 2,
          stderr_has="usage")
    check("build-sharded-unknown-flag",
          run("build-sharded", p("g.pus"), p("x.pti"), "--wat=1"), 2,
          stderr_has="unknown flag")
    check("build-sharded-bad-flag-value",
          run("build-sharded", p("g.pus"), p("x.pti"), "--shards=-2"), 2,
          stderr_has="bad value")

    # ---- empty input: every build* subcommand rejects zero positions ----
    with open(p("empty.pus"), "w") as f:
        pass
    empty_builds = [
        ("build", ["build", p("empty.pus"), p("e1.pti"), "0.1"]),
        ("build-compact", ["build", p("empty.pus"), p("e2.pti"), "0.1",
                           "--compact"]),
        ("build-special", ["build-special", p("empty.pus"), p("e3.pti")]),
        ("build-approx", ["build-approx", p("empty.pus"), p("e4.pti")]),
        ("build-listing", ["build-listing", p("e5.pti"), "0.1", p("d.pus"),
                           p("empty.pus")]),
        ("build-sharded", ["build-sharded", p("empty.pus"), p("e6.pti"),
                           "0.1", "--shards=2"]),
    ]
    for name, args in empty_builds:
        check(f"{name}-empty-input", run(*args), 1,
              stderr_has="InvalidArgument", stdout_empty=True)
        out = args[1] if name == "build-listing" else args[2]
        if os.path.exists(out) or os.path.exists(out + ".tmp"):
            FAILURES.append(f"{name}-empty-input: wrote {out}")
            print(f"FAIL {name}-empty-input-no-file")
        else:
            print(f"ok   {name}-empty-input-no-file")

    # ---- query (every kind via autodetection) ----
    check("query-substring", run("query", p("d.pti"), "QP", "0.4"), 0,
          stdout_has="0\t0.490000", stderr_has="1 match(es)")
    check("query-compact", run("query", p("dc.pti"), "QP", "0.4"), 0,
          stdout_has="0\t0.490000", stderr_has="1 match(es)")
    check("query-sharded", run("query", p("sh.pti"), "AA", "0.2"), 0,
          stderr_has="match(es)")
    check("query-approx", run("query", p("a.pti"), "AA", "0.2"), 0,
          stderr_has="match(es)")
    check("query-special", run("query", p("s.pti"), "ab", "0.2"), 0,
          stderr_has="match(es)")
    check("query-listing", run("query", p("l.pti"), "QP", "0.4"), 0,
          stdout_has="doc 0", stderr_has="document(s)")
    check("query-missing-args", run("query", p("d.pti"), "QP"), 2,
          stderr_has="usage")
    check("query-bad-tau", run("query", p("d.pti"), "QP", "0.x4"), 2,
          stderr_has="bad tau")
    check("query-tau-below-min", run("query", p("d.pti"), "QP", "0.01"), 1,
          stderr_has="InvalidArgument")
    check("query-missing-index", run("query", p("absent.pti"), "QP", "0.4"),
          1, stderr_has="cannot read")
    # Sharded index rejects patterns beyond the overlap limit.
    check("query-sharded-too-long",
          run("query", p("sh.pti"), "A" * 30, "0.2"), 1,
          stderr_has="NotSupported")

    # Corrupt index file: truncation must be a clean Corruption error.
    with open(p("g.pti"), "rb") as f:
        blob = f.read()
    with open(p("trunc.pti"), "wb") as f:
        f.write(blob[: len(blob) // 2])
    check("query-corrupt-index", run("query", p("trunc.pti"), "AA", "0.2"),
          1, stderr_has="Corruption")

    # ---- fuzzy ----
    # d.pus position 1 only matches "QP" via the 1-mismatch variant "PP"
    # (0.7 * 1.0); position 0 matches exactly at 0.49.
    check("fuzzy-substring", run("fuzzy", p("d.pti"), "QP", "0.4", "--k=1"),
          0, stdout_has="1\t0.700000", stderr_has="2 match(es)")
    check("fuzzy-k0-equals-query",
          run("fuzzy", p("d.pti"), "QP", "0.4", "--k=0"), 0,
          stdout_has="0\t0.490000", stderr_has="1 match(es)")
    check("fuzzy-edit-compact",
          run("fuzzy", p("dc.pti"), "QP", "0.4", "--k=1", "--mode=edit"), 0,
          stderr_has="match(es)")
    check("fuzzy-sharded", run("fuzzy", p("sh.pti"), "AA", "0.2", "--k=1"),
          0, stderr_has="match(es)")
    # Overlap is 16: a 16-char pattern fits exactly but not once edit
    # distance widens the window length range by k.
    check("fuzzy-sharded-widened",
          run("fuzzy", p("sh.pti"), "A" * 16, "0.2", "--k=2", "--mode=edit"),
          1, stderr_has="widened by k=2")
    check("fuzzy-k-too-large", run("fuzzy", p("d.pti"), "QP", "0.4", "--k=9"),
          1, stderr_has="NotSupported")
    check("fuzzy-negative-k", run("fuzzy", p("d.pti"), "QP", "0.4", "--k=-1"),
          2, stderr_has="bad value")
    check("fuzzy-bad-mode",
          run("fuzzy", p("d.pti"), "QP", "0.4", "--mode=hamming"), 2,
          stderr_has="bad value")
    check("fuzzy-missing-args", run("fuzzy", p("d.pti"), "QP"), 2,
          stderr_has="usage")
    check("fuzzy-bad-tau", run("fuzzy", p("d.pti"), "QP", "x"), 2,
          stderr_has="bad tau")
    check("fuzzy-wrong-kind", run("fuzzy", p("l.pti"), "QP", "0.4"), 1,
          stderr_has="requires a substring or sharded")
    check("fuzzy-inapplicable-flag",
          run("fuzzy", p("d.pti"), "QP", "0.4", "--shards=2"), 2,
          stderr_has="not supported by this command")

    # ---- batch ----
    with open(p("pats.txt"), "w") as f:
        f.write("# comment\nQP\nQ 0.6\n\nPP\n")
    check("batch-substring", run("batch", p("d.pti"), p("pats.txt"), "0.3"),
          0, stdout_has="0\t0\t0.490000", stderr_has="3 queries")
    check("batch-sharded",
          run("batch", p("sh.pti"), p("pats.txt"), "0.3", "--threads=2"), 0,
          stderr_has="3 queries")
    check("batch-missing-args", run("batch", p("d.pti")), 2,
          stderr_has="usage")
    check("batch-inapplicable-flag",
          run("batch", p("d.pti"), p("pats.txt"), "0.3", "--overlap=64"), 2,
          stderr_has="not supported by this command")
    check("batch-threads-on-substring",
          run("batch", p("d.pti"), p("pats.txt"), "0.3", "--threads=2"), 1,
          stderr_has="applies to sharded indexes")
    check("build-sharded-overflow-flag",
          run("build-sharded", p("g.pus"), p("x.pti"), "0.1",
              "--shards=4294967298"), 2,
          stderr_has="bad value")
    # Trailing tabs after a per-line tau are trimmed like spaces.
    with open(p("tabpats.txt"), "w") as f:
        f.write("QP 0.3\t\n")
    check("batch-trailing-tab",
          run("batch", p("d.pti"), p("tabpats.txt"), "0.3"), 0,
          stdout_has="0\t0\t0.490000")
    # Indented pattern lines parse like unindented ones.
    with open(p("indent.txt"), "w") as f:
        f.write("  QP 0.3\n\t \n")
    check("batch-indented-line",
          run("batch", p("d.pti"), p("indent.txt"), "0.3"), 0,
          stdout_has="0\t0\t0.490000")
    check("batch-bad-tau", run("batch", p("d.pti"), p("pats.txt"), "x"), 2,
          stderr_has="bad tau")
    check("batch-missing-patterns",
          run("batch", p("d.pti"), p("absent.txt"), "0.3"), 1,
          stderr_has="cannot read")
    check("batch-wrong-kind", run("batch", p("l.pti"), p("pats.txt"), "0.3"),
          1, stderr_has="requires a substring or sharded")
    with open(p("badpats.txt"), "w") as f:
        f.write("QP not-a-tau\n")
    check("batch-bad-line", run("batch", p("d.pti"), p("badpats.txt"), "0.3"),
          1, stderr_has="line 1")

    # ---- serve ----
    # Same patterns file as batch; results must match batch's output lines
    # (input-order i<TAB>pos<TAB>prob) with engine stats on stderr.
    check("serve-substring",
          run("serve", p("d.pti"), p("pats.txt"), "0.3"), 0,
          stdout_has="0\t0\t0.490000", stderr_has="3 queries")
    check("serve-stats-on-stderr",
          run("serve", p("d.pti"), p("pats.txt"), "0.3"), 0,
          stderr_has="serving:")
    check("serve-sharded",
          run("serve", p("sh.pti"), p("pats.txt"), "0.3", "--clients=2",
              "--batch-max=8", "--linger-us=50", "--cache-mb=4",
              "--threads=2"), 0,
          stderr_has="3 queries")
    serve_stdin = subprocess.run(
        [CLI, "serve", p("d.pti"), "-", "0.3"], input="QP\nQ 0.6\n",
        capture_output=True, text=True)
    check("serve-stdin", serve_stdin, 0, stdout_has="0\t0\t0.490000",
          stderr_has="2 queries")
    check("serve-missing-args", run("serve", p("d.pti")), 2,
          stderr_has="usage")
    check("serve-bad-tau", run("serve", p("d.pti"), p("pats.txt"), "x"), 2,
          stderr_has="bad tau")
    check("serve-bad-clients",
          run("serve", p("d.pti"), p("pats.txt"), "0.3", "--clients=0"), 2,
          stderr_has="bad value")
    check("serve-inapplicable-flag",
          run("serve", p("d.pti"), p("pats.txt"), "0.3", "--shards=2"), 2,
          stderr_has="not supported by this command")
    check("serve-wrong-kind", run("serve", p("l.pti"), p("pats.txt"), "0.3"),
          1, stderr_has="requires a substring or sharded")
    check("serve-missing-patterns",
          run("serve", p("d.pti"), p("absent.txt"), "0.3"), 1,
          stderr_has="cannot read")
    # A failing request (tau below tau_min) reports per-request: batch-mates
    # still print, the command exits 1 with the failure on stderr.
    with open(p("mixed.txt"), "w") as f:
        f.write("QP 0.3\nQP 0.01\n")
    check("serve-partial-failure",
          run("serve", p("d.pti"), p("mixed.txt"), "0.3"), 1,
          stdout_has="0\t0\t0.490000", stderr_has="1 request(s) failed")

    # ---- container format pinning and mmap-backed loads ----
    # --format=2 writes the portable interchange layout; query results must
    # be identical to the default (v3) container, mmap'd or not.
    check("build-format-v2",
          run("build", p("d.pus"), p("d2.pti"), "0.1", "--compact",
              "--format=2"), 0, stdout_has="compact")
    check("build-bad-format",
          run("build", p("d.pus"), p("x.pti"), "--format=7"), 2,
          stderr_has="bad value")
    check("build-sharded-format-v2",
          run("build-sharded", p("g.pus"), p("sh2.pti"), "0.1", "--shards=4",
              "--overlap=16", "--format=2"), 0, stdout_has="4 shards")
    v3 = run("query", p("dc.pti"), "QP", "0.4", "--mmap")
    check("query-mmap", v3, 0, stdout_has="0\t0.490000")
    v2 = run("query", p("d2.pti"), "QP", "0.4")
    if v2.stdout != v3.stdout:
        FAILURES.append("format-equivalence: v2 and mmap'd v3 results differ")
        print("FAIL format-equivalence")
    else:
        print("ok   format-equivalence")
    check("fuzzy-mmap",
          run("fuzzy", p("dc.pti"), "QP", "0.4", "--k=1", "--mmap"), 0,
          stderr_has="match(es)")
    check("batch-mmap",
          run("batch", p("sh.pti"), p("pats.txt"), "0.3", "--mmap"), 0,
          stderr_has="3 queries")
    check("stat-mmap", run("stat", p("dc.pti"), "--mmap"), 0,
          stdout_has="(mmap)")
    check("stat-format-v2", run("stat", p("d2.pti")), 0,
          stdout_has="container version    2")
    check("mmap-missing-index", run("query", p("absent.pti"), "QP", "0.4",
                                    "--mmap"), 1, stderr_has="cannot read")

    # ---- serve hot reload ----
    # A !reload directive swaps the served index between segments; every
    # query before and after must still resolve exactly once.
    with open(p("reload.txt"), "w") as f:
        f.write("QP 0.3\n!reload %s\nQP 0.3\nPP 0.3\n" % p("d2.pti"))
    check("serve-reload",
          run("serve", p("d.pti"), p("reload.txt"), "0.3", "--mmap"), 0,
          stdout_has="2\t1\t0.700000", stderr_has="1 reload(s)")
    with open(p("badreload.txt"), "w") as f:
        f.write("QP 0.3\n!reload %s\nQP 0.3\n" % p("absent.pti"))
    # A failed reload keeps the previous generation serving (both queries
    # still answer) and surfaces as an operational failure.
    check("serve-reload-failure",
          run("serve", p("d.pti"), p("badreload.txt"), "0.3"), 1,
          stdout_has="1\t0\t0.490000", stderr_has="reload(s) failed")
    with open(p("baddirective.txt"), "w") as f:
        f.write("!frobnicate\n")
    check("serve-bad-directive",
          run("serve", p("d.pti"), p("baddirective.txt"), "0.3"), 1,
          stderr_has="unknown directive")
    with open(p("pathless.txt"), "w") as f:
        f.write("!reload\n")
    check("serve-reload-no-path",
          run("serve", p("d.pti"), p("pathless.txt"), "0.3"), 1,
          stderr_has="needs an index path")

    # Atomic index writes: a failed build-to-unwritable-path must not leave
    # a file (or .tmp litter) under the target name.
    target = os.path.join(tmp, "no", "dir.pti")
    check("build-unwritable", run("build", p("d.pus"), target), 1,
          stderr_has="cannot write")
    if os.path.exists(target) or os.path.exists(target + ".tmp"):
        FAILURES.append("atomic-write: failed build left files behind")
        print("FAIL atomic-write")
    else:
        print("ok   atomic-write")

    # ---- serve --listen + pti_client: loopback TCP serving ----
    if client:
        def crun(*args, **kw):
            return subprocess.run([client, *args], capture_output=True,
                                  text=True, timeout=60, **kw)

        check("client-usage", crun(), 2, stderr_has="usage")
        check("client-bad-port",
              crun("127.0.0.1", "nope", p("pats.txt"), "0.3"), 2,
              stderr_has="bad port")
        check("client-refused",
              crun("127.0.0.1", "1", p("pats.txt"), "0.3"), 1,
              stderr_has="error")
        check("listen-with-patterns",
              run("serve", p("d.pti"), p("pats.txt"), "0.3", "--listen=0"),
              2, stderr_has="usage")
        check("listen-bad-port", run("serve", p("d.pti"), "--listen=70000"),
              2, stderr_has="bad value")

        server = subprocess.Popen(
            [CLI, "serve", p("d.pti"), "--listen=0", "--mmap"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        try:
            port = server.stdout.readline().strip()
            if not port.isdigit():
                FAILURES.append(f"listen-port: got {port!r} on stdout")
                print("FAIL listen-port")
            else:
                print("ok   listen-port")
                # The networked answers must be byte-identical to the local
                # batch command over the same workload.
                net = crun("127.0.0.1", port, p("pats.txt"), "0.3", "--stats")
                check("client-batch", net, 0, stdout_has="0\t0\t0.490000",
                      stderr_has="3 queries")
                local = run("batch", p("d.pti"), p("pats.txt"), "0.3")
                if net.stdout != local.stdout:
                    FAILURES.append("client-vs-batch: results differ")
                    print("FAIL client-vs-batch")
                else:
                    print("ok   client-vs-batch")
                check("client-stats", net, 0,
                      stderr_has="stat submitted")
                # Hot reload over the wire, mid-workload; d2 answers "PP"
                # via position 1 exactly like the local serve-reload case.
                check("client-reload",
                      crun("127.0.0.1", port, p("reload.txt"), "0.3"), 0,
                      stdout_has="2\t1\t0.700000", stderr_has="reloaded")
                check("client-reload-failure",
                      crun("127.0.0.1", port, p("badreload.txt"), "0.3"), 1,
                      stderr_has="reload")
            out, err = server.communicate(input="", timeout=60)
            if server.returncode != 0:
                FAILURES.append(f"listen-shutdown: exit {server.returncode}")
                print("FAIL listen-shutdown")
            elif "net:" not in err or "serving:" not in err:
                FAILURES.append(f"listen-shutdown: stats missing: {err[:200]!r}")
                print("FAIL listen-shutdown")
            else:
                print("ok   listen-shutdown")
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()

    # ---- topk ----
    check("topk", run("topk", p("d.pti"), "QP", "0.2", "2"), 0,
          stdout_has="0\t0.490000")
    check("topk-missing-args", run("topk", p("d.pti"), "QP", "0.2"), 2,
          stderr_has="usage")
    check("topk-bad-k", run("topk", p("d.pti"), "QP", "0.2", "-1"), 2,
          stderr_has="bad k")
    check("topk-wrong-kind", run("topk", p("l.pti"), "QP", "0.2", "2"), 1,
          stderr_has="requires a substring index")

    # ---- stat (every kind) ----
    for kind, path in [("substring", "g.pti"), ("sharded", "sh.pti"),
                       ("approx", "a.pti"), ("special", "s.pti"),
                       ("listing", "l.pti")]:
        check(f"stat-{kind}", run("stat", p(path)), 0, stdout_has=kind)
    check("stat-compact", run("stat", p("dc.pti")), 0,
          stdout_has="compact (FM-index)")
    check("stat-missing-args", run("stat"), 2, stderr_has="usage")
    check("stat-corrupt", run("stat", p("trunc.pti")), 1,
          stderr_has="Corruption")

    print(f"\n{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
