#!/usr/bin/env python3
"""List exported values that no program code calls.

    python3 tools/exports.py [--all]

Every `val` of every `lib/**/*.mli` (nested `module M : sig` blocks
included) must have a caller in `lib`, `bin`, `perfbench`, `examples`
or `tools` outside its own module; tests do not count.  A reference
counts when it names the value through its module path, an alias
(`module S = Mcheck_api.Session`) or an `open`/`M.(...)` of the module.
Exports kept on purpose are listed in ALLOWLIST below, each with its
reason.  Exit status 1 lists the exports with neither a caller nor a
reason, and the allowlist entries that no longer name such an export.
`--all` prints every uncalled export, allowlisted ones included.
"""

import os
import re
import sys

# Exports with no program caller, kept on purpose.
ALLOWLIST = {
    # references kept for differential testing
    "Paths.enumerate": "explicit path lists cross-check the DP path counts",
    "Mdsl.parse": "the metal interpreter is oracle O7's reference",
    "Mdsl.load_file": "the metal interpreter is oracle O7's reference",
    "Symtab.canon": "test/ref_lexer.ml, the lexer's reference, interns with it",
    "Proto.equal_request": "the codec round-trip properties compare with it",
    "Proto.equal_response": "the codec round-trip properties compare with it",
    "Proto.pp_request": "the codec round-trip properties print failures",
    "Callgraph.reachable_from":
        "the AST walk test_mcd checks Mcd's fact-based lanes closure with",
    # invariants the simulator properties assert
    "Buffers.well_formed": "buffer-pool invariant of the simulator properties",
    "Lanes.pending": "lane-occupancy invariant of the simulator properties",
    # pieces of a production entry, pinned one at a time
    "Callgraph.callees": "reachable_from walks it; tests pin call-site order",
    "Callgraph.functions": "the call-graph edge-set property enumerates it",
    "Cfg.reachable": "the CFG structure properties check exit reachability",
    "Prep.subexprs_post": "Prep.build fills events with it; tests pin the order",
    "Ctype.to_string": "front-end tests compare inferred types as text",
    "Symtab.find": "the interning property looks names up without interning",
    "Binding.names": "the pattern-binding property compares bound names",
    "Pattern.find_all": "the matcher's hit order, pinned by test_pattern",
    "Fixer.fix_hooks": "Fixer.fix_all applies it; each fix is tested alone",
    "Fixer.fix_races": "Fixer.fix_all applies it; each fix is tested alone",
    "Fixer.fix_leaks": "Fixer.fix_all applies it; each fix is tested alone",
    "Interp.make_env": "Sim runs handlers through it; test_interp runs one",
    "Interp.call_function": "Sim runs handlers through it; test_interp runs one",
    "Golden.source": "Golden.program parses it; lexer tests read the text",
    "Manifest.expected_counts": "test_corpus compares findings to the seeds",
    "Faultinject.fault_to_string": "campaign reports print it; tests too",
    "Mcobs.hist_bounds_ms": "the quantile properties recompute buckets from it",
    "Table.render": "Table.print writes it; test_misc checks the layout",
    # handles on a live daemon the serving tests drive
    "Serve_oracle.default_config": "the daemon config test_serve starts from",
    "Serve_oracle.server": "test_serve reads a live daemon's pool and recorder",
    "Serve_oracle.addr": "test_serve connects extra clients to the oracle",
    "Server.default_telemetry": "test_serve varies one telemetry field",
    "Server.default_supervise": "test_serve varies one supervision field",
    "Server.flight_recorder": "test_serve reads the recorder of a live daemon",
    "Mctel.Flight.entries": "test_serve reads the recorder of a live daemon",
    "Worker.max_trailer_spans": "test_serve overflows the trailer span cap",
    "Client.set_breaker": "test_serve arms the circuit breaker",
    "Client.breaker_state": "test_serve observes the circuit breaker",
}

ROOTS = ["lib", "bin", "perfbench", "examples", "tools"]
WRAPPED_PREFIXES = ["Serve."]  # the one wrapped library


def strip_comments(src):
    out, depth, i = [], 0, 0
    while i < len(src):
        if src.startswith("(*", i):
            depth += 1
            i += 2
        elif depth and src.startswith("*)", i):
            depth -= 1
            i += 2
        else:
            if not depth:
                out.append(src[i])
            i += 1
    return "".join(out)


def module_name(path):
    base = os.path.splitext(os.path.basename(path))[0]
    return base[0].upper() + base[1:]


def exports(mli):
    """(module path, value) pairs of one interface."""
    src = strip_comments(open(mli).read())
    stack = [(module_name(mli), True)]  # (path, exported?)
    found = []
    for tok in re.finditer(
        r"\bmodule\s+type\s+\w+\s*=\s*sig\b|\bmodule\s+(\w+)\s*:\s*sig\b"
        r"|\bsig\b|\bobject\b|\bstruct\b|\bend\b"
        r"|\b(?:val|external)\s+([a-z_][\w']*|\([^)]*\))",
        src,
    ):
        text = tok.group(0)
        if text.startswith("module"):
            path, live = stack[-1]
            if tok.group(1):
                stack.append((path + "." + tok.group(1), live))
            else:
                stack.append((path, False))
        elif text in ("sig", "object", "struct"):
            stack.append((stack[-1][0], False))
        elif text == "end":
            if len(stack) > 1:
                stack.pop()
        else:
            path, live = stack[-1]
            name = tok.group(2)
            if live and not name.startswith("("):
                found.append((path, name))
    return found


def source_files():
    for root in ROOTS:
        for d, dirs, files in os.walk(root):
            dirs[:] = [x for x in dirs if not x.startswith((".", "_"))]
            for f in files:
                if f.endswith(".ml"):
                    yield os.path.join(d, f)


def uses(path):
    """(module path, value) pairs a source file may refer to."""
    src = strip_comments(open(path).read())
    for p in WRAPPED_PREFIXES:
        src = src.replace(p, "")
    aliases = dict(re.findall(r"\bmodule\s+(\w+)\s*=\s*([A-Z][\w.]*)", src))
    opens = re.findall(r"\bopen!?\s+([A-Z][\w.]*)", src)
    opens += re.findall(r"\b([A-Z][\w.]*)\.\(", src)

    def resolve(p):
        head, _, rest = p.partition(".")
        seen = set()
        while head in aliases and head not in seen:
            seen.add(head)
            full = aliases[head]
            head, _, more = full.partition(".")
            rest = ".".join(x for x in (more, rest) if x)
        return ".".join(x for x in (head, rest) if x)

    out = set()
    for m, v in re.findall(r"\b([A-Z][\w]*(?:\.[A-Z]\w*)*)\.([a-z_][\w']*)", src):
        full = resolve(m)
        out.add((full, v))
        for o in opens:
            out.add((resolve(o) + "." + full, v))
    if opens:
        words = set(re.findall(r"\b[a-z_][\w']*", src))
        for o in opens:
            for w in words:
                out.add((resolve(o), w))
    return out


def main():
    show_all = "--all" in sys.argv[1:]
    mlis = []
    for d, dirs, files in os.walk("lib"):
        mlis += [os.path.join(d, f) for f in files if f.endswith(".mli")]
    used = {}
    for f in source_files():
        used[f] = uses(f)
    uncalled = []
    for mli in sorted(mlis):
        own = os.path.splitext(mli)[0] + ".ml"
        for mod, name in exports(mli):
            if not any(
                (mod, name) in refs for f, refs in used.items() if f != own
            ):
                uncalled.append(mod + "." + name)
    bad = [e for e in uncalled if e not in ALLOWLIST]
    stale = [e for e in ALLOWLIST if e not in uncalled]
    for e in uncalled if show_all else bad:
        print(("  " if e in ALLOWLIST else "") + e)
    for e in stale:
        print("stale allowlist entry: " + e)
    if bad or stale:
        print(
            f"{len(bad)} export(s) without a program caller or a reason, "
            f"{len(stale)} stale allowlist entr(y/ies)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
