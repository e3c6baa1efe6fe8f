#!/usr/bin/env python3
"""Static lint for the cache_ext kfunc surface and fault-point registry.

Two invariants the C++ compiler cannot check for us:

1. Every kfunc on CacheExtApi (the surface handed to policy programs)
   must charge the running program's helper budget via ChargeHelperCall().
   A kfunc that forgets to charge is an unmetered escape hatch from the
   verifier's derived worst-case helper bound.

2. Every fault point declared in src/fault/fault_injector.h
   (fault::points::k*) must be returned by AllFaultPoints() in
   src/fault/fault_injector.cc AND must have at least one
   InjectFault(...) call site under src/. A declared-but-unregistered
   point silently disables chaos coverage for that failure mode.

3. Every PolicyHook enumerator (src/pagecache/eviction.h) must be wired
   through the circuit breaker in src/cache_ext/framework.cc: at least
   one Degraded(PolicyHook::kX) guard AND one RunProgram(PolicyHook::kX,
   ...) dispatch. A hook added without both (like the PR-8 readahead /
   admit_order pair) would run policy code with no violation accounting
   and no degradation path.

Pure stdlib, no compiler needed; runs as part of tools/check.sh --analyze.
Exits non-zero with a message per violation.
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The kfunc methods of CacheExtApi (Table 2 of the paper plus the
# current-task helper). UnlinkForRemoval / nr_lists / Notify are
# framework-internal and deliberately absent.
KFUNC_METHODS = [
    "ListCreate",
    "ListAdd",
    "ListMove",
    "ListDel",
    "ListSize",
    "ListIdOf",
    "CurrentTask",
    "ListIterate",
    "ListIterateScore",
]

EVICTION_LIST_CC = os.path.join(REPO, "src", "cache_ext", "eviction_list.cc")
FAULT_H = os.path.join(REPO, "src", "fault", "fault_injector.h")
FAULT_CC = os.path.join(REPO, "src", "fault", "fault_injector.cc")
EVICTION_H = os.path.join(REPO, "src", "pagecache", "eviction.h")
FRAMEWORK_CC = os.path.join(REPO, "src", "cache_ext", "framework.cc")


def read(path):
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def method_body(source, method):
    """Return the brace-delimited body of CacheExtApi::<method>(...)."""
    # Find the definition (not a call): qualified name followed by an
    # argument list and an opening brace.
    pattern = re.compile(r"CacheExtApi::%s\s*\(" % re.escape(method))
    match = pattern.search(source)
    if match is None:
        return None
    # Walk to the opening brace of the body, then balance braces.
    i = source.index("(", match.end() - 1)
    depth = 0
    while i < len(source):
        if source[i] == "(":
            depth += 1
        elif source[i] == ")":
            depth -= 1
            if depth == 0:
                break
        i += 1
    brace = source.index("{", i)
    depth = 0
    for j in range(brace, len(source)):
        if source[j] == "{":
            depth += 1
        elif source[j] == "}":
            depth -= 1
            if depth == 0:
                return source[brace : j + 1]
    return None


def check_kfunc_charges(errors):
    source = read(EVICTION_LIST_CC)
    for method in KFUNC_METHODS:
        body = method_body(source, method)
        if body is None:
            errors.append(
                "%s: kfunc CacheExtApi::%s not found (renamed? update "
                "tools/lint_kfunc_charge.py)" % (EVICTION_LIST_CC, method)
            )
            continue
        if "ChargeHelperCall()" not in body:
            errors.append(
                "%s: kfunc CacheExtApi::%s does not call "
                "bpf::ChargeHelperCall() — unmetered helper" % (EVICTION_LIST_CC, method)
            )


def declared_fault_points():
    """(constant name, string value) pairs from the points namespace."""
    source = read(FAULT_H)
    ns = re.search(r"namespace points\s*\{(.*?)\}\s*//\s*namespace points", source, re.S)
    if ns is None:
        # Fall back to scanning the whole header.
        ns_body = source
    else:
        ns_body = ns.group(1)
    return re.findall(
        r"constexpr\s+std::string_view\s+(k\w+)\s*=\s*\"([^\"]+)\"", ns_body
    )


def check_fault_registry(errors):
    points = declared_fault_points()
    if not points:
        errors.append("%s: no fault::points constants found" % FAULT_H)
        return

    cc = read(FAULT_CC)
    registry = re.search(r"AllFaultPoints\(\)\s*\{(.*?)\n\}", cc, re.S)
    if registry is None:
        errors.append("%s: AllFaultPoints() definition not found" % FAULT_CC)
        return
    registry_body = registry.group(1)

    # Gather every InjectFault call site under src/ (excluding the injector
    # itself) so declared points that nothing can ever fire are flagged too.
    sites = []
    for root, _, files in os.walk(os.path.join(REPO, "src")):
        for name in files:
            if not name.endswith((".h", ".cc")):
                continue
            path = os.path.join(root, name)
            if os.path.basename(path).startswith("fault_injector"):
                continue
            text = read(path)
            if "InjectFault(" in text:
                sites.append(text)
    all_sites = "\n".join(sites)

    for const, value in points:
        if "points::%s" % const not in registry_body:
            errors.append(
                "%s: fault point %s (\"%s\") is declared but missing from "
                "AllFaultPoints()" % (FAULT_CC, const, value)
            )
        if "points::%s" % const not in all_sites:
            errors.append(
                "src/: fault point %s (\"%s\") has no InjectFault() call "
                "site — dead chaos knob" % (const, value)
            )


def declared_policy_hooks():
    """PolicyHook enumerator names from src/pagecache/eviction.h."""
    source = read(EVICTION_H)
    enum = re.search(r"enum class PolicyHook\s*:\s*\w+\s*\{(.*?)\}", source, re.S)
    if enum is None:
        return []
    return re.findall(r"\b(k\w+)\b", enum.group(1))


def check_hook_breaker_wiring(errors):
    hooks = declared_policy_hooks()
    if not hooks:
        errors.append("%s: PolicyHook enum not found" % EVICTION_H)
        return
    framework = read(FRAMEWORK_CC)
    for hook in hooks:
        if "Degraded(PolicyHook::%s)" % hook not in framework:
            errors.append(
                "%s: PolicyHook::%s has no Degraded() guard — hook keeps "
                "dispatching after its breaker trips" % (FRAMEWORK_CC, hook)
            )
        if not re.search(
            r"RunProgram\(PolicyHook::%s\b" % re.escape(hook), framework
        ):
            errors.append(
                "%s: PolicyHook::%s is never dispatched via RunProgram() — "
                "policy code would run unmetered (no watchdog, no breaker "
                "accounting)" % (FRAMEWORK_CC, hook)
            )


def main():
    errors = []
    check_kfunc_charges(errors)
    check_fault_registry(errors)
    check_hook_breaker_wiring(errors)
    if errors:
        for err in errors:
            print("lint_kfunc_charge: %s" % err, file=sys.stderr)
        print(
            "lint_kfunc_charge: FAILED (%d violation%s)"
            % (len(errors), "" if len(errors) == 1 else "s"),
            file=sys.stderr,
        )
        return 1
    print(
        "lint_kfunc_charge: OK (%d kfuncs charge the helper budget, "
        "%d fault points registered and reachable, %d hooks breaker-wired)"
        % (
            len(KFUNC_METHODS),
            len(declared_fault_points()),
            len(declared_policy_hooks()),
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
