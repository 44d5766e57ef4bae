#!/usr/bin/env python3
"""lsi_lint: repo-specific static checks clang-tidy cannot express.

Line rules police single lines; structural rules check relationships —
between subsystems, between a mutex and its rank declaration, and
between the rank macros scattered through the tree and the one table
that defines them. The lock rules are the static half of the two-sided
lock-order gate; src/dbg/lock_tracker.h (LSI_DEADLOCK_DETECT=1) is the
runtime half.

Rules (scoped to library code under src/ unless noted):

  no-throw          `throw` across the public API boundary. Library entry
                    points report failure through Status/Result; exceptions
                    are reserved for the lsi::par region internals, which
                    catch and rethrow on the calling thread.
  no-raw-random     rand()/srand()/std::random_device outside common/rng.
                    All randomness flows through lsi::Rng so results are
                    reproducible from a seed (the paper's experiments and
                    the determinism tests depend on it).
  no-raw-thread     std::thread outside src/par. Long-lived service threads
                    (serve) are explicitly allowlisted; data-parallel work
                    must go through lsi::par so LSI_THREADS and the
                    bit-identical-results contract hold.
  no-raw-mutex      std::mutex / std::lock_guard / std::unique_lock /
                    std::condition_variable outside common/mutex.h. Raw
                    standard types carry no capability attributes, which
                    blinds clang -Wthread-safety; guard state with
                    lsi::Mutex + LSI_GUARDED_BY instead.
  no-stdio          printf/cout/cerr-style output in library code (tools/
                    and tests are front-ends and exempt). Diagnostics go
                    through LSI_LOG (common/logging.h); snprintf into a
                    caller buffer is formatting, not output, and is fine.
  no-raw-intrinsics SIMD intrinsics (<immintrin.h>/<arm_neon.h>, _mm*/
                    __m256*/float64x2_t/v*_f64) outside src/linalg/simd/.
                    Only simd_avx2.cc is compiled with -mavx2, so an
                    intrinsic anywhere else either fails to build or —
                    worse — executes unguarded on hosts without the
                    instruction set. All vector code goes behind the
                    lsi::linalg::simd dispatch layer. Scoped to src/ and
                    tools/.
  include-guard     Headers open with `#ifndef LSI_<PATH>_H_` matching
                    their path (src/core/engine.h -> LSI_CORE_ENGINE_H_).
  fault-point       LSI_FAULT_POINT takes a single string literal matching
                    [a-z0-9_.]+ (so every point is addressable from an
                    LSI_FAULT spec), stays on one line (so this scan can
                    see it), and each name has exactly one call site across
                    src/ + tools/ (duplicate registration of one name is a
                    programming error in the registry). src/common/fault.h
                    defines the macro and is exempt; tests may reuse names
                    deliberately and are not scanned.
  route-fault-point Every HTTP route dispatched in src/serve or
                    src/shard (a literal `path == "/x"` comparison) must
                    declare a fault point named `serve.<x>.*` /
                    `shard.<x>.*`, so the fault-torture CI job can
                    exercise its failure path. serve routes that predate
                    the fault registry (healthz, metrics, statusz,
                    query, related) are grandfathered; every route added
                    since — and every shard router route, with no
                    grandfathering — ships with its kill switch.
  layering          The subsystem dependency DAG. Each src/<sub>/ may
                    include headers only from the subsystems listed in
                    ALLOWED_DEPS (dbg is the bottom layer, shard the
                    top). A file in a subsystem missing from the table
                    is itself a finding, so the DAG cannot silently
                    grow untracked nodes.
  mutex-rank        Every `Mutex foo_...` declaration must construct with
                    LSI_LOCK_RANK("name", lock_rank::k...) in its
                    initialiser, starting on the declaration line or the
                    next, so the runtime detector knows its class.
                    Unranked mutexes are invisible to deadlock detection
                    (LSI_DEADLOCK_DETECT=1; see src/common/lock_ranks.h).
  mutex-guard       Every declared Mutex must have at least one
                    LSI_GUARDED_BY(<name>) / LSI_PT_GUARDED_BY(<name>)
                    user in the same file — a mutex guarding nothing
                    the annotations can see is either dead or hiding
                    unannotated state from clang -Wthread-safety.
  rank-table        LSI_LOCK_RANK takes a string literal name matching
                    [a-z0-9_.]+ and a lock_rank::k* constant defined in
                    src/common/lock_ranks.h — numeric-literal ranks
                    would bypass the one table the runtime detector's
                    reports point people at.
  rank-unique       Each lock-class name is declared at exactly one
                    site. Duplicate names would merge distinct mutexes
                    into one node of the acquired-before graph (and a
                    rank mismatch between the sites aborts at runtime);
                    one site per name keeps both analyses honest.
  compile-coverage  With --compile-commands: every src/**.cc must
                    appear as a translation unit in the exported
                    compile_commands.json. A source file CMake does not
                    compile is invisible to clang -Wthread-safety,
                    clang-tidy, and the thread-safety CI gate.
                    Platform-conditional TUs (the SIMD backends) are
                    allowlisted; this rule is exempt from staleness
                    policing because which entry is "stale" depends on
                    the build host's architecture.

Each rule is one RULES entry: a name, a path scope, a per-file check
and, for cross-file rules, a full-tree check. Full-tree checks
(fault-point and rank-unique uniqueness, route-fault-point) run only
when no paths are given: a single-file invocation cannot see the other
sites.

Findings print one per line as `path:line: rule: message`, or as a JSON
array with --json. Exit status: 0 clean, 1 findings, 2 usage error.

Suppressions: an allowlist file (default tools/lint_allowlist.txt) with
`rule path` lines; `#` starts a comment. Entries (other than
compile-coverage, see above) must match at least one finding on a
full-tree run, so stale entries fail the run instead of rotting.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Optional

COMMENT_RE = re.compile(r"//.*$")
STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')

# A complete call and the literal-only argument shape it must have.
FAULT_CALL_RE = re.compile(r"\bLSI_FAULT_POINT\s*\(([^)]*)\)")
FAULT_NAME_RE = re.compile(r'^\s*"([a-z0-9_.]+)"\s*$')
FAULT_OPEN_RE = re.compile(r"\bLSI_FAULT_POINT\s*\([^)]*$")

# A route dispatch in the service layer: `path == "/query"`.
ROUTE_RE = re.compile(r'\bpath\s*==\s*"/([a-z0-9_]+)"')

# serve routes that predate the fault registry. Everything added after
# this set was frozen must declare a `serve.<route>.*` fault point; the
# shard router postdates the registry entirely, so no shard route is
# grandfathered.
GRANDFATHERED_ROUTES = frozenset(
    {"healthz", "metrics", "statusz", "query", "related"}
)

# The subsystem layering DAG: subsystem -> subsystems it may include.
# Kept in dependency order, bottom first. This is the *actual* DAG —
# linalg sits above par/obs because the SVD kernels run on the thread
# pool and publish solver telemetry — not an aspirational one; changing
# it is an architectural decision that belongs in this diff-reviewed
# table, mirrored in DESIGN.md ("Static analysis").
ALLOWED_DEPS = {
    "dbg": set(),
    "common": {"dbg"},
    "obs": {"dbg", "common"},
    "par": {"dbg", "common", "obs"},
    "linalg": {"dbg", "common", "obs", "par"},
    "text": {"dbg", "common", "linalg"},
    "model": {"dbg", "common", "linalg", "text"},
    "core": {"dbg", "common", "linalg", "obs", "par", "text"},
    "live": {"dbg", "common", "core", "linalg", "obs", "par", "text"},
    "serve": {"dbg", "common", "core", "linalg", "live", "obs", "par",
              "text"},
    "shard": {"dbg", "common", "core", "linalg", "live", "obs", "par",
              "serve", "text"},
}

RANK_TABLE_PATH = "src/common/lock_ranks.h"

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
# A Mutex instance declaration: `Mutex name;` / `Mutex name{...` /
# `Mutex name = ...`, possibly spanning lines. References (`Mutex&`),
# MutexLock and the wrapped `std::mutex` never match.
MUTEX_DECL_RE = re.compile(r"\bMutex\s+(\w+)\s*[;{=]")
GUARDED_BY_RE = re.compile(r"\bLSI_(?:PT_)?GUARDED_BY\s*\(\s*([\w]+)\s*\)")
LOCK_RANK_CALL_RE = re.compile(r"\bLSI_LOCK_RANK\s*\(([^)]*)\)", re.DOTALL)
LOCK_RANK_ARGS_RE = re.compile(
    r'^\s*"([a-z0-9_.]+)"\s*,\s*(?:::)?(?:lsi::)?lock_rank::(k\w+)\s*$',
    re.DOTALL,
)
RANK_CONST_RE = re.compile(r"\binline\s+constexpr\s+int\s+(k\w+)\s*=\s*(\d+)")


def strip_noncode(line: str) -> str:
    """Blanks string literals and line comments so patterns only see code.

    Block comments are handled crudely (single-line only); the codebase
    uses line comments throughout, and a false positive is a visible,
    fixable report rather than a silent miss.
    """
    line = STRING_RE.sub('""', line)
    line = COMMENT_RE.sub("", line)
    line = re.sub(r"/\*.*?\*/", "", line)
    return line


def strip_comments_keep_strings(line: str) -> str:
    """Drops comments but keeps string literals (the fault-point and
    rank rules inspect the literal itself, which strip_noncode blanks
    away)."""
    # Blank strings in a same-length copy so a `//` inside a literal
    # cannot masquerade as a comment start, then cut the original.
    blanked = STRING_RE.sub(lambda m: '"' + "x" * (len(m.group(0)) - 2) + '"', line)
    cut = blanked.find("//")
    if cut >= 0:
        line = line[:cut]
    return re.sub(r"/\*.*?\*/", "", line)


def finding(rule, path, line, message, snippet=""):
    return {
        "rule": rule,
        "path": path,
        "line": line,
        "message": message,
        "snippet": snippet.strip()[:120],
    }


def subsystem_of(relpath: str):
    parts = relpath.split("/")
    return parts[1] if relpath.startswith("src/") and len(parts) >= 3 else None


class Source:
    """One file as the per-file checks see it."""

    def __init__(self, relpath: str, text: str):
        self.relpath = relpath
        self.lines = text.splitlines()
        # Comments dropped, string literals kept: for rules that read
        # the literal (fault-point and lock-rank names, includes).
        self.code_lines = [strip_comments_keep_strings(l) for l in self.lines]
        self.code = "\n".join(self.code_lines)
        # Comments and string literals blanked: for the line rules.
        self.noncode_lines = [strip_noncode(l) for l in self.lines]

    def line_of(self, offset: int) -> int:
        return self.code.count("\n", 0, offset) + 1

    def snippet(self, lineno: int) -> str:
        return self.lines[lineno - 1] if lineno <= len(self.lines) else ""


@dataclass
class Tree:
    """Run-wide state: the inputs per-file checks read, and the sites
    they record for the full-tree checks."""

    rank_table: Optional[dict]  # lock_rank constant -> value, or None
    compiled: Optional[set]  # TU paths from --compile-commands, or None
    compile_commands: Optional[str]
    fault_points: dict = field(default_factory=dict)  # name -> [(path, line)]
    routes: dict = field(default_factory=dict)  # (ns, route) -> [(path, line)]
    rank_sites: dict = field(default_factory=dict)  # class -> [(path, line)]


class Rule(NamedTuple):
    """`check(source, tree)` yields (line, message) findings for one
    in-scope file and may record sites in `tree`; `tree_check(tree)`
    yields (path, line, message) on full-tree runs."""

    name: str
    scope: Callable[[str], bool]
    check: Callable[[Source, Tree], Iterable]
    tree_check: Optional[Callable[[Tree], Iterable]] = None


def line_rule(pattern: str, message: str):
    """A check matching `pattern` per physical line, after comments and
    string literals are blanked."""
    regex = re.compile(pattern)

    def check(src, tree):
        for lineno, code in enumerate(src.noncode_lines, start=1):
            if regex.search(code):
                yield lineno, message

    return check


def expected_guard(relpath: str) -> str:
    # src/core/engine.h -> LSI_CORE_ENGINE_H_
    without_src = relpath[len("src/"):]
    token = re.sub(r"[^A-Za-z0-9]", "_", without_src)
    return "LSI_" + token.upper() + "_"


def check_include_guard(src, tree):
    guard = expected_guard(src.relpath)
    ifndef, define = f"#ifndef {guard}", f"#define {guard}"
    head = [l.strip() for l in src.lines[:40]]
    if ifndef not in head or define not in head:
        yield 1, f"header must open with {ifndef} / {define}"


def check_fault_points(src, tree):
    for lineno, code in enumerate(src.code_lines, start=1):
        matched_spans = []
        for m in FAULT_CALL_RE.finditer(code):
            matched_spans.append(m.span())
            name = FAULT_NAME_RE.match(m.group(1))
            if name is None:
                yield lineno, (
                    "LSI_FAULT_POINT takes a single string literal "
                    'matching "[a-z0-9_.]+"'
                )
            else:
                tree.fault_points.setdefault(name.group(1), []).append(
                    (src.relpath, lineno)
                )
        open_call = FAULT_OPEN_RE.search(code)
        if open_call and not any(
            s <= open_call.start() < e for s, e in matched_spans
        ):
            yield lineno, (
                "keep the LSI_FAULT_POINT call on one line so its name "
                "stays lintable"
            )


def duplicate_sites(sites_by_name, message):
    """Yields every site of a name after its first, for uniqueness
    rules; `message(name, where)` describes the clash."""
    for name, sites in sorted(sites_by_name.items()):
        where = ", ".join(f"{p}:{l}" for p, l in sites)
        for path, line in sites[1:]:
            yield path, line, message(name, where)


def unique_fault_points(tree):
    return duplicate_sites(
        tree.fault_points,
        lambda name, where: f'fault point "{name}" is registered at more '
        f"than one call site ({where}); names must be unique so LSI_FAULT "
        "specs are unambiguous",
    )


def collect_routes(src, tree):
    namespace = subsystem_of(src.relpath)
    for lineno, code in enumerate(src.code_lines, start=1):
        for m in ROUTE_RE.finditer(code):
            tree.routes.setdefault((namespace, m.group(1)), []).append(
                (src.relpath, lineno)
            )
    return ()


def routes_have_fault_points(tree):
    for (namespace, route), sites in sorted(tree.routes.items()):
        if namespace == "serve" and route in GRANDFATHERED_ROUTES:
            continue
        prefix = f"{namespace}.{route}."
        if any(name.startswith(prefix) for name in tree.fault_points):
            continue
        path, line = sites[0]
        yield path, line, (
            f'route "/{route}" declares no fault point named "{prefix}*"; '
            f"every new {namespace} route ships with a kill switch the "
            "fault-torture job can arm"
        )


def check_layering(src, tree):
    sub = subsystem_of(src.relpath)
    if sub not in ALLOWED_DEPS:
        yield 1, (
            f'subsystem "src/{sub}/" is not in the layering DAG; add it to '
            "ALLOWED_DEPS in tools/lsi_lint.py (and to DESIGN.md "
            '"Static analysis") before building on it'
        )
        return
    for lineno, code in enumerate(src.code_lines, start=1):
        m = INCLUDE_RE.match(code)
        if m is None:
            continue
        dep = m.group(1).split("/")[0]
        if dep != sub and dep in ALLOWED_DEPS and dep not in ALLOWED_DEPS[sub]:
            allowed = ", ".join(sorted(ALLOWED_DEPS[sub])) or "none"
            yield lineno, (
                f'"{sub}" may not depend on "{dep}" (allowed: {allowed}); '
                "the layering DAG lives in tools/lsi_lint.py"
            )


def mutex_decls(src):
    """Yields (name, line, initialiser) per Mutex declaration; the
    initialiser is the comment-free text from the name to the `;`."""
    for m in MUTEX_DECL_RE.finditer(src.code):
        end = src.code.find(";", m.end(1))
        init = src.code[m.end(1) : end if end >= 0 else None]
        yield m.group(1), src.line_of(m.start()), init


def check_mutex_rank(src, tree):
    for name, lineno, init in mutex_decls(src):
        # The rank macro opens on the declaration line or the
        # continuation line right under it.
        window = "\n".join(src.code_lines[lineno - 1 : lineno + 1])
        if "LSI_LOCK_RANK" not in init or "LSI_LOCK_RANK" not in window:
            yield lineno, (
                f'Mutex "{name}" has no rank: construct it with '
                'LSI_LOCK_RANK("<subsystem>.<name>", lock_rank::k...) so '
                "LSI_DEADLOCK_DETECT can order it (src/common/lock_ranks.h)"
            )


def check_mutex_guard(src, tree):
    guard_users = set(GUARDED_BY_RE.findall(src.code))
    for name, lineno, _ in mutex_decls(src):
        if name not in guard_users:
            yield lineno, (
                f'Mutex "{name}" has no LSI_GUARDED_BY({name}) user in this '
                "file; annotate the state it protects or delete the lock"
            )


def rank_calls(src):
    """Yields (line, args match or None) per LSI_LOCK_RANK call."""
    for m in LOCK_RANK_CALL_RE.finditer(src.code):
        yield src.line_of(m.start()), LOCK_RANK_ARGS_RE.match(m.group(1))


def check_rank_table(src, tree):
    for lineno, args in rank_calls(src):
        if args is None:
            yield lineno, (
                'LSI_LOCK_RANK takes ("[a-z0-9_.]+", lock_rank::k...) — a '
                f"literal name and a constant from {RANK_TABLE_PATH}, "
                "nothing else"
            )
        elif tree.rank_table is not None and args.group(2) not in tree.rank_table:
            yield lineno, (
                f"lock_rank::{args.group(2)} is not defined in "
                f"{RANK_TABLE_PATH}; add it to the right band there first"
            )


def collect_rank_sites(src, tree):
    for lineno, args in rank_calls(src):
        if args is not None:
            tree.rank_sites.setdefault(args.group(1), []).append(
                (src.relpath, lineno)
            )
    return ()


def unique_rank_names(tree):
    return duplicate_sites(
        tree.rank_sites,
        lambda name, where: f'lock class "{name}" is declared at more than '
        f"one site ({where}); one LSI_LOCK_RANK site per name — reuse the "
        "Mutex or pick a new name + rank",
    )


def check_compile_coverage(src, tree):
    if tree.compiled is not None and src.relpath not in tree.compiled:
        yield 1, (
            f"{src.relpath} is not a translation unit in "
            f"{tree.compile_commands}; un-built sources are invisible to "
            "clang -Wthread-safety and clang-tidy"
        )


def in_src(path: str) -> bool:
    return path.startswith("src/")


def in_src_or_tools(path: str) -> bool:
    return path.startswith(("src/", "tools/"))


def declares_mutexes(path: str) -> bool:
    # The wrapper's own header declares the type, not instances.
    return in_src(path) and path != "src/common/mutex.h"


def calls_lock_rank(path: str) -> bool:
    # The table header defines the macro itself and is exempt.
    return in_src(path) and path != RANK_TABLE_PATH


RULES = (
    Rule(
        "no-throw",
        in_src,
        line_rule(
            r"(?<![\w.])throw\b",
            "library code must report errors via Status/Result, not exceptions",
        ),
    ),
    Rule(
        "no-raw-random",
        lambda p: in_src(p) and not p.startswith("src/common/rng"),
        line_rule(
            r"(?<![\w.])(std::random_device|srand\s*\(|rand\s*\(\))",
            "use lsi::Rng: unseeded randomness breaks reproducibility",
        ),
    ),
    Rule(
        "no-raw-thread",
        lambda p: in_src(p) and not p.startswith("src/par/"),
        line_rule(
            r"\bstd::thread\b", "spawn work through lsi::par, not raw std::thread"
        ),
    ),
    Rule(
        "no-raw-mutex",
        lambda p: in_src(p) and p != "src/common/mutex.h",
        line_rule(
            r"\bstd::(mutex|timed_mutex|recursive_mutex|shared_mutex|"
            r"lock_guard|unique_lock|scoped_lock|condition_variable)\b",
            "use lsi::Mutex/MutexLock/CondVar (common/mutex.h) so "
            "clang -Wthread-safety can track the capability",
        ),
    ),
    Rule(
        "no-stdio",
        lambda p: in_src(p)
        and p not in ("src/common/logging.cc", "src/common/check.h"),
        line_rule(
            r"(\bstd::(cout|cerr)\b|(?<![\w:])(?:std::)?"
            r"(?:printf|fprintf|puts|fputs|putchar)\s*\()",
            "library code logs through LSI_LOG, not stdout/stderr",
        ),
    ),
    Rule(
        "no-raw-intrinsics",
        lambda p: in_src_or_tools(p) and not p.startswith("src/linalg/simd/"),
        line_rule(
            r"(#\s*include\s*<(?:immintrin|x86intrin|arm_neon|emmintrin|"
            r"xmmintrin|smmintrin|tmmintrin|nmmintrin|avx\w*intrin)\.h>"
            r"|\b_mm\d*_\w+\s*\(|\b__m(?:128|256|512)[di]?\b"
            r"|\bfloat64x[12]_t\b"
            r"|\bv(?:fma|mla|add|sub|mul|ld1|st1|dup|mov|get|set|addv)"
            r"\w*_f64\b)",
            "raw SIMD intrinsics live in src/linalg/simd/ only; call the "
            "lsi::linalg::simd dispatch layer instead",
        ),
    ),
    Rule("include-guard", lambda p: in_src(p) and p.endswith(".h"),
         check_include_guard),
    Rule("fault-point",
         lambda p: in_src_or_tools(p) and p != "src/common/fault.h",
         check_fault_points, unique_fault_points),
    Rule("route-fault-point", lambda p: subsystem_of(p) in ("serve", "shard"),
         collect_routes, routes_have_fault_points),
    Rule("layering", lambda p: subsystem_of(p) is not None, check_layering),
    Rule("mutex-rank", declares_mutexes, check_mutex_rank),
    Rule("mutex-guard", declares_mutexes, check_mutex_guard),
    Rule("rank-table", calls_lock_rank, check_rank_table),
    Rule("rank-unique", calls_lock_rank, collect_rank_sites, unique_rank_names),
    Rule("compile-coverage",
         lambda p: in_src(p) and p.endswith((".cc", ".cpp")),
         check_compile_coverage),
)


def check_file(relpath: str, text: str, tree: Tree):
    """Runs every in-scope rule's per-file check over one file."""
    src = Source(relpath, text)
    return [
        finding(rule.name, relpath, lineno, message, src.snippet(lineno))
        for rule in RULES
        if rule.scope(relpath)
        for lineno, message in rule.check(src, tree)
    ]


def load_rank_table(root: str):
    """Parses lock_rank::k* constants out of src/common/lock_ranks.h.
    Returns {constant: value} or None when the table file is absent
    (fixture trees without one skip the existence check)."""
    path = os.path.join(root, RANK_TABLE_PATH)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        code = Source(RANK_TABLE_PATH, fh.read()).code
    return {name: int(value) for name, value in RANK_CONST_RE.findall(code)}


def compiled_sources(root, compile_commands_path):
    """Repo-relative paths of every TU in compile_commands.json."""
    with open(compile_commands_path, encoding="utf-8") as fh:
        entries = json.load(fh)
    out = set()
    for entry in entries:
        file_path = entry.get("file", "")
        if not os.path.isabs(file_path):
            file_path = os.path.join(entry.get("directory", ""), file_path)
        rel = os.path.relpath(os.path.realpath(file_path), os.path.realpath(root))
        out.add(rel.replace(os.sep, "/"))
    return out


def load_allowlist(path: str):
    """Returns a list of (rule, path_prefix) suppression entries."""
    entries = []
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise SystemExit(
                    f"{path}:{lineno}: allowlist lines are `rule path`, "
                    f"got: {raw.strip()!r}"
                )
            entries.append((parts[0], parts[1]))
    return entries


def collect_files(root: str, paths):
    """Yields repo-relative posix paths of C++ files to lint."""
    exts = (".h", ".cc", ".cpp")
    if not paths:
        paths = ["src", "tools"]
    for base in paths:
        absolute = os.path.join(root, base)
        if os.path.isfile(absolute):
            if absolute.endswith(exts):
                yield os.path.relpath(absolute, root).replace(os.sep, "/")
            continue
        for dirpath, dirnames, filenames in os.walk(absolute):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(exts):
                    full = os.path.join(dirpath, name)
                    yield os.path.relpath(full, root).replace(os.sep, "/")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Repo-specific lint and structural checks for the lsi "
        "codebase."
    )
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of this script)",
    )
    parser.add_argument(
        "--allowlist",
        default=None,
        help="suppression file (default: <root>/tools/lint_allowlist.txt)",
    )
    parser.add_argument(
        "--compile-commands",
        default=None,
        help="compile_commands.json from CMAKE_EXPORT_COMPILE_COMMANDS; "
        "enables the compile-coverage rule",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON findings")
    parser.add_argument(
        "paths", nargs="*", help="files or directories relative to root"
    )
    args = parser.parse_args(argv)

    allowlist_path = args.allowlist or os.path.join(
        args.root, "tools", "lint_allowlist.txt"
    )
    allowlist = load_allowlist(allowlist_path)
    used = [False] * len(allowlist)

    def suppressed(f):
        for i, (rule, prefix) in enumerate(allowlist):
            if f["rule"] == rule and f["path"].startswith(prefix):
                used[i] = True
                return True
        return False

    compiled = None
    if args.compile_commands is not None:
        try:
            compiled = compiled_sources(args.root, args.compile_commands)
        except (OSError, json.JSONDecodeError) as err:
            print(
                f"lsi_lint: cannot read {args.compile_commands}: {err}",
                file=sys.stderr,
            )
            return 2
    tree = Tree(load_rank_table(args.root), compiled, args.compile_commands)

    findings = []
    for relpath in collect_files(args.root, args.paths):
        try:
            with open(os.path.join(args.root, relpath), encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            print(f"lsi_lint: cannot read {relpath}: {err}", file=sys.stderr)
            return 2
        findings += check_file(relpath, text, tree)

    full_tree = not args.paths
    if full_tree:
        for rule in RULES:
            if rule.tree_check is not None:
                findings += [
                    finding(rule.name, path, line, message)
                    for path, line, message in rule.tree_check(tree)
                ]
    findings = [f for f in findings if not suppressed(f)]

    # Only police allowlist staleness on full-tree runs; a single-file
    # invocation legitimately leaves most entries unused. compile-coverage
    # entries are never stale: which SIMD backend compiles depends on the
    # build host, so those entries are legitimately unused on any given
    # architecture.
    if full_tree:
        for (rule, prefix), was_used in zip(allowlist, used):
            if not was_used and rule != "compile-coverage":
                findings.append(
                    finding(
                        "stale-allowlist",
                        os.path.relpath(allowlist_path, args.root),
                        1,
                        f"allowlist entry `{rule} {prefix}` matches nothing; "
                        "delete it",
                        f"{rule} {prefix}",
                    )
                )

    if args.json:
        json.dump(findings, sys.stdout, indent=2)
        print()
    else:
        for f in findings:
            print(f"{f['path']}:{f['line']}: {f['rule']}: {f['message']}")
            if f["snippet"]:
                print(f"    {f['snippet']}")
    if findings:
        print(f"lsi_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
