"""Rule implementations for hylo_analyze.

Each rule is a function `check(ctx, tree, report)` where `ctx` is the
FileContext, `tree` the TreeContext (cross-file facts: container
declarations, metric catalogues), and `report(rule, line, msg)` records a
finding (suppressions and baseline are applied by the driver).

Rule ids, one-line summaries, and help text live in RULES; DESIGN.md §14
is the narrative catalogue.
"""

from __future__ import annotations

import dataclasses
import pathlib
import re

from . import engine, lexer
from .lexer import Token, match_angle, match_brace, match_paren

# --------------------------------------------------------------------------
# Rule registry (id -> (short description, help text)). SARIF rule metadata
# and --list-rules both render from here.

RULES: dict[str, tuple[str, str]] = {
    "io": (
        "direct console IO outside hylo::obs",
        "std::cout/std::cerr/printf/fprintf outside obs/. Telemetry goes "
        "through hylo::obs; everything else stays silent."),
    "randomness": (
        "non-hylo::Rng randomness or wall-clock entropy",
        "rand()/srand()/std::random_device/time()/clock()/<random> engines "
        "outside common/rng.*. All randomness flows through hylo::Rng so "
        "runs are replayable."),
    "pragma_once": (
        "header does not start with #pragma once",
        "Every header under src/ starts with #pragma once."),
    "write_set": (
        "parallel call site declares no write set",
        "Every par::parallel_for/parallel_reduce call site outside par/ and "
        "audit/ passes an audit:: footprint or an explicit "
        "audit::unchecked(\"why\")."),
    "kernel_footprint": (
        "audit::unchecked in dense-kernel code",
        "tensor/ and linalg/ parallel sites must declare a *checked* "
        "footprint; unchecked opt-outs there hide exactly the overlap bugs "
        "the auditor exists to catch."),
    "metric_name": (
        "metric name does not follow subsystem/name",
        "obs metric names passed to counter/gauge/histogram literals are "
        "lowercase with at least one '/'. Matched on the token stream, so "
        "wrapped or concatenated literals are still checked."),
    "ckpt_io": (
        "raw std::ofstream outside ckpt/ and obs/",
        "Durable artifacts are written through ckpt::AtomicFile "
        "(tmp + rename + CRC) so a crash mid-write cannot tear a file."),
    "health_catalogue": (
        "health/alert metric not in its catalogue",
        "Every /health/ metric leaf names a probe registered in "
        "include/hylo/obs/health.hpp, every obs/alerts/ leaf an alert rule "
        "from alerts.hpp."),
    "det_unordered_iter": (
        "iteration over unordered container",
        "Range-for or iterator loops over std::unordered_map/set visit "
        "elements in hash order, which varies with ASLR and libstdc++ "
        "version — a silent determinism break if the body feeds "
        "serialization, logging, comm, or non-commutative numerics. "
        "Traverse in net.param_blocks() order or a sorted key copy, or "
        "annotate the loop "
        "'hylo-lint: allow(det_unordered_iter: commutative — why)'."),
    "det_pointer_key": (
        "pointer-keyed container contents serialized",
        "Iterating a pointer-keyed map writes address-ordered bytes into a "
        "snapshot or run log; addresses change across runs under ASLR. A "
        "loop body counts as a sink when it calls a write/save/serialize-"
        "style name, streams with <<, or uses a ckpt::Archive. Key the "
        "serialization on a stable id (param-block index) instead."),
    "commit_after_charge": (
        "committed state mutated outside a commit region",
        "Inside an optimizer's marked scratch region "
        "(// hylo-scratch-begin/end), member state that survives the "
        "update (trailing-underscore fields and references bound to them) "
        "may only be mutated inside a // hylo-commit-begin/end region — "
        "the PR-4 contract that a comm failure mid-refresh leaves the old "
        "factors intact (degrade to stale, never half-new)."),
    "catch_all": (
        "catch (...) swallows without rethrow/convert",
        "A catch (...) body must rethrow (throw; / rethrow_exception), "
        "capture via std::current_exception, or carry "
        "'hylo-lint: allow(catch_all: why swallowing is safe)'."),
    "float_compare": (
        "==/!= against a nonzero float literal",
        "Exact equality on floating values is almost never meaningful; "
        "compare against a tolerance. Comparisons against literal zero are "
        "exempt: IEEE-exact sparsity/sentinel guards (x == 0.0) are "
        "idiomatic in the kernels."),
    "hot_path_alloc": (
        "container constructed inside a parallel/microkernel body",
        "Constructing a sized container inside a parallel_for body or a "
        "packed-GEMM loop allocates per chunk per call. Hoist it, use the "
        "tl_scratch thread-local arena, or the default-construct + resize "
        "pattern the kernels use."),
    "allow_reason": (
        "suppression without a reason",
        "Every hylo-lint allow in the real tree says why: "
        "'hylo-lint: allow(rule: reason)'."),
    "marker_hygiene": (
        "malformed suppression or region markers",
        "allow-begin without allow-end, scratch/commit begin/end that do "
        "not pair up, or a commit region outside any scratch region."),
}

# --------------------------------------------------------------------------
# Tree-level context (facts gathered in a first pass over every file)

_CONTAINERS_UNORDERED = {"unordered_map", "unordered_set"}
_CONTAINERS_KEYED = {"unordered_map", "unordered_set", "map"}


@dataclasses.dataclass
class TreeContext:
    root: pathlib.Path
    # member names (trailing underscore) declared as unordered containers
    unordered_members: set[str] = dataclasses.field(default_factory=set)
    # same, pointer-keyed (any map kind)
    ptrkey_members: set[str] = dataclasses.field(default_factory=set)
    # per-file local/param names: rel -> set[str]
    unordered_locals: dict[str, set[str]] = \
        dataclasses.field(default_factory=dict)
    ptrkey_locals: dict[str, set[str]] = \
        dataclasses.field(default_factory=dict)
    # per-file names declared as a ckpt::Archive (parameters included):
    # rel -> set[str]
    archive_locals: dict[str, set[str]] = \
        dataclasses.field(default_factory=dict)
    probe_catalogue: frozenset[str] = frozenset()
    alert_catalogue: frozenset[str] = frozenset()


def _load_catalogue(path: pathlib.Path, marker: str) -> frozenset[str]:
    """String literals between hylo-<marker>-catalogue-begin/-end markers."""
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return frozenset()
    begin = text.find(f"hylo-{marker}-catalogue-begin")
    end = text.find(f"hylo-{marker}-catalogue-end")
    if begin < 0 or end < begin:
        return frozenset()
    return frozenset(re.findall(r'"([a-z0-9_]+)"', text[begin:end]))


def _container_decls(ctx: engine.FileContext, tree: TreeContext) -> None:
    """Collect names declared as unordered / pointer-keyed containers.

    Member names (trailing '_') go into the tree-wide sets — they are
    declared in headers and iterated in .cpp files. Other names stay
    file-local to keep short locals like 'm' from poisoning the tree."""
    toks = ctx.lex.tokens
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in _CONTAINERS_KEYED:
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "<":
            continue
        close = match_angle(toks, i + 1)
        if close == i + 1:
            continue
        # pointer key: '*' in the first template argument
        depth, ptr_key = 0, False
        for j in range(i + 2, close):
            tj = toks[j]
            if tj.kind == "punct":
                if tj.text in "<([":
                    depth += 1
                elif tj.text in ">)]":
                    depth -= 1
                elif tj.text == "," and depth == 0:
                    break
                elif tj.text == "*" and depth == 0:
                    ptr_key = True
        # declared name: skip refs/pointers after the closing '>'
        j = close + 1
        while j < len(toks) and toks[j].kind == "punct" \
                and toks[j].text in {"&", "*", "&&"}:
            j += 1
        if j >= len(toks) or toks[j].kind != "id":
            continue
        name = toks[j].text
        if j + 1 < len(toks) and toks[j + 1].text == "(":
            continue  # function returning a container
        unordered = t.text in _CONTAINERS_UNORDERED
        if name.endswith("_"):
            if unordered:
                tree.unordered_members.add(name)
            if ptr_key:
                tree.ptrkey_members.add(name)
        else:
            if unordered:
                tree.unordered_locals.setdefault(ctx.rel, set()).add(name)
            if ptr_key:
                tree.ptrkey_locals.setdefault(ctx.rel, set()).add(name)


def _archive_decls(ctx: engine.FileContext, tree: TreeContext) -> None:
    """Collect names declared with the snapshot codec type `Archive`
    (`ckpt::Archive ar`, `Archive& ar`, parameters included): every field
    an archive touches lands in a snapshot, so a loop body using one is a
    serialization sink."""
    toks = ctx.lex.tokens
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text != "Archive":
            continue
        j = i + 1
        while j < len(toks) and toks[j].kind == "punct" \
                and toks[j].text in {"&", "*", "&&"}:
            j += 1
        if j < len(toks) and toks[j].kind == "id":
            tree.archive_locals.setdefault(ctx.rel, set()).add(toks[j].text)


def build_tree_context(root: pathlib.Path,
                       contexts: list[engine.FileContext]) -> TreeContext:
    tree = TreeContext(root)
    obs_inc = root / "include" / "hylo" / "obs"
    tree.probe_catalogue = _load_catalogue(obs_inc / "health.hpp", "probe")
    tree.alert_catalogue = _load_catalogue(
        obs_inc / "alerts.hpp", "alert") | frozenset({"fired", "critical"})
    for ctx in contexts:
        _container_decls(ctx, tree)
        _archive_decls(ctx, tree)
    return tree


# --------------------------------------------------------------------------
# Legacy line rules (regex over the stripped view: comments removed,
# string/char contents blanked, line numbers preserved)

_IO_RE = re.compile(r"std::cout|std::cerr|\bprintf\s*\(|\bfprintf\s*\(")
_RAND_RE = re.compile(
    r"\brand\s*\(|\bsrand\s*\(|std::random_device|\btime\s*\(|\bclock\s*\(|"
    r"std::mt19937|std::minstd_rand|std::default_random_engine|"
    r"std::uniform_(?:int|real)_distribution|std::bernoulli_distribution")
_OFSTREAM_RE = re.compile(r"std::ofstream")
_METRIC_NAME_RE = re.compile(r"^[a-z0-9_]+(/[a-z0-9_.\-]+)+$")


def check_line_rules(ctx: engine.FileContext, tree: TreeContext,
                     report) -> None:
    del tree
    for i, ln in enumerate(ctx.lex.stripped_lines, start=1):
        if not ctx.in_obs and _IO_RE.search(ln):
            report("io", i,
                   "direct console IO outside hylo::obs (use obs, or "
                   "annotate 'hylo-lint: allow(io: why)')")
        if not ctx.in_rng and _RAND_RE.search(ln):
            report("randomness", i,
                   "non-hylo::Rng randomness/wall-clock entropy (use "
                   "hylo::Rng, or annotate "
                   "'hylo-lint: allow(randomness: why)')")
        if not ctx.in_ckpt and not ctx.in_obs and _OFSTREAM_RE.search(ln):
            report("ckpt_io", i,
                   "raw std::ofstream outside hylo::ckpt/hylo::obs (write "
                   "through ckpt::AtomicFile for crash safety, or annotate "
                   "'hylo-lint: allow(ckpt_io: why)')")


def check_pragma_once(ctx: engine.FileContext, tree: TreeContext,
                      report) -> None:
    del tree
    if not ctx.is_header:
        return
    first = next((ln for ln in ctx.lex.raw_lines if ln.strip()), "")
    if first.strip() != "#pragma once":
        report("pragma_once", 1, "header must start with '#pragma once'")


# --------------------------------------------------------------------------
# metric_name / health_catalogue on the token stream (fixes the wrapped-
# literal escape: adjacent and line-wrapped literals concatenate here)

def _metric_literals(ctx: engine.FileContext):
    toks = ctx.lex.tokens
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in {"counter", "gauge", "histogram"}:
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "(":
            continue
        parts: list[str] = []
        j = i + 2
        first_line = None
        while j < len(toks) and toks[j].kind == "str":
            if first_line is None:
                first_line = toks[j].line
            parts.append(toks[j].text)
            j += 1
        if parts:
            yield first_line, "".join(parts)


def check_metric_names(ctx: engine.FileContext, tree: TreeContext,
                       report) -> None:
    for line, name in _metric_literals(ctx):
        if not _METRIC_NAME_RE.match(name):
            report("metric_name", line,
                   f"metric name '{name}' does not follow 'subsystem/name' "
                   "(lowercase, '/'-separated)")
        leaf = name.rsplit("/", 1)[-1]
        if "/health/" in name and leaf not in tree.probe_catalogue:
            report("health_catalogue", line,
                   f"health probe '{leaf}' is not registered in the probe "
                   "catalogue (include/hylo/obs/health.hpp)")
        if name.startswith("obs/alerts/") and leaf not in tree.alert_catalogue:
            report("health_catalogue", line,
                   f"alert metric '{leaf}' is not registered in the "
                   "alert-rule catalogue (include/hylo/obs/alerts.hpp)")


# --------------------------------------------------------------------------
# write_set / kernel_footprint / hot_path_alloc around parallel call sites

_HOT_CONTAINERS = {"vector", "deque", "list", "map", "set", "unordered_map",
                   "unordered_set", "string", "valarray",
                   "Matrix", "Tensor4"}
_PARALLEL = {"parallel_for", "parallel_reduce"}


def _parallel_spans(ctx: engine.FileContext):
    toks = ctx.lex.tokens
    for i, t in enumerate(toks):
        if t.kind == "id" and t.text in _PARALLEL \
                and i + 1 < len(toks) and toks[i + 1].text == "(":
            yield i, i + 1, match_paren(toks, i + 1)


def check_parallel_sites(ctx: engine.FileContext, tree: TreeContext,
                         report) -> None:
    del tree
    if ctx.in_par or ctx.in_audit:
        return
    toks = ctx.lex.tokens
    for name_i, op, cl in _parallel_spans(ctx):
        span = toks[op:cl + 1]
        has_audit = any(
            t.kind == "id" and t.text == "audit"
            and k + 1 < len(span) and span[k + 1].text == "::"
            for k, t in enumerate(span))
        unchecked = any(t.kind == "id" and t.text == "unchecked"
                        for t in span)
        if not has_audit:
            report("write_set", toks[name_i].line,
                   f"{toks[name_i].text} call site declares no write set: "
                   "pass an audit::Footprint (e.g. audit::row_block(c)) or "
                   "an explicit audit::unchecked(\"why\")")
        elif ctx.in_kernel and unchecked:
            report("kernel_footprint", toks[name_i].line,
                   "kernel code (tensor/, linalg/) must declare a checked "
                   "footprint — audit::unchecked is forbidden here; express "
                   "the write set with WriteSet spans (row_block, "
                   "add_row_tail, ...)")


def _flag_hot_constructions(toks: list[Token], lo: int, hi: int,
                            report) -> None:
    """Report ctor-with-args container constructions and `new` in
    toks[lo:hi]. The default-construct + resize scratch pattern and
    reference bindings (e.g. to tl_scratch arenas) are deliberately not
    flagged."""
    j = lo
    while j < hi:
        t = toks[j]
        if t.kind == "id" and t.text == "new":
            report("hot_path_alloc", t.line,
                   "operator new inside a hot parallel/kernel body — hoist "
                   "the allocation or use the tl_scratch arena")
            j += 1
            continue
        if t.kind == "id" and t.text in _HOT_CONTAINERS:
            k = j + 1
            if k < hi and toks[k].text == "<":
                close = match_angle(toks, k)
                if close != k:
                    k = close + 1
            if k < hi and toks[k].kind == "punct" \
                    and toks[k].text in {"&", "*", "&&"}:
                j += 1
                continue  # reference/pointer declaration, not a construction
            if k < hi and toks[k].kind == "id":
                opener = k + 1
                if opener < hi and toks[opener].kind == "punct" \
                        and toks[opener].text in {"(", "{"}:
                    closer = match_paren(toks, opener) \
                        if toks[opener].text == "(" \
                        else match_brace(toks, opener)
                    if closer > opener + 1:
                        report(
                            "hot_path_alloc", toks[j].line,
                            f"'{toks[j].text} {toks[k].text}(...)' "
                            "constructs a sized container inside a hot "
                            "parallel/kernel body — hoist it, use "
                            "tl_scratch, or default-construct once and "
                            "resize")
                        j = closer + 1
                        continue
        j += 1


def check_hot_path_alloc(ctx: engine.FileContext, tree: TreeContext,
                         report) -> None:
    del tree
    toks = ctx.lex.tokens
    if not ctx.in_par and not ctx.in_audit:
        for _, op, cl in _parallel_spans(ctx):
            _flag_hot_constructions(toks, op + 1, cl, report)
    # Packed-GEMM microkernel loops: every for-body in gemm_packed.* is a
    # hot loop (pack buffers come from tl_scratch; nothing allocates there).
    if pathlib.Path(ctx.rel).stem == "gemm_packed":
        for i, t in enumerate(toks):
            if t.kind == "id" and t.text == "for" \
                    and i + 1 < len(toks) and toks[i + 1].text == "(":
                cl = match_paren(toks, i + 1)
                if cl + 1 < len(toks) and toks[cl + 1].text == "{":
                    _flag_hot_constructions(
                        toks, cl + 2, match_brace(toks, cl + 1), report)


# --------------------------------------------------------------------------
# determinism rules

def _range_for_loops(ctx: engine.FileContext):
    """Yield (for_line, range_expr_tokens, body_lo, body_hi) for each
    range-for, plus iterator loops spelled `x.begin()` in the for header
    (range_expr covers the whole header then)."""
    toks = ctx.lex.tokens
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text != "for":
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "(":
            continue
        cl = match_paren(toks, i + 1)
        colon = None
        depth = 0
        for j in range(i + 2, cl):
            tx = toks[j]
            if tx.kind == "punct":
                if tx.text in "([{<":
                    depth += 1
                elif tx.text in ")]}>":
                    depth -= 1
                elif tx.text == ":" and depth == 0:
                    colon = j
                    break
        if colon is not None:
            expr = toks[colon + 1:cl]
        else:
            # iterator loop: only interesting if it calls .begin()
            header = toks[i + 2:cl]
            if not any(tok.kind == "id" and tok.text == "begin"
                       for tok in header):
                continue
            expr = header
        body_lo = cl + 1
        if body_lo < len(toks) and toks[body_lo].text == "{":
            body_hi = match_brace(toks, body_lo)
        else:
            body_hi = body_lo
            while body_hi < len(toks) and toks[body_hi].text != ";":
                body_hi += 1
        yield t.line, expr, body_lo, body_hi


_SERIAL_SINK_IDS = {"record", "write", "save", "dump", "serialize", "Json",
                    "str", "append"}


def check_det_iteration(ctx: engine.FileContext, tree: TreeContext,
                        report) -> None:
    unordered = tree.unordered_members \
        | tree.unordered_locals.get(ctx.rel, set())
    ptrkey = tree.ptrkey_members | tree.ptrkey_locals.get(ctx.rel, set())
    if not unordered and not ptrkey:
        return
    archives = tree.archive_locals.get(ctx.rel, set())
    toks = ctx.lex.tokens
    for line, expr, body_lo, body_hi in _range_for_loops(ctx):
        names = {t.text for t in expr if t.kind == "id"}
        if names & unordered:
            which = sorted(names & unordered)[0]
            report("det_unordered_iter", line,
                   f"iteration over unordered container '{which}' visits "
                   "elements in hash order (varies across runs/platforms) — "
                   "traverse in net.param_blocks() order, sort the keys, or "
                   "annotate 'hylo-lint: allow(det_unordered_iter: "
                   "commutative — why order cannot matter)'")
        if names & ptrkey:
            body = toks[body_lo:body_hi + 1]
            sink = any(
                (t.kind == "id" and (t.text in _SERIAL_SINK_IDS
                                     or t.text in archives))
                or (t.kind == "punct" and t.text == "<<")
                for t in body)
            if sink:
                which = sorted(names & ptrkey)[0]
                report("det_pointer_key", line,
                       f"pointer-keyed container '{which}' iterated into a "
                       "serialization/log sink — pointer values change "
                       "across runs under ASLR; key the output on a stable "
                       "id (param-block index) instead")


# --------------------------------------------------------------------------
# commit-after-charge (optim/ only, marker driven)

_MARKER_RE = re.compile(r"hylo-(scratch|commit)-(begin|end)\(([a-z0-9_]*)\)")

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
               "<<=", ">>="}
_MUT_METHODS = {"resize", "clear", "assign", "push_back", "emplace_back",
                "pop_back", "pop_front", "push_front", "insert", "erase",
                "emplace", "reserve", "swap"}
_STMT_BOUND = {";", "{", "}"}


def _marker_regions(ctx: engine.FileContext, report):
    """Parse scratch/commit markers; returns (scratch, commit) line-range
    lists. Reports pairing problems under marker_hygiene."""
    events = []
    for c in ctx.lex.comments:
        for m in _MARKER_RE.finditer(c.text):
            events.append((c.line, m.group(1), m.group(2)))
    regions = {"scratch": [], "commit": []}
    stack: dict[str, list[int]] = {"scratch": [], "commit": []}
    for line, kind, which in sorted(events):
        if which == "begin":
            stack[kind].append(line)
        else:
            if not stack[kind]:
                report("marker_hygiene", line,
                       f"hylo-{kind}-end without a matching begin")
                continue
            regions[kind].append((stack[kind].pop(), line))
    for kind, opens in stack.items():
        for line in opens:
            report("marker_hygiene", line,
                   f"hylo-{kind}-begin is never closed")
    for b, e in regions["commit"]:
        if not any(sb <= b and e <= se for sb, se in regions["scratch"]):
            report("marker_hygiene", b,
                   "hylo-commit region is not nested inside a "
                   "hylo-scratch region")
    return regions["scratch"], regions["commit"]


def _alias_bindings(toks: list[Token], lo: int,
                    hi: int) -> list[tuple[int, str, bool]]:
    """Reference bindings `T& name = expr;` within toks[lo:hi], in token
    order, as (bind_idx, name, aliases_committed_state). A later binding of
    the same name shadows an earlier one — `LayerState& st = cand[l]` in a
    candidate loop and `LayerState& st = layers_[l]` in the commit loop are
    different objects."""
    bindings: list[tuple[int, str, bool]] = []
    live: dict[str, bool] = {}
    j = lo
    while j < hi - 3:
        if toks[j].kind == "punct" and toks[j].text == "&" \
                and toks[j - 1].kind == "id" \
                and toks[j + 1].kind == "id" \
                and toks[j + 2].text == "=":
            is_const = any(toks[k].kind == "id" and toks[k].text == "const"
                           for k in range(max(lo, j - 4), j))
            k = j + 3
            rhs_member = False
            while k < hi and toks[k].text != ";":
                if toks[k].kind == "id" and (toks[k].text.endswith("_")
                                             or live.get(toks[k].text)):
                    rhs_member = True
                k += 1
            committed = rhs_member and not is_const
            name = toks[j + 1].text
            bindings.append((j, name, committed))
            live[name] = committed
            j = k
            continue
        j += 1
    return bindings


def _is_alias_at(bindings: list[tuple[int, str, bool]], name: str,
                 at_idx: int) -> bool:
    committed = False
    for bind_idx, bname, bcommitted in bindings:
        if bind_idx >= at_idx:
            break
        if bname == name:
            committed = bcommitted
    return committed


def _stmt_leftmost_id(toks: list[Token], op_idx: int, lo: int):
    j = op_idx - 1
    while j >= lo and not (toks[j].kind == "punct"
                           and toks[j].text in _STMT_BOUND):
        j -= 1
    j += 1
    while j < op_idx:
        if toks[j].kind == "id":
            return toks[j].text
        j += 1
    return None


def _chain_root(toks: list[Token], method_idx: int, lo: int):
    """For `a.b.c.resize(...)` with method_idx at `resize`, walk back to
    `a` through '.', '->' and [...] subscripts."""
    j = method_idx
    while True:
        if j - 1 < lo or toks[j - 1].kind != "punct" \
                or toks[j - 1].text not in {".", "->"}:
            return toks[j].text if toks[j].kind == "id" else None
        j -= 2
        # skip a subscript: ...] -> matching [
        while j >= lo and toks[j].kind == "punct" and toks[j].text == "]":
            depth = 0
            while j >= lo:
                if toks[j].text == "]":
                    depth += 1
                elif toks[j].text == "[":
                    depth -= 1
                    if depth == 0:
                        break
                j -= 1
            j -= 1
        if j < lo or toks[j].kind != "id":
            return None


def check_commit_after_charge(ctx: engine.FileContext, tree: TreeContext,
                              report) -> None:
    del tree
    if not ctx.in_optim or ctx.is_header:
        return
    toks = ctx.lex.tokens
    scratch, commit = _marker_regions(ctx, report)

    # Every update_curvature definition must carry the marked pattern.
    for i, t in enumerate(toks):
        if t.kind == "id" and t.text == "update_curvature" and i >= 1 \
                and toks[i - 1].kind == "punct" and toks[i - 1].text == "::" \
                and i + 1 < len(toks) and toks[i + 1].text == "(":
            cl = match_paren(toks, i + 1)
            j = cl + 1
            while j < len(toks) and toks[j].text not in {"{", ";"}:
                j += 1
            if j >= len(toks) or toks[j].text != "{":
                continue  # declaration
            body_end = match_brace(toks, j)
            b_line, e_line = toks[j].line, toks[body_end].line
            if not any(b_line <= sb and se <= e_line for sb, se in scratch):
                report("commit_after_charge", t.line,
                       "update_curvature has no hylo-scratch-begin/end "
                       "region — mark where candidates are computed so the "
                       "commit-after-charge contract is checkable")
            elif not any(b_line <= cb and ce <= e_line for cb, ce in commit):
                report("commit_after_charge", t.line,
                       "update_curvature has a scratch region but no "
                       "hylo-commit-begin/end region — mark where the "
                       "candidates land in committed state")

    if not scratch:
        return

    def in_commit(line: int) -> bool:
        return any(b <= line <= e for b, e in commit)

    # Token index ranges covered by scratch regions.
    for sb, se in scratch:
        lo = next((k for k, tk in enumerate(toks) if tk.line >= sb),
                  len(toks))
        hi = next((k for k in range(len(toks) - 1, -1, -1)
                   if toks[k].line <= se), -1) + 1
        if lo >= hi:
            continue
        bindings = _alias_bindings(toks, lo, hi)

        def is_committed(name: str, at_idx: int) -> bool:
            return name.endswith("_") \
                or _is_alias_at(bindings, name, at_idx)

        def flag(idx: int, what: str) -> None:
            report("commit_after_charge", toks[idx].line,
                   f"{what} mutates committed optimizer state inside the "
                   "scratch region but outside any hylo-commit region — "
                   "compute into locals and commit after the comm charge "
                   "lands (PR-4 fault-degradation contract)")

        for k in range(lo, hi):
            tk = toks[k]
            if tk.kind != "punct" or in_commit(tk.line):
                continue
            if tk.text in _ASSIGN_OPS:
                # skip '=' in reference bindings: `T& st = ...`
                if tk.text == "=" and k >= 2 and toks[k - 2].text == "&" \
                        and toks[k - 1].kind == "id":
                    continue
                target = _stmt_leftmost_id(toks, k, lo)
                if target and is_committed(target, k):
                    flag(k, f"assignment to '{target}'")
            elif tk.text in {"++", "--"}:
                neighbor = None
                if k + 1 < hi and toks[k + 1].kind == "id":
                    neighbor = toks[k + 1].text
                elif k >= 1 and toks[k - 1].kind == "id":
                    neighbor = toks[k - 1].text
                if neighbor and is_committed(neighbor, k):
                    flag(k, f"increment of '{neighbor}'")
        for k in range(lo, hi):
            tk = toks[k]
            if tk.kind == "id" and tk.text in _MUT_METHODS \
                    and not in_commit(tk.line) \
                    and k + 1 < hi and toks[k + 1].text == "(" \
                    and k >= 1 and toks[k - 1].text in {".", "->"}:
                root = _chain_root(toks, k, lo)
                if root and is_committed(root, k):
                    flag(k, f"'{root}.{tk.text}(...)'")


# --------------------------------------------------------------------------
# exception safety

def check_catch_all(ctx: engine.FileContext, tree: TreeContext,
                    report) -> None:
    del tree
    toks = ctx.lex.tokens
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text != "catch":
            continue
        if i + 3 >= len(toks) or toks[i + 1].text != "(" \
                or toks[i + 2].text != "..." or toks[i + 3].text != ")":
            continue
        j = i + 4
        if j >= len(toks) or toks[j].text != "{":
            continue
        body_end = match_brace(toks, j)
        ok = any(tk.kind == "id"
                 and tk.text in {"throw", "current_exception",
                                 "rethrow_exception"}
                 for tk in toks[j:body_end + 1])
        if not ok:
            report("catch_all", t.line,
                   "catch (...) swallows the exception — rethrow, convert "
                   "to a typed error, or annotate "
                   "'hylo-lint: allow(catch_all: why swallowing is safe)'")


# --------------------------------------------------------------------------
# float hygiene

def _is_nonzero_float_literal(text: str) -> bool:
    t = text.rstrip("fFlL")
    if t.lower().startswith("0x"):
        return False
    if "." not in t and "e" not in t.lower():
        return False
    try:
        return float(t) != 0.0
    except ValueError:
        return False


def check_float_compare(ctx: engine.FileContext, tree: TreeContext,
                        report) -> None:
    del tree
    toks = ctx.lex.tokens
    for i, t in enumerate(toks):
        if t.kind != "punct" or t.text not in {"==", "!="}:
            continue
        for nb in (toks[i - 1] if i >= 1 else None,
                   toks[i + 1] if i + 1 < len(toks) else None):
            if nb is not None and nb.kind == "num" \
                    and _is_nonzero_float_literal(nb.text):
                report("float_compare", t.line,
                       f"'{t.text} {nb.text}': exact equality against a "
                       "nonzero float literal — compare against a "
                       "tolerance, or annotate "
                       "'hylo-lint: allow(float_compare: why exact "
                       "equality is correct here)'")
                break


# --------------------------------------------------------------------------
# suppression hygiene

def check_allow_reason(ctx: engine.FileContext, tree: TreeContext,
                       report) -> None:
    del tree
    for a in ctx.allows:
        if a.form in {"", "-begin"} and not a.has_reason:
            report("allow_reason", a.line,
                   "suppression without a reason — spell it "
                   "'hylo-lint: allow(rule: reason)' so the waiver is "
                   "auditable")


ALL_CHECKS = [
    check_line_rules,
    check_pragma_once,
    check_metric_names,
    check_parallel_sites,
    check_hot_path_alloc,
    check_det_iteration,
    check_commit_after_charge,
    check_catch_all,
    check_float_compare,
    check_allow_reason,
]
