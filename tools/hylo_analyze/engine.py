"""Rule engine for hylo_analyze: findings, suppressions, baseline.

Suppression grammar (DESIGN.md §14), read from comments only:

  line form    // hylo-lint: allow(rule[, rule...]: reason text)
  block form   // hylo-lint: allow-begin(rule[, rule...]: reason text)
               ...
               // hylo-lint: allow-end(rule[, rule...])

A line-form allow suppresses matching findings on its own line. A block
form suppresses matching findings on every line between begin and end
(inclusive). The legacy reasonless spelling `allow(rule)` still parses,
but the `allow_reason` meta-rule reports it: every suppression in the
real tree must say why.

Baseline: a JSON file of finding fingerprints. A finding whose
fingerprint appears in the baseline is reported as "baselined" and does
not fail the run; anything else does. Fingerprints hash the rule, the
file-relative path, and the stripped text of the offending line (not the
line number), so unrelated edits above a baselined finding do not
invalidate it. An occurrence ordinal disambiguates identical lines.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import re
import sys
from collections import Counter

from . import lexer

HEADER_EXT = {".hpp", ".h"}
# `.inc` is a body included more than once (one x86 kernel body per SIMD
# tier), so it has no include guard: scanned as source, not as a header.
SOURCE_EXT = {".cpp", ".cc", ".cxx", ".inc"} | HEADER_EXT

_ALLOW_RE = re.compile(
    r"hylo-lint:\s*allow(?P<form>-begin|-end)?\s*"
    r"\((?P<rules>[a-z0-9_,\s]+?)(?::(?P<reason>[^)]*))?\)")


@dataclasses.dataclass
class Finding:
    rule: str
    path: pathlib.Path          # absolute
    rel: str                    # path relative to scan root (posix)
    line: int
    message: str
    baselined: bool = False

    def render(self) -> str:
        tag = " (baselined)" if self.baselined else ""
        return f"{self.rel}:{self.line}: [{self.rule}]{tag} {self.message}"


@dataclasses.dataclass(frozen=True)
class Allow:
    rules: frozenset[str]
    line: int
    form: str                  # '' | '-begin' | '-end'
    has_reason: bool


@dataclasses.dataclass
class FileContext:
    """Everything a rule needs about one file."""
    path: pathlib.Path
    rel: str
    lex: lexer.LexedFile
    allows: list[Allow]
    # (rule, line) -> suppressed?  computed from line + block allows
    _line_allows: dict[int, set[str]] = dataclasses.field(default_factory=dict)
    _block_allows: list[tuple[int, int, frozenset[str]]] = \
        dataclasses.field(default_factory=list)

    # --- path domains (mirrors the PR-3 linter) ---
    @property
    def in_obs(self) -> bool:
        return self._in_dir("obs")

    @property
    def in_par(self) -> bool:
        return self._in_dir("par")

    @property
    def in_audit(self) -> bool:
        return self._in_dir("audit")

    @property
    def in_ckpt(self) -> bool:
        return self._in_dir("ckpt")

    @property
    def in_optim(self) -> bool:
        return self._in_dir("optim")

    @property
    def in_kernel(self) -> bool:
        return self._in_dir("tensor") or self._in_dir("linalg")

    @property
    def in_rng(self) -> bool:
        return pathlib.Path(self.rel).name.startswith("rng.")

    def _in_dir(self, d: str) -> bool:
        return self.rel.startswith(f"{d}/") or f"/{d}/" in f"/{self.rel}"

    @property
    def is_header(self) -> bool:
        return self.path.suffix in HEADER_EXT

    def suppressed(self, rule: str, line: int) -> bool:
        if rule in self._line_allows.get(line, set()):
            return True
        return any(b <= line <= e and rule in rules
                   for b, e, rules in self._block_allows)


def parse_allows(comments: list[lexer.Comment]) -> list[Allow]:
    out: list[Allow] = []
    for c in comments:
        for m in _ALLOW_RE.finditer(c.text):
            rules = frozenset(t.strip() for t in m.group("rules").split(",")
                              if t.strip())
            reason = (m.group("reason") or "").strip()
            out.append(Allow(rules, c.line, m.group("form") or "",
                             bool(reason)))
    return out


def build_context(path: pathlib.Path, rel: str) -> FileContext:
    text = path.read_text(encoding="utf-8", errors="replace")
    lx = lexer.lex(text)
    allows = parse_allows(lx.comments)
    ctx = FileContext(path, rel, lx, allows)
    open_blocks: dict[str, int] = {}
    for a in allows:
        if a.form == "":
            ctx._line_allows.setdefault(a.line, set()).update(a.rules)
        elif a.form == "-begin":
            for r in a.rules:
                open_blocks.setdefault(r, a.line)
        else:  # -end
            for r in a.rules:
                begin = open_blocks.pop(r, None)
                if begin is not None:
                    ctx._block_allows.append((begin, a.line, frozenset({r})))
    # Unclosed blocks run to EOF (the marker-hygiene rule reports them).
    for r, begin in open_blocks.items():
        ctx._block_allows.append(
            (begin, len(lx.raw_lines) or 1, frozenset({r})))
    return ctx


# --------------------------------------------------------------------------
# Baseline


def fingerprint(rule: str, rel: str, line_text: str, ordinal: int) -> str:
    h = hashlib.sha256(
        f"{rule}|{rel}|{line_text.strip()}".encode()).hexdigest()[:16]
    return f"{h}:{ordinal}"


def finding_fingerprints(findings: list[Finding],
                         line_text) -> list[tuple[Finding, str]]:
    """Pair each finding with its fingerprint. `line_text(f)` maps a finding
    to the stripped text of its line."""
    seen: Counter[str] = Counter()
    out: list[tuple[Finding, str]] = []
    for f in sorted(findings, key=lambda f: (f.rel, f.line, f.rule)):
        key = f"{f.rule}|{f.rel}|{line_text(f).strip()}"
        fp = fingerprint(f.rule, f.rel, line_text(f), seen[key])
        seen[key] += 1
        out.append((f, fp))
    return out


def load_baseline(path: pathlib.Path) -> set[str]:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"hylo_analyze: cannot read baseline {path}: {exc}",
              file=sys.stderr)
        return set()
    return {e["fingerprint"] for e in data.get("entries", [])}


def write_baseline(path: pathlib.Path,
                   pairs: list[tuple[Finding, str]]) -> None:
    entries = [{"rule": f.rule, "path": f.rel, "line": f.line,
                "fingerprint": fp} for f, fp in pairs]
    doc = {"version": 1,
           "tool": "hylo_analyze",
           "comment": "Grandfathered findings. Fix and remove; do not add.",
           "entries": entries}
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
