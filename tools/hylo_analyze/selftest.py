#!/usr/bin/env python3
"""End-to-end self-test for hylo_analyze.

Builds a tiny synthetic tree in a temp dir and checks the behaviors the
fixture corpus cannot express as plain pass/fail runs:

  * suppression semantics — line allow, block allow, and the allow_reason
    meta-rule on a reasonless legacy allow;
  * SARIF 2.1.0 output shape — schema URI, rule metadata, results with
    partialFingerprints and physicalLocation regions;
  * baseline semantics — write-baseline silences existing findings, the
    fingerprints survive line-number shifts, and a genuinely new finding
    still fails the run;
  * `.inc` bodies — a re-included file is scanned like a source file;
  * per-rule fixtures — every file under tools/lint_fixtures/<rule>/bad is
    flagged by its rule on its own (the per-rule ctest only sees that the
    directory fails, which one flagged file is enough for).

Exits 0 when every assertion holds; prints the first failure otherwise.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import tempfile

TOOLS_DIR = pathlib.Path(__file__).resolve().parent.parent


def run(root: pathlib.Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOLS_DIR / "hylo_analyze"),
         "--root", str(root), *extra],
        capture_output=True, text=True, check=False)


FILE_BODY = """\
namespace t {
int risky();
int swallowed() {
  try {
    return risky();
  } catch (...) {
    return -1;
  }
}
bool cmp(double x) { return x == 2.5; }  // hylo-lint: allow(float_compare: selftest: exact sentinel)
// hylo-lint: allow-begin(catch_all: selftest block waiver)
int swallowed_again() {
  try {
    return risky();
  } catch (...) {
    return -2;
  }
}
// hylo-lint: allow-end(catch_all)
bool legacy(double x) { return x != 1.25; }  // hylo-lint: allow(float_compare)
}  // namespace t
"""


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="hylo_analyze_selftest_") as td:
        root = pathlib.Path(td) / "src"
        root.mkdir()
        src = root / "t.cpp"
        src.write_text(FILE_BODY, encoding="utf-8")
        sarif_path = pathlib.Path(td) / "out.sarif"
        baseline = pathlib.Path(td) / "baseline.json"

        # --- suppressions: the unsuppressed catch_all plus the allow_reason
        # finding on the reasonless legacy allow must be the only findings.
        proc = run(root, "--sarif", str(sarif_path))
        assert proc.returncode == 1, proc.stdout + proc.stderr
        lines = [ln for ln in proc.stdout.splitlines() if "] " in ln]
        assert len(lines) == 2, proc.stdout
        assert any("[catch_all]" in ln and "t.cpp:6" in ln for ln in lines), \
            proc.stdout
        assert any("[allow_reason]" in ln and "t.cpp:20" in ln
                   for ln in lines), proc.stdout
        # line allow silenced float_compare, block allow the second catch_all
        assert not any("t.cpp:10" in ln or "t.cpp:15" in ln for ln in lines), \
            proc.stdout

        # --- SARIF shape
        doc = json.loads(sarif_path.read_text(encoding="utf-8"))
        assert doc["version"] == "2.1.0", doc["version"]
        assert "sarif" in doc["$schema"], doc["$schema"]
        runs = doc["runs"]
        assert len(runs) == 1
        driver = runs[0]["tool"]["driver"]
        assert driver["name"] == "hylo_analyze"
        rule_ids = {r["id"] for r in driver["rules"]}
        assert {"catch_all", "allow_reason", "float_compare"} <= rule_ids
        results = runs[0]["results"]
        assert len(results) == 2, json.dumps(results, indent=2)
        for res in results:
            assert res["ruleId"] in rule_ids
            loc = res["locations"][0]["physicalLocation"]
            assert loc["artifactLocation"]["uri"].endswith("t.cpp")
            assert loc["region"]["startLine"] >= 1
            assert "hyloAnalyze/v1" in res["partialFingerprints"], res

        # --- baseline: write, then the same tree must come back clean.
        proc = run(root, "--baseline", str(baseline), "--write-baseline")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        entries = json.loads(baseline.read_text(encoding="utf-8"))["entries"]
        assert len(entries) == 2, entries
        proc = run(root, "--baseline", str(baseline))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "2 baselined" in proc.stdout, proc.stdout

        # --- fingerprints are line-number independent: shifting the file
        # down two lines must not resurrect the baselined findings.
        src.write_text("\n\n" + FILE_BODY, encoding="utf-8")
        proc = run(root, "--baseline", str(baseline))
        assert proc.returncode == 0, proc.stdout + proc.stderr

        # --- a genuinely new finding still fails against the old baseline.
        src.write_text(FILE_BODY + "\nnamespace t { bool nu(double v)"
                       " { return v == 7.5; } }\n", encoding="utf-8")
        proc = run(root, "--baseline", str(baseline))
        assert proc.returncode == 1, proc.stdout + proc.stderr
        fresh = [ln for ln in proc.stdout.splitlines()
                 if "] " in ln and "baselined" not in ln]
        assert len(fresh) == 1 and "[float_compare]" in fresh[0], proc.stdout

        # --- a re-included kernel body (.inc, no include guard) is scanned
        # as a source: its findings are reported, and no pragma_once one.
        inc_root = pathlib.Path(td) / "inc"
        inc_root.mkdir()
        (inc_root / "body.inc").write_text(
            "bool half(double x) { return x == 0.5; }\n", encoding="utf-8")
        proc = run(inc_root)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        lines = [ln for ln in proc.stdout.splitlines() if "] " in ln]
        assert len(lines) == 1, proc.stdout
        assert lines[0].startswith("body.inc:1:") \
            and "[float_compare]" in lines[0], proc.stdout

    fixtures = TOOLS_DIR / "lint_fixtures"
    for bad in sorted(fixtures.glob("*/bad")):
        rule = bad.parent.name
        proc = run(bad, "--rules", rule)
        for path in sorted(bad.rglob("*.[ch]pp")):
            rel = path.relative_to(bad).as_posix()
            assert any(ln.startswith(rel + ":") and f"[{rule}]" in ln
                       for ln in proc.stdout.splitlines()), \
                f"{rule} fixture {rel} not flagged:\n{proc.stdout}"

    print("hylo_analyze selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
