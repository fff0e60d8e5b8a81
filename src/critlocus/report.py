"""Machine-readable verification reports.

A report is a plain dict: tool name and version, the run configuration
(rank, prime, seed, sample count), and a list of check records.  Each
record names the operation it exercises, states the identity being
checked in words, carries a verdict (pass, fail or warning), a timing
field, and a counterexample payload when something failed.  With a fixed
seed the serialized report is byte-identical between runs apart from the
timing fields.
"""

from __future__ import annotations

import json
import time

TOOL_VERSION = "0.1.0"


class CheckWarning(Exception):
    """Raised by a check run through ``Report.run`` to record a warning
    verdict (a finding that is not a failure) under its own claim."""

    def __init__(self, claim, details=None):
        super().__init__(claim)
        self.claim = claim
        self.details = details


class Report:
    def __init__(self, configuration: dict):
        self.configuration = dict(configuration)
        self.checks = []

    def record(self, name, operation, claim, verdict, seconds, details=None, counterexample=None):
        entry = {
            "name": name,
            "operation": operation,
            "claim": claim,
            "verdict": verdict,
            "seconds": round(seconds, 6),
        }
        if details is not None:
            entry["details"] = details
        if counterexample is not None:
            entry["counterexample"] = counterexample
        self.checks.append(entry)

    def run(self, name, operation, claim, fn):
        """Run fn() -> (ok, details, counterexample) and record it, timed.
        A raised ``CheckWarning`` records a warning, any other exception a
        failure with the exception as counterexample."""
        start = time.monotonic()
        try:
            outcome = fn()
        except CheckWarning as warning:
            self.record(name, operation, warning.claim, "warning", time.monotonic() - start, warning.details)
            return True
        except Exception as exc:  # surface as a failing check, not a crash
            self.record(
                name,
                operation,
                claim,
                "fail",
                time.monotonic() - start,
                counterexample=f"exception: {exc}",
            )
            return False
        seconds = time.monotonic() - start
        if isinstance(outcome, tuple):
            ok, details, counterexample = (list(outcome) + [None, None])[:3]
        else:
            ok, details, counterexample = outcome, None, None
        verdict = "pass" if ok else "fail"
        self.record(name, operation, claim, verdict, seconds, details, counterexample)
        return bool(ok)

    @property
    def ok(self) -> bool:
        return all(c["verdict"] != "fail" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "tool": "critlocus",
            "version": TOOL_VERSION,
            "configuration": self.configuration,
            "ok": self.ok,
            "checks": self.checks,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

    def to_text(self) -> str:
        lines = [f"critlocus {TOOL_VERSION}"]
        cfg = ", ".join(f"{k}={v}" for k, v in sorted(self.configuration.items()))
        lines.append(f"configuration: {cfg}")
        for c in self.checks:
            mark = {"pass": "PASS", "fail": "FAIL", "warning": "WARN"}[c["verdict"]]
            lines.append(f"[{mark}] {c['name']}: {c['claim']}")
            if c["verdict"] == "fail" and "counterexample" in c:
                lines.append(f"       counterexample: {c['counterexample']}")
        lines.append("overall: " + ("pass" if self.ok else "FAIL"))
        return "\n".join(lines)
