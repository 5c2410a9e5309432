"""Result records shared by the verification operations and the CLI."""

import json
from dataclasses import asdict, dataclass

# The one encoder of every JSON line the package writes, without spaces.
compact_json = json.JSONEncoder(separators=(",", ":")).encode


@dataclass
class VerificationRecord:
    """Outcome of one named identity at one prime.

    The record passes exactly when expected == actual; `detail` carries
    informational values that are reported but not gated.
    """

    p: int
    claim: str
    expected: object
    actual: object
    detail: dict | None = None

    @property
    def passed(self) -> bool:
        return self.expected == self.actual

    def to_obj(self) -> dict:
        obj = {
            "p": self.p,
            "claim": self.claim,
            "expected": self.expected,
            "actual": self.actual,
            "pass": self.passed,
        }
        if self.detail is not None:
            obj["detail"] = self.detail
        return obj


@dataclass
class RunManifest:
    """Aggregate summary of one verification campaign."""

    command: str
    claim: str
    min_p: int
    max_p: int
    jobs: int
    started: str
    finished: str = ""
    total: int = 0
    passed: int = 0
    failed: int = 0

    def to_json(self) -> str:
        return compact_json(asdict(self))
