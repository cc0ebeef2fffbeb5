"""Machine-readable experiment reports.

A report collects per-case records and named assertions, each assertion
carrying its tolerance.  Serialization is deterministic: identical config
and seed produce byte-identical JSON and CSV, so the wall-clock runtime is
kept on the in-memory object only and never written into the files.
"""

import csv
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Report", "AssertionRecord"]


def _jsonable(obj):
    """Recursively strip numpy scalar/array types so json can emit them."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, float) and (obj != obj or obj in (float("inf"), float("-inf"))):
        return repr(obj)
    return obj


@dataclass
class AssertionRecord:
    name: str
    tolerance: str
    passed: bool
    value: object = None

    def as_dict(self):
        return {"name": self.name, "tolerance": self.tolerance,
                "passed": bool(self.passed), "value": self.value}


@dataclass
class Report:
    experiment: str
    config: dict
    cases: list = field(default_factory=list)
    assertions: list = field(default_factory=list)
    runtime: float = 0.0          # set by the caller; in-memory only, never written

    def add_case(self, **record):
        self.cases.append(record)
        return record

    def check(self, name, tolerance, passed, value=None):
        rec = AssertionRecord(name, tolerance, bool(passed), value)
        self.assertions.append(rec)
        return rec

    @property
    def all_passed(self):
        return all(a.passed for a in self.assertions)

    def as_dict(self):
        return _jsonable({
            "experiment": self.experiment,
            "config": self.config,
            "cases": self.cases,
            "assertions": [a.as_dict() for a in self.assertions],
            "passed": self.all_passed,
        })

    def write_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def write_csv(self, path):
        fields = ["case", "p", "M", "seed", "fitted_constant",
                  "stability_factor", "pass"]
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
            writer.writeheader()
            for rec in self.cases:
                row = {k: rec.get(k, "") for k in fields}
                writer.writerow(row)

    def summary_lines(self):
        lines = [f"{self.experiment}: {len(self.cases)} cases, "
                 f"{len(self.assertions)} assertions, "
                 f"{'PASS' if self.all_passed else 'FAIL'} "
                 f"({self.runtime:.1f}s)"]
        for a in self.assertions:
            mark = "ok " if a.passed else "FAIL"
            lines.append(f"  [{mark}] {a.name} (tolerance: {a.tolerance})"
                         + (f" value={a.value}" if a.value is not None else ""))
        return lines
