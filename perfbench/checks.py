"""Correctness gate for the benchmark: operation ledger, digests, hashes.

Every solver run of a sweep, every time-to-accuracy solve and every
``iapd certify`` call is one operation. The ledger records each with the
reason it failed, if it did, so a result reports ``attempted`` and
``failed`` from one place. Checks that are not operations (repeats that
must agree) are kept apart as mismatches; any of them makes the result
incorrect.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Ledger:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, op: str, reason: str | None) -> None:
        """Count one operation; ``reason`` is None when it succeeded."""
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{op}: {reason}")

    def agree(self, what: str, first, second) -> None:
        """Record a mismatch when two repeats that must agree do not."""
        if first != second:
            self.mismatches.append(f"{what}: {first!r} != {second!r}")

    def sweep(self, label: str, result) -> None:
        """One op per algorithm of a ``run_benchmark`` result.

        An algorithm fails when the sweep status is not 0, when it was
        skipped (this includes divergence), when its final gap is not
        finite, or when its in-process certificate is not ok.
        """
        for name, res in result.results.items():
            reason = None
            if result.status != 0:
                reason = f"run_benchmark status {result.status}"
            if res.skipped:
                reason = f"skipped: {res.skipped}"
            elif not math.isfinite(res.final_gap):
                reason = f"final gap {res.final_gap}"
            elif res.certificate is not None and not res.certificate.ok:
                cert = res.certificate
                reason = (f"certificate violations gap={cert.gap_violations} "
                          f"dual={cert.dual_violations} v={cert.v_violations} "
                          f"t-lower={cert.t_lower_violations}")
            self.record(f"{label}/{name}", reason)

    def certify_call(self, label: str, exit_code: int) -> None:
        self.record(label, None if exit_code == 0 else f"iapd certify exit code {exit_code}")

    def tta(self, label: str, iters: int, cap: int, gap: float, tol: float) -> None:
        """A time-to-accuracy solve fails when it stops without reaching ``tol``."""
        reason = None
        if not math.isfinite(gap):
            reason = f"non-finite gap {gap}"
        elif gap > tol:
            reason = f"hit cap {cap} at iteration {iters} with gap {gap:.3e} > {tol:.3e}"
        self.record(label, reason)


def csv_digest(path) -> str:
    """sha256 of a trace CSV with its ``elapsed_s`` (last) column removed."""
    h = hashlib.sha256()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        h.update(line.rsplit(",", 1)[0].encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def instance_hash(K, b) -> str:
    """sha256 of an instance's operator entries and right-hand side."""
    h = hashlib.sha256()
    h.update(repr((K.shape, K.is_sparse)).encode())
    if K.is_sparse:
        rows, cols, vals = K.triples()
        parts = (rows.astype(np.int64), cols.astype(np.int64), vals)
    else:
        parts = (K.to_dense(),)
    for part in (*parts, b):
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()
