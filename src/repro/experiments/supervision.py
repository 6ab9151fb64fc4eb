"""Fault tolerance for campaign execution: the supervision layer.

A measurement campaign is a long sequence of independent capture
points, and production-scale sweeps only finish because the harness
tolerates partial failure: a worker OOM-killed by the kernel, a point
that hangs in a pathological configuration, or a genuinely poisoned
point that raises deterministically must not abort the whole run and
discard every in-flight result.  This module supplies the pieces the
:class:`~repro.experiments.runner.CampaignRunner` threads together:

* **failure classification** (:func:`classify_failure`) — *transient*
  worker failures (broken pools, pickling/IPC errors, OOM kills) are
  retryable; *deterministic* simulation errors are not (re-running a
  pure function on the same inputs re-raises the same exception);
  *deadline* expiries sit in between (a hang may be load-dependent, so
  they retry like transients).
* **retry policy** (:class:`RetryPolicy`) — attempt budget, per-point
  wall-clock deadline, and exponential backoff whose jitter is derived
  deterministically from the point key, so two runs of the same
  campaign sleep identically (no ``random`` in the control path).
* **failure fingerprints** (:class:`FailureFingerprint`) — exception
  type + message + a hash of the normalised traceback, so repeated
  failures of the same point are recognisably "the same crash".
* **quarantine** (:class:`Quarantine`) — a ``quarantine.jsonl`` sidecar
  recording each poisoned point's fingerprints; the campaign completes
  with explicit partial results instead of dying.
* **checkpoint journal** (:class:`CheckpointJournal`) — an append-only
  JSONL file recording every completed point *with its encoded store
  payload*, so ``keddah campaign --resume <journal>`` replays completed
  points byte-identically without re-simulating, even when no
  persistent store is configured.
* **watchdog pools** (:func:`warm_pool`, :func:`terminate_pool`) — the
  spawn-pool start-up and kill helpers shared by the campaign runner
  and the pipeline DAG, so a deadline is armed only once a worker is
  ready and a missed one kills the worker.

Everything here is host-side machinery: it never touches simulated
time, and resolved captures are byte-identical whether a point
succeeded first try, was retried after a worker crash, or was replayed
from a journal (pinned by ``tests/test_campaign_runner.py``).
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import pickle
import traceback
from concurrent.futures import BrokenExecutor
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.store import JsonlJournal, append_jsonl, write_atomic

#: Failure classes.  ``TRANSIENT`` failures are environmental and
#: retryable; ``DETERMINISTIC`` failures repeat on every attempt;
#: ``DEADLINE`` marks watchdog kills of hung points (retried like
#: transients — a hang can be load-dependent).
TRANSIENT = "transient"
DETERMINISTIC = "deterministic"
DEADLINE = "deadline"


class DeadlineExpired(Exception):
    """A point exceeded its per-point wall-clock deadline."""


#: Exception types indicating the *worker* (not the simulation) failed:
#: killed processes, broken pipes to dead children, pickling/IPC
#: trouble, and memory pressure.  ``OSError`` covers fork/spawn
#: failures and transient filesystem trouble on the store path.
_TRANSIENT_TYPES = (BrokenProcessPool, BrokenExecutor, pickle.PickleError,
                    MemoryError, ConnectionError, EOFError, OSError)


def classify_failure(exc: BaseException) -> str:
    """Sort an exception into ``transient``/``deterministic``/``deadline``."""
    if isinstance(exc, DeadlineExpired):
        return DEADLINE
    if isinstance(exc, _TRANSIENT_TYPES):
        return TRANSIENT
    return DETERMINISTIC


def worker_pid(module: str) -> int:
    """Warm-up pool task: import ``module``, answer with the worker's pid."""
    importlib.import_module(module)
    return os.getpid()


def warm_pool(pool: ProcessPoolExecutor, size: int, module: str) -> None:
    """Return once all ``size`` spawn workers of ``pool`` have started.

    A spawn worker boots an interpreter and imports the module its task
    lives in before it can run anything; that start-up must not count
    against a deadline, so deadlines are armed only after every worker
    has imported ``module`` (the module whose functions the pool will
    run) and answered.  A pool that breaks while starting is left for
    the caller's next submission to report.
    """
    ready: set = set()
    try:
        while len(ready) < size:
            futures = [pool.submit(worker_pid, module) for _ in range(size)]
            ready.update(future.result() for future in futures)
    except BrokenExecutor:
        pass


def terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Kill every worker process (breaks the pool on purpose)."""
    for process in list(getattr(pool, "_processes", {}).values()):
        try:
            process.terminate()
        except Exception:
            pass


def _traceback_text(exc: BaseException) -> str:
    """The exception's traceback, including any remote (worker) part.

    ``concurrent.futures`` chains the worker-side traceback onto the
    re-raised exception via ``__cause__``; ``format_exception`` walks
    the chain, so worker crashes fingerprint on the *worker's* frames.
    """
    return "".join(traceback.format_exception(type(exc), exc,
                                              exc.__traceback__))


def _normalise_traceback(text: str) -> str:
    """Strip line numbers and memory addresses so equal crashes hash equal."""
    out = []
    for line in text.splitlines():
        if line.lstrip().startswith("File "):
            # '  File "x.py", line 12, in f' -> '  File "x.py", in f'
            parts = [part for part in line.split(", ")
                     if not part.startswith("line ")]
            line = ", ".join(parts)
        out.append(line)
    return "\n".join(out)


@dataclass(frozen=True)
class FailureFingerprint:
    """What failed, compressed to something comparable across attempts."""

    exception_type: str
    message: str
    traceback_sha256: str
    classification: str

    @classmethod
    def from_exception(cls, exc: BaseException) -> "FailureFingerprint":
        text = _normalise_traceback(_traceback_text(exc))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return cls(exception_type=type(exc).__name__,
                   message=str(exc)[:500],
                   traceback_sha256=digest,
                   classification=classify_failure(exc))

    def to_dict(self) -> Dict[str, Any]:
        return {"exception_type": self.exception_type,
                "message": self.message,
                "traceback_sha256": self.traceback_sha256,
                "classification": self.classification}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FailureFingerprint":
        return cls(exception_type=data["exception_type"],
                   message=data["message"],
                   traceback_sha256=data["traceback_sha256"],
                   classification=data["classification"])

    def short(self) -> str:
        return (f"{self.exception_type}({self.message!r}) "
                f"[{self.classification}, tb {self.traceback_sha256[:10]}]")


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget, deadline and deterministic backoff for one campaign.

    ``delay`` grows exponentially per attempt and is jittered by a hash
    of ``(key, attempt)`` — deterministic, so a re-run of the same
    campaign schedules retries identically (the same property the
    simulator's seeded RNG gives simulated randomness).
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    backoff: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.5
    deadline_s: Optional[float] = None
    retry_deterministic: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive when set")

    def should_retry(self, classification: str, attempts: int) -> bool:
        """May a point that has already burned ``attempts`` try again?"""
        if attempts >= self.max_attempts:
            return False
        if classification == DETERMINISTIC:
            return self.retry_deterministic
        return True

    def delay(self, key: str, attempts: int) -> float:
        """Backoff before attempt ``attempts + 1`` of point ``key``."""
        if self.base_delay <= 0:
            return 0.0
        raw = self.base_delay * (self.backoff ** max(0, attempts - 1))
        digest = hashlib.sha256(f"{key}:{attempts}".encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return min(self.max_delay, raw * (1.0 + self.jitter * unit))


@dataclass
class PointFailure:
    """One quarantined point: identity, attempts, and every fingerprint.

    ``occurrences`` counts how many times this *same* crash (same key,
    same fingerprint set) was quarantined — it grows across
    ``--resume`` cycles instead of the sidecar growing duplicate lines.
    """

    key: str
    job: str
    input_gb: float
    seed: int
    attempts: int
    fingerprints: List[FailureFingerprint] = field(default_factory=list)
    occurrences: int = 1

    def crash_signature(self) -> Tuple[Any, ...]:
        """What makes two quarantine records "the same crash"."""
        return (self.key,
                tuple((f.exception_type, f.traceback_sha256)
                      for f in self.fingerprints))

    def to_dict(self) -> Dict[str, Any]:
        return {"key": self.key, "job": self.job, "input_gb": self.input_gb,
                "seed": self.seed, "attempts": self.attempts,
                "occurrences": self.occurrences,
                "fingerprints": [f.to_dict() for f in self.fingerprints]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PointFailure":
        return cls(key=data["key"], job=data["job"],
                   input_gb=data["input_gb"], seed=data["seed"],
                   attempts=data["attempts"],
                   occurrences=int(data.get("occurrences", 1)),
                   fingerprints=[FailureFingerprint.from_dict(f)
                                 for f in data.get("fingerprints", [])])

    def describe(self) -> str:
        last = self.fingerprints[-1].short() if self.fingerprints else "?"
        seen = (f", seen {self.occurrences}x" if self.occurrences > 1 else "")
        return (f"{self.job} {self.input_gb} GiB seed={self.seed} "
                f"({self.attempts} attempt(s){seen}): {last}")


class CampaignPointsFailed(RuntimeError):
    """Raised by strict runs after the campaign *completed*: some points
    exhausted their attempt budget and were quarantined.  Carries the
    partial results (``None`` at failed indices) and the failures, so
    callers can still use everything that did resolve.
    """

    def __init__(self, failures: List[PointFailure], results: List[Any]):
        self.failures = failures
        self.results = results
        lines = "\n  ".join(failure.describe() for failure in failures)
        super().__init__(
            f"{len(failures)} campaign point(s) quarantined:\n  {lines}")


class Quarantine:
    """Deduplicating ``quarantine.jsonl`` sidecar of poisoned points.

    With ``path=None`` the quarantine is memory-only (failures are
    still collected on the runner); with a path, every quarantined
    point is one durable JSON line so post-mortems survive the process.
    Opening an existing sidecar loads it first, and recording a failure
    whose :meth:`PointFailure.crash_signature` matches a known line
    bumps that line's ``occurrences`` (and attempt total) instead of
    appending a duplicate — so a poison point crashed across ten
    ``--resume`` cycles is *one* line with ``occurrences: 10``.
    """

    def __init__(self, path: Optional[str | Path] = None):
        self.path = Path(path) if path is not None else None
        self.failures: List[PointFailure] = []
        if self.path is not None and self.path.exists():
            self.failures = Quarantine.load(self.path)

    def record(self, failure: PointFailure) -> PointFailure:
        """Record (or merge) one failure; returns the stored record."""
        signature = failure.crash_signature()
        for known in self.failures:
            if known.crash_signature() == signature:
                known.occurrences += failure.occurrences
                known.attempts += failure.attempts
                self._rewrite()
                return known
        self.failures.append(failure)
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            append_jsonl(self.path, failure.to_dict())
        return failure

    def _rewrite(self) -> None:
        """Atomically re-publish the whole sidecar (after a merge)."""
        if self.path is None:
            return
        text = "".join(json.dumps(failure.to_dict(), sort_keys=True) + "\n"
                       for failure in self.failures)
        write_atomic(self.path, text)

    def __len__(self) -> int:
        return len(self.failures)

    @classmethod
    def load(cls, path: str | Path) -> List[PointFailure]:
        """Read a sidecar back (tolerating a truncated final line)."""
        out: List[PointFailure] = []
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError:
            return out
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                out.append(PointFailure.from_dict(json.loads(line)))
            except (ValueError, KeyError):
                continue  # torn tail write
        return out


#: Version of the journal line schema.
JOURNAL_FORMAT_VERSION = 1


class CheckpointJournal(JsonlJournal):
    """Incremental, resumable record of a campaign's completed points.

    The journal is an append-only JSONL file.  The first line is a
    header; each later line is either::

        {"completed": {"key": <sha256>, "job": ..., "input_gb": ...,
                       "seed": ..., "entry": <store payload string>}}
        {"failure": <PointFailure dict>}

    ``entry`` is the exact :func:`repro.experiments.store.encode_entry`
    payload (header + verbatim trace JSONL), so a resumed run replays
    completed points byte-identically — the same round-trip guarantee
    the persistent store pins.  Opening an existing journal loads its
    completed entries (torn tail lines are tolerated and counted), and
    further completions append to the same file, so a campaign can be
    killed and resumed any number of times.
    """

    def __init__(self, path: str | Path):
        self._entries: Dict[str, str] = {}
        self._meta: Dict[str, Dict[str, Any]] = {}
        self.failures_recorded = 0
        super().__init__(path, {"journal": {"format": JOURNAL_FORMAT_VERSION}})

    def _load_record(self, record: Dict[str, Any]) -> None:
        completed = record.get("completed")
        if completed:
            try:
                key = completed["key"]
                self._entries[key] = completed["entry"]
                self._meta[key] = {name: completed.get(name)
                                   for name in ("job", "input_gb", "seed")}
            except (KeyError, TypeError):
                self.truncated_lines += 1
        elif record.get("failure"):
            self.failures_recorded += 1

    # -- writing -----------------------------------------------------------------

    def record_completed(self, key: str, job: str, input_gb: float, seed: int,
                         entry: str) -> None:
        """Append one completed point (idempotent per key)."""
        if key in self._entries:
            return
        self._entries[key] = entry
        self._meta[key] = {"job": job, "input_gb": input_gb, "seed": seed}
        self._append({"completed": {"key": key, "job": job,
                                    "input_gb": input_gb, "seed": seed,
                                    "entry": entry}})

    def record_failure(self, failure: PointFailure) -> None:
        self.failures_recorded += 1
        self._append({"failure": failure.to_dict()})

    # -- reading -----------------------------------------------------------------

    def lookup(self, key: str) -> Optional[Tuple[Any, Any]]:
        """Decode the completed entry for ``key``; None when absent/corrupt."""
        payload = self._entries.get(key)
        if payload is None:
            return None
        from repro.experiments.store import decode_entry

        try:
            return decode_entry(payload)
        except Exception:
            # A corrupt journal entry is a miss, never an abort.
            return None

    def completed_keys(self) -> List[str]:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def manifest(self) -> Dict[str, Any]:
        """Summary of what the journal holds (for reporting/debugging)."""
        return {"path": str(self.path),
                "completed": len(self._entries),
                "failures_recorded": self.failures_recorded,
                "truncated_lines": self.truncated_lines,
                "points": [dict(self._meta[key], key=key)
                           for key in self._entries]}
