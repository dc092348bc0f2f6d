"""Deterministic fault injection and the degradation ledger.

Chaos-testing the distributed sweep stack (queue leases, results-store
appends, Woodbury cores) needs faults that fire *on
purpose*: at a named site, on a chosen arrival, reproducibly.  This
module provides that, plus the two robustness primitives the hardened
call sites share:

* :class:`FaultPlan` — a process-wide set of :class:`FaultSpec` entries,
  installed programmatically (:func:`install_plan` / :func:`injected`)
  or from the ``REPRO_FAULTS`` environment variable, so spawned worker
  processes inherit the plan for free.  Instrumented sites call
  :func:`fault_point` (acting faults: raised errno errors, torn writes,
  ``os._exit`` crashes), :func:`fault_fires` (behavioural flags, e.g. a
  forced-singular Woodbury core), or :func:`now` (clock skew).  Every
  arrival and every fire is counted — :meth:`FaultPlan.report` is what
  chaos tests assert against.

* :func:`retry_io` — bounded exponential-backoff retry for transient
  filesystem errors, used by the store/queue writers; no wait exceeds
  :data:`RETRY_MAX_DELAY_S`.  Successful retries land in the degradation
  ledger.

* the **degradation ledger** — a process-wide counter of every fallback
  the stack took to survive (``woodbury.fallback.rank``,
  ``spectral.no_convergence``, ``io_retry.store.append`` …).
  :func:`snapshot_degradations` / :func:`degradations_since` bracket a
  flow run so its :class:`~repro.core.results.FlowMetrics` can report
  *how* it survived, and :func:`warn_degraded` additionally emits a
  :class:`DegradationWarning` for interactive callers.

Fault-spec syntax (entries joined by ``;`` or ``,``)::

    site=action[:param][@trigger]

    REPRO_FAULTS="store.append=eio@after:2;clock=skew:400;worker.after_execute=crash"

Actions: ``eio`` / ``enospc`` (raised as ``OSError`` with that errno),
``torn`` (a :class:`TornWriteFault`, an ``EIO`` subclass the store turns
into a half-written line), ``raise`` (:class:`InjectedFault`), ``crash``
(``os._exit(3)`` — a simulated SIGKILL, no cleanup), ``fail`` (no-op at
:func:`fault_point`; queried via :func:`fault_fires`), ``skew:SECONDS``
(added to :func:`now` when it fires at site ``clock``).

Triggers: ``always`` (default), ``after:N`` (the Nth arrival, exactly
once), ``every:N`` (every Nth arrival), ``prob:P[:SEED]`` (seeded
Bernoulli per arrival — deterministic for a fixed seed).

The spectral thermal backend adds no fault site; a capped PCG solve
counts ``spectral.no_convergence`` in the ledger.
"""

from __future__ import annotations

import errno
import os
import random
import threading
import time
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, TypeVar

__all__ = [
    "DegradationWarning",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "TornWriteFault",
    "active_plan",
    "clear_plan",
    "degradations_since",
    "fault_fires",
    "fault_point",
    "injected",
    "install_plan",
    "now",
    "record_degradation",
    "retry_io",
    "snapshot_degradations",
    "warn_degraded",
]

_T = TypeVar("_T")

#: exit status of injected ``crash`` faults (distinguishable from real bugs)
CRASH_EXIT_CODE = 3

#: longest wait between two :func:`retry_io` attempts, in seconds
RETRY_MAX_DELAY_S = 0.25

_ACTIONS = ("eio", "enospc", "torn", "raise", "crash", "fail", "skew")
_TRIGGERS = ("always", "after", "every", "prob")


class InjectedFault(RuntimeError):
    """A generic injected failure (action ``raise``)."""


class TornWriteFault(OSError):
    """Injected torn write: subclasses ``OSError(EIO)`` so any site that
    does not special-case it still treats it as a transient fs error."""

    def __init__(self, site: str) -> None:
        super().__init__(errno.EIO, f"injected torn write at {site}")
        self.site = site


class DegradationWarning(UserWarning):
    """The stack degraded gracefully instead of failing (e.g. a spectral
    solve stopped at its iteration cap and returned its last iterate)."""


@dataclass
class FaultSpec:
    """One named fault: where it strikes, what it does, when it fires."""

    site: str
    action: str
    param: Optional[float] = None
    trigger: str = "always"
    n: int = 1
    p: float = 0.0
    seed: int = 0
    arrivals: int = 0
    fires: int = 0
    _rng: Optional[random.Random] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r} (one of {_ACTIONS})")
        if self.trigger not in _TRIGGERS:
            raise ValueError(f"unknown fault trigger {self.trigger!r} (one of {_TRIGGERS})")
        if self.action == "skew" and self.param is None:
            raise ValueError("skew needs a seconds param, e.g. clock=skew:400")
        if self.trigger in ("after", "every") and self.n < 1:
            raise ValueError(f"trigger {self.trigger}:{self.n} needs N >= 1")
        if self.trigger == "prob":
            if not 0.0 <= self.p <= 1.0:
                raise ValueError(f"prob trigger needs 0 <= P <= 1, got {self.p}")
            self._rng = random.Random(self.seed)

    def arrive(self) -> bool:
        """Count one arrival at this spec's site; True when it fires."""
        self.arrivals += 1
        if self.trigger == "always":
            fired = True
        elif self.trigger == "after":
            fired = self.arrivals == self.n  # exactly once, on the Nth
        elif self.trigger == "every":
            fired = self.arrivals % self.n == 0
        else:  # prob: seeded Bernoulli, advanced once per arrival
            fired = self._rng.random() < self.p
        if fired:
            self.fires += 1
        return fired


def _parse_entry(entry: str) -> FaultSpec:
    if "=" not in entry:
        raise ValueError(f"fault entry {entry!r} is not of the form site=action[@trigger]")
    site, rest = entry.split("=", 1)
    site = site.strip()
    trigger_part = None
    if "@" in rest:
        rest, trigger_part = rest.split("@", 1)
    action, _, param_part = rest.strip().partition(":")
    param = None
    if param_part:
        try:
            param = float(param_part)
        except ValueError:
            raise ValueError(f"fault action param {param_part!r} in {entry!r} is not a number")
    kwargs: Dict[str, object] = {}
    if trigger_part:
        tokens = trigger_part.strip().split(":")
        kind = tokens[0]
        kwargs["trigger"] = kind
        try:
            if kind in ("after", "every"):
                kwargs["n"] = int(tokens[1])
            elif kind == "prob":
                kwargs["p"] = float(tokens[1])
                if len(tokens) > 2:
                    kwargs["seed"] = int(tokens[2])
        except (IndexError, ValueError):
            raise ValueError(
                f"bad trigger {trigger_part!r} in {entry!r} "
                "(use after:N, every:N, prob:P[:SEED], or always)"
            )
    if not site:
        raise ValueError(f"fault entry {entry!r} has an empty site")
    return FaultSpec(site=site, action=action, param=param, **kwargs)  # type: ignore[arg-type]


class FaultPlan:
    """A set of fault specs with shared, thread-safe arrival bookkeeping."""

    def __init__(self, specs: List[FaultSpec], from_env: bool = False) -> None:
        self.specs = list(specs)
        self.from_env = from_env
        self._lock = threading.Lock()
        self._by_site: Dict[str, List[FaultSpec]] = {}
        for spec in self.specs:
            self._by_site.setdefault(spec.site, []).append(spec)

    @classmethod
    def from_spec(cls, text: str, from_env: bool = False) -> "FaultPlan":
        """Parse a ``site=action[@trigger]`` list (``;`` or ``,`` joined)."""
        entries = [e.strip() for e in text.replace(",", ";").split(";") if e.strip()]
        return cls([_parse_entry(e) for e in entries], from_env=from_env)

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        raw = os.environ.get("REPRO_FAULTS")
        return cls.from_spec(raw, from_env=True) if raw else None

    def _fired(self, site: str) -> List[FaultSpec]:
        specs = self._by_site.get(site)
        if not specs:
            return []
        with self._lock:
            return [spec for spec in specs if spec.arrive()]

    def fault_point(self, site: str) -> None:
        """Act out every firing fault at ``site`` (raise / crash)."""
        for spec in self._fired(site):
            if spec.action == "crash":
                os._exit(CRASH_EXIT_CODE)  # simulated SIGKILL: no cleanup at all
            if spec.action == "torn":
                raise TornWriteFault(site)
            if spec.action == "eio":
                raise OSError(errno.EIO, f"injected EIO at {site}")
            if spec.action == "enospc":
                raise OSError(errno.ENOSPC, f"injected ENOSPC at {site}")
            if spec.action == "raise":
                raise InjectedFault(f"injected fault at {site}")
            # "fail" and "skew" act through fault_fires()/now(), not here

    def fires(self, site: str) -> bool:
        """Whether any fault fires on this arrival (behavioural sites)."""
        return bool(self._fired(site))

    def clock_skew(self) -> float:
        """Seconds of injected skew firing at site ``clock`` on this arrival."""
        return sum(spec.param or 0.0 for spec in self._fired("clock") if spec.action == "skew")

    def report(self) -> Dict[str, Dict[str, int]]:
        """Per-site arrival/fire counts — what chaos tests assert on."""
        out: Dict[str, Dict[str, int]] = {}
        with self._lock:
            for spec in self.specs:
                entry = out.setdefault(spec.site, {"arrivals": 0, "fires": 0})
                entry["arrivals"] += spec.arrivals
                entry["fires"] += spec.fires
        return out


_PLAN: Optional[FaultPlan] = None
_ENV_SRC: Optional[str] = None
_PLAN_LOCK = threading.Lock()


def install_plan(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` process-wide (overrides any env-derived plan)."""
    global _PLAN
    with _PLAN_LOCK:
        _PLAN = plan
    return plan


def clear_plan() -> None:
    """Remove the installed plan (env-derived plans re-install lazily)."""
    global _PLAN, _ENV_SRC
    with _PLAN_LOCK:
        _PLAN = None
        _ENV_SRC = None


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, else one parsed from ``REPRO_FAULTS`` (cached
    against the raw env value, so workers spawned with the variable set
    start injecting without any code changes)."""
    global _PLAN, _ENV_SRC
    plan = _PLAN
    if plan is not None and not plan.from_env:
        return plan
    env = os.environ.get("REPRO_FAULTS")
    if plan is not None and env == _ENV_SRC:
        return plan
    if env == _ENV_SRC:
        return None
    with _PLAN_LOCK:
        _ENV_SRC = env
        _PLAN = FaultPlan.from_spec(env, from_env=True) if env else None
        return _PLAN


@contextmanager
def injected(spec: str) -> Iterator[FaultPlan]:
    """Scope a fault plan to a ``with`` block (tests' bread and butter)."""
    plan = install_plan(FaultPlan.from_spec(spec))
    try:
        yield plan
    finally:
        clear_plan()


def fault_point(site: str) -> None:
    """Instrumentation hook: act out any fault planned for ``site``."""
    plan = active_plan()
    if plan is not None:
        plan.fault_point(site)


def fault_fires(site: str) -> bool:
    """Instrumentation hook for behavioural faults (True = misbehave)."""
    plan = active_plan()
    return plan.fires(site) if plan is not None else False


def now() -> float:
    """``time.time()`` plus any injected clock skew.

    The queue compares this worker-local clock against shared-filesystem
    mtimes; routing it through here lets chaos tests reproduce the NFS
    clock-skew scenarios the fencing tokens exist for.
    """
    t = time.time()
    plan = active_plan()
    return t + plan.clock_skew() if plan is not None else t


# -- degradation ledger ----------------------------------------------------------

_DEGRADATIONS: "Counter[str]" = Counter()
_DEG_LOCK = threading.Lock()


def record_degradation(kind: str) -> None:
    """Count one graceful fallback (process-wide, thread-safe)."""
    with _DEG_LOCK:
        _DEGRADATIONS[kind] += 1


def snapshot_degradations() -> Dict[str, int]:
    """Current ledger totals (copy) — bracket a run with this."""
    with _DEG_LOCK:
        return dict(_DEGRADATIONS)


def degradations_since(before: Dict[str, int]) -> Dict[str, int]:
    """Ledger deltas since a :func:`snapshot_degradations` call."""
    with _DEG_LOCK:
        return {
            kind: total - before.get(kind, 0)
            for kind, total in _DEGRADATIONS.items()
            if total - before.get(kind, 0) > 0
        }


def warn_degraded(kind: str, message: str) -> None:
    """Record a degradation and warn (visible, but never fatal)."""
    record_degradation(kind)
    warnings.warn(f"{kind}: {message}", DegradationWarning, stacklevel=3)


def retry_io(
    fn: Callable[[], _T],
    site: str = "io",
    attempts: int = 4,
    base_delay: float = 0.01,
) -> _T:
    """Run ``fn`` with bounded exponential-backoff retry on ``OSError``.

    Transient shared-filesystem errors (NFS hiccups, injected ``EIO``)
    should cost a retry, not a sweep; persistent ones still raise after
    ``attempts`` tries.  ``FileExistsError`` is never retried — for the
    queue's ``O_EXCL`` arbitration it is the *successful* signal that
    someone else holds the file.  Each successful retry is recorded as
    ``io_retry.<site>`` in the degradation ledger.
    """
    for attempt in range(attempts):
        try:
            return fn()
        except FileExistsError:
            raise
        except OSError:
            if attempt == attempts - 1:
                raise
            record_degradation(f"io_retry.{site}")
            time.sleep(min(base_delay * (2.0**attempt), RETRY_MAX_DELAY_S))
    raise AssertionError("unreachable")  # pragma: no cover
