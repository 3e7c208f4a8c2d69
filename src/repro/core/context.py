"""Anytime solve control: deadlines, cancellation, incumbent progress.

Every solver in this repository used to be a blocking black box: a caller
under heavy traffic could neither bound a solve's latency, cancel it, nor
read a best-so-far answer while it ran.  :class:`SolveContext` is the one
object threaded through the entire solve path — the facade
(:func:`repro.core.solver.solve`), the registry
(:meth:`repro.runtime.registry.SolverSpec.solve`), every long-loop solver,
the batch runtime and the distributed workers — that provides all three:

* **deadline** — a wall-clock budget; solvers poll :meth:`interrupted` at
  iteration granularity (per swept node, per DP tree node, per GA
  generation, per enumerated cut …) and, once it fires, stop and return
  their current incumbent as a ``feasible`` result instead of raising or
  running on;
* **cancellation** — a cooperative token (any object with ``is_set()``,
  e.g. a :class:`threading.Event`); observed at the same checkpoints;
* **progress** — solvers report every strictly improving incumbent via
  :meth:`report_incumbent`; the context records ``(elapsed_s, objective,
  source)`` triples (surfaced as ``SolverResult.incumbent_history``) and
  invokes an optional callback, which is how the distributed worker's lease
  heartbeat publishes best-so-far objectives and how the portfolio solver
  shares bounds between its stages.

A context with no deadline and no cancel token is inert: ``interrupted()``
always returns ``None`` and solvers take the exact same code path as with no
context at all — the differential harness pins that ``deadline=None`` stays
bit-identical to the historical behaviour.

Statuses
--------
:data:`STATUS_OPTIMAL`
    an exact solver ran to completion — the result is the proven optimum;
:data:`STATUS_FEASIBLE`
    a valid assignment without an optimality proof: a heuristic completed,
    or a deadline/cancellation interrupted an exact solver holding an
    incumbent (``details["interrupted"]`` records which);
:data:`STATUS_TIMEOUT` / :data:`STATUS_CANCELLED`
    the context fired before *any* feasible incumbent existed — the result
    carries no assignment (solvers seed an incumbent almost immediately, so
    these only occur with essentially-zero budgets).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "SolveContext",
    "SolveInterrupted",
    "DeadlineExpired",
    "SolveCancelled",
    "STATUS_OPTIMAL",
    "STATUS_FEASIBLE",
    "STATUS_TIMEOUT",
    "STATUS_CANCELLED",
    "SOLVE_STATUSES",
    "INTERRUPT_DEADLINE",
    "INTERRUPT_CANCELLED",
]

STATUS_OPTIMAL = "optimal"
STATUS_FEASIBLE = "feasible"
STATUS_TIMEOUT = "timeout"
STATUS_CANCELLED = "cancelled"

#: Every value :attr:`repro.core.solver.SolverResult.status` may take.
SOLVE_STATUSES = (STATUS_OPTIMAL, STATUS_FEASIBLE, STATUS_TIMEOUT,
                  STATUS_CANCELLED)

#: Interruption kinds returned by :meth:`SolveContext.interrupted`.
INTERRUPT_DEADLINE = "deadline"
INTERRUPT_CANCELLED = "cancelled"

#: One recorded incumbent: (seconds since context creation, objective, source).
IncumbentRecord = Tuple[float, float, Optional[str]]


class SolveInterrupted(RuntimeError):
    """The context fired while the solver held no feasible incumbent.

    ``kind`` is :data:`INTERRUPT_DEADLINE` or :data:`INTERRUPT_CANCELLED`;
    :attr:`status` is the matching terminal result status.  Solvers raise
    this only from :meth:`SolveContext.checkpoint` (i.e. before their first
    incumbent exists); once an incumbent is in hand they return it as a
    ``feasible`` result instead.
    """

    kind = "interrupted"
    status = STATUS_TIMEOUT

    def __init__(self, message: Optional[str] = None) -> None:
        super().__init__(message or f"solve interrupted: {self.kind}")


class DeadlineExpired(SolveInterrupted):
    """The wall-clock deadline passed before any incumbent existed."""

    kind = INTERRUPT_DEADLINE
    status = STATUS_TIMEOUT


class SolveCancelled(SolveInterrupted):
    """The cancellation token fired before any incumbent existed."""

    kind = INTERRUPT_CANCELLED
    status = STATUS_CANCELLED


_INTERRUPT_ERRORS = {
    INTERRUPT_DEADLINE: DeadlineExpired,
    INTERRUPT_CANCELLED: SolveCancelled,
}


class SolveContext:
    """Deadline, cancellation token and incumbent channel for one solve.

    Parameters
    ----------
    deadline_s:
        Wall-clock budget in seconds, measured from construction.  ``None``
        disables the deadline.
    cancel:
        Cooperative cancellation token — any object exposing ``is_set()``
        (e.g. :class:`threading.Event`).  The context never sets it on its
        own; :meth:`cancel` does so for callers that did not bring one.
    on_incumbent:
        ``callback(objective, payload, source)`` invoked for every strictly
        improving incumbent a solver reports.  Exceptions from the callback
        propagate to the solver — keep it cheap and robust.
    check_stride:
        Advisory stride for solvers whose iteration bodies are tiny (random
        search samples, brute-force cuts, B&B nodes): they poll the context
        every ``check_stride`` iterations instead of every one.  Loops whose
        bodies are already substantial (label-sweep nodes, GA generations)
        poll every iteration regardless.
    clock:
        Monotonic time source (tests inject fake clocks to fire the deadline
        at a chosen checkpoint).
    """

    __slots__ = ("clock", "started", "deadline", "cancel_event",
                 "on_incumbent", "check_stride", "incumbent_history",
                 "_best", "span")

    def __init__(self, deadline_s: Optional[float] = None,
                 cancel: Optional[Any] = None,
                 on_incumbent: Optional[Callable[[float, Any, Optional[str]],
                                                 None]] = None,
                 check_stride: int = 64,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if deadline_s is not None and deadline_s < 0:
            raise ValueError("deadline_s must be non-negative")
        if check_stride < 1:
            raise ValueError("check_stride must be at least 1")
        self.clock = clock
        self.started = clock()
        self.deadline = None if deadline_s is None else self.started + deadline_s
        if cancel is None:
            # always carry a token so clamped children share cancellation
            # with their parent no matter when cancel() is first called
            import threading

            cancel = threading.Event()
        self.cancel_event = cancel
        self.on_incumbent = on_incumbent
        self.check_stride = check_stride
        self.incumbent_history: List[IncumbentRecord] = []
        # one shared mutable cell so clamped children and their parent see
        # the same best incumbent (an improvement reported through either
        # must not re-fire through the other)
        self._best: Dict[str, Any] = {"objective": float("inf"),
                                      "payload": None}
        # the active tracing span (repro.observability.tracing.Span) when
        # this solve is traced; None keeps the untraced path allocation-free
        self.span: Optional[Any] = None

    @property
    def best_objective(self) -> float:
        return self._best["objective"]

    @property
    def best_payload(self) -> Any:
        return self._best["payload"]

    # --------------------------------------------------------------- clamping
    def clamped(self, deadline_s: Optional[float]) -> "SolveContext":
        """A child context whose deadline is tightened to ``deadline_s`` from
        now (never loosened).  Cancellation token, callback, the incumbent
        history list and the best-incumbent cursor are all *shared* with the
        parent — the distributed worker uses this to cap a task's deadline at
        its remaining lease."""
        child = SolveContext.__new__(SolveContext)
        child.clock = self.clock
        child.started = self.started
        child.deadline = self.deadline
        if deadline_s is not None:
            candidate = self.clock() + deadline_s
            if child.deadline is None or candidate < child.deadline:
                child.deadline = candidate
        child.cancel_event = self.cancel_event
        child.on_incumbent = self.on_incumbent
        child.check_stride = self.check_stride
        child.incumbent_history = self.incumbent_history
        child._best = self._best
        child.span = self.span
        return child

    # ------------------------------------------------------------ interruption
    def cancel(self) -> None:
        """Request cooperative cancellation."""
        self.cancel_event.set()

    def remaining(self) -> Optional[float]:
        """Seconds left on the deadline (``None`` when no deadline is set)."""
        if self.deadline is None:
            return None
        return self.deadline - self.clock()

    def elapsed(self) -> float:
        return self.clock() - self.started

    def interrupted(self) -> Optional[str]:
        """:data:`INTERRUPT_CANCELLED` / :data:`INTERRUPT_DEADLINE` / None.

        The per-iteration poll: one ``is_set()`` and one clock read.
        Cancellation wins ties — an explicit cancel is a stronger signal
        than a deadline that happened to pass at the same instant.
        """
        if self.cancel_event is not None and self.cancel_event.is_set():
            return INTERRUPT_CANCELLED
        if self.deadline is not None and self.clock() >= self.deadline:
            return INTERRUPT_DEADLINE
        return None

    def checkpoint(self) -> None:
        """Raise the matching :class:`SolveInterrupted` if the context fired.

        For solver phases that hold no incumbent yet (graph construction,
        potential passes): there is nothing feasible to return, so the
        interruption propagates as an exception.
        """
        kind = self.interrupted()
        if kind is not None:
            raise _INTERRUPT_ERRORS[kind]()

    # ------------------------------------------------------------- incumbents
    def report_incumbent(self, objective: float, payload: Any = None,
                         source: Optional[str] = None) -> bool:
        """Record a feasible solution; True when it improves the best known.

        Only strict improvements are recorded/forwarded, so the history is
        strictly decreasing in objective and callbacks never fire on noise.
        """
        if not objective < self._best["objective"]:
            return False
        self._best["objective"] = objective
        self._best["payload"] = payload
        self.incumbent_history.append((self.elapsed(), objective, source))
        if self.span is not None:
            self.span.add_event("incumbent", objective=objective, source=source)
        if self.on_incumbent is not None:
            self.on_incumbent(objective, payload, source)
        return True

    def best_bound(self) -> float:
        """The best reported objective (``inf`` before the first incumbent).

        A valid incumbent bound for any exact engine solving the *same*
        instance — the portfolio solver's stages warm-start from it.
        """
        return self.best_objective

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        remaining = self.remaining()
        return (f"SolveContext(remaining="
                f"{'∞' if remaining is None else f'{remaining:.3f}s'}, "
                f"best={self.best_objective:.6g}, "
                f"incumbents={len(self.incumbent_history)})")


def ensure_context(context: Optional[SolveContext],
                   deadline_s: Optional[float] = None) -> Optional[SolveContext]:
    """Normalise the (context, deadline) pair callers hand the facade.

    ``deadline_s`` without a context builds one; with a context it clamps it.
    Returns ``None`` when neither is given, keeping the no-context hot path
    allocation-free.
    """
    if context is None:
        return SolveContext(deadline_s=deadline_s) if deadline_s is not None \
            else None
    if deadline_s is not None:
        return context.clamped(deadline_s)
    return context
