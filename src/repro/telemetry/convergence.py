"""Convergence diagnostics: what the solvers did, not just how long.

Three record types cover the stack's iterative machinery:

* :class:`NewtonTrace` -- one Newton solve's residual-norm trajectory,
* :class:`StepRecord` -- one transient step attempt (size / LTE ratio /
  accepted or rejected / Newton iterations),
* :class:`IterateRecord` -- one optimizer iterate (objective + parameters).

:class:`ConvergenceDiagnostics` collects them per analysis run with a cap
per category so a million-step transient cannot balloon memory.  The
storage contract: each category *stores* at most its cap of records (the
earliest ones -- the list simply stops growing) while the matching
``*_total`` counter keeps *counting* every record unconditionally, so
``newton_total > len(newton)`` is how a consumer detects truncation.  The
shared default cap is :data:`MAX_RECORDS` (per-category overrides via the
keyword-only constructor arguments).
Analyses attach an instance to their result's telemetry report behind the
``SimulationOptions.telemetry`` knob.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["NewtonTrace", "StepRecord", "IterateRecord",
           "ConvergenceDiagnostics", "MAX_RECORDS"]

#: Default storage cap per record category (also caps the Newton
#: workspace's health records).
MAX_RECORDS = 10000


@dataclass
class NewtonTrace:
    """Residual-norm trajectory of one Newton solve.

    ``residuals[i]`` is the norm entering iteration ``i``; ``converged``
    reflects the solver's verdict, ``context`` labels which analysis phase
    ran the solve (``"op"``, ``"transient"``, ...), ``time`` the transient
    time point when applicable.
    """

    context: str
    residuals: list[float] = field(default_factory=list)
    converged: bool = False
    time: float | None = None

    @property
    def iterations(self) -> int:
        return len(self.residuals)

    def to_json(self) -> dict:
        return {"context": self.context, "residuals": list(self.residuals),
                "converged": self.converged, "iterations": self.iterations,
                "time": self.time}


@dataclass
class StepRecord:
    """One transient step attempt (accepted or rejected)."""

    time: float
    dt: float
    accepted: bool
    error_ratio: float | None = None
    newton_iterations: int = 0

    def to_json(self) -> dict:
        return {"time": self.time, "dt": self.dt, "accepted": self.accepted,
                "error_ratio": self.error_ratio,
                "newton_iterations": self.newton_iterations}


@dataclass
class IterateRecord:
    """One optimizer iterate: objective value at a parameter point."""

    iteration: int
    objective: float
    params: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"iteration": self.iteration, "objective": self.objective,
                "params": dict(self.params)}


class ConvergenceDiagnostics:
    """Capped collection of convergence records for one analysis run.

    ``max_records`` is the shared storage cap; ``max_newton`` /
    ``max_steps`` / ``max_iterates`` override it per category.  Counting
    (``*_total``) is never capped -- see the module docstring for the
    storage-vs-count contract.
    """

    def __init__(self, max_records: int = MAX_RECORDS, *,
                 max_newton: int | None = None,
                 max_steps: int | None = None,
                 max_iterates: int | None = None) -> None:
        self.max_records = int(max_records)
        self.max_newton = self.max_records if max_newton is None \
            else int(max_newton)
        self.max_steps = self.max_records if max_steps is None \
            else int(max_steps)
        self.max_iterates = self.max_records if max_iterates is None \
            else int(max_iterates)
        self.newton: list[NewtonTrace] = []
        self.steps: list[StepRecord] = []
        self.iterates: list[IterateRecord] = []
        self.newton_total = 0
        self.steps_total = 0
        self.iterates_total = 0

    # ------------------------------------------------------------- recording
    def add_newton(self, trace: NewtonTrace) -> None:
        self.newton_total += 1
        if len(self.newton) < self.max_newton:
            self.newton.append(trace)

    def add_step(self, record: StepRecord) -> None:
        self.steps_total += 1
        if len(self.steps) < self.max_steps:
            self.steps.append(record)

    def add_iterate(self, record: IterateRecord) -> None:
        self.iterates_total += 1
        if len(self.iterates) < self.max_iterates:
            self.iterates.append(record)

    # --------------------------------------------------------------- summary
    def summary(self) -> dict:
        """Scalar digest: iteration totals, rejection rate, worst solves."""
        newton_iters = [trace.iterations for trace in self.newton]
        rejected = sum(1 for step in self.steps if not step.accepted)
        out = {
            "newton_solves": self.newton_total,
            "newton_iterations": sum(newton_iters),
            "newton_max_iterations": max(newton_iters, default=0),
            "newton_failures": sum(1 for trace in self.newton
                                   if not trace.converged),
            "steps": self.steps_total,
            "steps_rejected": rejected,
            "step_rejection_rate": (rejected / len(self.steps)
                                    if self.steps else 0.0),
            "optimizer_iterates": self.iterates_total,
        }
        if self.steps:
            sizes = [step.dt for step in self.steps if step.accepted]
            if sizes:
                out["step_size_min"] = min(sizes)
                out["step_size_max"] = max(sizes)
        return out

    def to_json(self) -> dict:
        return {
            "summary": self.summary(),
            "newton": [trace.to_json() for trace in self.newton],
            "steps": [record.to_json() for record in self.steps],
            "iterates": [record.to_json() for record in self.iterates],
        }

    def __repr__(self) -> str:
        return (f"ConvergenceDiagnostics({self.newton_total} newton solves, "
                f"{self.steps_total} steps, {self.iterates_total} iterates)")
