"""The cyclic garbage collector's policy: paused for one unit of work.

A unit of work is one fixed point (``IFDSSolver.solve``,
``IDESolver.solve``, and ``SPLLift.solve`` and ``measure_a2``, which
build their results from the live solver), one batch job
(:func:`repro.service.worker.execute_job`) or one ``spllift analyze``.
Inside a unit the collector is off; reference counting still frees
every object that is not part of a cycle.  What a unit builds is live
until the unit ends, so a collection inside it finds almost nothing to
free, and a full one walks the whole live solver state to find that out.

A lone job, an ``analyze``, or the run of an inline batch's jobs over
one source each own one program's lifetime.  When a lone job or an
``analyze`` ends, none of its objects has been promoted to an older
generation, so the first young collection after it looks at what
survived once and reclaims the unit's own cycles (the IR, the BDD and
edge intern tables) together.  The jobs of an inline batch share one
IR and ICFG per source (:func:`repro.service.worker.shared_frontend`):
those outlive each job and are promoted, and when a job with another
source or the end of the batch releases them they wait for a collection
of the older generation.  Each job's own cycles still die young, and at
most one shared program is held at a time, so memory does not grow
across units.

Pausing is safe under two conditions, which every caller keeps:

- a unit drops no cyclic garbage in bulk before it ends (garbage it
  drops waits for the young collection after the unit); a batch job
  that releases the previous source's shared program is no exception,
  because that program sits in an older generation, which no young
  collection would free earlier;
- a unit never forks: a child forked inside the pause would start with
  the collector off.
"""

from __future__ import annotations

import gc

__all__ = ["paused"]


class paused:
    """``with paused():`` turns the cyclic collector off for the block
    and back on when the block exits, also on an exception.  With the
    collector already off (an enclosing block, or a caller's own
    ``gc.disable()``) it does nothing, so blocks nest and the outermost
    one turns it back on.

    Leaving the block allocates nothing after the collector is back on,
    so no collection can start before the caller drops what the unit
    built (a solver's tables die with the solver).  A generator-based
    context manager would raise ``StopIteration`` there, and that one
    allocation would start a young collection over the whole live state
    of the unit.  For the same reason, run a unit that owns a program as
    a function called inside the block: its locals then die before the
    collector comes back on.
    """

    __slots__ = ("_resume",)

    def __enter__(self) -> None:
        self._resume = gc.isenabled()
        if self._resume:
            gc.disable()

    def __exit__(self, *exc_info) -> None:
        if self._resume:
            gc.enable()
