"""Multi-tick scripts: ``waitNextTick`` segmentation (Section 3.2).

The paper adds ``waitNextTick`` so that a sequence of behaviours spanning
several ticks can be written linearly instead of as an explicit state
machine: *"Note that waitNextTick essentially serves as a program counter
… there is a direct translation between multi-tick programs using
waitNextTick and standard single-tick SGL programs.  We can simply
reintroduce state variables and conditions to indicate where the script
should begin."*

This module performs exactly that translation: a script body is split into
*segments* at top-level ``waitNextTick`` statements, and an implicit
program-counter state variable (``__pc_<script>``) selects which segment an
object executes during a tick.  The runtime scheduler
(:mod:`repro.runtime.scheduler`) stores and advances the counter; reactive
interrupts (Section 3.2) reset it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sgl.ast_nodes import ScriptDecl, Statement, WaitNextTick

__all__ = ["ScriptSegment", "SegmentedScript", "segment_script", "pc_variable_name"]


def pc_variable_name(script_name: str) -> str:
    """The name of the implicit program-counter variable for a script."""
    return f"__pc_{script_name}"


@dataclass(frozen=True)
class ScriptSegment:
    """One contiguous run of statements between waitNextTick boundaries."""

    index: int
    statements: tuple[Statement, ...]
    #: Whether a waitNextTick follows this segment (False only for the last).
    waits_after: bool


@dataclass(frozen=True)
class SegmentedScript:
    """A script split into per-tick segments plus its pc variable name."""

    script: ScriptDecl
    segments: tuple[ScriptSegment, ...]

    @property
    def pc_variable(self) -> str:
        return pc_variable_name(self.script.name)

    @property
    def is_multi_tick(self) -> bool:
        return len(self.segments) > 1

    def next_pc(self, current: int) -> int:
        """The program counter after executing segment *current*.

        The last segment wraps around to 0, so a multi-tick behaviour
        repeats — matching how game loops re-issue idle behaviours.  Scripts
        that should not repeat can simply make their first segment a no-op
        guard.
        """
        if current + 1 < len(self.segments):
            return current + 1
        return 0

    def segment_for(self, pc: int) -> ScriptSegment:
        if not self.segments:
            return ScriptSegment(0, (), False)
        return self.segments[max(0, min(pc, len(self.segments) - 1))]


def segment_script(script: ScriptDecl) -> SegmentedScript:
    """Split *script* into segments at top-level ``waitNextTick`` statements."""
    segments: list[ScriptSegment] = []
    current: list[Statement] = []
    for statement in script.body.statements:
        if isinstance(statement, WaitNextTick):
            segments.append(ScriptSegment(len(segments), tuple(current), waits_after=True))
            current = []
        else:
            current.append(statement)
    segments.append(ScriptSegment(len(segments), tuple(current), waits_after=False))
    return SegmentedScript(script=script, segments=tuple(segments))
