"""Debugging support for SGL games (Section 3.3)."""

from repro.runtime.debug.inspector import EffectTrace, TickInspector, explain_script_plans

__all__ = ["EffectTrace", "TickInspector", "explain_script_plans"]
