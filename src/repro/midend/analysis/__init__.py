"""Program analyses: one facts pass and the verdicts that read it.

:mod:`.facts` walks the program once into a frozen ``ProgramFacts``; race
classification (:mod:`.races`), the effect verdicts (:mod:`.effects`:
monotonicity, fusion, incremental eligibility) and the batch-kernel kind
(:mod:`.vectorize`) are reads of it, as are the diagnostics engine
(:mod:`repro.midend.diagnostics`) and ``repro lint`` (:mod:`repro.midend.lint`).
The package imports nothing of the midend but the schedule.
"""
