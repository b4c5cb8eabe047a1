"""The fast VM against the interpreter over 1,320 armed configurations.

``FACT_QUERIES`` (11) x five sampled events x six periods x register
tagging / call stacks x heat 1 / 16, at ``Database.tpch(0.0002, 42)``:
each fast-VM run must leave everything simulated (``everything_simulated``:
registers, counters, both cache levels, predictor, rows, samples) as the
interpreter's run of the same plan does.  Too slow for tier-1; run
nightly, and by hand after a change to ``repro/vm/translate.py``::

    PYTHONPATH=src python -m benchmarks.vm_parity_sweep
"""

import itertools
import sys

from repro.data.queries import ALL_QUERIES
from repro.engine import Database, ProfilerConfig, ProfilingMode
from repro.vm.costs import FAST_VM_HOT_ENTRIES

from tests.test_vm_translate import ALL_EVENTS, FACT_QUERIES, everything_simulated

PERIODS = (128, 300, 1_000, 2_000, 5_000, 20_000)
MODES = (ProfilingMode.REGISTER_TAGGING, ProfilingMode.CALLSTACK)


def sweep() -> int:
    """Print each configuration that differs; returns how many did."""
    db = Database.tpch(scale=0.0002, seed=42)
    configurations = differences = 0
    for name, event, period, mode in itertools.product(
        FACT_QUERIES, ALL_EVENTS, PERIODS, MODES
    ):
        config = ProfilerConfig(
            mode=mode, event=event, period=period, record_memaddr=True
        )
        compiled = db._compile(ALL_QUERIES[name].sql, config)
        slow, _ = everything_simulated(db, compiled, config, fast_vm=False)
        for heat in (1, FAST_VM_HOT_ENTRIES):
            fast, _ = everything_simulated(
                db, compiled, config, hot_entries=heat
            )
            configurations += 1
            if fast != slow:
                differences += 1
                print(f"differs: {name} {event.name} {period} {mode.value} "
                      f"heat {heat}", flush=True)
    print(f"{configurations} configurations, {differences} differences")
    return differences


if __name__ == "__main__":
    sys.exit(1 if sweep() else 0)
