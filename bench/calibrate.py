"""Host-speed calibration: times stated in reference seconds.

The shared hosts this benchmark runs on change speed by up to 2x within
seconds, as other tenants load the machine, and every wall time moves with
them.  A calibration unit is a fixed piece of the benchmark's own code, of the
same kind of work as a workload (interpreter-bound Python with small numpy
arrays, Python mixed with large arrays, or plain Python for the import
probe); it shares no code with latalg.  A *reference second* is defined as
the time of ``UNITS_PER_REF_S`` units of the workload's kind.  The benchmark times the
unit around each stretch of operations and divides the operations' wall times
by the host factor so measured, ``unit wall time * UNITS_PER_REF_S``.  A
change to latalg moves reference times as it moves wall times; a slow spell
of the host moves both the operations and the unit, and cancels.

numpy is imported only by the units that use it, and nothing else beyond
``time``, so that the import probe can time ``import latalg`` (which imports
numpy) after loading this module.
"""

import time

UNITS_PER_REF_S = 500
REPEATS = 5  # one sample is the median time of this many units


def python_unit():
    """Plain interpreter work: tuple keys, dict inserts, a filtered sum."""
    table = {}
    for i in range(6000):
        table[(i % 97, i)] = i * 3
    return sum(v for k, v in table.items() if k[0] % 2)


class _Interpreter:
    """Python work with numpy on tiny arrays, as in per-node term evaluation."""

    def __init__(self):
        import numpy as np

        self.np = np
        self.small = np.linspace(-1.0, 1.0, 41)

    def __call__(self):
        np, a = self.np, self.small
        table = {}
        for i in range(3500):
            table[(i % 97, i)] = i * 3
        for _ in range(480):
            a = np.maximum(a * 0.5, a - 1.0) + 0.25
        return sum(v for k, v in table.items() if k[0] % 2) + float(a[0])


class _Array:
    """Half plain Python, half elementwise numpy over 2^17 points: the mix whose
    drift tracks the dense-grid operations (their numpy passes are interleaved
    with interpreter work)."""

    def __init__(self):
        import numpy as np

        self.np = np
        self.big = np.linspace(-3.0, 3.0, 1 << 17)

    def __call__(self):
        np, x = self.np, self.big
        table = {}
        for i in range(3000):
            table[(i % 97, i)] = i * 3
        peak = float(np.max(np.abs(np.sqrt(x * x + 1.0) - np.maximum(x, 0.0))))
        return sum(v for k, v in table.items() if k[0] % 2) + peak


UNITS = {"python": lambda: python_unit, "interpreter": _Interpreter, "array": _Array}


class Calibration:
    """Samples the host factor: wall seconds per reference second, now."""

    def __init__(self, kind):
        self.unit = UNITS[kind]()
        self.samples = []
        self.sample()  # warm-up: first calls pay for caches and allocation
        self.samples.clear()

    def sample(self):
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self.unit()
            times.append(time.perf_counter() - t0)
        factor = sorted(times)[REPEATS // 2] * UNITS_PER_REF_S
        self.samples.append(factor)
        return factor
