"""Set-up probe: import the program, load and validate one workload's
scenario, then print ``ready`` with the calibration times (ns) taken just
before and just after. The benchmark times this process from spawn to that
line.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys

from hostspeed import calibration_ns

if __name__ == "__main__":
    before = calibration_ns()
    from workloads import build_scenario, load_program
    load_program()
    build_scenario(sys.argv[1], int(sys.argv[2]))
    after = calibration_ns()
    print(f"ready {before} {after}", flush=True)
