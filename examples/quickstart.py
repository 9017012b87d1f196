#!/usr/bin/env python3
"""Quickstart: simulate one kernel on one heterogeneous memory system.

Builds the paper's Table II machine, generates the reduction kernel's
trace (Table III row 1), runs it on the LRB case study (partially shared
address space over a PCI aperture), and prints the Figure 5-style
execution-time breakdown.

Run:  python examples/quickstart.py
"""

from repro import FastSimulator, SweepPoint, case_study, kernel


def main() -> None:
    reduction = kernel("reduction")
    trace = reduction.trace()
    print(f"kernel: {trace.name}")
    print(f"  CPU instructions:    {trace.cpu_instructions:>9,}")
    print(f"  GPU instructions:    {trace.gpu_instructions:>9,}")
    print(f"  serial instructions: {trace.serial_instructions:>9,}")
    print(f"  communications:      {trace.num_communications:>9}")
    print(f"  initial transfer:    {trace.initial_transfer_bytes:>9,} B")
    print()

    simulator = FastSimulator()
    for system_name in ("CPU+GPU", "LRB", "GMAC", "Fusion", "IDEAL-HETERO"):
        result = simulator.run(trace, SweepPoint(case=case_study(system_name)))
        print(result.summary())


if __name__ == "__main__":
    main()
