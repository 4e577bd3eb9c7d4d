"""Actuator placement and approximate controllability on (0, 1).

Compares three lumped actuators: rational endpoints blocking a residue class
of modes, the half interval with its modulus-4 blocked set, and an actuator
with an irrational endpoint combination that blocks nothing. Distributed
(space-and-time) control is controllable for every interval, shown last.
"""

from expseries.heat import (
    Actuator,
    blocked_set,
    coupling_coefficient,
    distributed_controllability,
)


def show(act: Actuator, j_max: int = 20) -> None:
    report = blocked_set(act, j_max)
    print(f"\n{act.describe()}  ->  {report.verdict}")
    print(f"  blocked modes up to {j_max}: {list(report.blocked_prefix) or 'none'}")
    if report.moduli:
        rules = " or ".join(f"j = 0 (mod {m})" for m in report.moduli)
        print(f"  exact characterization: blocked iff {rules}")
        print(f"  controllable subspace: {report.subspace}")
    for j in range(1, 7):
        print(f"    overlap with mode {j}: {coupling_coefficient(act, j):+.6f}")


def main() -> None:
    print("Lumped (time-only) control: controllability = no vanishing overlaps")
    show(Actuator.from_strings("0", "1/2"))
    show(Actuator.from_strings("3/10", "7/10"))
    show(Actuator.from_strings("0", "1/2+1/1000*sqrt2"))

    print("\nDistributed control: any interval of positive length works")
    report = distributed_controllability(Actuator.from_strings("0", "1/2"))
    print(f"omega=(0, 1/2) distributed -> {report.verdict}")
    print("(the same interval is NOT controllable with lumped control: mode 4 is blind)")


if __name__ == "__main__":
    main()
