"""
Monte Carlo check of the knot selector
======================================

Reruns a slice of the simulation study behind the library: data drawn
from cubic B-spline truths on [0, 100] at several signal-to-noise
ratios, the selector run on every replication, and the proportion of
correct knot counts tabulated together with the location statistics of
the selected knots (conditional on getting the count right).

At 50 replications per cell this takes well under a minute; crank
REPLICATIONS up for smoother numbers.

Run:  python3 gallery/simulation_tables.py
"""

from knotselect.sim import SimScenario, TRUTHS, format_table, run

REPLICATIONS = 50
SEED = 2024

for truth_name, knots in TRUTHS.items():
    print(f"\n=== truth: {truth_name} at {knots} ===")
    reports = []
    for snr in (3.0, 6.0, 9.0):
        scenario = SimScenario(
            truth_knots=knots,
            snr=snr,
            n=100,
            replications=REPLICATIONS,
            seed=SEED,
            name=f"{truth_name}-snr{snr:g}-n100",
        )
        reports.append(run(scenario))
    print(format_table(reports))

print(
    "\nreading the table: '% correct' is the share of replications whose"
    "\nselected knot count equals the truth; the location rows summarize"
    "\nthe selected knot positions over exactly those replications."
)
