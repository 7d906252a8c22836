"""Does the 95% interval actually cover 95% of the time?

Monte Carlo check of the delta-method CI: draw tangent-Gaussian samples
around a fixed direction, build the interval in each replication, and count
how often it covers the population dispersion measured by one large oracle
run. Everything is seeded, so the numbers reproduce exactly.

The full-size calibration (1000 replications, 1e6 oracle draws) runs inside
the acceptance suite; this demo uses a lighter setting to stay snappy. It
checks each hit rate against the acceptance band, 0.93 to 0.97, and exits
non-zero if one falls outside.
"""

import sys

from opshape.pipeline import run_monte_carlo

NOMINAL, LOW, HIGH = 0.95, 0.93, 0.97  # the acceptance band, nominal +-2%

outside = []
for sigma in (0.05, 0.1, 0.2):
    r = run_monte_carlo(sigma=sigma, n=200, reps=400, seed=0, oracle_draws=200_000)
    inside = LOW <= r["coverage"] <= HIGH
    if not inside:
        outside.append(sigma)
    print(
        f"sigma={sigma:4.2f}: oracle tS={r['oracle_total_variance']:.5f}  "
        f"coverage={r['coverage']:.3f} ({r['hits']}/{r['reps']})  "
        f"mean se={r['mean_se']:.2e}  "
        f"{'inside' if inside else 'OUTSIDE'} [{LOW:.2f}, {HIGH:.2f}]"
    )

if outside:
    sys.exit(f"\nhit rates outside the band [{LOW:.2f}, {HIGH:.2f}] at sigma {outside}")
print(
    f"\nNominal level is {NOMINAL:.2f}; every hit rate sits inside the "
    f"acceptance band [{LOW:.2f}, {HIGH:.2f}]."
)
