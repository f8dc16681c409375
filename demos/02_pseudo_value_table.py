"""From censored follow-up times to a regression table.

Each subject's observed time is replaced by one jackknife pseudo conditional
survival probability per interval it was at risk for: a quantitative response
a standard regressor can be trained on.  Without censoring the pseudo values
are exactly the 0/1 survival indicators; with censoring they are real numbers
that can stray outside [0, 1].
"""

import numpy as np

import pseudosurv as ps

rng = np.random.default_rng(0)
n = 12
times = np.round(rng.exponential(14.0, n) + 1.0, 1)
events = rng.random(n) < 0.7
covs = np.round(rng.normal(4.0, 2.0, (n, 1)), 1)
data = ps.Dataset(times, events, covs, ("z_1",))

grid = ps.make_grid(data, times=[6.0, 12.0, 18.0])
table = ps.pseudo_conditional(data, grid)

print("follow-up data:")
for i, (t, event, z) in enumerate(zip(data.time, data.event, data.covariates)):
    flag = "event" if event else "censored"
    print(f"  subject {i}: t={t:5.1f} {flag:9s} z={z[0]:+.1f}")

print()
print("pseudo conditional survival probabilities (rows end when a subject")
print("leaves the risk set):")
print()
print("id    z_1   d_0 d_6 d_12   pseudo")
# a row names its subject; the covariates stay in the dataset, one row per subject
rows = zip(table.subject_ids, data.covariates[table.subject_ids], table.time_indicators,
           table.pseudo)
for subject, z, indicator, value in rows:
    d = " ".join(str(int(v)) for v in indicator)
    print(f"{subject:2d}  {z[0]:+5.1f}   {d}   {value:+7.3f}")

outside = np.sum((table.pseudo < 0) | (table.pseudo > 1))
print()
print(f"{outside} of {len(table)} pseudo values fall outside [0, 1]; that is")
print("expected under censoring and harmless for squared-error training.")

# on uncensored data the same construction returns indicators exactly
uncensored = ps.Dataset(times, np.ones(n, dtype=bool), covs, ("z_1",))
flat = ps.pseudo_conditional(uncensored, ps.make_grid(uncensored, times=[6.0, 12.0]))
assert set(np.unique(flat.pseudo)) <= {0.0, 1.0}
print("uncensored check: every pseudo value is exactly 0 or 1.")
