"""Score the regressor against a linear proportional hazards baseline.

The generator's log survival time is a nonlinear function of twenty
covariates with interactions, so a linear Cox model is misspecified.  The
comparison uses the time-dependent concordance index (higher is better) and
the censoring-weighted Brier score (lower is better), both per horizon.
"""

import numpy as np

import pseudosurv as ps

data = ps.gen_friedman_aft(ps.FriedmanSpec(n=1500, censoring_rate=0.4, seed=12))
train_data, test_data = ps.split_dataset(data, 0.75, seed=12)
grid = ps.make_grid(train_data, percentiles=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6])

table = ps.pseudo_conditional(train_data, grid)
config = ps.MlpConfig(hidden_layers=(64, 32), activation="relu",
                      regularization=("ridge", 1e-3), learning_rate=0.005,
                      optimizer="adam", epochs=100, batch_size=256, seed=4)
model = ps.train(table, config)

cox = ps.fit_cox(train_data, target="event")

pred_net = ps.predict_survival(model, test_data.covariates, grid.cutpoints)
pred_cox = ps.cox_predict_survival(cox, test_data.covariates, grid.cutpoints)

report_net = ps.evaluate_predictions(test_data, pred_net, grid.cutpoints)
report_cox = ps.evaluate_predictions(test_data, pred_cox, grid.cutpoints)

print("horizon   c-index(net)  c-index(cox)   brier(net)  brier(cox)")
for h, t in enumerate(grid.cutpoints):
    print(f"{t:7.2f}   {report_net.c_index[h]:12.3f}  {report_cox.c_index[h]:12.3f}"
          f"   {report_net.brier[h]:10.3f}  {report_cox.brier[h]:10.3f}")

print()
print(f"mean c-index: net {np.nanmean(report_net.c_index):.3f}, "
      f"cox {np.nanmean(report_cox.c_index):.3f}")
print(f"mean brier:   net {np.mean(report_net.brier):.3f}, "
      f"cox {np.mean(report_cox.brier):.3f}")
