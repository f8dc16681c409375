"""Train the pseudo-value regressor and read off survival curves.

Pipeline on a nonlinear simulated cohort: split, build the pseudo-value
table, pick hyperparameters by subject-level cross-validation, retrain, and
predict conditional and marginal survival for a few held-out subjects.
"""

import numpy as np

import pseudosurv as ps

data = ps.gen_friedman_aft(ps.FriedmanSpec(n=1200, censoring_rate=0.4, seed=9))
train_data, test_data = ps.split_dataset(data, 0.75, seed=9)
print(f"train n={len(train_data)}, test n={len(test_data)}")

grid = ps.make_grid(train_data, percentiles=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
print("interval cutpoints:", np.round(grid.cutpoints, 2))

table = ps.pseudo_conditional(train_data, grid)
print(f"pseudo table: {len(table)} rows from {len(train_data)} subjects")

search_space = [
    ps.MlpConfig(hidden_layers=h, activation=a, regularization=("ridge", 1e-3),
                 learning_rate=0.01, optimizer="adam", epochs=100, batch_size=256)
    for h in ((32,), (64,)) for a in ("relu", "tanh")
]
best, model = ps.grid_search(
    table, train_data, search_space, k=5, eval_times=grid, budget=4, seed=3
)
print(f"selected: hidden={best.hidden_layers} activation={best.activation} "
      f"lr={best.learning_rate} {best.regularization[0]}={best.regularization[1]}")
print(f"final training loss: {model.training_log[-1]:.4f}")

print()
print("predicted survival for three held-out subjects:")
header = "subject  " + "  ".join(f"S(t>{c:6.2f})" for c in grid.cutpoints)
print(header)
marginal = ps.predict_marginal_matrix(model, test_data.covariates[:3])
for i in range(3):
    cells = "  ".join(f"{v:9.3f}" for v in marginal[i])
    print(f"{i:7d}  {cells}")

curve = ps.predict_survival_curve(model, test_data.covariates[0])
t_half = float(grid.cutpoints[-1]) * 0.5
print()
print(f"subject 0 as a step curve: S({t_half:.2f}) = {curve.at(t_half):.3f}")
