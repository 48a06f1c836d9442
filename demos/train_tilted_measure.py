"""Train a measure over network weights by solving the tilt fixed point.

A two-parameter tanh unit is fit to eight noisy points.  The trained
object is a probability measure on the weight box, found as the fixed
point of the exponential-tilt map; for a network the solver runs
Newton's method on the eight predictions and converges in a few steps,
falling back to damped tilt iteration only if a step does not help.
The script shows the things worth
watching during a solve: the residual dropping below tolerance, the
variational objective at the solution beating both the prior and a
crude competitor, and the moment bound that keeps the solution inside
the well-behaved region of the box.
"""

import numpy as np

from gibbslab import (GibbsConfig, GridMeasure, NNLoss, Regularizer,
                      empirical_from_arrays, objective, prior_moment_bound,
                      risk, solve_gibbs)


def main():
    rng = np.random.default_rng(7)
    xs = rng.standard_normal((8, 1))
    ys = np.tanh(1.3 * xs[:, 0]) + 0.1 * rng.standard_normal(8)
    nu = empirical_from_arrays(xs, ys)

    model = NNLoss("tanh", "quadratic")
    cfg = GibbsConfig(beta=2.0, sigma=1.0, p=4,
                      regularizer=Regularizer(kappa=0.05, q=3),
                      theta_dim=2, nodes_per_axis=65)
    print(f"temperature tau = {cfg.temperature:.3f}, "
          f"box radius = {cfg.box_radius():.3f}")

    sol = solve_gibbs(model, nu, cfg, damping=0.5, tol=1e-9)
    print(f"converged in {sol.iterations} iterations, "
          f"residual {sol.residual:.2e}")

    pair = cfg.priors()
    nodes, vols = cfg.grid()
    bump = GridMeasure(nodes, vols,
                       pair.gamma_sigma.density
                       * np.exp(-np.sum((nodes - (0.9, 1.1)) ** 2, axis=1)),
                       normalize=True)
    for label, m in (("solution", sol.measure),
                     ("prior", pair.gamma_sigma),
                     ("shifted prior", bump)):
        print(f"  objective({label:>13s}) = "
              f"{objective(model, m, nu, cfg):.6f}"
              f"   empirical risk = {risk(model, m, nu):.6f}")

    mom = sol.measure.moment(cfg.p)
    bound = prior_moment_bound(model, nu, cfg)
    print(f"p-th moment of the solution {mom:.4f} <= a-priori bound "
          f"{bound:.4f}")

    # The weight mean is identically zero -- the unit is invariant under
    # jointly flipping the signs of (a, w) -- so read out predictions.
    print("predictions of the trained measure:")
    for x in (-1.0, 0.0, 1.0):
        pred = model.predict(sol.measure, [[x]])[0]
        print(f"  x = {x:+.1f}: predicted {pred:+.4f}"
              f"   target {np.tanh(1.3 * x):+.4f}")


if __name__ == "__main__":
    main()
