"""
Belief-space measures: occupation, transport distance, invariance
=================================================================

Stage weights spread mass over the beliefs a strategy visits.  The resulting
occupation measures live in a metric space (optimal transport with the L1
ground distance), and patient weight profiles drive them toward measures
that are invariant under a stationary strategy.
"""

import numpy as np

import pomdp_evals as pe

SM = pe.SupportedMeasure

# ---------------------------------------------------------------------------
# Occupation measures weight visited beliefs by the stage weights.
# ---------------------------------------------------------------------------

sc = pe.builtin_scenario("matching-revealed")
p, x1 = sc.pomdp, sc.initial_belief
res = pe.occupation_measure(p, x1, pe.uniform_strategy(2),
                            pe.make_evaluation("n_stage", n=2), horizon=2)
print("occupation measure of the revealed matching game (2-stage weights)")
for x, w in res.measure.atoms:
    print(f"  belief {np.round(x, 2)} carries mass {w:.2f}")

# ---------------------------------------------------------------------------
# Transport distance: how far apart are two belief measures?
# ---------------------------------------------------------------------------

uniform = SM.dirac([0.5, 0.5])
split = SM.from_pairs([(np.array([1.0, 0.0]), 0.5), (np.array([0.0, 1.0]), 0.5)])
print("\ntransport distances (L1 ground metric)")
print(f"  point mass at the center vs its revealed split: "
      f"{pe.kr_distance(uniform, split):.3f}")
print(f"  the two extreme point masses: "
      f"{pe.kr_distance(SM.dirac([1.0, 0.0]), SM.dirac([0.0, 1.0])):.3f}")

# ---------------------------------------------------------------------------
# Invariance: a measure is invariant when its one-step image under a
# stationary strategy is itself.  The residual is the transport distance
# between the measure and its image.
# ---------------------------------------------------------------------------

sc = pe.builtin_scenario("uniform-redraw")
stat = pe.StationaryStrategy(2, [np.array([0.5, 0.5])], [np.array([0.5, 0.5])])
r = pe.invariance_residual(sc.pomdp, uniform, stat)
print(f"\nredraw chain: residual of the central point mass = {r:.2e}")

# a revealing-signal chain pushes the central mass onto the corners instead
sc = pe.builtin_scenario("matching-revealed")
stat = pe.StationaryStrategy(2, [np.array([0.5, 0.5])], [np.array([1.0, 0.0])])
r = pe.invariance_residual(sc.pomdp, uniform, stat)
print(f"revealed matching: residual of the central point mass = {r:.3f}")

# stationary laws of fully observed chains give invariant corner measures
scn = pe.observed_random_chain(seed=1)
p = scn.pomdp
from pomdp_evals.chain import ergodic_decomposition, product_chain

dec = ergodic_decomposition(
    product_chain(p, pe.always_strategy(p.n_actions, p.n_signals, 0),
                  scn.initial_belief))
pi = np.zeros(p.n_states)
for idx, w in zip(dec.classes[0], dec.stationary[0]):
    pi[idx] += w
mu = SM.from_pairs([(pe.dirac_belief(p.n_states, k), pi[k])
                    for k in range(p.n_states)])
push = pe.StationaryStrategy(p.n_actions, [a for a, _ in mu.atoms],
                             [np.array([1.0])] * mu.n_atoms)
print(f"seeded observed chain: stationary corner measure residual = "
      f"{pe.invariance_residual(p, mu, push):.2e}")

# ---------------------------------------------------------------------------
# Disintegration: grouping the weighted history tree by end-belief induces
# the stationary strategy that replays the average action at each belief.
# ---------------------------------------------------------------------------

sc = pe.builtin_scenario("matching-revealed")
p, x1 = sc.pomdp, sc.initial_belief
table, induced = pe.disintegrate(p, x1, pe.uniform_strategy(2),
                                 pe.make_evaluation("n_stage", n=2), horizon=2)
print("\ninduced stationary strategy of the uniform play")
beliefs = np.array(list(table.beliefs.values()))
for x, row in zip(beliefs, induced.at_beliefs(beliefs)):
    print(f"  at belief {np.round(x, 2)} play {np.round(row, 2)}")
